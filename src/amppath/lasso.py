"""Reference LASSO solver and optimality certificate.

Solves min_x 0.5 ||y - A x||_2^2 + lam ||x||_1 by accelerated proximal
gradient with step 1/L (L the squared top singular value, from power
iteration) and restart-on-increase, which keeps the objective monotone up
to rounding; a plain step that still raises it halves the step.
The KKT residual certifies the answer: with g = A^T (y - A x), optimality
means g_i = lam * sign(x_i) on the support and |g_i| <= lam off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RangeError
from .instances import ProblemInstance

_POWER_RTOL = 1e-10
_POWER_MAX_ITER = 1000


@dataclass(frozen=True)
class LassoResult:
    x_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def power_iteration_sq_norm(A: np.ndarray) -> float:
    """Largest squared singular value of A by power iteration on A^T A.

    Stops when the eigenvalue estimate changes by less than _POWER_RTOL
    relative, or after _POWER_MAX_ITER products.
    """
    v = np.ones(A.shape[1]) / math.sqrt(A.shape[1])
    value = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = A.T @ (A @ v)
        new_value = float(np.linalg.norm(w))
        if new_value == 0.0:
            if not A.any():
                return 0.0
            # v lies in the null space of A; the largest-norm row of A does not
            v = A[np.argmax(np.linalg.norm(A, axis=1))]
            v = v / np.linalg.norm(v)
            continue
        v = w / new_value
        if abs(new_value - value) <= _POWER_RTOL * new_value:
            return new_value
        value = new_value
    return value


def _objective(r: np.ndarray, x: np.ndarray, lam: float) -> float:
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def _kkt_violation(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    # the violation kkt_residual documents, from a gradient g = A^T (y - A x)
    # the caller already holds
    on = x != 0.0
    viol_on = np.max(np.abs(g[on] - lam * np.sign(x[on]))) if np.any(on) else 0.0
    viol_off = np.max(np.maximum(np.abs(g[~on]) - lam, 0.0)) if np.any(~on) else 0.0
    return float(max(viol_on, viol_off)) / lam


def kkt_residual(instance: ProblemInstance, lam: float, x_hat: np.ndarray) -> float:
    """Normalized violation of the subgradient optimality conditions.

    max over the support of |g_i - lam*sign(x_i)| and over the rest of
    (|g_i| - lam)_+, divided by lam.  Zero exactly at a minimizer.
    """
    if not 0.0 < lam < math.inf:
        raise RangeError(f"lambda must be finite and > 0 for the KKT certificate, got {lam}")
    return _kkt_violation(instance.A.T @ (instance.y - instance.A @ x_hat), x_hat, lam)


def lasso_solve(
    instance: ProblemInstance,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 5000,
    lipschitz: float | None = None,
    kkt_every: int = 10,
) -> LassoResult:
    """Accelerated proximal gradient for the LASSO at one lambda.

    Terminates when the KKT residual drops to tol (checked every
    kkt_every iterations) or at max_iter; non-convergence is reported via
    the flag, never an exception.  Pass a precomputed ``lipschitz``
    (squared top singular value) to amortize it across many lambdas.
    For lam = 0 the minimizer may be non-unique in the undersampled
    regime; the stopping rule then uses the plain gradient sup-norm.
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0, got {lam}")
    if kkt_every < 1:
        raise RangeError(f"kkt_every must be >= 1, got {kkt_every}")
    if lipschitz is not None and not 0.0 < lipschitz < math.inf:
        raise RangeError(f"lipschitz must be finite and > 0, got {lipschitz}")
    A, y = instance.A, instance.y
    L = power_iteration_sq_norm(A) if lipschitz is None else float(lipschitz)
    if L <= 0.0:
        x = np.zeros(A.shape[1])
        return LassoResult(x, _objective(y, x, lam), 0.0, 0, True)
    step = 1.0 / L

    x = np.zeros(A.shape[1])
    v = x
    t_momentum = 1.0
    r = A @ x - y
    obj = _objective(r, x, lam)
    residual = math.inf
    iterations = 0
    converged = False
    rounding = 8.0 * float(np.finfo(float).eps)  # relative noise of obj, never a rise

    for k in range(1, max_iter + 1):
        iterations = k
        grad_v = A.T @ (A @ v - y)
        x_new = v - step * grad_v
        x_new = np.sign(x_new) * np.maximum(np.abs(x_new) - step * lam, 0.0)
        r_new = A @ x_new - y
        obj_new = _objective(r_new, x_new, lam)

        if obj_new > obj + rounding * abs(obj):
            # restart: drop momentum, retake a plain descent step from x; a
            # plain step (no momentum) that rises overshoots 1/L, so back off
            if t_momentum == 1.0:
                step *= 0.5
            v = x
            t_momentum = 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            v = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            x, r, obj, t_momentum = x_new, r_new, obj_new, t_next

        if k % kkt_every == 0 or k == max_iter:
            g = A.T @ (-r)
            residual = _kkt_violation(g, x, lam) if lam > 0.0 else float(np.max(np.abs(g)))
            if residual <= tol:
                converged = True
                break

    return LassoResult(
        x_hat=x,
        objective=obj,
        kkt_residual=residual,
        iterations=iterations,
        converged=converged,
    )
