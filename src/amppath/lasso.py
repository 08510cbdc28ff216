"""Reference LASSO solver and optimality certificate.

Solves min_x 0.5 ||y - A x||_2^2 + lam ||x||_1 by accelerated proximal
gradient with an adaptive step and one restart rule.  The first step is
1/rho, rho = ||A g0||^2 / ||g0||^2 the Rayleigh quotient of A^T A along
the first gradient g0: one product, and rho <= L, the squared top
singular value, so it is never shorter than 1/L.  Each step from v to
x_new is then tested against the quadratic upper bound of the smooth
part, in the cancellation-free form
step * ||A (x_new - v)||^2 <= ||x_new - v||^2 (Beck and Teboulle 2009).
A step that fails it is rejected and the step halved; one that passes is
accepted and the step grows by _STEP_GROWTH (Scheinberg, Goldfarb and Bai
2014).  An accepted step moves on to v = x_new + m (x_new - x) with the
full momentum m = 1, not a Nesterov t-sequence: greedy FISTA (Liang, Luo
and Schoenlieb, SIAM J. Sci. Comput. 2022).  m is 0 when the step from v
turned against the last move, (v - x_new) . (x_new - x) > 0 (gradient
restart, O'Donoghue and Candes 2015); that guard keeps full momentum in
check, though the objective need not fall on every step.  Each step makes
one pass over A: _residual_and_gradient walks A in row blocks that stay
in cache between A_b x and A_b^T r_b, and gives r = A x_new - y and the
gradient A^T r together.  Both are linear in x, so at v they are carried
as r_new + m (r_new - r), and so on, instead of being recomputed.  The
KKT residual certifies the answer: with g = A^T (y - A x), optimality
means g_i = lam * sign(x_i) on the support and |g_i| <= lam off it.  The
solver is one loop whose head checks it, on the gradient it carries,
which is the certificate's own bit for bit: at x = 0 before the first
step, every _KKT_EVERY steps and at max_iter.  That check alone ends the
solve, and the steps taken before it are the iterations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RangeError
from .instances import ProblemInstance

_POWER_RTOL = 1e-10
_LANCZOS_MAX_ITER = 300
_LANCZOS_CHECK_EVERY = 4
_KKT_EVERY = 10
_STEP_GROWTH = 1.05
# bytes of A per row block of _residual_and_gradient: small enough that a
# block read by A_b x is still in L2 when A_b^T r_b reads it again
_BLOCK_BYTES = 768 * 1024


@dataclass(frozen=True)
class LassoResult:
    x_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def power_iteration_sq_norm(A: np.ndarray) -> float:
    """Largest squared singular value of A, by the Lanczos method on A^T A.

    The plain three-term recurrence from q = ones/sqrt(N), with no stored
    basis: each step makes A^T (A q) in one pass over A, and the estimate
    is the top eigenvalue theta of the tridiagonal matrix T the recurrence
    builds.  It stops when the residual bound beta * |s_k| (s_k the last
    entry of theta's eigenvector of T) is at most _POWER_RTOL * theta,
    tested every _LANCZOS_CHECK_EVERY steps and whenever beta breaks down,
    or after _LANCZOS_MAX_ITER steps.  Ritz values interlace, so theta
    approaches the true value from below.  An all-zero A gives 0.0; a start
    vector in the null space of A restarts once from the largest-norm row.
    Raises RangeError when the estimate is not finite (NaN or inf in A).
    The name predates the method and is kept as public API; lasso_solve no
    longer calls it, and takes its first step from a Rayleigh quotient.
    """
    theta = _lanczos_top_eigenvalue(A, np.ones(A.shape[1]) / math.sqrt(A.shape[1]))
    if theta == 0.0:
        if not A.any():
            return 0.0
        # the start lies in the null space of A; the largest-norm row does not
        row = A[np.argmax(np.linalg.norm(A, axis=1))]
        theta = _lanczos_top_eigenvalue(A, row / np.linalg.norm(row))
    return theta


def _lanczos_top_eigenvalue(A: np.ndarray, q: np.ndarray) -> float:
    # Lanczos on A^T A from the unit vector q; see power_iteration_sq_norm
    zero = np.zeros(A.shape[0])
    q_prev = np.zeros_like(q)
    alphas: list[float] = []
    betas: list[float] = []
    beta = theta = 0.0
    for k in range(1, _LANCZOS_MAX_ITER + 1):
        w = _residual_and_gradient(A, q, zero)[1]
        alpha = float(q @ w)
        w -= alpha * q + beta * q_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        # theta, the last top Ritz value or any diagonal entry of T, bounds
        # the current one from below, so a beta this small (or 0, or NaN)
        # passes the test below: q = w / beta never divides by a breakdown
        theta = max(theta, alpha)
        if k % _LANCZOS_CHECK_EVERY == 0 or k == _LANCZOS_MAX_ITER or not beta > _POWER_RTOL * theta:
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            eigenvalues, eigenvectors = np.linalg.eigh(T)
            theta = float(eigenvalues[-1])
            if not math.isfinite(theta):
                raise RangeError(f"top singular value estimate is not finite ({theta}): A holds NaN or inf")
            if beta * abs(eigenvectors[-1, -1]) <= _POWER_RTOL * theta:
                return theta
        betas.append(beta)
        q_prev, q = q, w / beta
    return theta


def _residual_and_gradient(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # r = A x - y and g = A^T r in one pass over A: each block of rows is
    # read by A_b x and again, still in cache, by A_b^T r_b; the blocks'
    # shares of g are summed at the end
    n, N = A.shape
    rows = max(1, _BLOCK_BYTES // (8 * max(N, 1)))
    r = np.empty(n)
    shares = np.empty((-(-n // rows), N))
    for b, start in enumerate(range(0, n, rows)):
        A_b, r_b = A[start : start + rows], r[start : start + rows]
        np.matmul(A_b, x, out=r_b)
        r_b -= y[start : start + rows]
        np.matmul(A_b.T, r_b, out=shares[b])
    return r, shares.sum(axis=0)


def _objective(r: np.ndarray, x: np.ndarray, lam: float) -> float:
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def _kkt_violation(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    # the violation kkt_residual documents, from a gradient g = A^T (y - A x)
    # the caller already holds
    on = x != 0.0
    viol_on = np.max(np.abs(g[on] - lam * np.sign(x[on]))) if np.any(on) else 0.0
    viol_off = np.max(np.maximum(np.abs(g[~on]) - lam, 0.0)) if np.any(~on) else 0.0
    # at lam = 0 there is no scale to divide by: the violation is max |g_i|
    return float(max(viol_on, viol_off)) / (lam if lam > 0.0 else 1.0)


def kkt_residual(instance: ProblemInstance, lam: float, x_hat: np.ndarray) -> float:
    """Normalized violation of the subgradient optimality conditions.

    max over the support of |g_i - lam*sign(x_i)| and over the rest of
    (|g_i| - lam)_+, divided by lam (undivided at lam = 0, where it is
    max |g_i|).  Zero exactly at a minimizer.
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0 for the KKT certificate, got {lam}")
    # -g is A^T (y - A x) bit for bit (negation is exact), from the same
    # kernel as the solver's gradient, so the two certificates agree exactly
    return _kkt_violation(-_residual_and_gradient(instance.A, x_hat, instance.y)[1], x_hat, lam)


def lasso_solve(
    instance: ProblemInstance,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 5000,
    lipschitz: float | None = None,
) -> LassoResult:
    """Accelerated proximal gradient for the LASSO at one lambda.

    Terminates when the KKT residual of ``kkt_residual`` drops to tol
    (checked at x = 0, where it can end the solve after 0 iterations, then
    every _KKT_EVERY iterations and on the last) or at max_iter;
    non-convergence is reported via the flag, never an exception.  NaN or
    inf in A or y raises RangeError before the first step.  ``lipschitz``
    overrides the first step, 1/rho, with 1/lipschitz; an estimate off in
    either direction costs iterations, not accuracy.  For lam = 0 the
    minimizer may be non-unique in the undersampled regime; the residual
    is then the gradient sup-norm.
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0, got {lam}")
    if not 0.0 <= tol < math.inf:
        raise RangeError(f"tol must be finite and >= 0, got {tol}")
    if max_iter < 1:
        raise RangeError(f"max_iter must be >= 1, got {max_iter}")
    if lipschitz is not None and not 0.0 < lipschitz < math.inf:
        raise RangeError(f"lipschitz must be finite and > 0, got {lipschitz}")
    A, y = instance.A, instance.y
    x = np.zeros(A.shape[1])
    r, g = _residual_and_gradient(A, x, y)  # g: gradient of the smooth part at x
    # NaN or inf in A or y reaches the gradient at x = 0; caught here, it
    # cannot run the loop to its cap on NaN iterates
    if not np.isfinite(g).all():
        raise RangeError("gradient at x = 0 is not finite: A or y holds NaN or inf")
    step = None if lipschitz is None else 1.0 / lipschitz
    v, grad_v, r_v = x, g, r

    for k in range(max_iter + 1):
        if k % _KKT_EVERY == 0 or k == max_iter:
            # -g is A^T (y - A x) bit for bit: negation is exact
            residual = _kkt_violation(-g, x, lam)
            if residual <= tol or k == max_iter:
                break
        if step is None:
            # the first step, 1/rho from the curvature along g0, scaled so
            # that a tiny g0 cannot underflow: g0 != 0 lies in range(A^T),
            # so A g0 != 0 and the quotient is > 0
            u = g / np.max(np.abs(g))
            a_u = A @ u
            step = float(u @ u) / float(a_u @ a_u)

        x_new = v - step * grad_v
        # soft threshold: u - clip(u, -t, t) is sign(u) * max(|u| - t, 0)
        x_new -= x_new.clip(-step * lam, step * lam)
        r_new, g_new = _residual_and_gradient(A, x_new, y)
        d_r, d_x = r_new - r_v, x_new - v

        if step * float(d_r @ d_r) > float(d_x @ d_x):
            # the curvature of the step, |A d|^2 / |d|^2, exceeds 1/step: the
            # quadratic model no longer bounds the objective, so halve and
            # retry from v
            step *= 0.5
        else:
            d_step = x_new - x
            # full momentum, unless the step from v turned against the last
            # move, (v - x_new) . (x_new - x) > 0: then gradient restart,
            # and x_new + 0 d is x_new
            m = 0.0 if float(d_x @ d_step) < 0.0 else 1.0
            v = x_new + m * d_step
            grad_v = g_new + m * (g_new - g)
            r_v = r_new + m * (r_new - r)
            x, g, r = x_new, g_new, r_new
            step *= _STEP_GROWTH

    return LassoResult(x, _objective(r, x, lam), residual, k, residual <= tol)
