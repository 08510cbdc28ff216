"""AMP iteration with pluggable threshold policies (see ``policies``).

The update is

    z_t     = y - A x_t + (|support of x_t| / n) * z_{t-1}
    x_{t+1} = eta(x_t + A^T z_t; tau_t)

with x_0 = 0 and z_{-1} = 0 (so z_0 = y).  The memory coefficient on
z_{t-1} is always the exact nonzero count of the current x_t divided by n.
The correction keeps the effective noise v_t = x_t + A^T z_t - x_o close
to Gaussian, which the trace quantifies per iteration (excess kurtosis
and Kolmogorov-Smirnov distance to the best-fit normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .exceptions import Divergence, RangeError
from .instances import ProblemInstance
from .policies import ThresholdPolicy
# re-exported because benchmark/tracer.py times amppath.amp.fixed_detection_tau
from .policies import fixed_detection_tau  # noqa: F401

_GAUSSIANITY_MIN_SAMPLES = 100
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class AmpState:
    """Final iterate: x is the estimate after the last update, z the
    residual it was computed from, tau the last threshold used, and
    stop_reason "converged" (the relative change fell below conv_tol) or
    "max_iter" (the cap was reached first)."""

    t: int
    x: np.ndarray
    z: np.ndarray
    tau: float
    active_count: int
    stop_reason: str


@dataclass(frozen=True)
class AmpTrace:
    """Row t describes iteration t: the threshold tau_t applied to
    x_t + A^T z_t, the support size and MSE of the resulting x_{t+1},
    the residual scale ||z_t||/sqrt(n), and Gaussianity diagnostics of
    v_t = x_t + A^T z_t - x_o (NaN when N < 100, too few samples)."""

    t: np.ndarray
    tau: np.ndarray
    active_count: np.ndarray
    residual_norm: np.ndarray
    mse: np.ndarray
    kurtosis: np.ndarray
    ks: np.ndarray

    def __len__(self):
        return len(self.t)


def gaussianity_stats(v: np.ndarray) -> tuple[float, float]:
    """(excess kurtosis, KS distance to the fitted normal) of a sample.

    These are the values of scipy.stats.kurtosis(v, fisher=True, bias=True)
    and kstest(v, "norm", args=(mean, std)).statistic, bit for bit.
    Returns (nan, nan) for a degenerate (zero-variance) sample.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size < _GAUSSIANITY_MIN_SAMPLES:
        raise RangeError(f"need at least {_GAUSSIANITY_MIN_SAMPLES} samples, got {v.size}")
    mean = float(np.mean(v))
    std = float(np.std(v))
    if std == 0.0 or not math.isfinite(std):
        return (math.nan, math.nan)
    d2 = (v - mean) ** 2
    m2 = np.mean(d2)
    # as in scipy, a variance lost in the rounding of the mean has no kurtosis
    kurt = math.nan if m2 <= (_EPS * mean) ** 2 else float(np.mean(d2**2) / m2**2.0 - 3.0)
    # largest gap between the empirical CDF's steps i/n and the fitted CDF
    cdf = ndtr((np.sort(v) - mean) / std)
    steps = np.arange(v.size + 1) / v.size
    ks = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
    return (kurt, ks)


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float vector: the same sqrt(v . v) that
    np.linalg.norm computes, bit for bit, without its argument handling."""
    return math.sqrt(v.dot(v))


def amp_run(
    instance: ProblemInstance,
    policy: ThresholdPolicy,
    max_iter: int = 500,
    conv_tol: float = 1e-10,
    trace: bool = True,
) -> tuple[AmpState, AmpTrace | None]:
    """Run AMP until the iterate stalls or max_iter is reached.

    Convergence is relative iterate change ||x_{t+1} - x_t|| / max(||x_t||,
    1e-12) < conv_tol.  Raises Divergence when ||x_{t+1}|| exceeds
    1e12 ||y|| or is not finite (e.g. detection target above the phase
    transition, or NaN in the data); RangeError when that bound overflows.

    With trace=False no per-iteration rows are computed and the trace
    returned is None; the final state is the same bit for bit.  A trace
    always carries the Gaussianity diagnostics, except below N = 100
    coordinates, where they stay NaN: the statistics need 100 samples.
    """
    if max_iter < 1:
        raise RangeError(f"max_iter must be >= 1, got {max_iter}")
    A, y, x_o = instance.A, instance.y, instance.x_o
    At = A.T
    n, N = A.shape
    sqrt_n = math.sqrt(n)
    with np.errstate(over="ignore"):
        limit = 1e12 * max(float(np.linalg.norm(y)), 1.0)
    if limit == math.inf:
        raise RangeError("data too large: the divergence bound 1e12 ||y|| overflows")
    rows = []

    # every vector lives in a buffer allocated once; x/x_new and z/z_prev
    # swap roles after each iteration
    x, x_new, u, mag = np.zeros(N), np.empty(N), np.empty(N), np.empty(N)
    z, z_prev, Ax = np.empty(n), np.zeros(n), np.empty(n)
    active = 0  # nonzero count of x, carried from the previous iteration
    x_norm = 0.0  # ||x||, carried likewise
    tau = 0.0
    stop_reason = "max_iter"
    for t in range(max_iter):
        # z = y - A x + (active / n) z_prev
        np.matmul(A, x, out=Ax)
        np.subtract(y, Ax, out=z)
        np.multiply(z_prev, active / n, out=Ax)
        np.add(z, Ax, out=z)
        # u = x + A^T z
        np.matmul(At, z, out=u)
        np.add(x, u, out=u)
        tau = policy.amp_tau(u, z, n)
        # x_new = sign(u) * max(|u| - tau, 0)
        np.abs(u, out=mag)
        np.subtract(mag, tau, out=mag)
        np.maximum(mag, 0.0, out=mag)
        np.sign(u, out=x_new)
        np.multiply(x_new, mag, out=x_new)

        new_norm = _norm(x_new)
        if not new_norm <= limit:
            raise Divergence(f"iterate blew up at t={t}")
        new_active = int(np.count_nonzero(x_new))

        if trace:
            kurt, ks = math.nan, math.nan
            if N >= _GAUSSIANITY_MIN_SAMPLES:
                kurt, ks = gaussianity_stats(u - x_o)
            mse = float(np.mean((x_new - x_o) ** 2))
            rows.append((t, tau, new_active, _norm(z) / sqrt_n, mse, kurt, ks))

        np.subtract(x_new, x, out=mag)
        step = _norm(mag)
        denom = max(x_norm, 1e-12)
        x, x_new = x_new, x
        z, z_prev = z_prev, z
        active, x_norm = new_active, new_norm
        if step / denom < conv_tol:
            stop_reason = "converged"
            break

    state = AmpState(
        t=t + 1, x=x, z=z_prev, tau=tau, active_count=active, stop_reason=stop_reason
    )
    if not trace:
        return state, None
    columns = list(zip(*rows))
    return state, AmpTrace(
        t=np.array(columns[0], dtype=np.int64),
        tau=np.array(columns[1]),
        active_count=np.array(columns[2], dtype=np.int64),
        residual_norm=np.array(columns[3]),
        mse=np.array(columns[4]),
        kurtosis=np.array(columns[5]),
        ks=np.array(columns[6]),
    )
