"""Output checks, each computed apart from amppath or taken from a
property the method must have.  Every check returns a list of failure
messages; an empty list means the outputs passed.

This module is imported after set-up is timed, so its SciPy imports do not
count as set-up.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.special import ndtr


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def minimax_rho(delta: float) -> float:
    """rho(delta) from the minimax soft-threshold formula

        max_z [1 - (2/delta)((1+z^2)Phi(-z) - z phi(z))] / [1 + z^2 - 2((1+z^2)Phi(-z) - z phi(z))]
    """

    def neg_ratio(z):
        tail = (1.0 + z * z) * ndtr(-z) - z * _phi(z)
        return -(1.0 - (2.0 / delta) * tail) / (1.0 + z * z - 2.0 * tail)

    grid = np.linspace(0.01, 6.0, 600)
    z0 = float(grid[np.argmin([neg_ratio(z) for z in grid])])
    res = optimize.minimize_scalar(neg_ratio, bracket=(z0 - 0.01, z0, z0 + 0.01), tol=1e-12)
    return -float(res.fun)


def half_success_rho(rhos, success) -> float:
    """Where a decreasing fit of success crosses 1/2.

    The fit is the least-squares nonincreasing sequence (pool adjacent
    violators), so one noisy cell cannot move the crossing by itself."""
    blocks = []  # [mean, weight]
    for s in success:
        blocks.append([float(s), 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            (m1, w1), (m2, w2) = blocks.pop(-2), blocks.pop()
            blocks.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2])
    fit = [m for m, w in blocks for _ in range(w)]
    for i in range(len(fit) - 1):
        if fit[i] >= 0.5 > fit[i + 1]:
            return rhos[i] + (fit[i] - 0.5) / (fit[i] - fit[i + 1]) * (rhos[i + 1] - rhos[i])
    return rhos[-1] if fit[-1] >= 0.5 else rhos[0]


def phase_band(rows, deltas, band) -> list[str]:
    """rows: (delta, rho, success, rho_theory) from the phase-transition CSV.

    The band is the same in units of rho(delta) for every delta, so the
    edge and crossing checks pool the deltas there: with 40 trials per
    delta at N=500 a single delta's crossing scatters by about 0.035
    rho(delta) around 0.97 rho(delta), against 0.015 pooled."""
    errors, pooled = [], []
    for delta in deltas:
        cells = [r for r in rows if r[0] == delta]
        rho_star = minimax_rho(delta)
        if abs(cells[0][3] - rho_star) > 1e-9 * rho_star:
            errors.append(f"delta={delta}: rho_theory {cells[0][3]!r} != minimax rho {rho_star!r}")
        expected = np.linspace(band[0] * rho_star, band[1] * rho_star, len(cells))
        if not np.allclose([r[1] for r in cells], expected, rtol=1e-9, atol=0.0):
            errors.append(f"delta={delta}: rho column is not the band {band} around rho(delta)")
        success = np.array([r[2] for r in cells])
        if not np.all((success >= 0.0) & (success <= 1.0)):
            errors.append(f"delta={delta}: success outside [0, 1]")
        if not np.mean(success[:3]) > np.mean(success[-3:]):
            errors.append(f"delta={delta}: success does not fall across the band")
        pooled.append(success)
    success = np.mean(pooled, axis=0)
    rel = np.linspace(band[0], band[1], success.size)
    low, high = np.mean(success[:2]), np.mean(success[-2:])
    if low < 0.6 or high > 0.25:
        errors.append(f"success {low:.2f} at the low band edge, {high:.2f} at the high edge")
    crossing = half_success_rho(rel, success)
    if abs(crossing - 1.0) > 0.10:
        errors.append(f"half-success at {crossing:.3f} rho(delta)")
    return errors


def duality_gap(A, y, lam: float, x) -> float:
    """Relative LASSO duality gap of x, from the dual point obtained by
    scaling the residual into the feasible set {|A^T theta| <= lam}."""
    r = y - A @ x
    primal = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
    scale = min(1.0, lam / float(np.max(np.abs(A.T @ r))))
    theta = scale * r
    dual = 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))
    return (primal - dual) / primal


def fista_sweep(instance, rows, solutions) -> list[str]:
    """rows: (lambda, empirical_mse, se_mse, empirical_dr, se_dr, kkt, converged)."""
    errors = []
    N = instance.A.shape[1]
    for row, x in zip(rows, solutions):
        lam, emp_mse, se_mse, _, _, _, converged = row
        if not converged:
            errors.append(f"lambda={lam}: not converged")
        gap = duality_gap(instance.A, instance.y, lam, x)
        if not 0.0 <= gap <= 1e-5:
            errors.append(f"lambda={lam}: duality gap {gap:.3g} above 1e-5")
        if abs(float(np.mean((x - instance.x_o) ** 2)) - emp_mse) > 1e-12 * emp_mse:
            errors.append(f"lambda={lam}: empirical_mse does not match the returned estimate")
        if abs(emp_mse - se_mse) > 10.0 / math.sqrt(N) * se_mse:
            errors.append(f"lambda={lam}: empirical MSE {emp_mse:.4g} vs SE {se_mse:.4g}")
    return errors
