"""Experiment harness: theoretical phase-transition curve, Monte Carlo
success grids, and empirical-vs-predicted lambda sweeps.

All Monte Carlo work is seeded per (cell, trial) with a SplitMix64 hash of
the base seed and the grid indices, so results are independent of
execution order and reproducible byte-for-byte. The phase grid uses this
to run its trials in forked worker processes, one per CPU of the affinity
mask, when the process has a single OS thread (BLAS pinned to one thread).
Otherwise, or where fork is missing, it runs them in-process; its output
is the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq
from ._team import workers as _workers
from .amp import amp_run
from .exceptions import Divergence, RangeError
from .instances import InstanceConfig, SparseSpec, compute_observables, sample_instance
from .lasso import kkt_residual, lasso_solve
from .policies import FixedDetection
from .priors import Prior, sparse_prior, std_normal_cdf, std_normal_pdf
from .rng import trial_seed
from .state_evolution import SEModel, beta_of_lambda

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
# FISTA cap; the README sweep's slowest row, lambda 0.0025, takes 7390
# iterations at seed 0 and 12840 at seed 1
_SWEEP_MAX_ITER = 20000


def _curve_delta(z: float) -> float:
    """delta on the l1 phase-transition curve at parameter z > 0."""
    # ratio z*(Phi(z) - 1/2)/phi(z), stable for all z > 0
    t = z * (std_normal_cdf(z) - 0.5) / std_normal_pdf(z)
    return 1.0 / (1.0 + t)


def _curve_point(z: float) -> tuple[float, float]:
    """(delta, rho) on the l1 phase-transition curve at parameter z > 0.
    Both coordinates decrease strictly in z; z -> 0 gives (1, 1)."""
    if z <= 0.0:
        raise RangeError(f"curve parameter must be > 0, got {z}")
    from scipy.special import erfcx

    # z*(1 - Phi(z))/phi(z) via the scaled complementary error function,
    # avoiding the 0/0 of tail-over-density at large z
    rho = 1.0 - z * _SQRT_HALF_PI * erfcx(z / math.sqrt(2.0))
    return _curve_delta(z), rho


# the far end of rho_of_delta's bracket on z, and the least delta it reaches
_Z_MAX = 37.0
_DELTA_MIN = _curve_delta(_Z_MAX)


def rho_of_delta(delta: float) -> float:
    """Critical sparsity ratio rho at undersampling delta, by inverting the
    parametric curve in its (monotone) delta coordinate."""
    if not _DELTA_MIN <= delta < 1.0:
        raise RangeError(f"delta must be in [{_DELTA_MIN:.6g}, 1), got {delta}")
    z = brentq(lambda s: _curve_delta(s) - delta, 1e-8, _Z_MAX, xtol=1e-14)
    return _curve_point(z)[1]


@dataclass(frozen=True)
class PhaseGridConfig:
    """Monte Carlo phase-transition protocol (defaults: desk-scale version
    of the standard N=1000, 20-trial setup)."""

    n_signal: int = 1000
    delta_grid: tuple[float, ...] = tuple(np.linspace(0.1, 0.9, 20))
    rho_band: tuple[float, float] = (0.8, 1.2)
    rho_points: int = 50
    trials: int = 20
    tol: float = 1e-2
    max_iter: int = 500
    gamma: float = 1.0
    base_seed: int = 0

    def __post_init__(self):
        if not all(0.0 < d < 1.0 for d in self.delta_grid):
            raise RangeError("delta grid must lie in (0, 1)")
        if self.trials < 1 or self.rho_points < 1:
            raise RangeError("need at least one trial and one rho point")
        if not all(math.isfinite(v) for v in self.rho_band):
            raise RangeError(f"rho band must be finite, got {self.rho_band}")
        if not 0.0 < self.tol < math.inf:
            raise RangeError(f"tol must be finite and > 0, got {self.tol}")
        # checked here, not only by the trials: a cell with k = 0 succeeds
        # without running AMP, so a grid of such cells would not see them
        if not 0.0 < self.gamma <= 1.0:
            raise RangeError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.max_iter < 1:
            raise RangeError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PhaseGrid:
    """Success fractions over the (delta, rho) band plus the theoretical
    curve samples; rho_values[i] is the band for delta_values[i]."""

    delta_values: np.ndarray
    rho_values: np.ndarray  # shape (n_delta, rho_points)
    success: np.ndarray  # shape (n_delta, rho_points)
    theory_rho: np.ndarray


def _run_trial(N: int, n: int, k: int, gamma: float, max_iter: int, tol: float, seed: int) -> float:
    cfg = InstanceConfig(n, N, SparseSpec(k=k, amplitude=1.0), noise_variance=0.0, seed=seed)
    instance = sample_instance(cfg)
    norm_o = float(np.linalg.norm(instance.x_o))
    if norm_o == 0.0:
        return 1.0
    try:
        state, _ = amp_run(
            instance, FixedDetection(gamma), max_iter=max_iter, conv_tol=1e-10, trace=False
        )
    except Divergence:
        return 0.0
    return 1.0 if float(np.linalg.norm(state.x - instance.x_o)) / norm_o < tol else 0.0


def _run_share(tasks: list[tuple], conn) -> None:
    """A forked worker's body: send back the outcomes of its share of the
    trials, or the error that stopped them, for the parent to raise."""
    try:
        result = (True, [_run_trial(*task) for task in tasks])
    except Exception as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def _map_trials(tasks: list[tuple]) -> list[float]:
    """_run_trial over tasks, in task order.

    With w workers, worker j >= 1 is a forked child that runs
    tasks[j::w], and this process runs tasks[0::w] itself: a fixed share,
    so a tracer in this process sees the same trials on every call. Every
    child is joined before return, on error too. Children are forked, not
    spawned: a spawned child would import numpy and scipy again on every
    call, about 0.3 s, longer than a call of a few trials takes.
    """
    workers = min(_workers(), len(tasks))
    if workers == 1:
        return [_run_trial(*task) for task in tasks]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    outcomes = [0.0] * len(tasks)
    children = []
    try:
        for j in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(tasks[j::workers], send), daemon=True)
            try:
                child.start()
            finally:
                # closed here so that a child's death reads as EOF
                send.close()
            children.append((child, recv))
        outcomes[0::workers] = [_run_trial(*task) for task in tasks[0::workers]]
        for j, (child, recv) in enumerate(children, start=1):
            try:
                ok, value = recv.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"phase-grid worker {j} exited with code {child.exitcode} "
                    "before sending its trials"
                ) from None
            if not ok:
                raise value
            outcomes[j::workers] = value
    finally:
        for child, recv in children:
            if child.is_alive():
                child.terminate()
            child.join()
            recv.close()
    return outcomes


def phase_transition_grid(cfg: PhaseGridConfig) -> PhaseGrid:
    """Noise-free AMP recovery success over a band around the theoretical
    curve.

    For each delta the band holds rho_points equispaced sparsity ratios in
    rho_band times rho(delta); each cell averages `trials` runs with
    per-trial seeds hashed from (base_seed, delta index, rho index, trial).
    Divergence counts as failure.
    """
    N = cfg.n_signal
    deltas = np.asarray(cfg.delta_grid, dtype=np.float64)
    theory = np.array([rho_of_delta(d) for d in deltas])
    rho_values = np.empty((deltas.size, cfg.rho_points))
    tasks = []
    for di, (delta, rho_star) in enumerate(zip(deltas, theory)):
        n = int(math.floor(delta * N))
        band = np.linspace(cfg.rho_band[0] * rho_star, cfg.rho_band[1] * rho_star, cfg.rho_points)
        rho_values[di] = band
        for ri, rho in enumerate(band):
            # checked before any trial runs: an overflowing rho * n has no floor
            k = float(rho) * n
            if not 0.0 <= k < N + 1:
                raise RangeError(f"sparsity rho * n = {k:.6g} outside [0, {N}]")
            k = math.floor(k)
            tasks += [
                (N, n, k, cfg.gamma, cfg.max_iter, cfg.tol, trial_seed(cfg.base_seed, di, ri, trial))
                for trial in range(cfg.trials)
            ]
    # each cell's sum of 0.0/1.0 outcomes is exact in any order
    hits = np.reshape(_map_trials(tasks), (deltas.size, cfg.rho_points, cfg.trials)).sum(axis=2)
    return PhaseGrid(deltas, rho_values, hits / cfg.trials, theory)


def estimate_half_success_rho(rhos, successes) -> float:
    """rho where the success fraction first crosses 1/2 going down,
    linearly interpolated; clamps to the band edge if no crossing."""
    rhos = np.asarray(rhos, dtype=np.float64)
    successes = np.asarray(successes, dtype=np.float64)
    for i in range(len(rhos) - 1):
        s0, s1 = successes[i], successes[i + 1]
        if s0 >= 0.5 > s1:
            return float(rhos[i] + (s0 - 0.5) / (s0 - s1) * (rhos[i + 1] - rhos[i]))
    return float(rhos[-1] if successes[-1] >= 0.5 else rhos[0])


def interpolate_display_grid(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Resample the band onto a rectangular display grid.

    Rows are 20 equispaced rho values spanning the theoretical curve
    over the delta range; each column interpolates that delta's band
    linearly (values clamp to the band-edge successes outside it).
    Returns (display_rho_values, matrix of shape (20, n_delta)).
    """
    lo = float(np.min(grid.theory_rho))
    hi = float(np.max(grid.theory_rho))
    display = np.linspace(lo, hi, 20)
    out = np.empty((display.size, grid.delta_values.size))
    for di in range(grid.delta_values.size):
        out[:, di] = np.interp(display, grid.rho_values[di], grid.success[di])
    return display, out


@dataclass(frozen=True)
class SweepConfig:
    """Empirical lambda sweep on one seeded instance, with the asymptotic
    predictions computed side by side; FISTA runs _SWEEP_MAX_ITER steps at most."""

    instance: InstanceConfig
    lambda_grid: tuple[float, ...]
    solver: str = "fista"  # or "amp"
    solver_tol: float = 1e-6
    amp_max_iter: int = 500

    def __post_init__(self):
        if self.solver not in ("fista", "amp"):
            raise RangeError(f"unknown solver {self.solver!r}")
        if self.instance.noise_variance <= 0.0:
            raise RangeError("sweep needs noisy instances (state evolution assumes noise)")
        if not 0.0 <= self.solver_tol < math.inf:
            raise RangeError(f"solver tol must be finite and >= 0, got {self.solver_tol}")


def model_for_instance(cfg: InstanceConfig) -> SEModel:
    """State-evolution model whose prior matches the instance's signal law."""
    if isinstance(cfg.signal, SparseSpec):
        eps = cfg.signal.k / cfg.n_cols
        prior = sparse_prior(eps, cfg.signal.amplitude, symmetric=cfg.signal.random_sign)
    else:
        prior = cfg.signal
    return SEModel(cfg.n_rows / cfg.n_cols, cfg.noise_variance, prior)


def lambda_sweep_empirical(cfg: SweepConfig) -> list[dict]:
    """Solve the instance at every lambda and pair the observables with
    the state-evolution predictions.

    Returns one dict per lambda with keys lambda, empirical_mse, se_mse,
    empirical_dr, se_dr, kkt_residual, converged.
    """
    instance = sample_instance(cfg.instance)
    model = model_for_instance(cfg.instance)
    rows = []
    for lam in cfg.lambda_grid:
        lam = float(lam)
        point = beta_of_lambda(model, lam)
        if cfg.solver == "fista":
            # the solver's residual is kkt_residual of its answer bit for bit
            result = lasso_solve(instance, lam, tol=cfg.solver_tol, max_iter=_SWEEP_MAX_ITER)
            x_hat, converged, residual = result.x_hat, result.converged, result.kkt_residual
        else:
            # a lambda whose SE detection leaves no slot (floor(gamma n) = 0)
            # runs with one: the marginal entry drops, so AMP settles at zero
            state, _ = amp_run(
                instance,
                FixedDetection(max(point.gamma, 1.0 / cfg.instance.n_rows)),
                max_iter=cfg.amp_max_iter,
                conv_tol=1e-10,
                trace=False,
            )
            x_hat, converged = state.x, state.stop_reason == "converged"
            residual = kkt_residual(instance, lam, x_hat)
        # both solvers threshold to exact zeros, so every nonzero counts
        obs = compute_observables(x_hat, instance.x_o)
        rows.append(
            {
                "lambda": lam,
                "empirical_mse": obs.mse,
                "se_mse": point.mse,
                "empirical_dr": obs.dr,
                "se_dr": point.detection,
                "kkt_residual": residual,
                "converged": converged,
            }
        )
    return rows
