"""Seeded generation of random sensing problems y = A x_o + w, plus the
per-coordinate observables (MSE / FA / DR / MD) of an estimate.

The matrix has iid N(0, 1/n_rows) entries, so columns have asymptotically
unit norm everywhere in the library, including the regimes some source
material states with unnormalized entries (their regularization levels are
then read in this normalized convention).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .priors import Prior
from .rng import fill_standard_normal, open_uniform, standard_normal, substreams


@dataclass(frozen=True)
class SparseSpec:
    """Exactly-k-sparse signal: k entries of the given amplitude on a
    uniformly random support, signs random unless random_sign is off."""

    k: int
    amplitude: float = 1.0
    random_sign: bool = True


@dataclass(frozen=True)
class InstanceConfig:
    n_rows: int
    n_cols: int
    signal: Prior | SparseSpec
    noise_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DimensionError(f"need positive dimensions, got {self.n_rows}x{self.n_cols}")
        if self.n_rows > self.n_cols:
            warnings.warn("n_rows > n_cols: not the undersampled regime", stacklevel=2)
        if isinstance(self.signal, SparseSpec):
            if not 0 <= self.signal.k <= self.n_cols:
                raise DimensionError(f"sparsity {self.signal.k} outside [0, {self.n_cols}]")
            if not math.isfinite(self.signal.amplitude):
                raise DimensionError(f"amplitude must be finite, got {self.signal.amplitude}")
        if not 0.0 <= self.noise_variance < math.inf:
            raise DimensionError(f"need finite noise variance >= 0, got {self.noise_variance}")


@dataclass(frozen=True)
class ProblemInstance:
    A: np.ndarray
    x_o: np.ndarray
    w: np.ndarray
    y: np.ndarray
    config: InstanceConfig


@dataclass(frozen=True)
class Observables:
    mse: float
    fa: float
    dr: float
    md: float


def _draw_signal(cfg: InstanceConfig, gen: np.random.Generator) -> np.ndarray:
    N = cfg.n_cols
    if isinstance(cfg.signal, SparseSpec):
        spec = cfg.signal
        x = np.zeros(N)
        if spec.k > 0:
            support = gen.choice(N, size=spec.k, replace=False)
            vals = np.full(spec.k, spec.amplitude, dtype=np.float64)
            if spec.random_sign:
                vals *= np.where(open_uniform(gen, spec.k) < 0.5, -1.0, 1.0)
            x[support] = vals
        return x
    values = np.array([v for v, _ in cfg.signal.atoms])
    cum = np.cumsum([w for _, w in cfg.signal.atoms])
    idx = np.searchsorted(cum, open_uniform(gen, N), side="right")
    return values[np.minimum(idx, len(values) - 1)]


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte boundary.

    malloc aligns to 16 bytes only, and where a matrix lands decides whether
    the BLAS's vector loads straddle cache lines: the two GEMVs of an AMP
    step on a 250 x 500 matrix take 30% longer at an address of 16 mod 32
    than at 0 mod 32.  The address follows the heap's history, which differs
    from one process to the next, so the same run would be fast in one
    process and slow in another.
    """
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def sample_instance(cfg: InstanceConfig) -> ProblemInstance:
    """Draw one problem instance, bit-reproducible from cfg.seed.

    Matrix, signal, and noise come from independent substreams of the
    master seed, so the matrix is invariant under changes to the signal
    spec or noise level.
    """
    matrix_gen, signal_gen, noise_gen = substreams(cfg.seed, 3)
    n, N = cfg.n_rows, cfg.n_cols
    A = fill_standard_normal(matrix_gen, _aligned_empty((n, N)))
    A /= np.sqrt(n)
    x_o = _draw_signal(cfg, signal_gen)
    if cfg.noise_variance > 0.0:
        w = np.sqrt(cfg.noise_variance) * standard_normal(noise_gen, n)
    else:
        w = np.zeros(n)
    y = A @ x_o + w
    return ProblemInstance(A=A, x_o=x_o, w=w, y=y, config=cfg)


def compute_observables(x_hat, x_o, zero_tol: float = 0.0) -> Observables:
    """Per-coordinate averages of estimate quality.

    An entry counts as detected when |x_hat_i| > zero_tol.  Zero suits
    amp_run and lasso_solve, whose soft threshold leaves exact zeros; a
    positive zero_tol is for estimates that carry numerical dust.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_o = np.asarray(x_o, dtype=np.float64)
    if x_hat.shape != x_o.shape or x_hat.ndim != 1:
        raise DimensionError(f"shape mismatch: {x_hat.shape} vs {x_o.shape}")
    if not 0.0 <= zero_tol < math.inf:
        raise DimensionError(f"zero_tol must be finite and >= 0, got {zero_tol}")
    N = x_hat.size
    detected = np.abs(x_hat) > zero_tol
    truth_nonzero = x_o != 0.0
    return Observables(
        mse=float(np.mean((x_hat - x_o) ** 2)),
        fa=float(np.count_nonzero(detected & ~truth_nonzero)) / N,
        dr=float(np.count_nonzero(detected)) / N,
        md=float(np.count_nonzero(~detected & truth_nonzero)) / N,
    )
