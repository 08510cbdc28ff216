"""Deterministic random-number plumbing.

All randomness flows from a 64-bit master seed.  Per-purpose substreams
(matrix / signal / noise) are spawned from the master so that, e.g.,
changing the sparsity never perturbs the measurement matrix.  Gaussian
variates use the exact inverse-CDF transform on open-interval uniforms,
fixing the variate sequence given the PCG64 bit stream.

Per-trial seeds for Monte Carlo grids come from a SplitMix64-style hash of
(base_seed, index, ...), so results never depend on scheduling order.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 output for the given state (64-bit wraparound)."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, *indices: int) -> int:
    """Deterministic 64-bit seed for one cell/trial of an experiment grid."""
    state = base_seed & _MASK64
    for idx in indices:
        state = splitmix64(state ^ ((idx + 1) & _MASK64))
    return state


def substreams(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent PCG64 generators spawned from a single master seed."""
    seqs = np.random.SeedSequence(master_seed & _MASK64).spawn(count)
    return [np.random.Generator(np.random.PCG64(s)) for s in seqs]


def open_uniform(gen: np.random.Generator, size) -> np.ndarray:
    """Uniforms on the open interval (0, 1): (k + 0.5) / 2^53.

    ``gen.random`` draws k / 2^53 from the top 53 bits of each 64-bit
    output, the bits ``gen.integers(0, 2^53)`` takes (a power-of-two range
    needs no rejection), and k / 2^53 + 2^-54 is (k + 0.5) / 2^53 exactly,
    so the values and the generator state match the integer formula.
    """
    return gen.random(size) + 2.0**-54


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """N(0,1) variates via the inverse CDF of open-interval uniforms."""
    return ndtri(open_uniform(gen, size))


def fill_standard_normal(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the variates standard_normal(gen, out.shape) returns."""
    return ndtri(open_uniform(gen, out.shape), out=out)
