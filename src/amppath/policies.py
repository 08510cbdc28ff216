"""Threshold policies shared by the AMP engine and the state-evolution
recursion.  Every threshold decision lives here: each policy answers the
two questions its callers ask, so neither caller needs to know which
policy it holds.

* ``amp_tau(u, z, n)``: the threshold AMP applies to the pseudo-data
  u = x_t + A^T z_t, given the residual z_t and the measurement count n;
* ``se_tau(prior, sigma, delta)``: the threshold the state-evolution
  recursion applies at effective-noise level sigma.

The policies:

* FixedDetection pins the active-set size at floor(gamma * n) entries;
  in state evolution, the threshold with detection probability
  gamma * delta;
* FixedFalseAlarm sets the threshold to beta times the effective-noise
  level, which AMP estimates from the residual norm;
* FixedThreshold uses one constant threshold throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .exceptions import RangeError, RankError
from .priors import Prior, detection_prob


def fixed_detection_tau(u: np.ndarray, gamma: float, n: int) -> float:
    """The floor(gamma*n)-th largest magnitude of u, by introselect.

    Thresholding at this value keeps exactly the strictly larger
    magnitudes, i.e. floor(gamma*n) - 1 entries for continuous data (the
    marginal entry shrinks to zero; ties at the marginal magnitude all
    drop, independent of index order).
    """
    # the 1e-9 nudge keeps decimal gammas like 0.3 from flooring one short
    k = math.floor(gamma * n + 1e-9)
    if not 1 <= k <= u.size:
        raise RankError(f"order statistic {k} outside [1, {u.size}]")
    mag = np.abs(u)
    mag.partition(mag.size - k)
    return float(mag[mag.size - k])


def fixed_false_alarm_tau(z: np.ndarray, beta: float) -> float:
    """beta times the residual-norm estimate ||z||_2/sqrt(n) of the
    effective noise level."""
    if not 0.0 < beta < math.inf:
        raise RangeError(f"beta must be finite and > 0, got {beta}")
    n = z.size
    return beta * float(np.linalg.norm(z)) / math.sqrt(n)


def solve_tau_for_detection(prior: Prior, sigma: float, target: float) -> float:
    """Threshold with P(|X + sigma*Z| > tau) = target, target in (0, 1).

    detection_prob is continuous and strictly decreasing in tau, so the
    root is unique; the bracket extends past the largest atom so it holds
    even when the atoms dominate the noise scale.
    """
    if not 0.0 < target < 1.0:
        raise RangeError(f"detection target must be in (0, 1), got {target}")
    hi = 50.0 * sigma + prior.max_abs_value
    return brentq(
        lambda t: detection_prob(prior, sigma, t) - target,
        0.0,
        hi,
        xtol=1e-14,
    )


@dataclass(frozen=True)
class FixedDetection:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise RangeError(f"gamma must be in (0, 1], got {self.gamma}")

    def amp_tau(self, u: np.ndarray, z: np.ndarray, n: int) -> float:
        return fixed_detection_tau(u, self.gamma, n)

    def se_tau(self, prior: Prior, sigma: float, delta: float) -> float:
        return solve_tau_for_detection(prior, sigma, self.gamma * delta)


@dataclass(frozen=True)
class FixedFalseAlarm:
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise RangeError(f"beta must be finite and > 0, got {self.beta}")

    def amp_tau(self, u: np.ndarray, z: np.ndarray, n: int) -> float:
        return fixed_false_alarm_tau(z, self.beta)

    def se_tau(self, prior: Prior, sigma: float, delta: float) -> float:
        return self.beta * sigma


@dataclass(frozen=True)
class FixedThreshold:
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < math.inf:
            raise RangeError(f"tau must be finite and >= 0, got {self.tau}")

    def amp_tau(self, u: np.ndarray, z: np.ndarray, n: int) -> float:
        return self.tau

    def se_tau(self, prior: Prior, sigma: float, delta: float) -> float:
        return self.tau


ThresholdPolicy = FixedDetection | FixedFalseAlarm | FixedThreshold
