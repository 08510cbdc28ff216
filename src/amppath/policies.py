"""Threshold policies shared by the AMP engine and the state-evolution
recursion.  Each policy fixes how the per-iteration threshold is chosen:

* FixedDetection pins the active-set size at floor(gamma * n) entries;
* FixedFalseAlarm sets the threshold to beta times the effective-noise
  level (estimated from the residual norm, or from the median magnitude
  behind a flag);
* FixedThreshold uses one constant threshold throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import RangeError


@dataclass(frozen=True)
class FixedDetection:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise RangeError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class FixedFalseAlarm:
    beta: float
    estimator: str = "residual"  # or "median"

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise RangeError(f"beta must be finite and > 0, got {self.beta}")
        if self.estimator not in ("residual", "median"):
            raise RangeError(f"unknown noise estimator {self.estimator!r}")


@dataclass(frozen=True)
class FixedThreshold:
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < math.inf:
            raise RangeError(f"tau must be finite and >= 0, got {self.tau}")


ThresholdPolicy = FixedDetection | FixedFalseAlarm | FixedThreshold
