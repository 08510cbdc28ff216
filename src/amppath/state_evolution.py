"""Scalar state evolution for the LASSO / AMP fixed point.

The coupled system in the variables (sigma_hat, beta, lambda) is

    sigma_hat^2 = sigma_w^2 + risk(prior, sigma_hat, beta*sigma_hat) / delta
    lambda      = beta * sigma_hat * (1 - detection/delta)

with detection = P(|X + sigma_hat*Z| > beta*sigma_hat).  For fixed beta the
first equation is a concave, nondecreasing map of sigma^2 with at most one
fixed point, so plain fixed-point iteration converges monotonically; a
safeguarded Aitken step accelerates it.  lambda is strictly increasing in
beta above the lambda = 0 crossing, which makes all calibrations
(lambda -> beta, gamma -> beta) bracketed scalar root-finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._brent import brentq
from .exceptions import BracketFailure, NegativeLambda, NonConvergence, RangeError
from .policies import ThresholdPolicy
from .priors import SEModel, detection_prob, point_mass_at_zero, psi_map, risk

_MAX_FP_ITERS = 10_000
_FP_RTOL = 1e-13
_BETA_MAX = 50.0
_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SEPoint:
    """One consistent solution of the fixed-point system.

    Satisfies sigma_hat^2 = sigma_w_sq + mse/delta, tau = beta*sigma_hat,
    lam = tau*(1 - gamma), gamma = detection/delta, all within solver
    tolerance.
    """

    sigma_hat: float
    beta: float
    tau: float
    lam: float
    gamma: float
    mse: float
    detection: float


@dataclass(frozen=True)
class SETrajectory:
    """Per-iteration effective-noise levels sigma_t and thresholds tau_t,
    starting from sigma_0^2 = E[X^2]/delta."""

    sigma: tuple[float, ...]
    tau: tuple[float, ...]

    def __len__(self):
        return len(self.sigma)


def _fixed_point(g, s0: float) -> float:
    """Safeguarded Steffensen iteration for s = g(s) on s > 0.

    g must be nondecreasing and concave with a unique fixed point (true for
    the variance maps used here); the plain iteration is then monotone and
    the Aitken extrapolation only shortcuts it.
    """
    s = max(s0, _SIGMA_FLOOR**2)
    for _ in range(_MAX_FP_ITERS // 2):
        s1 = g(s)
        if not math.isfinite(s1):
            raise NonConvergence("variance iteration diverged (no fixed point)")
        if abs(s1 - s) <= _FP_RTOL * s1:
            return s1
        s2 = g(s1)
        denom = s2 - 2.0 * s1 + s
        s_next = s2
        if denom != 0.0:
            # ``** 2``, not a product: the two can round apart, and a product
            # would move output bits; an overflowing square gives no step
            try:
                accel = s - (s1 - s) ** 2 / denom
            except OverflowError:
                accel = math.nan
            if math.isfinite(accel) and accel > 0.0:
                s_next = accel
        if not math.isfinite(s_next) or s_next > 1e30:
            raise NonConvergence("variance iteration diverged (no fixed point)")
        s = s_next
    raise NonConvergence(f"no fixed point after {_MAX_FP_ITERS} map evaluations")


def solve_sigma_for_beta(model: SEModel, beta: float) -> float:
    """Effective-noise level sigma_hat at a fixed false-alarm ratio beta.

    Returns the unique sigma_hat with Psi(sigma_hat^2) = sigma_hat^2,
    iterating from sigma_w^2 + E[X^2]/delta.  Raises NonConvergence when
    the map has no fixed point (beta below the contraction threshold) or
    the iteration cap is exceeded.
    """
    if not 0.0 <= beta < math.inf:
        raise RangeError(f"beta must be finite and >= 0, got {beta}")
    g = lambda s: psi_map(s, model, beta)
    s = _fixed_point(g, model.sigma_w_sq + model.prior.second_moment / model.delta)
    # a guard: g is concave with g(0+) >= sigma_w_sq > 0, so g'(s) <= g(s)/s
    # and a step under 1e-13 s leaves a residual near 1e-13 s
    if abs(g(s) - s) > 1e-12 * s:
        raise NonConvergence("fixed-point residual above tolerance")
    return math.sqrt(s)


def _point_at_beta(model: SEModel, beta: float) -> SEPoint:
    sigma_hat = solve_sigma_for_beta(model, beta)
    tau = beta * sigma_hat
    det = detection_prob(model.prior, sigma_hat, tau)
    gamma = det / model.delta
    mse = risk(model.prior, sigma_hat, tau)
    return SEPoint(sigma_hat, beta, tau, tau * (1.0 - gamma), gamma, mse, det)


def lambda_of_beta(model: SEModel, beta: float) -> SEPoint:
    """Full state-evolution point at a given beta.

    Raises NegativeLambda when beta sits below the lambda = 0 crossing
    (survivor fraction above delta), where no LASSO parameter corresponds.
    """
    point = _point_at_beta(model, beta)
    if point.gamma > 1.0:
        raise NegativeLambda(
            f"detection {point.detection:.6g} exceeds delta {model.delta:.6g}; increase beta"
        )
    return point


def _critical_beta(delta: float) -> float:
    # Below this beta the variance map grows faster than the identity and
    # has no fixed point: the unit-noise risk of a zero signal, which the
    # map follows at large sigma, exceeds delta.
    return brentq(lambda b: risk(point_mass_at_zero(), 1.0, b) - delta, 0.0, _BETA_MAX, xtol=1e-13)


def _bisect_beta(model: SEModel, gamma: float, rtol: float) -> float:
    """Smallest beta, to relative width rtol, whose survivor fraction
    detection/delta lies below gamma.

    Bisection on [critical beta, BETA_MAX], using that the survivor
    fraction decreases in beta; a NonConvergence at the probe point means
    the map diverges there, which sits on the same side as a fraction
    above gamma, so the probe is folded into the left branch.  BracketFailure
    when no probe saw a finite fraction at or above gamma: hi is then where
    the divergence stops, or the critical beta, not a gamma crossing.
    """
    lo = _critical_beta(model.delta)
    hi = _BETA_MAX
    crossed = False
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            gamma_mid = _point_at_beta(model, mid).gamma
        except NonConvergence:
            gamma_mid = math.inf
        if gamma_mid >= gamma:
            lo = mid
            crossed = crossed or gamma_mid < math.inf
        else:
            hi = mid
        if hi - lo <= rtol * max(1.0, hi):
            break
    if not crossed:
        raise BracketFailure(f"no beta gave a finite survivor fraction at or above {gamma:.6g}")
    return hi


@lru_cache(maxsize=None)
def _lambda_bracket(model: SEModel) -> tuple[SEPoint, SEPoint]:
    """SE points at the lambda = 0 boundary, where detection equals delta,
    and at BETA_MAX: the ends of every lambda -> beta root-find."""
    hi = _point_at_beta(model, _BETA_MAX)
    if hi.gamma >= 1.0:
        raise BracketFailure("detection exceeds delta over the whole beta range")
    return _point_at_beta(model, _bisect_beta(model, 1.0, 1e-14)), hi


def beta_of_lambda(model: SEModel, lam: float) -> SEPoint:
    """Invert the strictly increasing map beta -> lambda.

    Root-find on beta in [beta(lambda=0), 50], whose ends are solved once
    per model; raises BracketFailure when lam lies beyond lambda(50).
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0, got {lam}")
    lo, hi = _lambda_bracket(model)
    if lam > hi.lam:
        raise BracketFailure(f"lambda {lam:.6g} above the representable maximum {hi.lam:.6g}")
    if lam <= lo.lam:
        return lo
    beta = brentq(lambda b: _point_at_beta(model, b).lam - lam, lo.beta, _BETA_MAX, xtol=1e-13)
    return lambda_of_beta(model, beta)


def calibrate_gamma(model: SEModel, gamma: float) -> SEPoint:
    """State-evolution point with survivor fraction detection/delta = gamma.

    Root-finds on beta using the monotonicity of the survivor fraction; the
    point is the limit of se_trajectory under FixedDetection(gamma).
    """
    if not 0.0 < gamma < 1.0:
        raise RangeError(f"gamma must be in (0, 1), got {gamma}")
    return _point_at_beta(model, _bisect_beta(model, gamma, 1e-15))


def lasso_path(model: SEModel, lambda_grid) -> list[SEPoint]:
    """State-evolution points along an increasing lambda grid.

    Along the path the survivor fraction decreases strictly and the
    asymptotic MSE is quasi-convex (successive differences change sign at
    most once, negative to positive).
    """
    grid = [float(l) for l in lambda_grid]
    if len(grid) < 3:
        raise RangeError("lambda grid needs at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RangeError("lambda grid must be strictly increasing")
    return [beta_of_lambda(model, lam) for lam in grid]


def se_trajectory(model: SEModel, policy: ThresholdPolicy, t_max: int) -> SETrajectory:
    """Iterate the variance recursion t_max times from sigma_0^2 = E[X^2]/delta.

    Record t carries the noise level sigma_t and the threshold tau_t the
    policy picks at that level; sigma_{t+1}^2 folds the resulting risk back
    through the noise floor.  NonConvergence when sigma_t^2 overflows (a
    policy whose recursion has no fixed point, e.g. too low a threshold at
    small delta).
    """
    if t_max < 1:
        raise RangeError(f"t_max must be >= 1, got {t_max}")
    sigmas, taus = [], []
    s = model.prior.second_moment / model.delta
    for _ in range(t_max + 1):
        if not s < math.inf:
            raise NonConvergence("variance recursion diverged")
        sigma = math.sqrt(max(s, _SIGMA_FLOOR**2))
        tau = policy.se_tau(model.prior, sigma, model.delta)
        sigmas.append(sigma)
        taus.append(tau)
        s = model.sigma_w_sq + risk(model.prior, sigma, tau) / model.delta
    return SETrajectory(tuple(sigmas), tuple(taus))
