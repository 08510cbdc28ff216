"""Scalar kernels for point-mass signal priors under Gaussian noise.

Every expectation in this module is over X ~ prior (a finite point-mass
mixture) and an independent Z ~ N(0,1), and is evaluated in closed form
from the standard normal pdf/cdf.  Two coordinate systems appear:

* absolute scale: observation X + sigma*Z, threshold theta;
* unit-noise scale: mu + Z with mu = x/sigma and threshold tau = theta/sigma.

The public functions take absolute-scale arguments.  The conversion is
``risk(prior, sigma, theta) = sigma**2 * r(theta/sigma)`` where r is the
unit-noise risk of the rescaled atoms, and the theta-derivative picks up a
single factor of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import RangeError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x).

    Computed through the complementary error function, which keeps the
    relative error at the 1e-15 level deep into both tails; tail
    differences of Phi drive the fixed-point solvers downstream.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def soft_threshold(a: float, tau: float) -> float:
    """Soft-thresholding eta(a; tau) = sign(a) * max(|a| - tau, 0).

    Total function for tau >= 0; the sign of the input is preserved and
    the magnitude shrinks by exactly tau (to zero inside the dead zone).
    """
    if not 0.0 <= tau <= math.inf:
        raise RangeError(f"threshold must be >= 0, got {tau}")
    mag = abs(a) - tau
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, a)


@dataclass(frozen=True)
class Prior:
    """Finite point-mass mixture: atoms of (value, weight).

    Weights must be strictly positive and sum to one (validated to 1e-12
    after normalization); values must be finite and distinct.  Restricting
    to point masses keeps every expectation below closed-form.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("prior needs at least one atom")
        total = math.fsum(w for _, w in self.atoms)
        if not math.isfinite(total) or abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total!r}")
        values = set()
        for v, w in self.atoms:
            if not math.isfinite(v):
                raise ValueError(f"atom value must be finite, got {v!r}")
            if not 0.0 < w <= 1.0:
                raise ValueError(f"atom weight must be in (0, 1], got {w!r}")
            if v in values:
                raise ValueError(f"duplicate atom value {v!r}")
            values.add(v)

    @classmethod
    def from_pairs(cls, pairs) -> "Prior":
        """Build from (value, weight) pairs, normalizing weights exactly."""
        pairs = [(float(v), float(w)) for v, w in pairs]
        total = math.fsum(w for _, w in pairs)
        if total <= 0 or not math.isfinite(total):
            raise ValueError(f"weights must have a positive finite sum, got {total!r}")
        return cls(tuple((v, w / total) for v, w in pairs))

    @property
    def second_moment(self) -> float:
        """E[X^2]."""
        return math.fsum(w * v * v for v, w in self.atoms)

    @property
    def nonzero_prob(self) -> float:
        """P(X != 0)."""
        return math.fsum(w for v, w in self.atoms if v != 0.0)

    @property
    def max_abs_value(self) -> float:
        return max(abs(v) for v, _ in self.atoms)


def point_mass_at_zero() -> Prior:
    return Prior(((0.0, 1.0),))


def sparse_prior(eps: float, amplitude: float = 1.0, symmetric: bool = True) -> Prior:
    """Prior of an eps-dense signal: mass 1-eps at zero, eps on +-amplitude.

    With ``symmetric`` the nonzero mass splits evenly between the two signs,
    otherwise it all sits at +amplitude.
    """
    if not 0.0 < eps < 1.0:
        raise RangeError(f"eps must be in (0, 1), got {eps}")
    if symmetric:
        return Prior(((0.0, 1.0 - eps), (amplitude, eps / 2), (-amplitude, eps / 2)))
    return Prior(((0.0, 1.0 - eps), (amplitude, eps)))


def parse_prior(text: str) -> Prior:
    """Parse the CLI prior format: comma-separated ``weight:value`` tokens.

    Example: ``0.8:0,0.1:1,0.1:-1``.  Weights must sum to one within 1e-9;
    they are renormalized exactly afterwards.
    """
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            w_str, v_str = token.split(":")
            w, v = float(w_str), float(v_str)
        except ValueError:
            raise ValueError(f"bad prior token {token!r}, expected weight:value") from None
        pairs.append((v, w))
    if not pairs:
        raise ValueError("empty prior specification")
    total = math.fsum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"prior weights sum to {total!r}, expected 1 within 1e-9")
    return Prior.from_pairs(pairs)


@dataclass(frozen=True)
class SEModel:
    """Problem ensemble: undersampling ratio delta in (0,1), noise variance
    sigma_w_sq > 0, and the signal prior."""

    delta: float
    sigma_w_sq: float
    prior: Prior

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise RangeError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.sigma_w_sq < math.inf:
            raise RangeError(f"sigma_w_sq must be finite and > 0, got {self.sigma_w_sq}")


def _unit_atom_risk(mu: float, tau: float) -> float:
    # E[(eta(mu + Z; tau) - mu)^2] split over the three threshold regions:
    # Z > tau - mu gives (Z - tau)^2, Z < -tau - mu gives (Z + tau)^2, and
    # the dead zone contributes mu^2.
    a = tau - mu
    b = -tau - mu
    phi_a = std_normal_pdf(a)
    phi_b = std_normal_pdf(b)
    cdf_a = std_normal_cdf(a)
    cdf_b = std_normal_cdf(b)
    upper = (1.0 + tau * tau) * std_normal_cdf(-a) + (a - 2.0 * tau) * phi_a
    lower = (1.0 + tau * tau) * cdf_b - (b + 2.0 * tau) * phi_b
    dead = mu * mu * (cdf_a - cdf_b)
    return upper + lower + dead


def _check_sigma_theta(sigma: float, theta: float):
    if not 0.0 < sigma < math.inf:
        raise RangeError(f"sigma must be finite and > 0, got {sigma}")
    if not 0.0 <= theta < math.inf:
        raise RangeError(f"theta must be finite and >= 0, got {theta}")


def risk(prior: Prior, sigma: float, theta: float) -> float:
    """Soft-thresholding risk E[(eta(X + sigma*Z; theta) - X)^2].

    Mixture over the prior atoms of the unit-noise risk, scaled by sigma^2.
    At theta = 0 the shrinkage is the identity and the risk equals sigma^2.
    """
    _check_sigma_theta(sigma, theta)
    s2 = sigma * sigma
    tau = theta / sigma
    return s2 * math.fsum(w * _unit_atom_risk(v / sigma, tau) for v, w in prior.atoms)


def _unit_atom_risk_derivative(mu: float, tau: float) -> float:
    # d/dtau of the unit-noise atom risk.  Each one-sided tail contributes
    # tau*Phi(c - tau) - phi(c - tau) with c = +-mu (the antiderivative of
    # w*phi(w - tau) evaluated at the region edge).
    return 2.0 * (
        tau * (std_normal_cdf(-mu - tau) + std_normal_cdf(mu - tau))
        - (std_normal_pdf(mu + tau) + std_normal_pdf(mu - tau))
    )


def risk_derivative(prior: Prior, sigma: float, theta: float) -> float:
    """Exact d/dtheta of :func:`risk` at fixed (prior, sigma).

    Equals sigma times the unit-noise derivative at tau = theta/sigma.
    Strictly negative at theta = 0; for a pure point mass at zero it stays
    negative for every theta, and otherwise crosses zero exactly once.
    """
    _check_sigma_theta(sigma, theta)
    tau = theta / sigma
    return sigma * math.fsum(
        w * _unit_atom_risk_derivative(v / sigma, tau) for v, w in prior.atoms
    )


def detection_prob(prior: Prior, sigma: float, theta: float) -> float:
    """P(|X + sigma*Z| > theta): the asymptotic fraction of survivors.

    Evaluates both Gaussian tails at negative arguments so the result keeps
    full relative precision even deep in the tails.
    """
    _check_sigma_theta(sigma, theta)
    total = 0.0
    for v, w in prior.atoms:
        upper = std_normal_cdf((v - theta) / sigma)
        lower = std_normal_cdf(-(v + theta) / sigma)
        total += w * (upper + lower)
    return min(total, 1.0)


def psi_map(sigma_sq: float, model: SEModel, beta: float) -> float:
    """One step of the effective-noise variance map at false-alarm ratio beta.

    sigma_sq -> sigma_w_sq + risk(prior, sigma, beta*sigma) / delta with
    sigma = sqrt(sigma_sq).  Concave and nondecreasing in sigma_sq, bounded
    below by the noise floor sigma_w_sq.
    """
    if sigma_sq <= 0.0:
        raise RangeError(f"sigma_sq must be > 0, got {sigma_sq}")
    sigma = math.sqrt(sigma_sq)
    return model.sigma_w_sq + risk(model.prior, sigma, beta * sigma) / model.delta
