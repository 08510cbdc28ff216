import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amppath import (
    FixedThreshold,
    Prior,
    ProblemInstance,
    RangeError,
    SEModel,
    amp_run,
    detection_prob,
    lasso_solve,
    parse_prior,
    point_mass_at_zero,
    psi_map,
    risk,
    risk_derivative,
    soft_threshold,
    sparse_prior,
    std_normal_cdf,
    std_normal_pdf,
)

from _oracles import mc_risk, mc_risk_derivative

# high-precision reference (40-digit erfc evaluation)
PHI_AT_1 = 0.84134474606854294859


class TestSoftThreshold:
    def test_definition_points(self):
        assert soft_threshold(0.0, 1.0) == 0.0
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_marginal_maps_to_zero(self):
        assert soft_threshold(2.0, 2.0) == 0.0
        assert soft_threshold(-2.0, 2.0) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(RangeError):
            soft_threshold(1.0, -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(RangeError):
            soft_threshold(2.0, math.nan)
        assert soft_threshold(2.0, math.inf) == 0.0

    def test_lipschitz(self):
        gen = np.random.default_rng(0)
        for _ in range(500):
            a, b = gen.uniform(-10, 10, size=2)
            tau = gen.uniform(0, 5)
            assert abs(soft_threshold(a, tau) - soft_threshold(b, tau)) <= abs(a - b) + 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        u=st.lists(st.floats(-1e150, 1e150), max_size=12),
        t=st.one_of(st.just(0.0), st.floats(0.0, 1e150), st.just(1e150)),
    )
    def test_solvers_apply_it(self, u, t):
        # amp_run's first iterate and lasso_solve's first step at unit step
        # size are eta(y; t) when A is the identity; ties |u| == t and
        # both zeros are always in the input
        y = np.array(u + [t, -t, 0.0, -0.0])
        eye = np.eye(y.size)
        inst = ProblemInstance(A=eye, x_o=np.zeros(y.size), w=np.zeros(y.size), y=y, config=None)
        expected = [soft_threshold(v, t) for v in y]
        state, _ = amp_run(inst, FixedThreshold(t), max_iter=1, trace=False)
        assert state.x.tolist() == expected
        result = lasso_solve(inst, t, tol=0.0, max_iter=1, lipschitz=1.0)
        assert result.x_hat.tolist() == expected


class TestStdNormal:
    def test_center_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_cdf_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_AT_1, rel=1e-14)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        gen = np.random.default_rng(1)
        for x in gen.uniform(-8, 8, size=40):
            exact = float(mp.erfc(-x / mp.sqrt(2)) / 2)
            assert std_normal_cdf(x) == pytest.approx(exact, rel=1e-12)
            exact_pdf = float(mp.exp(-mp.mpf(x) ** 2 / 2) / mp.sqrt(2 * mp.pi))
            assert std_normal_pdf(x) == pytest.approx(exact_pdf, rel=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-8, 8, 33):
            assert abs(std_normal_cdf(-x) - (1.0 - std_normal_cdf(x))) < 1e-15


class TestPriorType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Prior(((0.0, 0.5), (1.0, 0.4)))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            Prior(((1.0, 0.5), (1.0, 0.5)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Prior(((0.0, 1.5), (1.0, -0.5)))

    def test_needs_an_atom(self):
        with pytest.raises(ValueError, match="at least one atom"):
            Prior(())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="atom value must be finite"):
            Prior(((0.0, 0.5), (value, 0.5)))

    @pytest.mark.parametrize("weights", [(0.0, 0.0), (math.nan, 1.0)], ids=["zero", "nan"])
    def test_from_pairs_needs_positive_finite_sum(self, weights):
        with pytest.raises(ValueError, match="positive finite sum"):
            Prior.from_pairs(zip((0.0, 1.0), weights))

    def test_moments(self):
        p = Prior(((0.0, 0.9), (2.0, 0.05), (-2.0, 0.05)))
        assert p.second_moment == pytest.approx(0.4)
        assert p.nonzero_prob == pytest.approx(0.1)
        assert p.max_abs_value == 2.0

    def test_sparse_prior_helper(self):
        p = sparse_prior(0.1, 1.0)
        assert p.second_moment == pytest.approx(0.1)
        one_sided = sparse_prior(0.1, 1.0, symmetric=False)
        assert one_sided.nonzero_prob == pytest.approx(0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
    def test_sparse_prior_eps_range(self, eps):
        with pytest.raises(RangeError, match="eps must be in"):
            sparse_prior(eps)


class TestParsePrior:
    def test_roundtrip(self):
        p = parse_prior("0.8:0,0.1:1,0.1:-1")
        assert p.atoms == ((0.0, 0.8), (1.0, 0.1), (-1.0, 0.1))

    def test_sum_tolerance(self):
        # 1e-10 off is renormalized, 1e-3 off is rejected
        parse_prior("0.8000000001:0,0.1:1,0.1:-1")
        with pytest.raises(ValueError):
            parse_prior("0.9:0,0.2:1")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_prior("0.5;0,0.5;1")

    @pytest.mark.parametrize("text", ["", " , ,"])
    def test_empty_specification(self, text):
        with pytest.raises(ValueError, match="empty prior specification"):
            parse_prior(text)

    def test_trailing_comma_accepted(self):
        assert parse_prior("0.8:0,0.2:1,") == parse_prior("0.8:0,0.2:1")


class TestAtomRisk:
    def test_identity_at_zero_threshold(self):
        assert risk(Prior(((0.0, 1.0),)), 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert risk(Prior(((3.0, 1.0),)), 2.0, 0.0) == pytest.approx(4.0, rel=1e-13)

    def test_kill_everything_limit(self):
        assert risk(Prior(((5.0, 1.0),)), 1.0, 1e6) == pytest.approx(25.0, abs=1e-9)

    def test_monte_carlo_agreement(self):
        est, se = mc_risk(Prior(((1.0, 1.0),)), 1.0, 0.5, 10**7, seed=42)
        assert abs(risk(Prior(((1.0, 1.0),)), 1.0, 0.5) - est) <= 3 * se


class TestRisk:
    def test_zero_prior_unit(self):
        assert risk(point_mass_at_zero(), 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_threshold_gives_sigma_sq(self):
        for prior in (point_mass_at_zero(), parse_prior("0.9:0,0.05:3,0.05:-3")):
            for sigma in (0.3, 1.0, 2.7):
                assert risk(prior, sigma, 0.0) == pytest.approx(sigma**2, rel=1e-13)

    def test_strictly_decreasing_for_zero_prior(self):
        p = point_mass_at_zero()
        vals = [risk(p, 1.0, t) for t in np.linspace(0.0, 6.0, 61)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_agreement(self):
        p = parse_prior("0.9:0,0.05:3,0.05:-3")
        est, se = mc_risk(p, 1.0, 1.2, 10**7, seed=7)
        assert abs(risk(p, 1.0, 1.2) - est) <= 3 * se

    def test_nonnegative(self):
        p = parse_prior("0.5:0,0.5:1")
        for theta in np.linspace(0, 10, 21):
            assert risk(p, 0.7, theta) >= 0.0


class TestRiskDerivative:
    def test_negative_at_zero(self):
        for text in ("0.8:0,0.2:1", "0.5:1,0.5:-1", "0.99:0,0.01:3"):
            assert risk_derivative(parse_prior(text), 1.0, 0.0) < 0.0

    def test_zero_prior_closed_form(self):
        # -4 * integral_tau^inf (z - tau) phi(z) dz, always negative
        p = point_mass_at_zero()
        for tau in (0.0, 0.5, 1.5, 4.0):
            expected = 4.0 * (tau * std_normal_cdf(-tau) - std_normal_pdf(tau))
            assert risk_derivative(p, 1.0, tau) == pytest.approx(expected, rel=1e-13)
            assert risk_derivative(p, 1.0, tau) < 0.0

    def test_finite_difference(self):
        p = parse_prior("0.8:0,0.2:1")
        h = 1e-6
        fd = (risk(p, 1.0, 1.0 + h) - risk(p, 1.0, 1.0 - h)) / (2 * h)
        assert risk_derivative(p, 1.0, 1.0) == pytest.approx(fd, rel=1e-5)

    def test_finite_difference_scaled_sigma(self):
        p = parse_prior("0.7:0,0.2:1.5,0.1:-2")
        sigma, theta, h = 0.6, 0.8, 1e-6
        fd = (risk(p, sigma, theta + h) - risk(p, sigma, theta - h)) / (2 * h)
        assert risk_derivative(p, sigma, theta) == pytest.approx(fd, rel=1e-5)

    def test_pathwise_monte_carlo(self):
        p = parse_prior("0.8:0,0.2:1")
        est, se = mc_risk_derivative(p, 1.0, 1.0, 10**7, seed=3)
        assert abs(risk_derivative(p, 1.0, 1.0) - est) <= 3 * se

    def test_single_sign_change(self):
        grid = np.linspace(0.0, 20.0, 500)
        for text in ("0.8:0,0.2:1", "0.95:0,0.05:3", "0.5:1,0.5:-1"):
            d = np.array([risk_derivative(parse_prior(text), 1.0, t) for t in grid])
            signs = np.sign(d[np.abs(d) > 1e-9])
            assert np.count_nonzero(np.diff(signs) != 0) == 1
            assert signs[0] < 0 < signs[-1]


class TestDetectionProb:
    def test_zero_threshold(self):
        for text in ("1:0", "0.8:0,0.2:1", "0.5:2,0.5:-2"):
            assert detection_prob(parse_prior(text), 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_two_sided_tail(self):
        from scipy.stats import norm

        got = detection_prob(point_mass_at_zero(), 1.0, 1.96)
        assert got == pytest.approx(2 * norm.sf(1.96), rel=1e-12)
        assert got == pytest.approx(0.05, abs=1e-4)

    def test_far_tail_vanishes(self):
        p = parse_prior("0.9:0,0.1:2")
        theta = 40.0 * 1.0 + p.max_abs_value
        assert detection_prob(p, 1.0, theta) <= 1e-12

    def test_strictly_decreasing(self):
        p = parse_prior("0.9:0,0.05:1,0.05:-1")
        vals = [detection_prob(p, 0.8, t) for t in np.linspace(0.0, 8.0, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestPsiMap:
    MODEL = SEModel(delta=0.5, sigma_w_sq=0.2, prior=parse_prior("0.9:0,0.05:1,0.05:-1"))

    def test_large_beta_limit(self):
        expected = 0.2 + self.MODEL.prior.second_moment / 0.5
        assert psi_map(1.0, self.MODEL, 1e5) == pytest.approx(expected, abs=1e-9)

    def test_zero_beta(self):
        for s in (0.1, 1.0, 4.0):
            assert psi_map(s, self.MODEL, 0.0) == pytest.approx(0.2 + s / 0.5, rel=1e-13)

    def test_concavity(self):
        grid = np.linspace(0.1, 10.0, 100)
        vals = np.array([psi_map(s, self.MODEL, 1.5) for s in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-10)

    def test_above_noise_floor(self):
        for s in (0.05, 0.5, 2.0):
            assert psi_map(s, self.MODEL, 2.0) > 0.2

    @pytest.mark.parametrize("field", ["sigma_w_sq", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        # a NaN noise variance made psi_map return NaN, an infinite one inf;
        # SEModel rejects the noise variance, risk's theta check the beta
        args = {"sigma_w_sq": 0.2, "beta": 1.5, field: value}
        with pytest.raises(RangeError):
            psi_map(1.0, SEModel(0.5, args["sigma_w_sq"], sparse_prior(0.1)), args["beta"])

    @pytest.mark.parametrize("delta", [0.0, 1.5, math.nan])
    def test_delta_range(self, delta):
        with pytest.raises(RangeError, match="delta must be in"):
            SEModel(delta, 0.2, sparse_prior(0.1))

    def test_zero_variance_rejected(self):
        with pytest.raises(RangeError, match="sigma_sq must be > 0"):
            psi_map(0.0, self.MODEL, 1.5)


class TestMonteCarloSweep:
    def test_randomized_cases(self):
        # lighter version of the acceptance check: 6 random cases at 1e6
        gen = np.random.default_rng(2024)
        for _ in range(6):
            n_atoms = gen.integers(1, 4)
            values = gen.uniform(-3, 3, size=n_atoms)
            values[0] = 0.0  # keep a zero atom so cases stay heterogeneous
            weights = gen.dirichlet(np.ones(n_atoms))
            prior = Prior.from_pairs(zip(values, weights))
            sigma = float(gen.uniform(0.3, 2.0))
            theta = float(gen.uniform(0.0, 3.0 * sigma))
            est, se = mc_risk(prior, sigma, theta, 10**6, seed=int(gen.integers(2**31)))
            assert abs(risk(prior, sigma, theta) - est) <= 4 * max(se, 1e-12)
