import math

import numpy as np
import pytest
from scipy.optimize import brentq

import amppath.state_evolution as se
from amppath import (
    BracketFailure,
    FixedDetection,
    FixedFalseAlarm,
    FixedThreshold,
    NegativeLambda,
    NonConvergence,
    RangeError,
    SEModel,
    beta_of_lambda,
    calibrate_gamma,
    detection_prob,
    lambda_of_beta,
    lasso_path,
    parse_prior,
    point_mass_at_zero,
    psi_map,
    risk,
    se_trajectory,
    solve_sigma_for_beta,
    sparse_prior,
)

# Golden point for (delta=0.5, sigma_w_sq=0.2, prior 0.9:0/0.05:+-1, beta=1.5),
# frozen from an independent solve: risk by adaptive quadrature of the defining
# expectation, fixed point bracketed by grid scan and polished with brentq.
GOLDEN_BETA = 1.5
GOLDEN_SIGMA_HAT = 0.599178444523628
GOLDEN_TAU = 0.898767666785442
GOLDEN_LAMBDA = 0.580536086100654
GOLDEN_GAMMA = 0.354075466269258
GOLDEN_MSE = 0.0795074041908773
GOLDEN_DETECTION = 0.177037733134629


def point_residuals(model, point):
    eq_var = point.sigma_hat**2 - (
        model.sigma_w_sq + risk(model.prior, point.sigma_hat, point.tau) / model.delta
    )
    eq_lam = point.lam - point.tau * (
        1.0 - detection_prob(model.prior, point.sigma_hat, point.tau) / model.delta
    )
    return abs(eq_var), abs(eq_lam)


class TestSolveSigma:
    def test_golden_point(self, golden_model):
        assert solve_sigma_for_beta(golden_model, GOLDEN_BETA) == pytest.approx(
            GOLDEN_SIGMA_HAT, abs=1e-12
        )

    def test_grid_scan_oracle_zero_prior(self):
        model = SEModel(0.5, 0.2, point_mass_at_zero())
        sigma_hat = solve_sigma_for_beta(model, 2.0)
        f = lambda s: psi_map(s, model, 2.0) - s
        grid = np.linspace(1e-4, 5.0, 2000)
        vals = [f(s) for s in grid]
        bracket = next(
            (grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if vals[i] > 0 >= vals[i + 1]
        )
        s_star = brentq(f, *bracket, xtol=1e-15)
        assert sigma_hat**2 == pytest.approx(s_star, abs=1e-11)

    def test_large_beta_limit(self, golden_model):
        sigma_hat = solve_sigma_for_beta(golden_model, 40.0)
        expected = golden_model.sigma_w_sq + golden_model.prior.second_moment / 0.5
        assert sigma_hat**2 == pytest.approx(expected, abs=1e-8)

    def test_initialization_independence(self, golden_model):
        # the variance iteration reaches the point solve_sigma_for_beta
        # returns from below, from the solver's own start and from above
        g = lambda s: psi_map(s, golden_model, GOLDEN_BETA)
        sols = [
            math.sqrt(se._fixed_point(g, s0))
            for s0 in (1e-6, golden_model.prior.second_moment / 0.5, 1e6)
        ]
        sols.append(solve_sigma_for_beta(golden_model, GOLDEN_BETA))
        assert max(sols) - min(sols) <= 1e-10

    def test_residual_contract(self, golden_model):
        sigma_hat = solve_sigma_for_beta(golden_model, 0.9)
        s = sigma_hat**2
        assert abs(psi_map(s, golden_model, 0.9) - s) <= 1e-12 * max(1.0, s)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_rejects_beta_out_of_range(self, golden_model, beta):
        with pytest.raises(RangeError, match=r"beta must be finite and >= 0"):
            solve_sigma_for_beta(golden_model, beta)

    def test_nonconvergence_below_contraction(self):
        # at beta = 0 the map has slope 1/delta > 1 and no fixed point
        model = SEModel(0.5, 0.2, point_mass_at_zero())
        with pytest.raises(NonConvergence):
            solve_sigma_for_beta(model, 0.0)

    def test_nonconvergence_when_aitken_square_overflows(self, golden_prior):
        # at sigma_w_sq = 1e300 the squared step in the Aitken extrapolation
        # overflows a double; the solver falls back to the plain step, which
        # lies past its divergence bound
        model = SEModel(0.5, 1e300, golden_prior)
        with pytest.raises(NonConvergence, match="diverged"):
            solve_sigma_for_beta(model, 1.5)

    def test_residual_check_below_contraction_at_tiny_variance(self):
        # beta 0.5 is below the contraction threshold, so there is no fixed
        # point; the iteration starts near 1e-13, where a step under an
        # absolute tolerance would end it.  The relative stop rule keeps
        # iterating until the variance diverges
        model = SEModel(0.01, 1e-30, sparse_prior(1e-5, 1e-5, symmetric=False))
        with pytest.raises(NonConvergence, match="no fixed point"):
            solve_sigma_for_beta(model, 0.5)

    def test_nonconvergence_below_contraction_at_tiny_noise(self):
        # at beta = 0 the map is s -> 1e-20 + 2 s, with no fixed point; a stop
        # bound absolute below variance 1 once returned sigma_hat = 1.73e-10
        model = SEModel(0.5, 1e-20, point_mass_at_zero())
        with pytest.raises(NonConvergence):
            solve_sigma_for_beta(model, 0.0)

    def test_fixed_point_at_tiny_noise(self):
        # the fixed point is sigma_hat = 3.8e-15; a stop bound absolute below
        # variance 1 once returned sigma_hat = 2.9e-9, where 69% of sigma_hat^2
        # was fixed-point residual
        model = SEModel(0.5, 1e-29, parse_prior("0.97:0,0.03:500"))
        s = solve_sigma_for_beta(model, 1.9) ** 2
        assert abs(psi_map(s, model, 1.9) - s) <= 1e-12 * s

    def test_nonconvergence_when_map_overflows(self):
        # the first map step from the start overflows to inf; fed back into
        # the map it failed sigma's range check, a configuration error
        model = SEModel(1e-6, 1.0, parse_prior("0.5:0,0.5:1e150"))
        with pytest.raises(NonConvergence, match="diverged"):
            solve_sigma_for_beta(model, 0.05)


class TestLambdaOfBeta:
    def test_golden_point(self, golden_model):
        point = lambda_of_beta(golden_model, GOLDEN_BETA)
        assert point.sigma_hat == pytest.approx(GOLDEN_SIGMA_HAT, abs=1e-12)
        assert point.tau == pytest.approx(GOLDEN_TAU, abs=1e-12)
        assert point.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-12)
        assert point.gamma == pytest.approx(GOLDEN_GAMMA, abs=1e-12)
        assert point.mse == pytest.approx(GOLDEN_MSE, abs=1e-12)
        assert point.detection == pytest.approx(GOLDEN_DETECTION, abs=1e-12)

    def test_zero_crossing_has_full_detection(self, golden_model):
        boundary = beta_of_lambda(golden_model, 0.0)
        assert boundary.detection == pytest.approx(golden_model.delta, abs=1e-9)
        assert boundary.lam <= 1e-9

    def test_small_beta_rejected(self, golden_model):
        boundary = beta_of_lambda(golden_model, 0.0)
        with pytest.raises(NegativeLambda):
            lambda_of_beta(golden_model, 0.7 * boundary.beta)

    def test_lambda_increasing_and_asymptote(self, golden_model):
        betas = np.linspace(1.0, 12.0, 30)
        lams = [lambda_of_beta(golden_model, b) for b in betas]
        assert all(q.lam > p.lam for p, q in zip(lams, lams[1:]))
        far = lambda_of_beta(golden_model, 30.0)
        assert far.lam == pytest.approx(30.0 * far.sigma_hat, rel=1e-8)
        assert far.detection < 1e-10

    def test_mse_identity(self, golden_model):
        for beta in (1.0, 1.5, 3.0):
            p = lambda_of_beta(golden_model, beta)
            alt = golden_model.delta * (p.sigma_hat**2 - golden_model.sigma_w_sq)
            assert abs(p.mse - alt) <= 1e-12


class TestBetaOfLambda:
    def test_roundtrip(self, golden_model):
        for beta in (0.9, 1.5, 2.5, 5.0):
            lam = lambda_of_beta(golden_model, beta).lam
            assert beta_of_lambda(golden_model, lam).beta == pytest.approx(beta, abs=1e-8)

    def test_lambda_matches_target(self, golden_model):
        for lam in (0.05, 0.3, 1.1):
            point = beta_of_lambda(golden_model, lam)
            assert abs(point.lam - lam) <= 1e-10 * max(1.0, lam)

    def test_detection_decreasing_in_lambda(self, golden_model):
        grid = np.linspace(0.01, 2.0, 40)
        dets = [beta_of_lambda(golden_model, l).detection for l in grid]
        assert all(b < a - 1e-9 for a, b in zip(dets, dets[1:]))

    def test_bracket_solved_once_per_model(self, golden_model, monkeypatch):
        # a repeat call solves neither bracket end again: each is evaluated
        # once, by brentq's own look at the ends of its interval
        betas = []
        point_at_beta = se._point_at_beta

        def counted(model, beta):
            betas.append(beta)
            return point_at_beta(model, beta)

        monkeypatch.setattr(se, "_point_at_beta", counted)
        beta_zero = beta_of_lambda(golden_model, 0.0).beta
        beta_of_lambda(golden_model, 0.3)
        betas.clear()
        beta_of_lambda(golden_model, 0.3)
        assert betas.count(se._BETA_MAX) == 1
        assert betas.count(beta_zero) == 1

    def test_bracket_failure(self, golden_model):
        with pytest.raises(BracketFailure):
            beta_of_lambda(golden_model, 1e6)


class TestCalibrateGamma:
    def test_consistency_with_lambda_inversion(self, golden_model):
        lam = 0.45
        point = beta_of_lambda(golden_model, lam)
        again = calibrate_gamma(golden_model, point.gamma)
        assert again.sigma_hat == pytest.approx(point.sigma_hat, abs=1e-8)
        assert again.tau == pytest.approx(point.tau, abs=1e-8)
        assert again.lam == pytest.approx(lam, abs=1e-6)

    def test_lambda_relation(self, golden_model):
        point = calibrate_gamma(golden_model, 0.4)
        assert point.lam == pytest.approx(point.tau * (1 - 0.4), rel=1e-10)

    def test_gamma_to_one_kills_lambda(self, golden_model):
        lams = [calibrate_gamma(golden_model, g).lam for g in (0.9, 0.99, 0.999)]
        assert lams[0] > lams[1] > lams[2]
        assert lams[2] < 1e-2

    def test_no_finite_probe_is_bracket_failure(self, golden_prior):
        # every probe's variance passes the solver's divergence bound, so the
        # bisection never sees the crossing; it returned the edge where the
        # bound stops firing, gamma about 2.75e-12
        with pytest.raises(BracketFailure, match="no beta gave a finite survivor fraction"):
            calibrate_gamma(SEModel(0.5, 1e300, golden_prior), 0.5)

    def test_rejects_bad_gamma(self, golden_model):
        with pytest.raises(RangeError):
            calibrate_gamma(golden_model, 1.0)
        with pytest.raises(RangeError):
            calibrate_gamma(golden_model, 0.0)


class TestLassoPath:
    def test_grid_validation(self, golden_model):
        with pytest.raises(RangeError):
            lasso_path(golden_model, [0.1, 0.2])
        with pytest.raises(RangeError):
            lasso_path(golden_model, [0.1, 0.3, 0.2])

    def test_path_invariants(self, golden_model):
        grid = np.linspace(0.02, 2.0, 60)
        points = lasso_path(golden_model, grid)
        dets = np.array([p.detection for p in points])
        mses = np.array([p.mse for p in points])
        assert np.all(np.diff(dets) < -1e-9)
        assert dets.max() <= golden_model.delta + 1e-9
        diffs = np.diff(mses)
        signs = np.sign(diffs[np.abs(diffs) > 1e-9])
        assert np.count_nonzero(np.diff(signs) != 0) <= 1
        for p in points:
            res_var, res_lam = point_residuals(golden_model, p)
            assert res_var <= 1e-9 * max(1.0, p.sigma_hat**2)
            assert res_lam <= 1e-9 * max(1.0, p.lam)
            assert p.sigma_hat >= math.sqrt(golden_model.sigma_w_sq)


class TestSETrajectory:
    def test_initial_condition(self, golden_model):
        traj = se_trajectory(golden_model, FixedDetection(0.4), 5)
        assert traj.sigma[0] ** 2 == pytest.approx(
            golden_model.prior.second_moment / golden_model.delta, rel=1e-15
        )
        assert len(traj) == 6

    def test_monotone_convergence_fixed_false_alarm(self, golden_model):
        traj = se_trajectory(golden_model, FixedFalseAlarm(GOLDEN_BETA), 200)
        s = np.array(traj.sigma) ** 2
        diffs = np.diff(s)
        assert np.all(diffs <= 1e-14) or np.all(diffs >= -1e-14)
        assert s[-1] == pytest.approx(GOLDEN_SIGMA_HAT**2, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.15, 0.4, 0.75])
    def test_fixed_detection_limit_matches_calibration(self, golden_model, gamma):
        traj = se_trajectory(golden_model, FixedDetection(gamma), 200)
        point = calibrate_gamma(golden_model, gamma)
        assert traj.sigma[-1] == pytest.approx(point.sigma_hat, abs=1e-8)
        assert traj.tau[-1] == pytest.approx(point.tau, abs=1e-8)

    def test_fixed_threshold_policy(self, golden_model):
        traj = se_trajectory(golden_model, FixedThreshold(0.9), 50)
        assert all(t == 0.9 for t in traj.tau)

    @pytest.mark.parametrize("policy", [FixedThreshold(0.0), FixedFalseAlarm(0.5)])
    def test_divergence_is_solver_error(self, policy):
        # at delta 0.1 a low threshold lets sigma_t^2 grow ~10x per step until it overflows
        model = SEModel(0.1, 0.1, sparse_prior(0.1))
        with pytest.raises(NonConvergence):
            se_trajectory(model, policy, 2000)

    def test_rejects_bad_t_max(self, golden_model):
        with pytest.raises(RangeError):
            se_trajectory(golden_model, FixedDetection(0.4), 0)


class TestInnerTauSolve:
    def test_matches_detection(self, golden_model):
        prior = golden_model.prior
        tau = FixedDetection(0.5).se_tau(prior, 0.7, 2.0 * 0.25)
        assert detection_prob(prior, 0.7, tau) == pytest.approx(0.25, abs=1e-12)

    def test_atom_dominated_regime(self):
        # tiny noise: the threshold must clear the atoms, beyond 50*sigma
        prior = sparse_prior(0.4, 2.0)
        tau = FixedDetection(0.5).se_tau(prior, 1e-3, 2.0 * 0.2)
        assert tau > 1.9
        assert detection_prob(prior, 1e-3, tau) == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("target", [0.0, 1.0, math.nan])
    def test_rejects_target_outside_open_interval(self, golden_prior, target):
        with pytest.raises(RangeError, match="detection target must be in"):
            FixedDetection(0.5).se_tau(golden_prior, 0.7, 2.0 * target)


class TestModelValidation:
    def test_delta_range(self, golden_prior):
        with pytest.raises(RangeError):
            SEModel(0.0, 0.2, golden_prior)
        with pytest.raises(RangeError):
            SEModel(1.0, 0.2, golden_prior)

    def test_noise_must_be_positive(self, golden_prior):
        with pytest.raises(RangeError):
            SEModel(0.5, 0.0, golden_prior)
