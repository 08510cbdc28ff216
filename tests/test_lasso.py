import numpy as np
import pytest

from amppath import (
    InstanceConfig,
    ProblemInstance,
    RangeError,
    SparseSpec,
    kkt_residual,
    lasso_solve,
    power_iteration_sq_norm,
    sample_instance,
    soft_threshold,
)

from _oracles import coordinate_descent_lasso


def make_instance(seed=0, n=60, N=120, k=8, noise=0.1):
    return sample_instance(InstanceConfig(n, N, SparseSpec(k=k), noise_variance=noise, seed=seed))


def scalar_instance(a, y0):
    A = np.array([[a]])
    return ProblemInstance(A=A, x_o=np.zeros(1), w=np.zeros(1), y=np.array([y0]), config=None)


class TestPowerIteration:
    def test_against_svd(self):
        gen = np.random.default_rng(12)
        for _ in range(5):
            A = gen.standard_normal((30, 50))
            exact = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert power_iteration_sq_norm(A) == pytest.approx(exact, rel=1e-8)

    def test_zero_matrix(self):
        assert power_iteration_sq_norm(np.zeros((4, 6))) == 0.0

    def test_start_vector_in_null_space(self):
        # the all-ones start is annihilated by A; the top value is still 2
        A = np.array([[1.0, -1.0]])
        assert power_iteration_sq_norm(A) == pytest.approx(2.0, rel=1e-12)
        inst = ProblemInstance(A=A, x_o=np.zeros(2), w=np.zeros(1), y=np.array([3.0]), config=None)
        result = lasso_solve(inst, 0.1, tol=1e-10, kkt_every=1)
        assert result.converged
        assert kkt_residual(inst, 0.1, result.x_hat) <= 1e-10


class TestLassoSolve:
    @pytest.mark.parametrize("kkt_every", [0, -1])
    def test_kkt_every_validation(self, kkt_every):
        with pytest.raises(RangeError):
            lasso_solve(make_instance(), 0.1, kkt_every=kkt_every)

    def test_zero_solution_for_large_lambda(self):
        inst = make_instance()
        lam_max = np.max(np.abs(inst.A.T @ inst.y))
        result = lasso_solve(inst, 1.01 * lam_max)
        assert np.all(result.x_hat == 0.0)
        assert result.converged

    def test_scalar_closed_form(self):
        # minimizer of 0.5 (y - a x)^2 + lam |x| is eta(y/a; lam/a^2)
        for a, y0, lam in ((2.0, 3.0, 0.5), (0.7, -1.3, 0.2), (1.5, 0.4, 1.0)):
            inst = scalar_instance(a, y0)
            result = lasso_solve(inst, lam, tol=1e-12, max_iter=10000, kkt_every=1)
            expected = soft_threshold(y0 / a, lam / a**2)
            assert result.x_hat[0] == pytest.approx(expected, abs=1e-10)

    def test_objective_never_above_zero_estimate(self):
        inst = make_instance(seed=3)
        for lam in (0.01, 0.1, 1.0):
            result = lasso_solve(inst, lam)
            assert result.objective <= 0.5 * float(inst.y @ inst.y) + 1e-12

    def test_objective_recomputed_at_exit(self):
        inst = make_instance(seed=4)
        result = lasso_solve(inst, 0.2)
        r = inst.y - inst.A @ result.x_hat
        direct = 0.5 * float(r @ r) + 0.2 * float(np.sum(np.abs(result.x_hat)))
        assert result.objective == pytest.approx(direct, rel=1e-14)

    def test_coordinate_descent_agreement(self):
        # two independent solvers must land on the same objective value
        gen = np.random.default_rng(17)
        for case in range(10):
            n = int(gen.integers(30, 80))
            N = int(gen.integers(n, 200))
            k = int(gen.integers(1, max(2, n // 4)))
            inst = make_instance(seed=100 + case, n=n, N=N, k=k, noise=0.2)
            lam = float(gen.uniform(0.05, 0.5))
            fista = lasso_solve(inst, lam, tol=1e-10, max_iter=50000, kkt_every=5)
            assert fista.converged
            cd_x = coordinate_descent_lasso(inst.A, inst.y, lam)
            r = inst.y - inst.A @ cd_x
            cd_obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(cd_x)))
            assert fista.objective == pytest.approx(cd_obj, abs=1e-8)

    def test_nonconvergence_reported_via_flag(self):
        inst = make_instance(seed=5, n=100, N=300, k=30)
        result = lasso_solve(inst, 1e-4, tol=1e-14, max_iter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_negative_lambda_rejected(self):
        with pytest.raises(RangeError):
            lasso_solve(make_instance(), -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(RangeError):
            lasso_solve(make_instance(), lam)

    def test_zero_matrix_certifies_zero(self):
        # L = 0: every x has the objective of x = 0, and A^T r = 0 meets the KKT test
        y = np.array([3.0, -4.0])
        inst = ProblemInstance(A=np.zeros((2, 3)), x_o=np.zeros(3), w=np.zeros(2), y=y, config=None)
        result = lasso_solve(inst, 0.1)
        assert np.array_equal(result.x_hat, np.zeros(3))
        assert result.converged and result.iterations == 0
        assert result.kkt_residual == 0.0
        assert result.objective == 0.5 * float(y @ y)

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lipschitz_rejected(self, lipschitz):
        with pytest.raises(RangeError):
            lasso_solve(make_instance(), 0.1, lipschitz=lipschitz)

    @pytest.mark.parametrize("factor", [0.3, 0.01])
    def test_underestimated_lipschitz_backs_off(self, factor):
        # too long a step raises the objective; halving it must still reach
        # the optimum of the solve with the true constant
        inst = make_instance(seed=11)
        lipschitz = power_iteration_sq_norm(inst.A)
        exact = lasso_solve(inst, 0.1, tol=1e-10, max_iter=20000, lipschitz=lipschitz)
        backed_off = lasso_solve(inst, 0.1, tol=1e-10, max_iter=20000, lipschitz=factor * lipschitz)
        assert exact.converged and backed_off.converged
        assert backed_off.objective == pytest.approx(exact.objective, rel=1e-12)

    def test_support_shrinks_along_path_statistically(self):
        # no per-instance guarantee, but on a random instance the trend holds
        inst = make_instance(seed=8, n=300, N=600, k=30, noise=0.2)
        lams = np.linspace(0.02, 0.5, 20)
        lipschitz = power_iteration_sq_norm(inst.A)
        supports = []
        for lam in lams:
            res = lasso_solve(inst, lam, tol=1e-6, max_iter=20000, lipschitz=lipschitz)
            zero_tol = 1e-8 * np.max(np.abs(res.x_hat), initial=0.0)
            supports.append(int(np.count_nonzero(np.abs(res.x_hat) > zero_tol)))
        increases = [b - a for a, b in zip(supports, supports[1:]) if b > a]
        assert supports[0] > supports[-1]
        assert all(inc <= 0.005 * 600 for inc in increases)


class TestKktResidual:
    def test_zero_at_scalar_optimum(self):
        inst = scalar_instance(2.0, 3.0)
        x_star = np.array([soft_threshold(3.0 / 2.0, 0.5 / 4.0)])
        assert kkt_residual(inst, 0.5, x_star) <= 1e-12

    def test_zero_estimate_with_dominating_lambda(self):
        inst = make_instance(seed=6)
        lam = float(np.max(np.abs(inst.A.T @ inst.y)))
        assert kkt_residual(inst, lam * 1.0000001, np.zeros(inst.config.n_cols)) == 0.0

    def test_perturbation_grows_continuously(self):
        inst = make_instance(seed=9)
        lam = 0.3
        result = lasso_solve(inst, lam, tol=1e-11, max_iter=50000, kkt_every=5)
        base = kkt_residual(inst, lam, result.x_hat)
        prev = base
        for eps in (1e-6, 1e-4, 1e-2, 1.0):
            perturbed = result.x_hat.copy()
            perturbed[0] += eps
            res = kkt_residual(inst, lam, perturbed)
            assert res >= prev - 1e-12
            prev = res
        assert prev > 100 * base

    def test_requires_positive_lambda(self):
        with pytest.raises(RangeError):
            kkt_residual(make_instance(), 0.0, np.zeros(120))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_requires_finite_lambda(self, lam):
        with pytest.raises(RangeError):
            kkt_residual(make_instance(), lam, np.zeros(120))
