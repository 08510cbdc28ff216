import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from amppath.lasso import _BLOCK_BYTES, _residual_and_gradient

from _oracles import coordinate_descent_lasso


def make_instance(seed=0, n=60, N=120, k=8, noise=0.1):
    return sample_instance(InstanceConfig(n, N, SparseSpec(k=k), noise_variance=noise, seed=seed))


def scalar_instance(a, y0):
    A = np.array([[a]])
    return ProblemInstance(A=A, x_o=np.zeros(1), w=np.zeros(1), y=np.array([y0]), config=None)


class CountingMatrix(np.ndarray):
    """A matrix that counts the matrix products it takes part in, through
    its views too (``A.T``, row blocks); results come back as plain arrays.
    The unit is one full product: an np.matmul on a block of b of A's n
    rows adds b/n, exactly, so a product taken block by block counts one."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)
        self.full_size = getattr(obj, "full_size", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.counter[0] += Fraction(self.size, self.full_size)
        inputs = tuple(np.asarray(a) if isinstance(a, CountingMatrix) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def counting_matrix(A):
    A = A.view(CountingMatrix)
    A.counter, A.full_size = [0], A.size
    return A


def counting_instance(inst):
    A = counting_matrix(inst.A)
    return ProblemInstance(A=A, x_o=inst.x_o, w=inst.w, y=inst.y, config=inst.config), A.counter


def known_singular_values(n, N, second, seed):
    # U diag(s) V^T with orthonormal U (n x n) and V (N x n): top value 1,
    # the next one `second`, the rest spread below 0.9
    gen = np.random.default_rng(seed)
    U = np.linalg.qr(gen.standard_normal((n, n)))[0]
    V = np.linalg.qr(gen.standard_normal((N, n)))[0]
    s = np.concatenate(([1.0, second], np.linspace(0.9, 0.1, n - 2)))
    return (U * s) @ V.T


def with_entry(array, index, value):
    array = array.copy()
    array[index] = value
    return array


class TestPowerIteration:
    def test_against_svd(self):
        gen = np.random.default_rng(12)
        for _ in range(5):
            A = gen.standard_normal((30, 50))
            exact = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert power_iteration_sq_norm(A) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("second", [1 - 1e-3, 1 - 1e-6])
    @pytest.mark.parametrize("shape", [(40, 80), (200, 400)])
    def test_close_second_singular_value(self, shape, second):
        # a small gap slows the estimate but must not stop it short of L = 1
        for seed in range(3):
            A = known_singular_values(*shape, second, seed)
            assert power_iteration_sq_norm(A) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_products_per_call(self, seed):
        # Lanczos makes 112-136 products here, power iteration 396-1512
        A = np.random.default_rng(seed).standard_normal((500, 1000)) / np.sqrt(500)
        counted = counting_matrix(A)
        assert power_iteration_sq_norm(counted) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0] ** 2, rel=1e-12
        )
        assert counted.counter[0] <= 300

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, value):
        A = with_entry(np.random.default_rng(0).standard_normal((30, 50)), (3, 7), value)
        with pytest.raises(RangeError, match="not finite"):
            power_iteration_sq_norm(A)

    def test_zero_matrix(self):
        assert power_iteration_sq_norm(np.zeros((4, 6))) == 0.0

    def test_start_vector_in_null_space(self):
        # the all-ones start is annihilated by A; the top value is still 2
        A = np.array([[1.0, -1.0]])
        assert power_iteration_sq_norm(A) == pytest.approx(2.0, rel=1e-12)
        inst = ProblemInstance(A=A, x_o=np.zeros(2), w=np.zeros(1), y=np.array([3.0]), config=None)
        result = lasso_solve(inst, 0.1, tol=1e-10)
        assert result.converged
        assert kkt_residual(inst, 0.1, result.x_hat) <= 1e-10


class TestLassoSolve:
    def test_zero_solution_for_large_lambda(self):
        inst = make_instance()
        lam_max = np.max(np.abs(inst.A.T @ inst.y))
        result = lasso_solve(inst, 1.01 * lam_max)
        assert np.all(result.x_hat == 0.0)
        assert result.converged
        # the certificate at x = 0 ends the solve before the first step
        assert result.iterations == 0
        assert result.kkt_residual == 0.0

    def test_scalar_closed_form(self):
        # minimizer of 0.5 (y - a x)^2 + lam |x| is eta(y/a; lam/a^2)
        for a, y0, lam in ((2.0, 3.0, 0.5), (0.7, -1.3, 0.2), (1.5, 0.4, 1.0)):
            inst = scalar_instance(a, y0)
            result = lasso_solve(inst, lam, tol=1e-12, max_iter=10000)
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
        # two independent solvers must land on the same objective value, also
        # from a step 1/(factor L) too long for the matrix: the curvature test
        # must back it off (7 of the 40 underestimated solves used to stall
        # near KKT 1e-7 and run to the cap); None starts from the solver's
        # own Rayleigh quotient
        gen = np.random.default_rng(17)
        for case in range(10):
            n = int(gen.integers(30, 80))
            N = int(gen.integers(n, 200))
            k = int(gen.integers(1, max(2, n // 4)))
            inst = make_instance(seed=100 + case, n=n, N=N, k=k, noise=0.2)
            lam = float(gen.uniform(0.05, 0.5))
            cd_x = coordinate_descent_lasso(inst.A, inst.y, lam)
            r = inst.y - inst.A @ cd_x
            cd_obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(cd_x)))
            lipschitz = power_iteration_sq_norm(inst.A)
            for factor in (1.0, 0.45, 0.3, 0.1, 0.01, None):
                start = None if factor is None else factor * lipschitz
                fista = lasso_solve(inst, lam, tol=1e-10, max_iter=50000, lipschitz=start)
                assert fista.converged, (case, factor)
                assert fista.objective == pytest.approx(cd_obj, abs=1e-8)

    def test_gradient_restart_ends_long_momentum(self):
        # agreement case 1 at 1.0 L: without the gradient restart KKT sat
        # between 1e-9 and 1e-7 from iteration 500 to 3300 while the momentum
        # climbed, and the solve took 3970 iterations; with it, about 300
        gen = np.random.default_rng(17)
        for case in range(2):  # the draws of test_coordinate_descent_agreement
            n = int(gen.integers(30, 80))
            N = int(gen.integers(n, 200))
            k = int(gen.integers(1, max(2, n // 4)))
            lam = float(gen.uniform(0.05, 0.5))
        inst = make_instance(seed=100 + case, n=n, N=N, k=k, noise=0.2)
        result = lasso_solve(inst, lam, tol=1e-10, max_iter=50000, lipschitz=power_iteration_sq_norm(inst.A))
        assert result.converged
        assert result.iterations <= 1000

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 40),
        N=st.integers(4, 40),
        fraction=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coordinate_descent_agreement_on_random_shapes(self, n, N, fraction, seed):
        # full momentum lets the objective rise between restarts, so the
        # answer is checked against an independent minimizer on shapes the
        # fixed draws above leave out (n >= N too), lambda a fraction of
        # lambda_max = max|A^T y|, from the solver's own first step and 1/L
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((n, N)) / np.sqrt(n)
        x_o = np.zeros(N)
        x_o[gen.choice(N, size=max(1, N // 8), replace=False)] = 1.0
        w = 0.3 * gen.standard_normal(n)
        inst = ProblemInstance(A=A, x_o=x_o, w=w, y=A @ x_o + w, config=None)
        lam = fraction * float(np.max(np.abs(A.T @ inst.y)))
        cd_x = coordinate_descent_lasso(A, inst.y, lam)
        r = inst.y - A @ cd_x
        cd_obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(cd_x)))
        for lipschitz in (None, float(np.linalg.norm(A, 2)) ** 2):
            fista = lasso_solve(inst, lam, tol=1e-9, max_iter=50000, lipschitz=lipschitz)
            assert fista.converged, lipschitz
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

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        # a negative tol used to run every solve to the cap, converged False
        with pytest.raises(RangeError, match="tol must be finite and >= 0"):
            lasso_solve(make_instance(), 0.1, tol=tol)

    def test_iteration_cap_below_one_rejected(self):
        # a cap of 0 used to return kkt_residual inf
        with pytest.raises(RangeError, match="max_iter must be >= 1, got 0"):
            lasso_solve(make_instance(), 0.1, max_iter=0)

    def test_zero_matrix_certifies_zero(self):
        # L = 0: every x has the objective of x = 0, and A^T r = 0 meets the KKT test
        y = np.array([3.0, -4.0])
        inst = ProblemInstance(A=np.zeros((2, 3)), x_o=np.zeros(3), w=np.zeros(2), y=y, config=None)
        result = lasso_solve(inst, 0.1)
        assert np.array_equal(result.x_hat, np.zeros(3))
        assert result.converged and result.iterations == 0
        assert result.kkt_residual == 0.0
        assert result.objective == 0.5 * float(y @ y)

    @pytest.mark.parametrize("lipschitz", [None, 1.0])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "y"])
    def test_non_finite_instance_rejected(self, where, value, lipschitz):
        # a NaN used to run all iterations and return NaN, converged False
        inst = make_instance()
        A = with_entry(inst.A, (3, 7), value) if where == "A" else inst.A
        y = with_entry(inst.y, 5, value) if where == "y" else inst.y
        bad = ProblemInstance(A=A, x_o=inst.x_o, w=inst.w, y=y, config=inst.config)
        with pytest.raises(RangeError, match="not finite"):
            lasso_solve(bad, 0.1, lipschitz=lipschitz)

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lipschitz_rejected(self, lipschitz):
        with pytest.raises(RangeError):
            lasso_solve(make_instance(), 0.1, lipschitz=lipschitz)

    @pytest.mark.parametrize("factor", [0.3, 0.01])
    def test_underestimated_lipschitz_backs_off(self, factor):
        # too long a step fails the curvature test; halving it must still
        # reach the optimum of the solve with the true constant
        inst = make_instance(seed=11)
        lipschitz = power_iteration_sq_norm(inst.A)
        exact = lasso_solve(inst, 0.1, tol=1e-10, max_iter=20000, lipschitz=lipschitz)
        backed_off = lasso_solve(inst, 0.1, tol=1e-10, max_iter=20000, lipschitz=factor * lipschitz)
        assert exact.converged and backed_off.converged
        assert backed_off.objective == pytest.approx(exact.objective, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 6, 11])
    def test_step_grows_past_a_short_start(self, seed):
        # from 1/(100 L) the step regains 1/L in ln(100)/ln(1.05) = 95
        # accepted steps; a step that never grew took 2110-3100 iterations
        # here, against 130-170 at 1/L
        inst = make_instance(seed=seed)
        lipschitz = power_iteration_sq_norm(inst.A)
        at_l = lasso_solve(inst, 0.1, lipschitz=lipschitz)
        short = lasso_solve(inst, 0.1, lipschitz=100.0 * lipschitz)
        assert at_l.converged and short.converged
        assert short.iterations <= at_l.iterations + 100

    @pytest.mark.parametrize("factor", [1.0, 0.3, None])
    def test_two_matrix_products_per_step(self, factor):
        # A x and A^T r at each accepted iterate, A x alone on a rejected
        # step, two to start, and with no lipschitz one more for A g0; the
        # KKT check reuses the carried gradient.  0.3 L makes the momentum
        # steps overshoot, so some are rejected
        inst = make_instance(seed=11)
        lipschitz = None if factor is None else factor * power_iteration_sq_norm(inst.A)
        start = 3 if factor is None else 2
        counted, matmuls = counting_instance(inst)
        result = lasso_solve(counted, 0.1, tol=1e-10, max_iter=20000, lipschitz=lipschitz)
        assert result.converged
        # at least A x_new on every step: the counter sees the solver's products
        assert result.iterations + start <= matmuls[0] <= 2 * result.iterations + start

    @pytest.mark.parametrize(
        "lam, max_iter", [(0.15, 20000), (0.15, 3), (0.0, 20000)], ids=["20000", "3", "lambda-0"]
    )
    def test_reported_residual_is_the_certificate(self, lam, max_iter):
        # the residual the solver stops on is kkt_residual of its answer,
        # bit for bit: the gradient it checks is a fresh A^T r, never the
        # linear combination it steps with; a capped solve checks on its
        # last step, off the 10-step cadence; lambda 0 takes the same rule
        inst = make_instance(seed=6)
        result = lasso_solve(inst, lam, max_iter=max_iter)
        assert result.converged == (max_iter > 3)
        assert result.kkt_residual == kkt_residual(inst, lam, result.x_hat)

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


class TestResidualAndGradient:
    N = 2000
    ROWS = _BLOCK_BYTES // (8 * N)  # rows per block at this width

    @pytest.mark.parametrize(
        "n, order, zero_y",
        [(2 * ROWS, "C", False), (2 * ROWS + 7, "C", False), (ROWS // 2, "C", False), (1, "C", False),
         (2 * ROWS + 7, "F", False), (2 * ROWS + 7, "C", True)],
        ids=["multiple-of-block", "ragged", "below-one-block", "one-row", "fortran", "zero-y"],
    )
    def test_matches_plain_products(self, n, order, zero_y):
        gen = np.random.default_rng(n)
        A = np.asarray(gen.standard_normal((n, self.N)), order=order)
        x = gen.standard_normal(self.N)
        y = np.zeros(n) if zero_y else gen.standard_normal(n)
        r, g = _residual_and_gradient(A, x, y)
        r_plain = A @ x - y
        g_plain = A.T @ r_plain
        assert np.linalg.norm(r - r_plain) <= 1e-13 * np.linalg.norm(r_plain)
        assert np.linalg.norm(g - g_plain) <= 1e-13 * np.linalg.norm(g_plain)

    def test_makes_no_copy_of_the_matrix(self):
        # the blocks' shares of g are the only buffer: about 0.3 MiB at
        # 1000 x 2000, against 16 MB for A
        gen = np.random.default_rng(0)
        A = gen.standard_normal((1000, self.N))
        x, y = gen.standard_normal(self.N), gen.standard_normal(1000)
        tracemalloc.start()
        try:
            _residual_and_gradient(A, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 8


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
        result = lasso_solve(inst, lam, tol=1e-11, max_iter=50000)
        base = kkt_residual(inst, lam, result.x_hat)
        prev = base
        for eps in (1e-6, 1e-4, 1e-2, 1.0):
            perturbed = result.x_hat.copy()
            perturbed[0] += eps
            res = kkt_residual(inst, lam, perturbed)
            assert res >= prev - 1e-12
            prev = res
        assert prev > 100 * base

    def test_zero_lambda_is_gradient_sup_norm(self):
        # nothing to divide by at lambda 0: the residual is max |A^T (y - A x)|
        inst = make_instance(seed=6)
        x = lasso_solve(inst, 0.15).x_hat
        g = inst.A.T @ (inst.y - inst.A @ x)
        assert kkt_residual(inst, 0.0, x) == float(np.max(np.abs(g)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(RangeError):
            kkt_residual(make_instance(), -0.1, np.zeros(120))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_requires_finite_lambda(self, lam):
        with pytest.raises(RangeError):
            kkt_residual(make_instance(), lam, np.zeros(120))
