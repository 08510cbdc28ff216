import inspect
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from amppath import lasso
from amppath.lasso import _BLOCK_BYTES, _KKT_EVERY, _columns, _correction, _residual_and_gradient

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


def float64_kernel(A, x, y):
    # r = A x - y and A^T r block by block as for float64 alone: rows per
    # block sized by 8 bytes, float64 buffers, the shares summed in order
    n, N = A.shape
    rows = max(1, _BLOCK_BYTES // (8 * max(N, 1)))
    r = np.empty(n)
    shares = np.empty((-(-n // rows), N))
    for b, start in enumerate(range(0, n, rows)):
        A_b, r_b = A[start : start + rows], r[start : start + rows]
        np.matmul(A_b, x, out=r_b)
        r_b -= y[start : start + rows]
        np.matmul(A_b.T, r_b, out=shares[b])
    return r, shares.sum(axis=0)


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
    def test_matrix_products_per_call(self, seed, monkeypatch):
        # Lanczos makes 112-136 products here, power iteration 396-1512; one
        # worker, as the counter sees only this process's products
        monkeypatch.setattr(lasso, "_workers", lambda: 1)
        A = np.random.default_rng(seed).standard_normal((500, 1000)) / np.sqrt(500)
        counted = counting_matrix(A)
        assert power_iteration_sq_norm(counted) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0] ** 2, rel=1e-12
        )
        assert counted.counter[0] <= 300

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, value):
        # the RangeError alone: an inf used to print numpy's "invalid value
        # encountered in matmul" first
        A = with_entry(np.random.default_rng(0).standard_normal((30, 50)), (3, 7), value)
        with warnings.catch_warnings(), pytest.raises(RangeError, match="not finite"):
            warnings.simplefilter("error")
            power_iteration_sq_norm(A)

    def test_zero_matrix(self):
        assert power_iteration_sq_norm(np.zeros((4, 6))) == 0.0

    def test_start_vector_in_null_space(self):
        A = np.array([[1.0, -1.0]])
        assert power_iteration_sq_norm(A) == pytest.approx(2.0, rel=1e-12)
        inst = ProblemInstance(A=A, x_o=np.zeros(2), w=np.zeros(1), y=np.array([3.0]), config=None)
        result = lasso_solve(inst, 0.1, tol=1e-10)
        assert result.converged
        assert kkt_residual(inst, 0.1, result.x_hat) <= 1e-10

    def test_start_orthogonal_to_top_singular_vector(self):
        # all-ones is orthogonal to the top right singular vector (1, -1, 0)
        # here: a recurrence from it stays in span{(1, 1, 0), (0, 0, 1)} and
        # stops at 1, the top value there
        A = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
        assert power_iteration_sq_norm(A) == pytest.approx(8.0, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_small_integer_matrices(self, n, N, data):
        # small integer entries give repeated, clustered and zero singular
        # values, and the zero rows and columns give null spaces
        entries = st.lists(st.integers(-3, 3), min_size=n * N, max_size=n * N)
        A = np.array(data.draw(entries), dtype=float).reshape(n, N)
        A[data.draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
        A[:, data.draw(st.lists(st.integers(0, N - 1), max_size=N))] = 0.0
        exact = np.linalg.svd(A, compute_uv=False)[0] ** 2
        assert power_iteration_sq_norm(A) == pytest.approx(exact, rel=1e-12)


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

    def test_coordinate_descent_agreement_on_random_shapes(self, monkeypatch):
        # full momentum lets the objective rise between restarts, so the
        # answer is checked against an independent minimizer on shapes the
        # fixed draws above leave out (n >= N too), lambda a fraction of
        # lambda_max = max|A^T y|, from the solver's own first step and 1/L.
        # Wide draws, N >= 2n with lambda >= 0.3 lambda_max, have near sets
        # that fit in half the columns, so some of them step on a working set
        copies = []

        def recording_columns(A, cols):
            copies.append(cols.size)
            return _columns(A, cols)

        monkeypatch.setattr(lasso, "_columns", recording_columns)

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(
            shape=st.one_of(
                st.tuples(st.integers(4, 40), st.integers(4, 40), st.floats(0.02, 1.0)),
                st.integers(4, 20).flatmap(
                    lambda n: st.tuples(st.just(n), st.integers(2 * n, 80), st.floats(0.3, 1.0))
                ),
            ),
            seed=st.integers(0, 2**32 - 1),
        )
        def agree(shape, seed):
            n, N, fraction = shape
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

        agree()
        assert copies

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
        # a NaN used to run all iterations and return NaN, converged False;
        # an inf in A used to print numpy's RuntimeWarning before the error
        inst = make_instance()
        A = with_entry(inst.A, (3, 7), value) if where == "A" else inst.A
        y = with_entry(inst.y, 5, value) if where == "y" else inst.y
        bad = ProblemInstance(A=A, x_o=inst.x_o, w=inst.w, y=y, config=inst.config)
        with warnings.catch_warnings(), pytest.raises(RangeError, match="not finite"):
            warnings.simplefilter("error")
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
    def test_two_matrix_products_per_step(self, factor, monkeypatch):
        # a step is one pass, A x and A^T r, over A or, from the check that
        # enters the working set, over the copy A_W of its columns; a full
        # pass starts the solve (with no lipschitz, one more product for
        # A g0), and full passes check x on all of A, at most one per KKT
        # check made on W.  Each copy counts its own products in units of a
        # full product, so a pass over A_W adds 2 |W| / N.  0.3 L makes the
        # momentum steps overshoot, so some are rejected; at 0.3 L and from
        # the solver's own first step the working set is rebuilt once
        inst = make_instance(seed=11)
        N = inst.A.shape[1]
        lipschitz = None if factor is None else factor * power_iteration_sq_norm(inst.A)
        start = 3 if factor is None else 2
        counted, matmuls = counting_instance(inst)
        copies = []

        def counting_columns(A, cols):
            A_W, e = _columns(A, cols)
            A_W = A_W.view(CountingMatrix)
            A_W.counter, A_W.full_size = [0], A.size
            copies.append((cols.size, A_W.counter))
            return A_W, e

        monkeypatch.setattr(lasso, "_columns", counting_columns)
        result = lasso_solve(counted, 0.1, tol=1e-10, max_iter=20000, lipschitz=lipschitz)
        assert result.converged
        assert len(copies) == (1 if factor == 1.0 else 2)
        # whole passes over each copy: the steps made on it
        restricted = [Fraction(counter[0] * N, 2 * width) for width, counter in copies]
        assert all(steps.denominator == 1 and steps > 0 for steps in restricted)
        # whole passes over A: the start, the steps made on it, and the checks
        full_steps = result.iterations - sum(restricted)
        checks = (matmuls[0] - start - 2 * full_steps) / 2
        assert checks.denominator == 1
        assert checks <= sum(steps // _KKT_EVERY + 1 for steps in restricted)
        # the residual falls by decades from the switch to 1e-10: besides
        # the check that ends each copy, the tenfold recheck makes more
        assert checks >= len(copies) + 1
        # narrower than one full pass per step
        assert matmuls[0] + sum(counter[0] for _, counter in copies) < start + 2 * result.iterations

    def test_working_set_widens_to_the_violators(self, monkeypatch):
        # the second instance of the benchmark's fista-sweep at seed 201: at
        # lambda 0.15 the support grows past the W the solver first copies,
        # so a check on all of A finds violators off W, and the same check
        # copies the near set at x, which holds every violator of that pass
        config = InstanceConfig(1000, 2000, SparseSpec(100, 1.0, random_sign=False), noise_variance=0.7, seed=805)
        inst = sample_instance(config)
        events = []
        # one worker: a pass over all of A is told apart as one over inst.A
        monkeypatch.setattr(lasso, "_workers", lambda: 1)

        def recording_passes(A, x, y):
            r, g = _residual_and_gradient(A, x, y)
            if A is inst.A:
                events.append(("full", g))
            return r, g

        def recording_columns(A, cols):
            events.append(("copy", cols))
            return _columns(A, cols)

        monkeypatch.setattr(lasso, "_residual_and_gradient", recording_passes)
        monkeypatch.setattr(lasso, "_columns", recording_columns)
        result = lasso_solve(inst, 0.15, tol=1e-6, max_iter=5000, lipschitz=power_iteration_sq_norm(inst.A))
        assert result.converged
        copies = [i for i, event in enumerate(events) if event[0] == "copy"]
        assert len(copies) >= 2
        for before, after in zip(copies, copies[1:]):
            # the pass just before a new copy is the check that found violators
            kind, g_full = events[after - 1]
            assert kind == "full"
            violators = np.flatnonzero(np.abs(g_full) > 0.15)
            assert not np.all(np.isin(violators, events[before][1]))
            assert np.all(np.isin(violators, events[after][1]))
        assert result.kkt_residual == kkt_residual(inst, 0.15, result.x_hat)

    def test_working_set_enters_on_the_near_set(self, monkeypatch):
        # the first instance of the benchmark's fista-sweep at seed 1: at
        # lambda 0.3 W is entered at the first check, after 10 steps, on the
        # support and the columns whose |g_j| is near lambda (916 of the
        # 2000 columns), not 60-140 steps later when the support holds still
        config = InstanceConfig(1000, 2000, SparseSpec(100, 1.0, random_sign=False), noise_variance=0.7, seed=4)
        inst = sample_instance(config)
        lipschitz = power_iteration_sq_norm(inst.A)  # Lanczos passes before the counting starts
        passes, copies = [0], []

        def counting_passes(A, x, y):
            passes[0] += 1
            return _residual_and_gradient(A, x, y)

        def recording_columns(A, cols):
            copies.append((passes[0], cols))
            return _columns(A, cols)

        monkeypatch.setattr(lasso, "_residual_and_gradient", counting_passes)
        monkeypatch.setattr(lasso, "_columns", recording_columns)
        result = lasso_solve(inst, 0.3, tol=1e-6, max_iter=5000, lipschitz=lipschitz)
        assert result.converged
        # every pass before the first copy is over all of A: the start and one per step
        first_pass, _ = copies[0]
        assert first_pass - 1 <= 20
        assert np.all(np.isin(np.flatnonzero(result.x_hat), copies[-1][1]))
        assert result.kkt_residual == kkt_residual(inst, 0.3, result.x_hat)

    def test_stalled_check_on_the_working_set_pays_a_full_pass(self, monkeypatch):
        # a step on W adds a float32 correction to the anchor, and its error
        # grows with the distance from it; a check on W whose residual is not
        # below the last check on W may read that error, so it pays a pass
        # over all of A, which re-anchors.  Without that rule the README
        # sweep's lambda 0.0025 row at seed 1 ran to the 20,000 cap at KKT
        # 2.01: the step test read the error and halved the step to 1e-311.
        # Here W holds all 120 columns, so a check on W is told apart by
        # what comes before it: a step on the copy, not a pass over A
        inst = make_instance(seed=0)
        events, kkt_violation = [], lasso._kkt_violation

        def recording_kkt(g, x, lam):
            residual = kkt_violation(g, x, lam)
            events.append(("check", residual))
            return residual

        def recording_passes(A, x, y):
            if A is inst.A:
                events.append(("full",))
            return _residual_and_gradient(A, x, y)

        def recording_correction(A_W, e, d):
            events.append(("step on W",))
            return _correction(A_W, e, d)

        def recording_columns(A, cols):
            events.append(("copy",))
            return _columns(A, cols)

        monkeypatch.setattr(lasso, "_kkt_violation", recording_kkt)
        monkeypatch.setattr(lasso, "_residual_and_gradient", recording_passes)
        monkeypatch.setattr(lasso, "_correction", recording_correction)
        monkeypatch.setattr(lasso, "_columns", recording_columns)
        result = lasso_solve(inst, 0.01, tol=1e-6, max_iter=20000)
        assert result.converged
        stalls, last = 0, None
        for i, event in enumerate(events):
            if event[0] == "copy":
                last = None
            elif event[0] == "check" and events[i - 1] == ("step on W",):
                if last is not None and event[1] >= last:
                    stalls += 1
                    assert events[i + 1] == ("full",), i
                last = event[1]
        assert stalls > 0
        assert result.kkt_residual == kkt_residual(inst, 0.01, result.x_hat)

    def test_full_check_that_keeps_the_working_set_reanchors(self, monkeypatch):
        # after a pass over all of A that keeps W, the steps go on from that
        # pass's r and its g restricted to W, bit for bit, not from the
        # values the float32 corrections carried up to it
        inst = make_instance(seed=11)
        passes, kept, last = [], [], {"A_W": None, "passes": 0}

        def recording_passes(A, x, y):
            r, g = _residual_and_gradient(A, x, y)
            if A is inst.A:
                passes.append((r, g))
            return r, g

        def checking_correction(A_W, e, d):
            solver = sys._getframe(1).f_locals
            if A_W is last["A_W"] and len(passes) > last["passes"]:
                r_full, g_full = passes[-1]
                kept.append(
                    np.array_equal(solver["r"], r_full) and np.array_equal(solver["g"], g_full[solver["cols"]])
                )
            last["A_W"], last["passes"] = A_W, len(passes)
            return _correction(A_W, e, d)

        monkeypatch.setattr(lasso, "_residual_and_gradient", recording_passes)
        monkeypatch.setattr(lasso, "_correction", checking_correction)
        result = lasso_solve(inst, 0.1, tol=1e-10, max_iter=20000)
        assert result.converged
        assert kept and all(kept)

    @pytest.mark.parametrize("power", [-140, -160, 130])
    def test_float32_steps_hold_any_scale(self, power, monkeypatch):
        # A and lambda scaled by 2^power scale x by 2^-power; entries of A
        # near 2^-144 or 2^126, or of x near 2^140 or 2^-130, leave float32's
        # range unless the copy and d are scaled, which is exact, so the
        # scaled solve is the unscaled one bit for bit, on float32 copies
        inst = sample_instance(InstanceConfig(200, 800, SparseSpec(k=20), noise_variance=0.1, seed=0))
        dtypes = []

        def recording_columns(A, cols):
            A_W, e = _columns(A, cols)
            dtypes.append(A_W.dtype)
            return A_W, e

        monkeypatch.setattr(lasso, "_columns", recording_columns)
        base = lasso_solve(inst, 0.05)
        scale = 2.0**power
        scaled = ProblemInstance(A=scale * inst.A, x_o=inst.x_o, w=inst.w, y=inst.y, config=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = lasso_solve(scaled, scale * 0.05)
        assert base.converged and result.converged
        assert result.iterations == base.iterations
        np.testing.assert_array_equal(scale * result.x_hat, base.x_hat)
        assert dtypes and all(dtype == np.float32 for dtype in dtypes)

    @pytest.mark.parametrize(
        "g, x, keep, expected",
        [
            ([0.95, -0.95, 0.95], [], [], [0, 1, 2]),
            ([0.95, -0.85, 0.9, 0.95], [], [], [0, 3]),
            ([1.5, -1.5, 1.5, 0.95, -0.95, 0.95, 0.95], [], [], [0, 1, 2, 3, 4, 5, 6]),
            ([1.5, -1.5, 1.5, 1.5, 1.5, 1.5], [], [], [0, 1, 2, 3, 4, 5]),
            ([1.5, -1.5, 1.5, 1.5, 1.5], [], [], [0, 1, 2, 3, 4]),
            ([0.95, -0.95, 0.95], [9], [8], [0, 1, 2, 8, 9]),
            ([1.5, -1.5, 1.5, 0.95, -0.95, 0.95, 0.95], [9], [8], [0, 1, 2, 3, 4, 5, 6, 8, 9]),
        ],
        ids=["near-fits", "margin", "violators", "wider-than-half", "half-fits", "keep", "keep-violators"],
    )
    def test_working_set_choice(self, g, x, keep, expected):
        # N = 10 and lambda 1: the columns where x != 0, keep holds or
        # |g_j| > 0.9, however many; the leading entries of g are set, the
        # rest are 0
        g_full, x_full, keep_full = np.zeros(10), np.zeros(10), np.zeros(10, dtype=bool)
        g_full[: len(g)] = g
        x_full[x] = 0.3
        keep_full[keep] = True
        np.testing.assert_array_equal(lasso._working_set(x_full, keep_full, g_full, 1.0), expected)

    @pytest.mark.parametrize(
        "lam, max_iter", [(0.15, 20000), (0.15, 3), (0.15, 55), (0.0, 20000)],
        ids=["20000", "3", "55-restricted", "lambda-0"],
    )
    def test_reported_residual_is_the_certificate(self, lam, max_iter):
        # the residual the solver stops on is kkt_residual of its answer,
        # bit for bit: the gradient it checks is a fresh A^T r, never the
        # linear combination it steps with; a capped solve checks on its
        # last step, off the 10-step cadence, and one capped while it steps
        # on a working set, as at 55 here, reports a pass over all of A;
        # lambda 0 takes the same rule
        inst = make_instance(seed=6)
        result = lasso_solve(inst, lam, max_iter=max_iter)
        assert result.converged == (max_iter > 55)
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


    @pytest.mark.parametrize(
        "n, order, zero_y",
        [(2 * ROWS, "C", False), (2 * ROWS + 7, "C", False), (ROWS // 2, "C", False), (1, "C", False),
         (2 * ROWS + 7, "F", False), (2 * ROWS + 7, "C", True)],
        ids=["multiple-of-block", "ragged", "below-one-block", "one-row", "fortran", "zero-y"],
    )
    def test_float64_matches_the_float64_kernel(self, n, order, zero_y):
        # a float64 A gives the bits of the kernel written for float64 alone
        gen = np.random.default_rng(n)
        A = np.asarray(gen.standard_normal((n, self.N)), order=order)
        x = gen.standard_normal(self.N)
        y = np.zeros(n) if zero_y else gen.standard_normal(n)
        r, g = _residual_and_gradient(A, x, y)
        r_ref, g_ref = float64_kernel(A, x, y)
        assert r.dtype == g.dtype == np.float64
        assert np.array_equal(r, r_ref) and np.array_equal(g, g_ref)

    def test_float32_allocates_no_float64_block(self):
        # row blocks sized by 4 bytes, r and the blocks' shares of g in
        # float32: a float64 array of the shares alone would take twice the
        # bytes of the float32 one; the results still come back float64
        n = 2000
        gen = np.random.default_rng(1)
        A = gen.standard_normal((n, self.N)).astype(np.float32)
        x = gen.standard_normal(self.N).astype(np.float32)
        y = gen.standard_normal(n).astype(np.float32)
        shares = -(-n // (_BLOCK_BYTES // (4 * self.N))) * self.N * 4
        tracemalloc.start()
        try:
            r, g = _residual_and_gradient(A, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * shares
        assert r.dtype == g.dtype == np.float64
        A64 = A.astype(np.float64)
        r_plain = A64 @ x - y
        g_plain = A64.T @ r_plain
        assert np.linalg.norm(r - r_plain) <= 1e-5 * np.linalg.norm(r_plain)
        assert np.linalg.norm(g - g_plain) <= 1e-5 * np.linalg.norm(g_plain)


class TestColumns:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [0, 1, 37])
    def test_matches_fancy_indexing(self, order, width):
        # the working-set copy is A[:, cols] scaled by 2^e and cast to
        # float32, C-ordered whatever A's order, 4 bytes an entry; its
        # largest entry lies in [0.5, 1) (23 rows are one row block)
        gen = np.random.default_rng(width)
        A = np.asarray(gen.standard_normal((23, 80)), order=order)
        cols = np.sort(gen.choice(80, size=width, replace=False))
        A_W, e = _columns(A, cols)
        assert A_W.flags.c_contiguous
        assert A_W.dtype == np.float32 and A_W.nbytes == 4 * 23 * width
        assert np.array_equal(A_W, np.ldexp(A[:, cols], e).astype(np.float32))
        if width:
            assert 0.5 <= np.max(np.abs(np.ldexp(A[:, cols], e))) < 1.0


    @pytest.mark.parametrize("fault", ["flushed", "overflow"])
    def test_falls_back_to_float64(self, fault):
        # columns float32 cannot hold come back as the float64 copy with
        # e = 0: a column 2^-200 times the rest flushes to zero, and rows
        # past the first row block (98 rows at this width) 2^200 times the
        # first overflow; the cast's overflow warning is not raised
        gen = np.random.default_rng(5)
        A = gen.standard_normal((200, 1000))
        if fault == "flushed":
            A[:, 3] *= 2.0**-200
        else:
            A[100:] *= 2.0**200
        cols = np.arange(1000)
        A_W, e = _columns(A, cols)
        assert A_W.dtype == np.float64 and e == 0
        assert A_W.flags.c_contiguous
        assert np.array_equal(A_W, A)


def unscaled_correction(A_W, e, d):
    # _correction with its vectors scaled out of place: d scaled into a new
    # float64 vector, then cast, and new vectors for the scaled products
    b = -int(np.frexp(np.max(np.abs(d), initial=0.0))[1])
    a_d, g_d = _residual_and_gradient(A_W, np.ldexp(d, b).astype(A_W.dtype), None)
    return np.ldexp(a_d, -(e + b)), np.ldexp(g_d, -(2 * e + b))


class TestCorrection:
    @settings(max_examples=200, deadline=None)
    @given(
        mantissas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
        exponent=st.integers(-1080, 900),
        rows=st.integers(1, 30),
        e=st.integers(-20, 20),
        float64=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # max |d| subnormal, 0.75 * 2^-1060: d is scaled by 2^1060, a power of
    # two that 2.0**b would overflow
    @example(mantissas=[0.75, -0.3, 0.0], exponent=-1060, rows=5, e=3, float64=False, seed=0)
    @example(mantissas=[0.75, -0.3, 0.0], exponent=-1060, rows=5, e=0, float64=True, seed=0)
    # a float64 copy, which has e = 0
    @example(mantissas=[0.5, 1.0, -0.25], exponent=40, rows=7, e=0, float64=True, seed=1)
    def test_in_place_scaling_keeps_the_bits(self, mantissas, exponent, rows, e, float64, seed):
        d = np.ldexp(np.array(mantissas), exponent)
        dtype = np.float64 if float64 else np.float32
        e = 0 if float64 else e
        A_W = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, d.size)).astype(dtype)
        expected = unscaled_correction(A_W, e, d)
        a_d, g_d = _correction(A_W, e, d.copy())()
        assert a_d.dtype == g_d.dtype == np.float64
        assert a_d.tobytes() == expected[0].tobytes() and g_d.tobytes() == expected[1].tobytes()


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


def _children():
    # the processes this process has forked and not yet reaped
    pid = os.getpid()
    return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()


def _gone(pid):
    # no process with this pid, or a zombie waiting for a reaper
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


_SWEEP_INSTANCE = InstanceConfig(1000, 2000, SparseSpec(100, 1.0, random_sign=False), noise_variance=0.7, seed=4)


@pytest.mark.skipif(not hasattr(os, "fork") or os.uname().machine != "x86_64"
                    or not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="the split runs on x86-64 with fork; the checks read /proc")
class TestSplitPasses:
    """lasso_solve's and power_iteration_sq_norm's passes split between
    this process and 0-2 forked helpers, forced through the private worker
    rule so that they fan out on any host."""

    @staticmethod
    def forks_at(monkeypatch, workers):
        # the worker count, and a record of the helpers the calls fork
        monkeypatch.setattr(lasso, "_workers", lambda: workers)
        forks, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @pytest.mark.parametrize("lipschitz", [False, True], ids=["rayleigh", "lipschitz"])
    def test_same_bits(self, monkeypatch, lipschitz):
        inst = sample_instance(_SWEEP_INSTANCE)
        results = []
        for workers in (1, 2, 3):
            forks = self.forks_at(monkeypatch, workers)
            L = power_iteration_sq_norm(inst.A) if lipschitz else None
            result = lasso_solve(inst, 0.2, lipschitz=L)
            results.append((L, result.x_hat.tobytes(), result.objective, result.kkt_residual, result.iterations))
            # one team per call: helpers forked at the first pass
            assert len(forks) == (workers - 1) * (2 if lipschitz else 1)
            assert _children() == []
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("power", [200, -200])
    def test_float64_fallback_same_bits(self, monkeypatch, power):
        # the last 100 rows, all in the last worker's share, scaled by
        # 2^power: at the scale of the first block float32 overflows there
        # (200) or flushes them to zero (-200), so every worker copies W in
        # float64, and only the last one sees why
        inst = sample_instance(_SWEEP_INSTANCE)
        A, y = inst.A.copy(), inst.y.copy()
        A[900:] *= 2.0**power
        y[900:] *= 2.0**power
        scaled = ProblemInstance(A=A, x_o=inst.x_o, w=inst.w, y=y, config=None)
        results = []
        for workers in (1, 2, 3):
            self.forks_at(monkeypatch, workers)
            copies = []

            def recording_columns(A, cols):
                A_W, e = _columns(A, cols)
                copies.append((isinstance(A_W, lasso._Shared), A_W.dtype, e))
                return A_W, e

            monkeypatch.setattr(lasso, "_columns", recording_columns)
            result = lasso_solve(scaled, 0.02, max_iter=200)
            results.append((result.x_hat.tobytes(), result.objective, result.kkt_residual, result.iterations))
            assert copies and all(dtype == np.float64 and e == 0 for _, dtype, e in copies)
            assert all(shared == (workers > 1) for shared, _, _ in copies)
        assert results[1] == results[0] and results[2] == results[0]

    def test_every_step_branch_same_bits(self, monkeypatch):
        # a rejected step, a step with full momentum and one that restarts
        # it, each taken on all of A and on W, in one process and with the
        # passes split at w = 2 and 3; a tracer counts each branch's line
        # in lasso_solve
        source, first = inspect.getsourcelines(lasso.lasso_solve)

        def line_of(text):
            (i,) = [i for i, line in enumerate(source) if text in line]
            return first + i

        branches = {
            line_of("step *= 0.5"): "rejected",
            line_of("v, grad_v, r_v = x_new, g_new, r_new"): "restart",
            line_of("v, grad_v, r_v = x_new + d_step"): "momentum",
        }
        code = lasso.lasso_solve.__code__
        inst = sample_instance(_SWEEP_INSTANCE)
        results = []
        for workers in (1, 2, 3):
            self.forks_at(monkeypatch, workers)
            counts = {(branch, on): 0 for branch in branches.values() for on in ("A", "W")}

            def counting(frame, event, arg):
                if event == "line" and frame.f_lineno in branches:
                    on = "A" if frame.f_locals["cols"] is None else "W"
                    counts[branches[frame.f_lineno], on] += 1
                return counting

            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: counting if frame.f_code is code else None)
            try:
                result = lasso_solve(inst, 0.2)
            finally:
                sys.settrace(previous)
            assert all(counts.values()), counts
            results.append((result.x_hat.tobytes(), result.objective, result.kkt_residual, result.iterations, counts))
        assert results[1] == results[0] and results[2] == results[0]

    def test_narrow_working_set_same_bits(self, monkeypatch):
        # at lambda 0.8 W holds 457 columns, 3 float32 row blocks: fewer
        # than two per process at w = 2 and 3, but at least one, so the
        # copy and its passes are still split
        inst = sample_instance(_SWEEP_INSTANCE)
        results = []
        for workers in (1, 2, 3):
            self.forks_at(monkeypatch, workers)
            copies = []

            def recording_columns(A, cols):
                A_W, e = _columns(A, cols)
                copies.append((-(-1000 // lasso._rows(cols.size, 4)), isinstance(A_W, lasso._Shared)))
                return A_W, e

            monkeypatch.setattr(lasso, "_columns", recording_columns)
            result = lasso_solve(inst, 0.8)
            results.append((result.x_hat.tobytes(), result.objective, result.kkt_residual, result.iterations))
            assert copies and all(shared == (workers > 1) for _, shared in copies)
            if workers > 1:
                assert all(workers <= blocks < 2 * workers for blocks, _ in copies)
        assert results[1] == results[0] and results[2] == results[0]

    def test_new_copy_of_the_same_width(self, monkeypatch):
        # each process keeps the layout of a pass over the copy, which must
        # go with the copy: a pass over a second copy as wide as the first
        # reads the second one's rows in every process
        inst = sample_instance(_SWEEP_INSTANCE)
        d = np.random.default_rng(0).standard_normal(700)
        column_sets = (np.arange(700), np.arange(1300, 2000))
        expected = []
        for cols in column_sets:
            A_W, e = _columns(inst.A, cols)
            expected.append([v.tobytes() for v in _correction(A_W, e, d.copy())()])
        for workers in (2, 3):
            self.forks_at(monkeypatch, workers)
            with lasso._split(inst.A, inst.y) as M:
                for cols, bits in zip(column_sets, expected):
                    A_W, e = _columns(M, cols)
                    assert isinstance(A_W, lasso._Shared)
                    assert [v.tobytes() for v in _correction(A_W, e, d.copy())()] == bits
            assert _children() == []

    def test_power_iteration_same_bits(self, monkeypatch):
        A = np.random.default_rng(3).standard_normal((500, 1000)) / np.sqrt(500)
        estimates = []
        for workers in (1, 2, 3):
            forks = self.forks_at(monkeypatch, workers)
            estimates.append(power_iteration_sq_norm(A))
            assert len(forks) == workers - 1
        assert estimates[1] == estimates[0] and estimates[2] == estimates[0]

    def test_no_helper_outlives_an_error(self, monkeypatch):
        inst = sample_instance(_SWEEP_INSTANCE)
        forks = self.forks_at(monkeypatch, 3)
        kkt_violation, checks = lasso._kkt_violation, [0]

        def failing_kkt(g, x, lam):
            # the third check, between two passes
            checks[0] += 1
            if checks[0] == 3:
                raise KeyError("stop")
            return kkt_violation(g, x, lam)

        monkeypatch.setattr(lasso, "_kkt_violation", failing_kkt)
        with pytest.raises(KeyError, match="stop"):
            lasso_solve(inst, 0.2)
        assert len(forks) == 2
        assert _children() == []
        assert all(_gone(pid) for pid in forks)

    def test_helper_exit_is_reported(self, monkeypatch):
        inst = sample_instance(_SWEEP_INSTANCE)
        self.forks_at(monkeypatch, 2)
        caller, row_blocks = os.getpid(), lasso._row_blocks

        def dying_row_blocks(*args):
            if os.getpid() != caller:
                os._exit(7)
            return row_blocks(*args)

        monkeypatch.setattr(lasso, "_row_blocks", dying_row_blocks)
        with pytest.raises(ChildProcessError, match="helper 1 exited with code 7"):
            lasso_solve(inst, 0.2)
        assert _children() == []

    def test_helper_exits_with_its_parent(self):
        # a solve with two workers in a fresh interpreter, killed mid-solve
        probe = (
            "import os, sys\n"
            "from amppath import lasso, sample_instance, InstanceConfig, SparseSpec\n"
            "lasso._workers = lambda: 2\n"
            "fork = os.fork\n"
            "def printing_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = printing_fork\n"
            "inst = sample_instance(InstanceConfig(1000, 2000, SparseSpec(100), noise_variance=0.7, seed=4))\n"
            "lasso.lasso_solve(inst, 0.01, tol=0.0, max_iter=100000)\n"
        )
        src = str(Path(lasso.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE, text=True)
        try:
            helper = int(proc.stdout.readline())
            time.sleep(0.2)
            assert proc.poll() is None and not _gone(helper)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 1.0
            while not _gone(helper) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _gone(helper)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_second_thread_keeps_the_solve_serial(self, monkeypatch):
        # a second OS thread, as a BLAS pool would start, makes the worker
        # rule give 1 on any number of CPUs, and no helper is forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        def no_fork():
            raise AssertionError("a helper was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert lasso._workers() == 1
            inst = sample_instance(_SWEEP_INSTANCE)
            assert lasso_solve(inst, 0.3).converged
            power_iteration_sq_norm(inst.A)
        finally:
            release.set()
            helper.join(timeout=10)
        assert not helper.is_alive()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_rejected_in_every_process(self, monkeypatch, capfd, value):
        # the entry sits in a helper's rows; a RuntimeWarning there would be
        # an error (the filter is inherited), which exits the helper and
        # reaches this process as ChildProcessError
        A = with_entry(sample_instance(_SWEEP_INSTANCE).A, (950, 7), value)
        bad = ProblemInstance(A=A, x_o=np.zeros(2000), w=np.zeros(1000), y=np.ones(1000), config=None)
        forks = self.forks_at(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="not finite"):
                power_iteration_sq_norm(A)
            with pytest.raises(RangeError, match="not finite"):
                lasso_solve(bad, 0.1)
        # the solve checks A before any split pass: only the Lanczos run forked
        assert len(forks) == 1
        assert "Warning" not in capfd.readouterr().err
        assert _children() == []
