import math

import numpy as np
import pytest

from amppath import (
    Divergence,
    FixedDetection,
    FixedFalseAlarm,
    FixedThreshold,
    InstanceConfig,
    ProblemInstance,
    RangeError,
    RankError,
    SparseSpec,
    amp_run,
    fixed_detection_tau,
    fixed_false_alarm_tau,
    gaussianity_stats,
    sample_instance,
)


class TestFixedDetectionTau:
    def test_order_statistic(self):
        u = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        # floor(gamma*n) = 2 -> second largest magnitude
        assert fixed_detection_tau(u, 0.4, 5) == 4.0

    def test_all_zeros(self):
        u = np.zeros(10)
        assert fixed_detection_tau(u, 0.5, 10) == 0.0

    def test_sort_oracle(self):
        gen = np.random.default_rng(21)
        for _ in range(1000):
            size = int(gen.integers(3, 40))
            u = gen.normal(size=size)
            n = int(gen.integers(1, size + 1))
            gamma = float(gen.uniform(1.0 / n, 1.0))
            k = math.floor(gamma * n + 1e-9)
            if not 1 <= k <= size:
                continue
            expected = np.sort(np.abs(u))[::-1][k - 1]
            assert fixed_detection_tau(u, gamma, n) == expected

    def test_decimal_gamma_flooring(self):
        # 0.3 * 1000 rounds below 300 in floats; the order statistic must not slip
        u = np.arange(1.0, 1001.0)
        assert fixed_detection_tau(u, 0.3, 1000) == 1000.0 - 299.0

    def test_rank_error(self):
        with pytest.raises(RankError):
            fixed_detection_tau(np.ones(5), 0.9, 10)  # k=9 > len 5
        with pytest.raises(RankError):
            fixed_detection_tau(np.ones(5), 0.05, 5)  # k=0


class TestFixedFalseAlarmTau:
    def test_zero_residual(self):
        assert fixed_false_alarm_tau(np.zeros(8), 2.0) == 0.0

    def test_definition(self):
        z = np.full(16, 1.5)
        assert fixed_false_alarm_tau(z, 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_law_of_large_numbers(self):
        z = 2.0 * np.random.default_rng(5).standard_normal(10**6)
        sigma = fixed_false_alarm_tau(z, 1.0)
        assert 1.99 <= sigma <= 2.01

    def test_beta_validation(self):
        with pytest.raises(RangeError):
            fixed_false_alarm_tau(np.ones(4), 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(RangeError):
                fixed_false_alarm_tau(np.ones(4), bad)


class TestPolicyValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_and_negative(self, value):
        with pytest.raises(RangeError):
            FixedFalseAlarm(value)
        with pytest.raises(RangeError):
            FixedThreshold(value)
        with pytest.raises(RangeError):
            FixedDetection(value)


class TestGaussianityStats:
    def test_gaussian_sample(self):
        v = np.random.default_rng(3).standard_normal(10**5)
        kurt, ks = gaussianity_stats(v)
        assert abs(kurt) < 0.05
        assert ks < 0.01

    def test_degenerate_sample(self):
        kurt, ks = gaussianity_stats(np.ones(200))
        assert math.isnan(kurt) and math.isnan(ks)

    def test_too_short(self):
        with pytest.raises(RangeError):
            gaussianity_stats(np.ones(10))

    def test_heavy_tail_detected(self):
        v = np.random.default_rng(4).standard_t(df=3, size=10**5)
        kurt, _ = gaussianity_stats(v)
        assert kurt > 1.0


def make_instance(seed=11, n=100, N=200, k=10, noise=0.0):
    return sample_instance(InstanceConfig(n, N, SparseSpec(k=k), noise_variance=noise, seed=seed))


class TestAmpRun:
    def test_zero_measurements_fixed_point(self):
        inst = make_instance(k=0)
        assert np.all(inst.y == 0.0)
        state, trace = amp_run(inst, FixedDetection(0.5), max_iter=50)
        assert np.all(state.x == 0.0)
        assert np.all(trace.mse == 0.0)

    def test_huge_threshold_keeps_zero(self):
        inst = make_instance(k=10, noise=0.1)
        state, trace = amp_run(inst, FixedThreshold(1e6), max_iter=20, conv_tol=0.0)
        assert np.all(state.x == 0.0)
        assert np.allclose(state.z, inst.y)
        assert np.all(trace.active_count == 0)

    def test_noiseless_recovery_below_transition(self):
        inst = sample_instance(
            InstanceConfig(500, 1000, SparseSpec(k=50), noise_variance=0.0, seed=11)
        )
        state, _ = amp_run(inst, FixedDetection(1.0), max_iter=500, conv_tol=1e-10)
        rel = np.linalg.norm(state.x - inst.x_o) / np.linalg.norm(inst.x_o)
        assert rel < 1e-2

    @pytest.mark.parametrize("max_iter", [5, 200], ids=["capped", "converging"])
    @pytest.mark.parametrize(
        "policy",
        [FixedDetection(0.3), FixedFalseAlarm(2.0), FixedThreshold(0.5)],
        ids=["fixed-detection", "fixed-false-alarm", "fixed-threshold"],
    )
    def test_manual_iteration_replication(self, policy, max_iter):
        # replay the update rule by hand; every traced quantity must match,
        # including the memory-term coefficient built from the current support
        # and the stopping rule, and an untraced run must end in the same state
        inst = make_instance(seed=7, k=12, noise=0.05)
        state, trace = amp_run(inst, policy, max_iter=max_iter, conv_tol=1e-10)
        A, y, x_o, n = inst.A, inst.y, inst.x_o, inst.config.n_rows
        x = np.zeros(inst.config.n_cols)
        z_prev = np.zeros(n)
        stop_reason = "max_iter"
        for t in range(max_iter):
            z = y - A @ x + (np.count_nonzero(x) / n) * z_prev
            u = x + A.T @ z
            if isinstance(policy, FixedDetection):
                k = math.floor(policy.gamma * n + 1e-9)
                tau = np.sort(np.abs(u))[::-1][k - 1]
            elif isinstance(policy, FixedFalseAlarm):
                tau = policy.beta * np.linalg.norm(z) / math.sqrt(n)
            else:
                tau = policy.tau
            x_new = np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)
            assert trace.tau[t] == tau
            assert trace.active_count[t] == np.count_nonzero(x_new)
            assert trace.residual_norm[t] == np.linalg.norm(z) / math.sqrt(n)
            assert trace.mse[t] == np.mean((x_new - x_o) ** 2)
            step = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-12)
            x, z_prev = x_new, z
            if step < 1e-10:
                stop_reason = "converged"
                break
        assert len(trace) == state.t == t + 1
        assert state.stop_reason == stop_reason == ("max_iter" if max_iter == 5 else "converged")
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.z, z_prev)
        assert state.tau == tau and state.active_count == np.count_nonzero(x)

        lean, none = amp_run(inst, policy, max_iter=max_iter, conv_tol=1e-10, trace=False)
        assert none is None
        assert lean.x.tobytes() == state.x.tobytes()
        assert lean.z.tobytes() == state.z.tobytes()
        assert (lean.t, lean.tau, lean.active_count, lean.stop_reason) == (
            state.t, state.tau, state.active_count, state.stop_reason
        )

    def test_fixed_detection_support_size(self):
        inst = sample_instance(
            InstanceConfig(200, 500, SparseSpec(k=20), noise_variance=0.1, seed=9)
        )
        k_target = math.floor(0.3 * 200)
        _, trace = amp_run(inst, FixedDetection(0.3), max_iter=40, conv_tol=0.0)
        for count in trace.active_count:
            assert k_target - 1 <= count <= k_target

    def test_divergence_on_unnormalized_matrix(self):
        gen = np.random.default_rng(0)
        A = 10.0 * gen.standard_normal((50, 100)) / math.sqrt(50)
        x_o = np.zeros(100)
        x_o[:5] = 1.0
        inst = ProblemInstance(A=A, x_o=x_o, w=np.zeros(50), y=A @ x_o, config=None)
        with pytest.raises(Divergence):
            amp_run(inst, FixedDetection(1.0), max_iter=500)

    @pytest.mark.parametrize("kwargs", [{}, {"trace": False}], ids=["traced", "untraced"])
    def test_divergence_on_nan_in_matrix(self, kwargs):
        # a NaN iterate is never returned: the norm test must reject it
        inst = make_instance(seed=3, k=5)
        A = inst.A.copy()
        A[0, np.flatnonzero(inst.x_o)[0]] = math.nan
        bad = ProblemInstance(A=A, x_o=inst.x_o, w=inst.w, y=A @ inst.x_o, config=None)
        with pytest.raises(Divergence):
            amp_run(bad, FixedDetection(0.5), max_iter=20, **kwargs)

    def test_gaussianity_flag(self):
        inst = make_instance(seed=15, k=10, noise=0.1, n=150, N=300)
        _, off = amp_run(inst, FixedDetection(0.2), max_iter=3, conv_tol=0.0)
        assert np.all(np.isnan(off.ks))
        _, on = amp_run(
            inst, FixedDetection(0.2), max_iter=3, conv_tol=0.0, compute_gaussianity=True
        )
        assert np.all(np.isfinite(on.ks))

    def test_gaussianity_needs_100_coordinates(self):
        inst = make_instance(seed=15, k=3, noise=0.1, n=30, N=60)
        _, trace = amp_run(
            inst, FixedDetection(0.3), max_iter=3, conv_tol=0.0, compute_gaussianity=True
        )
        assert np.all(np.isnan(trace.kurtosis)) and np.all(np.isnan(trace.ks))

    def test_convergence_stops_early(self):
        inst = make_instance(seed=30, k=5, noise=0.0, n=120, N=240)
        state, trace = amp_run(inst, FixedDetection(0.5), max_iter=500, conv_tol=1e-10)
        assert state.t < 500
        assert len(trace) == state.t

    def test_max_iter_validation(self):
        with pytest.raises(RangeError):
            amp_run(make_instance(), FixedDetection(0.5), max_iter=0)
