import collections
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import amppath.experiments
import amppath.lasso
from amppath import (
    Divergence,
    FixedDetection,
    InstanceConfig,
    NonConvergence,
    PhaseGridConfig,
    RangeError,
    SEModel,
    SparseSpec,
    SweepConfig,
    amp_run,
    beta_of_lambda,
    estimate_half_success_rho,
    interpolate_display_grid,
    kkt_residual,
    lambda_sweep_empirical,
    lasso_path,
    model_for_instance,
    parse_prior,
    phase_transition_grid,
    rho_of_delta,
    sample_instance,
    sparse_prior,
)
from amppath.cli import main
from amppath.experiments import _curve_point
from amppath.rng import trial_seed

# frozen from a 40-digit evaluation of the parametric curve
STOJNIC_DELTA_AT_1 = 0.41481965886376975393
STOJNIC_RHO_AT_1 = 0.34432045758120152846
RHO_AT_HALF = 0.3856896661814809193


class TestStojnicCurve:
    def test_origin_limit(self):
        delta, rho = _curve_point(1e-8)
        assert delta == pytest.approx(1.0, abs=1e-6)
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_golden_point(self):
        delta, rho = _curve_point(1.0)
        assert delta == pytest.approx(STOJNIC_DELTA_AT_1, rel=1e-13)
        assert rho == pytest.approx(STOJNIC_RHO_AT_1, rel=1e-13)

    def test_tail_behavior(self):
        delta, rho = _curve_point(8.0)
        assert delta < 1e-2
        expansion = 1 / 64 - 3 / 8**4 + 15 / 8**6
        assert rho == pytest.approx(expansion, abs=1e-3)

    def test_strictly_decreasing_in_z(self):
        pts = [_curve_point(z) for z in np.linspace(0.05, 6.0, 200)]
        deltas = [p[0] for p in pts]
        rhos = [p[1] for p in pts]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            _curve_point(0.0)


class TestRhoOfDelta:
    def test_golden_value(self):
        assert rho_of_delta(0.5) == pytest.approx(RHO_AT_HALF, abs=1e-10)

    def test_roundtrip_with_curve(self):
        for z in (0.3, 0.877, 2.5):
            delta, rho = _curve_point(z)
            assert rho_of_delta(delta) == pytest.approx(rho, abs=1e-9)

    def test_monotone_in_delta(self):
        assert rho_of_delta(0.1) < rho_of_delta(0.5) < rho_of_delta(0.9)

    def test_range_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(RangeError):
                rho_of_delta(bad)


class TestHalfSuccessEstimator:
    def test_exact_crossing(self):
        rhos = [0.1, 0.2, 0.3, 0.4]
        succ = [1.0, 0.75, 0.25, 0.0]
        assert estimate_half_success_rho(rhos, succ) == pytest.approx(0.25)

    def test_all_success_clamps_high(self):
        assert estimate_half_success_rho([0.1, 0.2], [1.0, 0.9]) == 0.2

    def test_all_failure_clamps_low(self):
        assert estimate_half_success_rho([0.1, 0.2], [0.3, 0.0]) == 0.1

    def test_uses_first_downward_crossing(self):
        rhos = [0.1, 0.2, 0.3, 0.4, 0.5]
        succ = [1.0, 0.4, 0.6, 0.4, 0.0]
        got = estimate_half_success_rho(rhos, succ)
        assert 0.1 < got < 0.2


class TestPhaseGrid:
    def test_determinism(self):
        cfg = PhaseGridConfig(
            n_signal=120, delta_grid=(0.4, 0.6), rho_points=3, trials=2, base_seed=3
        )
        a = phase_transition_grid(cfg)
        b = phase_transition_grid(cfg)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.rho_values, b.rho_values)

    def test_easy_cell_always_succeeds(self):
        cfg = PhaseGridConfig(
            n_signal=1000, delta_grid=(0.5,), rho_band=(0.5, 0.5), rho_points=1,
            trials=20, base_seed=1,
        )
        grid = phase_transition_grid(cfg)
        assert grid.success[0, 0] == 1.0

    def test_hard_cell_mostly_fails(self):
        cfg = PhaseGridConfig(
            n_signal=1000, delta_grid=(0.5,), rho_band=(1.5, 1.5), rho_points=1,
            trials=20, base_seed=1,
        )
        grid = phase_transition_grid(cfg)
        assert grid.success[0, 0] <= 0.1

    def test_entries_are_fractions(self):
        cfg = PhaseGridConfig(
            n_signal=100, delta_grid=(0.5,), rho_points=4, trials=3, base_seed=9
        )
        grid = phase_transition_grid(cfg)
        assert np.all((0.0 <= grid.success) & (grid.success <= 1.0))
        assert np.all(np.isin(np.round(grid.success * 3), np.arange(4)))

    def test_display_interpolation(self):
        cfg = PhaseGridConfig(
            n_signal=120, delta_grid=(0.3, 0.6), rho_points=5, trials=2, base_seed=5
        )
        grid = phase_transition_grid(cfg)
        display_rho, matrix = interpolate_display_grid(grid)
        assert matrix.shape == (20, 2)
        assert display_rho[0] == pytest.approx(float(np.min(grid.theory_rho)))
        assert display_rho[-1] == pytest.approx(float(np.max(grid.theory_rho)))
        assert np.all((0.0 <= matrix) & (matrix <= 1.0))


# delta 0.3 at N = 100, seed 1: of the 35 trials 14 converge, 19 hit the
# 300-iteration cap and 2 diverge; 35 divides by neither 2 nor 3 workers
_MIXED_GRID = PhaseGridConfig(
    n_signal=100, delta_grid=(0.3,), rho_band=(0.2, 2.0), rho_points=5, trials=7,
    max_iter=300, base_seed=1,
)
_PHASE_ARGS = ["phase-transition", "--big-n", "100", "--delta-min", "0.3", "--delta-max", "0.5",
               "--delta-points", "2", "--rho-points", "2", "--trials", "5", "--seed", "4"]


def _os_threads():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
class TestForkedTrials:
    """The phase grid's trials on 1-3 workers, forced through the private
    worker-count helper so that the tests fan out on any host."""

    def test_worker_counts_agree(self, monkeypatch):
        stops = collections.Counter()

        def counted_amp_run(*args, **kwargs):
            try:
                state, trace = amp_run(*args, **kwargs)
            except Divergence:
                stops["diverged"] += 1
                raise
            stops[state.stop_reason] += 1
            return state, trace

        monkeypatch.setattr(amppath.experiments, "amp_run", counted_amp_run)
        monkeypatch.setattr(amppath.experiments, "_workers", lambda: 1)
        serial = phase_transition_grid(_MIXED_GRID).success
        assert stops == {"converged": 14, "max_iter": 19, "diverged": 2}
        for workers in (2, 3):
            monkeypatch.setattr(amppath.experiments, "_workers", lambda: workers)
            assert np.array_equal(phase_transition_grid(_MIXED_GRID).success, serial)

    def test_cli_bytes_agree(self, monkeypatch, tmp_path):
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(amppath.experiments, "_workers", lambda: workers)
            out = tmp_path / f"workers{workers}.csv"
            assert main([*_PHASE_ARGS, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_no_process_or_thread_outlives_a_call(self, monkeypatch, tmp_path):
        monkeypatch.setattr(amppath.experiments, "_workers", lambda: 3)
        threads = _os_threads()
        phase_transition_grid(_MIXED_GRID)
        assert multiprocessing.active_children() == []
        assert _os_threads() == threads
        assert main([*_PHASE_ARGS, "--out", str(tmp_path / "grid.csv")]) == 0
        assert multiprocessing.active_children() == []
        assert _os_threads() == threads

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["own-share", "worker-1", "worker-2"])
    def test_trial_error_reaches_caller(self, monkeypatch, failing):
        # task 3 + failing falls in share `failing` of 3: tasks[w::3]
        cfg = PhaseGridConfig(n_signal=100, delta_grid=(0.3,), rho_points=1, trials=6, base_seed=2)
        bad_seed = trial_seed(cfg.base_seed, 0, 0, 3 + failing)
        run_trial = amppath.experiments._run_trial

        def failing_trial(*task):
            if task[-1] == bad_seed:
                raise NonConvergence(f"trial {3 + failing} failed")
            return run_trial(*task)

        monkeypatch.setattr(amppath.experiments, "_run_trial", failing_trial)
        monkeypatch.setattr(amppath.experiments, "_workers", lambda: 3)
        with pytest.raises(NonConvergence, match=f"trial {3 + failing} failed"):
            phase_transition_grid(cfg)
        assert multiprocessing.active_children() == []

    def test_worker_death_is_reported(self, monkeypatch):
        cfg = PhaseGridConfig(n_signal=100, delta_grid=(0.3,), rho_points=1, trials=4, base_seed=2)
        caller = os.getpid()
        run_trial = amppath.experiments._run_trial

        def dying_trial(*task):
            if os.getpid() != caller:
                os._exit(7)
            return run_trial(*task)

        monkeypatch.setattr(amppath.experiments, "_run_trial", dying_trial)
        monkeypatch.setattr(amppath.experiments, "_workers", lambda: 2)
        with pytest.raises(ChildProcessError, match="worker 1 exited with code 7"):
            phase_transition_grid(cfg)
        assert multiprocessing.active_children() == []


def test_threaded_process_runs_trials_in_process():
    # a second OS thread, as a BLAS pool would start, keeps the grid serial
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert amppath.experiments._workers() == 1
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not os.path.isdir("/proc/self/task"),
                    reason="needs two CPUs and /proc/self/task")
def test_one_thread_process_fans_out_on_every_call():
    # a fresh interpreter with BLAS pinned to one thread: after a real grid
    # it is back to one OS thread, so the next grid fans out again, with
    # this process's fixed share tasks[0::workers]. The probe's trials
    # succeed only where they run in the calling process.
    probe = (
        "import os\n"
        "import amppath.experiments as e\n"
        "cfg = e.PhaseGridConfig(n_signal=100, delta_grid=(0.3,), rho_points=2, trials=3)\n"
        "e.phase_transition_grid(cfg)\n"
        "caller = os.getpid()\n"
        "e._run_trial = lambda *task: float(os.getpid() == caller)\n"
        "print(e._workers(), *e.phase_transition_grid(cfg).success.ravel())\n"
    )
    src = str(Path(amppath.experiments.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    cpus, *success = result.stdout.split()
    assert int(cpus) == len(os.sched_getaffinity(0))
    workers = min(int(cpus), 6)
    own = [sum(1 for t in range(3 * c, 3 * c + 3) if t % workers == 0) / 3 for c in range(2)]
    assert [float(s) for s in success] == own
    assert own != [1.0, 1.0]


def _noisy_instance():
    return InstanceConfig(10, 20, SparseSpec(k=2), noise_variance=0.1)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: InstanceConfig(10, 20, SparseSpec(k=2), noise_variance=math.nan), RangeError),
        (lambda: InstanceConfig(10, 20, SparseSpec(k=2), noise_variance=math.inf), RangeError),
        (lambda: InstanceConfig(10, 20, SparseSpec(k=2, amplitude=math.nan)), RangeError),
        (lambda: PhaseGridConfig(tol=math.nan), RangeError),
        (lambda: PhaseGridConfig(rho_band=(math.nan, 1.2)), RangeError),
        (lambda: SweepConfig(_noisy_instance(), (0.1,), solver_tol=math.nan), RangeError),
        # tolerances no result can meet: no relative error is below 0, and
        # no KKT residual below -1
        (lambda: PhaseGridConfig(tol=0.0), RangeError),
        (lambda: SweepConfig(_noisy_instance(), (0.1,), solver_tol=-1.0), RangeError),
        (lambda: PhaseGridConfig(gamma=math.nan), RangeError),
        (lambda: PhaseGridConfig(gamma=0.0), RangeError),
        (lambda: PhaseGridConfig(gamma=1.5), RangeError),
        (lambda: PhaseGridConfig(max_iter=0), RangeError),
    ],
    ids=["noise-nan", "noise-inf", "amplitude-nan", "phase-tol-nan", "rho-band-nan",
         "sweep-tol-nan", "phase-tol-zero", "sweep-tol-negative", "phase-gamma-nan",
         "phase-gamma-zero", "phase-gamma-above-one", "phase-max-iter-zero"],
)
def test_config_rejects_non_finite(build, error):
    with pytest.raises(error):
        build()


class TestModelForInstance:
    def test_sparse_symmetric(self):
        cfg = InstanceConfig(500, 1000, SparseSpec(k=100, amplitude=2.0), noise_variance=0.3)
        model = model_for_instance(cfg)
        assert model.delta == 0.5
        assert model.sigma_w_sq == 0.3
        assert model.prior == sparse_prior(0.1, 2.0, symmetric=True)

    def test_sparse_one_sided(self):
        cfg = InstanceConfig(
            500, 1000, SparseSpec(k=50, amplitude=1.0, random_sign=False), noise_variance=0.3
        )
        assert model_for_instance(cfg).prior == sparse_prior(0.05, 1.0, symmetric=False)

    def test_prior_passthrough(self):
        prior = parse_prior("0.9:0,0.1:1")
        cfg = InstanceConfig(300, 600, prior, noise_variance=0.1)
        assert model_for_instance(cfg).prior == prior


class TestLambdaSweep:
    def test_fista_sweep_matches_state_evolution(self):
        cfg = SweepConfig(
            instance=InstanceConfig(
                1000, 2000, SparseSpec(k=100, amplitude=1.0, random_sign=False),
                noise_variance=0.4, seed=5,
            ),
            lambda_grid=tuple(np.linspace(0.1, 1.0, 6)),
            solver="fista",
            solver_tol=1e-6,
        )
        rows = lambda_sweep_empirical(cfg)
        assert all(r["converged"] for r in rows)
        assert all(r["kkt_residual"] <= 1e-5 for r in rows)
        for r in rows:
            if r["se_dr"] > 0.01:
                assert abs(r["empirical_mse"] - r["se_mse"]) / r["se_mse"] < 0.05
        drs = [r["empirical_dr"] for r in rows]
        run = longest_increasing_run(drs)
        assert run <= 2

    def test_amp_solver_agrees_roughly(self):
        cfg = SweepConfig(
            instance=InstanceConfig(
                500, 1000, SparseSpec(k=50), noise_variance=0.2, seed=2
            ),
            lambda_grid=(0.2, 0.4, 0.6),
            solver="amp",
        )
        rows = lambda_sweep_empirical(cfg)
        for r in rows:
            assert abs(r["empirical_dr"] - r["se_dr"]) < 0.05
            assert abs(r["empirical_mse"] - r["se_mse"]) / r["se_mse"] < 0.25

    @pytest.mark.parametrize("solver", ["fista", "amp"])
    def test_sweep_runs_no_lanczos(self, monkeypatch, solver):
        # FISTA takes its first step from a Rayleigh quotient, AMP needs none
        def no_lanczos(A):
            raise AssertionError(f"Lanczos in a {solver} sweep")

        # amppath re-exports the function, so its name there is patched too
        for owner in (amppath, amppath.lasso):
            monkeypatch.setattr(owner, "power_iteration_sq_norm", no_lanczos)
        cfg = SweepConfig(
            instance=InstanceConfig(100, 200, SparseSpec(k=10), noise_variance=0.2, seed=0),
            lambda_grid=(1.0,),
            solver=solver,
        )
        assert len(lambda_sweep_empirical(cfg)) == 1

    @pytest.mark.parametrize("solver", ["fista", "amp"])
    def test_row_invariants(self, monkeypatch, solver):
        # each row's kkt_residual is the certificate of the solver's x_hat and
        # empirical_dr its nonzero fraction, whichever solver produced it
        estimates = []
        solve, run = amppath.experiments.lasso_solve, amppath.experiments.amp_run

        def recording_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            estimates.append(result.x_hat.copy())
            return result

        def recording_run(*args, **kwargs):
            state, trace = run(*args, **kwargs)
            estimates.append(state.x.copy())
            return state, trace

        monkeypatch.setattr(amppath.experiments, "lasso_solve", recording_solve)
        monkeypatch.setattr(amppath.experiments, "amp_run", recording_run)
        cfg = SweepConfig(
            instance=InstanceConfig(100, 200, SparseSpec(k=10), noise_variance=0.2, seed=3),
            lambda_grid=(0.05, 0.3, 1.0, 2.5),
            solver=solver,
        )
        rows = lambda_sweep_empirical(cfg)
        inst = sample_instance(cfg.instance)
        assert len(estimates) == len(rows)
        for row, x_hat in zip(rows, estimates):
            assert row["kkt_residual"] == kkt_residual(inst, row["lambda"], x_hat)
            assert row["empirical_dr"] == np.count_nonzero(x_hat) / x_hat.size

    def test_amp_converging_on_last_allowed_iteration_counts(self):
        inst_cfg = InstanceConfig(100, 200, SparseSpec(k=10), noise_variance=0.2, seed=0)
        lam = 1.0
        gamma = beta_of_lambda(model_for_instance(inst_cfg), lam).gamma
        inst = sample_instance(inst_cfg)
        free, _ = amp_run(inst, FixedDetection(gamma), max_iter=2000, trace=False)
        assert free.stop_reason == "converged"
        t_star = free.t
        exact, _ = amp_run(inst, FixedDetection(gamma), max_iter=t_star, trace=False)
        assert exact.stop_reason == "converged"
        assert exact.x.tobytes() == free.x.tobytes()
        short, _ = amp_run(inst, FixedDetection(gamma), max_iter=t_star - 1, trace=False)
        assert short.stop_reason == "max_iter"

        def sweep_converged(cap):
            cfg = SweepConfig(instance=inst_cfg, lambda_grid=(lam,), solver="amp", amp_max_iter=cap)
            return lambda_sweep_empirical(cfg)[0]["converged"]

        assert sweep_converged(t_star) is True
        assert sweep_converged(t_star - 1) is False

    def test_noise_free_rejected(self):
        with pytest.raises(RangeError):
            SweepConfig(
                instance=InstanceConfig(100, 200, SparseSpec(k=10), noise_variance=0.0),
                lambda_grid=(0.1, 0.2),
            )

    def test_optimal_lambda_shifts_right_with_noise(self):
        # predicted curves: the minimizing lambda grows with the noise level
        prior = sparse_prior(0.05, 1.0, symmetric=False)
        grid = np.linspace(0.05, 8.0, 80)
        argmins = []
        for noise in (0.4, 2.0):
            pts = lasso_path(SEModel(0.5, noise, prior), grid)
            argmins.append(grid[int(np.argmin([p.mse for p in pts]))])
        assert argmins[1] > argmins[0]


def longest_increasing_run(values) -> int:
    longest = current = 0
    for a, b in zip(values, values[1:]):
        current = current + 1 if b > a else 0
        longest = max(longest, current)
    return longest


@pytest.mark.long
class TestPaperScaleReproductions:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_support_path_full_scale(self, seed):
        # 100 lambdas in (0, 0.25], amplitude-1 signal, noise variance 0.7
        lams = 0.25 * np.arange(1, 101) / 100
        cfg = SweepConfig(
            instance=InstanceConfig(
                1000, 2000, SparseSpec(k=100, amplitude=1.0, random_sign=False),
                noise_variance=0.7, seed=seed,
            ),
            lambda_grid=tuple(lams),
            solver="fista",
            solver_tol=1e-6,
        )
        rows = lambda_sweep_empirical(cfg)
        # the README sweep at its own seed 0 and with --seed 1 (its grid up
        # to rounding); its lambda 0.0025 row, a support of about n columns,
        # is the slowest solve and must still converge within _SWEEP_MAX_ITER
        assert all(r["converged"] for r in rows)
        drs = [r["empirical_dr"] for r in rows]
        assert longest_increasing_run(drs) <= 2
        assert max(drs) <= 0.5 + 1e-9
        assert drs[0] == pytest.approx(0.5, abs=0.05)

    def test_empirical_optimal_lambda_shift(self):
        argmins = []
        for noise in (0.4, 2.0):
            cfg = SweepConfig(
                instance=InstanceConfig(
                    1000, 2000, SparseSpec(k=100, amplitude=1.0, random_sign=False),
                    noise_variance=noise, seed=5,
                ),
                lambda_grid=tuple(np.linspace(0.25, 8.0, 32)),
                solver="fista",
                solver_tol=1e-6,
            )
            rows = lambda_sweep_empirical(cfg)
            mses = [r["empirical_mse"] for r in rows]
            argmins.append(cfg.lambda_grid[int(np.argmin(mses))])
        assert argmins[1] > argmins[0]

    def test_full_phase_transition_protocol(self):
        # the full 20-delta, 50-rho-band, 20-trial protocol at N=1000
        cfg = PhaseGridConfig(base_seed=2024)
        grid = phase_transition_grid(cfg)
        for di, delta in enumerate(grid.delta_values):
            rho_star = estimate_half_success_rho(grid.rho_values[di], grid.success[di])
            assert abs(rho_star - grid.theory_rho[di]) <= 0.12 * grid.theory_rho[di]
        display_rho, matrix = interpolate_display_grid(grid)
        assert matrix.shape == (20, 20)
