import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amppath.cli
import amppath.experiments
from amppath import SEModel, beta_of_lambda, parse_prior, sample_instance
from amppath.cli import main


def run(tmp_path, name, *args):
    out = tmp_path / f"{name}.csv"
    code = main([*args, "--out", str(out)])
    return code, out


def read_table(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSeSolve:
    def test_from_beta(self, tmp_path):
        code, out = run(
            tmp_path, "beta", "se-solve", "--delta", "0.5", "--sigma-w-sq", "0.2",
            "--prior", "0.9:0,0.05:1,0.05:-1", "--beta", "1.5",
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["lambda", "beta", "tau", "gamma", "sigma_hat", "mse", "detection"]
        assert float(rows[0]["sigma_hat"]) == pytest.approx(0.599178444523628, abs=1e-12)

    def test_three_entry_points_agree(self, tmp_path):
        _, by_beta = run(tmp_path, "b", "se-solve", "--beta", "1.5")
        row = read_table(by_beta)[1][0]
        lam, gamma = row["lambda"], row["gamma"]
        _, by_lam = run(tmp_path, "l", "se-solve", "--lambda", lam)
        _, by_gamma = run(tmp_path, "g", "se-solve", "--gamma", gamma)
        row_l = read_table(by_lam)[1][0]
        row_g = read_table(by_gamma)[1][0]
        assert float(row_l["beta"]) == pytest.approx(1.5, abs=1e-7)
        assert float(row_g["beta"]) == pytest.approx(1.5, abs=1e-6)

    def test_requires_exactly_one_parameter(self, tmp_path):
        code, _ = run(tmp_path, "none", "se-solve")
        assert code == 2
        code, _ = run(tmp_path, "two", "se-solve", "--beta", "1.5", "--gamma", "0.4")
        assert code == 2

    def test_solver_failure_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "big", "se-solve", "--lambda", "1e9")
        assert code == 3


class TestDeterminism:
    COMMANDS = {
        "se-solve": ["se-solve", "--beta", "1.5"],
        "lasso-path": ["lasso-path", "--lambda-min", "0.05", "--lambda-max", "0.5",
                       "--lambda-points", "8"],
        "risk-curve": ["risk-curve", "--prior", "1:1", "--tau-points", "40"],
        "amp-run": ["amp-run", "--n", "120", "--big-n", "240", "--k", "12",
                    "--gamma", "0.3", "--amp-iters", "20", "--seed", "7"],
        "sweep": ["sweep", "--n", "100", "--big-n", "200", "--k", "10",
                  "--lambda-min", "0.1", "--lambda-max", "0.4", "--lambda-points", "3",
                  "--seed", "3"],
        "phase-transition": ["phase-transition", "--big-n", "100", "--delta-min", "0.4",
                             "--delta-max", "0.6", "--delta-points", "2", "--rho-points", "3",
                             "--trials", "2", "--seed", "11"],
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_byte_identical_reruns(self, tmp_path, name):
        args = self.COMMANDS[name]
        code1, out1 = run(tmp_path, name + "_1", *args)
        code2, out2 = run(tmp_path, name + "_2", *args)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_bytes()) > 0


class TestPinnedOutput:
    """SHA-256 digests of the CSVs of README commands, recorded once, so
    that a change that moves an output bit fails here and not only across
    two runs of one build.  These commands evaluate scalar ``math`` only;
    the commands that multiply matrices (amp-run, sweep, phase-transition)
    stay out, because their bytes depend on the BLAS build."""

    README = ["--delta", "0.5", "--sigma-w-sq", "0.2", "--prior", "0.9:0,0.05:1,0.05:-1"]
    DIGESTS = {
        "se-lambda": (
            ["se-solve", *README, "--lambda", "0.3"],
            "2a8331a390cd585b2627dc1fe2825e9b65ef6587b5f8a763062355889a6cdbde",
        ),
        "se-beta": (
            ["se-solve", *README, "--beta", "1.5"],
            "27795b47dbccf3a054bc84f32d200e2f51bb0fe818561c67fc99ba72b1bdf290",
        ),
        "se-gamma": (
            ["se-solve", *README, "--gamma", "0.4"],
            "d124c80ece838f806c86f507b214a5518ca655bc643291f30ee3111393a74d8b",
        ),
        "lasso-path": (
            ["lasso-path", "--delta", "0.5", "--sigma-w-sq", "0.2", "--lambda-min", "0.01",
             "--lambda-max", "2", "--lambda-points", "100"],
            "70225d45796d37034852a35d198d9aa2002bba3c82203de9989c0aeeeeaad3df",
        ),
        "risk-curve": (
            ["risk-curve", "--prior", "1:1", "--tau-min", "0", "--tau-max", "6",
             "--tau-points", "121"],
            "8164fb74b229a496459e228d57b5f23126ffa94688b8e1d1d6a9607c18a3336d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_output_digest(self, capsys, name):
        args, digest = self.DIGESTS[name]
        assert main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestCsvSchemas:
    def test_amp_trace_columns(self, tmp_path):
        code, out = run(
            tmp_path, "trace", "amp-run", "--n", "100", "--big-n", "200", "--k", "10",
            "--gamma", "0.3", "--amp-iters", "5", "--conv-tol", "0",
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["t", "tau", "active_count", "residual_norm", "mse", "kurtosis", "ks"]
        assert len(rows) == 5
        assert [int(r["t"]) for r in rows] == list(range(5))

    def test_sweep_columns(self, tmp_path):
        code, out = run(
            tmp_path, "sweep", "sweep", "--n", "100", "--big-n", "200", "--k", "10",
            "--lambda-min", "0.2", "--lambda-max", "0.4", "--lambda-points", "2",
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["lambda", "empirical_mse", "se_mse", "empirical_dr", "se_dr",
                          "kkt_residual", "converged"]
        assert len(rows) == 2

    def test_amp_sweep_past_the_last_detection_slot(self, tmp_path):
        # at lambda 10.25 and 20, SE's detection leaves floor(gamma n) = 0
        # slots; AMP runs with one, which settles at the zero estimate
        code, out = run(
            tmp_path, "sweep", "sweep", "--n", "200", "--big-n", "400", "--k", "20",
            "--sigma-w-sq", "0.2", "--lambda-min", "0.5", "--lambda-max", "20",
            "--lambda-points", "3", "--solver", "amp",
        )
        assert code == 0
        _, rows = read_table(out)
        assert [r["lambda"] for r in rows] == ["0.5", "10.25", "20"]
        for r in rows[1:]:
            assert float(r["empirical_mse"]) == 20 / 400  # ||x_o||^2 / N: x_hat = 0
            assert r["empirical_dr"] == "0" and r["converged"] == "1"
            assert float(r["kkt_residual"]) == 0.0

    def test_amp_sweep_certifies_lambda_zero(self, tmp_path):
        # at lambda 0 the residual is the gradient sup-norm, as for FISTA
        code, out = run(
            tmp_path, "sweep", "sweep", "--n", "100", "--big-n", "200", "--k", "10",
            "--lambda-min", "0", "--lambda-max", "0.2", "--lambda-points", "2", "--solver", "amp",
        )
        assert code == 0
        assert "nan" not in out.read_text()

    def test_phase_columns_and_display_grid(self, tmp_path):
        display = tmp_path / "display.csv"
        code, out = run(
            tmp_path, "phase", "phase-transition", "--big-n", "100", "--delta-min", "0.4",
            "--delta-max", "0.6", "--delta-points", "2", "--rho-points", "3",
            "--trials", "2", "--display-out", str(display),
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["delta", "rho", "success", "rho_theory"]
        assert len(rows) == 6
        dheader, drows = read_table(display)
        assert dheader[0] == "rho"
        assert len(dheader) == 3  # rho + 2 delta columns
        assert len(drows) == 20

    def test_risk_curve_single_sign_change(self, tmp_path):
        code, out = run(
            tmp_path, "risk", "risk-curve", "--prior", "1:1", "--tau-min", "0",
            "--tau-max", "6", "--tau-points", "100",
        )
        assert code == 0
        _, rows = read_table(out)
        deriv = np.array([float(r["risk_derivative"]) for r in rows])
        signs = np.sign(deriv[np.abs(deriv) > 1e-9])
        assert np.count_nonzero(np.diff(signs) != 0) == 1

    def test_full_precision_format(self, tmp_path):
        _, out = run(tmp_path, "prec", "se-solve", "--beta", "1.5")
        row = read_table(out)[1][0]
        # 17 significant digits round-trip exactly
        value = float(row["sigma_hat"])
        assert f"{value:.17g}" == row["sigma_hat"]


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.4\nsigma-w-sq = 0.3\nbeta = 2.0\n# comment\n")
        out = tmp_path / "out.csv"
        code = main(["se-solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        row = read_table(out)[1][0]
        assert float(row["beta"]) == 2.0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.0\n")
        out = tmp_path / "out.csv"
        code = main(["se-solve", "--config", str(cfg), "--beta", "1.5", "--out", str(out)])
        assert code == 0
        assert float(read_table(out)[1][0]["beta"]) == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        code = main(["se-solve", "--config", str(cfg), "--beta", "1.5"])
        assert code == 2

    def test_lambda_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.3\n")
        _, from_file = run(tmp_path, "file", "se-solve", "--config", str(cfg))
        _, from_flag = run(tmp_path, "flag", "se-solve", "--lambda", "0.3")
        assert from_file.read_bytes() == from_flag.read_bytes()

    @pytest.mark.parametrize("line", ["beta: 1.5", "beta 1.5"])
    def test_only_equals_lines(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["se-solve", "--config", str(cfg)]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_non_finite_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = nan\n")
        assert main(["se-solve", "--config", str(cfg), "--beta", "1.5"]) == 2
        assert "--delta must be finite" in capsys.readouterr().err


class TestFixedSign:
    # a short AMP run whose trace depends on the signs of the signal
    ARGS = ["amp-run", "--n", "60", "--big-n", "120", "--k", "12", "--gamma", "0.3",
            "--amp-iters", "3", "--seed", "2"]

    def output(self, tmp_path, name, *args):
        code, out = run(tmp_path, name, *self.ARGS, *args)
        assert code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("text", ["true", "1", "yes", "ON"])
    def test_true_spellings(self, tmp_path, text):
        positive = self.output(tmp_path, "pos", "--fixed-sign", text)
        assert positive != self.output(tmp_path, "default")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fixed-sign = {text}\n")
        assert self.output(tmp_path, "file", "--config", str(cfg)) == positive

    @pytest.mark.parametrize("text", ["false", "0", "no", "Off"])
    def test_false_spellings(self, tmp_path, text):
        signed = self.output(tmp_path, "default")
        assert self.output(tmp_path, "neg", "--fixed-sign", text) == signed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fixed_sign = {text}\n")
        assert self.output(tmp_path, "file", "--config", str(cfg)) == signed

    def test_other_word_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--fixed-sign", "maybe"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fixed-sign" in err and "'maybe'" in err

    def test_other_word_in_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixed-sign = maybe\n")
        code, out = run(tmp_path, "maybe", *self.ARGS, "--config", str(cfg))
        assert code == 2
        assert "not a boolean: 'maybe'" in capsys.readouterr().err
        assert not out.exists()


class TestPriorSignal:
    # without --k, amp-run and sweep draw the signal from --prior
    PRIOR = "0.85:0,0.15:1"

    def test_amp_run(self, tmp_path, monkeypatch):
        drawn = []

        def recorded(config):
            drawn.append(sample_instance(config))
            return drawn[-1]

        monkeypatch.setattr(amppath.cli, "sample_instance", recorded)
        code, out = run(
            tmp_path, "prior", "amp-run", "--n", "100", "--big-n", "200", "--prior", self.PRIOR,
            "--gamma", "0.3", "--amp-iters", "4", "--conv-tol", "0", "--seed", "5",
        )
        assert code == 0
        assert len(read_table(out)[1]) == 4
        (instance,) = drawn
        assert instance.config.signal == parse_prior(self.PRIOR)
        assert set(np.unique(instance.x_o)) == {0.0, 1.0}

    def test_sweep(self, tmp_path):
        code, out = run(
            tmp_path, "prior", "sweep", "--n", "100", "--big-n", "200", "--prior", self.PRIOR,
            "--lambda-min", "0.2", "--lambda-max", "0.4", "--lambda-points", "2",
        )
        assert code == 0
        model = SEModel(0.5, 0.2, parse_prior(self.PRIOR))
        rows = read_table(out)[1]
        assert [float(r["se_mse"]) for r in rows] == [
            beta_of_lambda(model, lam).mse for lam in (0.2, 0.4)
        ]
        assert all(r["converged"] == "1" for r in rows)


class TestErrorPaths:
    def test_unknown_policy(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "policy", "amp-run", "--n", "100", "--big-n", "200", "--k", "10",
            "--policy", "bogus", "--gamma", "0.3",
        )
        assert code == 2
        assert "unknown policy 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--n", "50", "--big-n", "100", "--k", "5", "--lambda-points", "2",
              "--solver", "bogus"], "unknown solver 'bogus'"),
            (["phase-transition", "--big-n", "50", "--delta-points", "1", "--trials", "0"],
             "need at least one trial and one rho point"),
            (["phase-transition", "--big-n", "50", "--delta-points", "1", "--rho-points", "0"],
             "need at least one trial and one rho point"),
        ],
        ids=["sweep-solver", "phase-trials", "phase-rho-points"],
    )
    def test_experiment_config_checks(self, tmp_path, capsys, args, message):
        code, out = run(tmp_path, "config", *args)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_prior_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "bad", "se-solve", "--prior", "0.5:0,0.9:1", "--beta", "1.5")
        assert code == 2

    def test_noise_free_sweep_is_config_error(self, tmp_path):
        code, _ = run(
            tmp_path, "nf", "sweep", "--n", "50", "--big-n", "100", "--k", "5",
            "--sigma-w-sq", "0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "policy",
        [["fixed-threshold", "--tau"], ["fixed-false-alarm", "--beta"]],
        ids=["tau", "beta"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_policy_parameter_is_config_error(self, tmp_path, policy, value):
        code, out = run(
            tmp_path, "nan", "amp-run", "--n", "100", "--big-n", "200", "--k", "10",
            "--policy", policy[0], policy[1], value, "--amp-iters", "3",
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["se-solve", "--sigma-w-sq", "nan", "--beta", "1.5"],
            ["se-solve", "--sigma-w-sq", "inf", "--beta", "1.5"],
            ["se-solve", "--beta", "nan"],
            ["se-solve", "--beta", "inf"],
            ["se-solve", "--lambda", "nan"],
            ["se-solve", "--lambda", "inf"],
            ["lasso-path", "--lambda-min", "nan"],
            ["risk-curve", "--sigma", "nan"],
            ["risk-curve", "--sigma", "inf"],
            ["risk-curve", "--tau-max", "inf"],
            ["amp-run", "--conv-tol", "nan", "--n", "100", "--big-n", "200", "--k", "10",
             "--gamma", "0.3"],
            ["sweep", "--tol", "nan", "--n", "50", "--big-n", "100", "--k", "5",
             "--lambda-points", "2"],
            ["phase-transition", "--band-lo", "nan", "--big-n", "50", "--delta-points", "1",
             "--rho-points", "2", "--trials", "1"],
            # negative tolerances fail the same range checks
            ["amp-run", "--conv-tol", "-1", "--n", "100", "--big-n", "200", "--k", "10",
             "--gamma", "0.3"],
            ["sweep", "--tol", "-1", "--n", "50", "--big-n", "100", "--k", "5",
             "--lambda-points", "2"],
            ["phase-transition", "--tol", "-1", "--big-n", "50", "--delta-points", "1",
             "--rho-points", "2", "--trials", "1"],
        ],
        ids=lambda args: "-".join(a.lstrip("-") for a in args[:3]),
    )
    def test_non_finite_scalar_is_config_error(self, tmp_path, capsys, args):
        code, out = run(tmp_path, "nonfinite", *args)
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args, message",
        [
            (["risk-curve", "--sigma=1e-300"], "risk curve is not finite"),
            (["risk-curve", "--sigma=4e16", "--tau-max=1e300"], "risk curve is not finite"),
            (["risk-curve", "--tau-min=-1.7e308", "--tau-max=1.7e308"], "overflows"),
            (["lasso-path", "--lambda-min=-1.7e308", "--lambda-max=1.7e308"], "overflows"),
        ],
        ids=["tiny-sigma", "huge-sigma", "tau-span", "lambda-span"],
    )
    def test_finite_flags_beyond_double_range_are_config_error(
        self, tmp_path, capsys, args, message
    ):
        # warnings are errors here, so a numpy overflow warning fails the test
        code, out = run(tmp_path, "range", *args)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["risk-curve", "--tau-points", "0"],
            ["lasso-path", "--lambda-points", "0"],
            ["sweep", "--lambda-points", "0", "--n", "50", "--big-n", "100", "--k", "5"],
            ["phase-transition", "--delta-points", "0", "--big-n", "50"],
        ],
        ids=lambda args: "-".join(a.lstrip("-") for a in args[:2]),
    )
    def test_empty_grid_is_config_error(self, tmp_path, capsys, args):
        code, out = run(tmp_path, "empty", *args)
        assert code == 2
        assert "points must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--delta", "0.5", "--sigma-w-sq", "1e300", "--beta", "1.5"], "diverged"),
            (["--delta", "0.5", "--sigma-w-sq", "1e300", "--gamma", "0.5"],
             "no beta gave a finite survivor fraction at or above 0.5"),
            (["--delta", "0.5", "--sigma-w-sq", "1e300", "--lambda", "1e-300"],
             "no beta gave a finite survivor fraction at or above 1"),
            (["--delta", "1e-300", "--sigma-w-sq", "1", "--lambda", "1e7"],
             "no beta gave a finite survivor fraction at or above 1"),
        ],
        ids=["huge-noise-beta", "huge-noise-gamma", "huge-noise-lambda", "tiny-delta-lambda"],
    )
    def test_overflowing_aitken_step(self, tmp_path, capsys, args, message):
        # the square in the variance solver's Aitken step overflows here; the
        # solver takes the plain step instead of ending in a traceback.  Every
        # probe of the beta bisections then diverges, so no gamma crossing is
        # seen: a solver failure, not the edge where the divergence stops
        code, out = run(tmp_path, "overflow", "se-solve", *args)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, message",
        [
            (["--beta", "0.05"], "variance iteration diverged"),
            (["--lambda", "0.1"], "no beta gave a finite survivor fraction at or above 1"),
        ],
        ids=["beta", "lambda"],
    )
    def test_overflowing_variance_map_is_solver_failure(self, tmp_path, capsys, target, message):
        # one step of the variance map from the start overflows to inf; that
        # step was fed back into the map, whose sigma check made it a
        # configuration error (exit 2), and the lambda bisection returned
        # the edge of the divergence as a point (exit 0)
        code, out = run(
            tmp_path, "hugeatom", "se-solve", "--delta", "1e-6", "--prior", "0.5:0,0.5:1e150",
            *target,
        )
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_noise_below_contraction_is_solver_failure(self, tmp_path, capsys):
        # beta 0.3 lies below the contraction threshold at delta 0.5, so the
        # variance map has no fixed point; a stop bound absolute below
        # variance 1 once ended the iteration there, and the point it
        # returned failed as NegativeLambda (exit 2)
        code, out = run(
            tmp_path, "tinynoise", "se-solve", "--delta", "0.5", "--sigma-w-sq", "1e-30",
            "--prior", "1:0", "--beta", "0.3",
        )
        assert code == 3
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_band_is_config_error(self, tmp_path, capsys, monkeypatch):
        # rho * n overflowed to inf and math.floor raised OverflowError; the
        # band is now checked before any trial runs or worker forks
        def no_trials(tasks):
            raise AssertionError("trials ran before the band was checked")

        monkeypatch.setattr(amppath.experiments, "_map_trials", no_trials)
        code, out = run(
            tmp_path, "hugeband", "phase-transition", "--big-n", "100", "--delta-points", "1",
            "--rho-points", "2", "--trials", "1", "--band-lo", "1e308", "--band-hi", "1e308",
        )
        assert code == 2
        assert "sparsity rho * n = inf outside [0, 100]" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_delta_below_curve_is_config_error(self, tmp_path, capsys):
        # the curve's delta coordinate reaches down to about 1.15e-299 only;
        # below that the error names delta, not the root-finder's bracket
        code, out = run(
            tmp_path, "tinydelta", "phase-transition", "--big-n", "50", "--delta-min", "1e-300",
            "--delta-max", "1e-300", "--delta-points", "1", "--rho-points", "1", "--trials", "1",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "delta must be in [1.14595e-299, 1), got 1e-300" in err
        assert "f(a) and f(b)" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--gamma", "0"], "gamma must be in (0, 1], got 0.0"),
            (["--gamma", "nan"], "--gamma must be finite, got nan"),
            (["--gamma", "1.5"], "gamma must be in (0, 1], got 1.5"),
            (["--amp-iters", "0"], "max_iter must be >= 1, got 0"),
        ],
        ids=["gamma-zero", "gamma-nan", "gamma-above-one", "amp-iters-zero"],
    )
    def test_phase_checks_amp_settings_without_amp_runs(self, tmp_path, capsys, args, message):
        # at N = 50 and delta 0.1 every cell has k = 0 and succeeds without
        # running AMP, so only the grid's own checks can reject these
        code, out = run(
            tmp_path, "kzero", "phase-transition", "--big-n", "50", "--delta-min", "0.1",
            "--delta-max", "0.1", "--delta-points", "1", "--rho-points", "1", "--trials", "1",
            *args,
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_amp_run_checks_policy_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(config):
            raise AssertionError("instance sampled before the policy was checked")

        monkeypatch.setattr(amppath.cli, "sample_instance", no_sampling)
        code, _ = run(tmp_path, "nogamma", "amp-run", "--n", "2000", "--big-n", "4000", "--k", "100")
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--config", "{tmp}/missing.cfg"],
            ["--config", "{tmp}"],
            ["--out", "{tmp}/missing/out.csv"],
        ],
        ids=["config-missing", "config-directory", "out-missing-directory"],
    )
    def test_file_error_is_config_error(self, tmp_path, capsys, args):
        argv = ["se-solve", "--beta", "1.5", args[0], args[1].format(tmp=tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_amp_run_below_gaussianity_sample_size(self, tmp_path):
        # N < 100 is too short for the Gaussianity statistics: NaN columns, exit 0
        code, out = run(
            tmp_path, "small", "amp-run", "--n", "30", "--big-n", "60", "--k", "3",
            "--gamma", "0.3", "--amp-iters", "4", "--conv-tol", "0",
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["t", "tau", "active_count", "residual_norm", "mse", "kurtosis", "ks"]
        assert len(rows) == 4
        assert all(r["kurtosis"] == r["ks"] == "nan" for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_amp_run_overflowing_data_is_config_error(self, tmp_path, capsys):
        # 1e12 ||y|| overflows here, and an infinite bound never stops AMP
        code, out = run(
            tmp_path, "huge", "amp-run", "--n", "20", "--big-n", "40", "--k", "4",
            "--amplitude", "1e200", "--gamma", "0.3", "--amp-iters", "3",
        )
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_output(self, capsys):
        code = main(["se-solve", "--beta", "1.5"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("lambda,beta,tau,")


def _src_env():
    # the environment of a fresh interpreter that imports this amppath
    src = str(Path(amppath.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _entry_point(kind):
    # the interpreter arguments that start the CLI: ``python -m amppath``, or
    # the function pyproject.toml's [project.scripts] installs as ``amppath``
    if kind == "module":
        return ["-m", "amppath"]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["amppath"]
    module, func = target.split(":")
    return ["-c", f"import sys\nfrom {module} import {func}\nsys.exit({func}())"]


@pytest.mark.parametrize("kind", ["module", "script"])
def test_entry_points_keep_the_exit_code_contract(kind):
    # tier-1 otherwise calls main() in-process; these run each entry point
    # in a fresh interpreter, so its sys.exit carries main's exit code
    env = _src_env()
    entry = [sys.executable, *_entry_point(kind)]
    se_lambda, digest = TestPinnedOutput.DIGESTS["se-lambda"]

    ok = subprocess.run([*entry, *se_lambda], env=env, capture_output=True)
    assert ok.returncode == 0
    assert hashlib.sha256(ok.stdout).hexdigest() == digest

    bad = subprocess.run([*entry, "se-solve", "--lambda", "nan"], env=env, capture_output=True)
    assert bad.returncode == 2
    assert b"error:" in bad.stderr

    failed = subprocess.run([*entry, "se-solve", "--lambda", "1e9"], env=env, capture_output=True)
    assert failed.returncode == 3
    assert b"solver failure:" in failed.stderr


def _loaded_modules(code):
    # the modules a fresh interpreter holds after running code
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def _scipy_loaded_by(code):
    return sorted(m for m in _loaded_modules(code) if m.split(".")[0] == "scipy")


def _command(args, tmp_path):
    # code that runs one CLI call to a file and fails unless it exits 0
    argv = [*args, "--out", str(tmp_path / "out.csv")]
    return f"import amppath.cli\nif amppath.cli.main({argv!r}) != 0: sys.exit('command failed')"


def test_cli_import_leaves_out_scipy_stats():
    # every CLI call pays its imports, and scipy.stats would add about 0.5 s
    # to them (measured on 2 cores), for two statistics numpy computes
    assert "scipy.stats" not in _loaded_modules("import amppath.cli")


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize would add about 0.3 s to every CLI call (measured on
    # 2 cores) for brentq alone, which amppath._brent ports
    assert "scipy.optimize" not in _loaded_modules("import amppath.cli")


@pytest.mark.parametrize("code", ["import amppath", "import amppath.cli"])
def test_import_leaves_out_scipy(code):
    # scipy.special was 0.20 s of a 0.32 s `import amppath.cli` (measured on
    # 2 cores); the functions that evaluate it import it on first use
    assert _scipy_loaded_by(code) == []


def test_cli_import_leaves_out_multiprocessing():
    # only a phase grid that forks workers needs it, and it adds about 10 ms
    # to every CLI start (measured on 2 cores)
    assert "multiprocessing" not in _loaded_modules("import amppath.cli")


@pytest.mark.parametrize("name", ["se-lambda", "lasso-path", "risk-curve"])
def test_scalar_commands_leave_out_scipy(tmp_path, name):
    # the README's state-evolution and risk commands evaluate closed forms
    # in math alone
    assert _scipy_loaded_by(_command(TestPinnedOutput.DIGESTS[name][0], tmp_path)) == []


def test_amp_run_loads_scipy_special(tmp_path):
    # the control: a command that samples an instance does import scipy.special
    code = _command(TestDeterminism.COMMANDS["amp-run"], tmp_path)
    assert "scipy.special" in _scipy_loaded_by(code)
