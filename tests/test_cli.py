import numpy as np
import pytest

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


class TestErrorPaths:
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
        ],
        ids=lambda args: "-".join(a.lstrip("-") for a in args[:3]),
    )
    def test_non_finite_scalar_is_config_error(self, tmp_path, capsys, args):
        code, out = run(tmp_path, "nonfinite", *args)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_stdout_output(self, capsys):
        code = main(["se-solve", "--beta", "1.5"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("lambda,beta,tau,")
