"""Command-line interface: every experiment emits a CSV.

Numbers are printed with 17 significant digits, so re-running a command
with the same flags and seed reproduces the output byte for byte.  An
optional config file supplies ``key = value`` lines mirroring the flags
(hyphens as underscores); explicit flags win over the file.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments
from .amp import amp_run
from .exceptions import ConfigError, SolverError
from .instances import InstanceConfig, SparseSpec, sample_instance
from .policies import FixedDetection, FixedFalseAlarm, FixedThreshold
from .priors import parse_prior, risk, risk_derivative
from .state_evolution import SEModel, beta_of_lambda, calibrate_gamma, lambda_of_beta, lasso_path

SE_COLUMNS = ("lambda", "beta", "tau", "gamma", "sigma_hat", "mse", "detection")


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# option name -> (type, default, help); None defaults mean "required"
_OPTIONS = {
    "delta": (float, 0.5, "undersampling ratio n/N"),
    "sigma_w_sq": (float, 0.2, "noise variance"),
    "prior": (str, "0.9:0,0.05:1,0.05:-1", "signal prior, weight:value tokens"),
    "lambda": (float, None, "LASSO regularization level"),
    "beta": (float, None, "threshold per unit of effective noise"),
    "gamma": (float, None, "survivor fraction of n kept active"),
    "tau": (float, None, "fixed threshold value"),
    "seed": (int, 0, "master seed (64-bit)"),
    "n": (int, 500, "number of measurements (rows)"),
    "big_n": (int, 1000, "signal dimension (columns)"),
    "k": (int, None, "sparsity of the generated signal"),
    "amplitude": (float, 1.0, "magnitude of the k nonzero entries"),
    "fixed_sign": (_bool, False, "all nonzero entries positive instead of random signs"),
    "amp_iters": (int, 500, "AMP iteration cap"),
    "conv_tol": (float, 1e-10, "AMP relative-change stopping tolerance"),
    "tol": (float, None, "solver/success tolerance (command-specific)"),
    "solver": (str, "fista", "sweep solver: fista or amp"),
    "policy": (str, "fixed-detection", "amp threshold policy"),
    "sigma": (float, 1.0, "noise level for the risk curve"),
    "tau_min": (float, 0.0, "risk curve grid start"),
    "tau_max": (float, 6.0, "risk curve grid end"),
    "tau_points": (int, 121, "risk curve grid size"),
    "lambda_min": (float, 0.01, "lambda grid start"),
    "lambda_max": (float, 1.0, "lambda grid end"),
    "lambda_points": (int, 50, "lambda grid size"),
    "delta_min": (float, 0.1, "phase grid delta start"),
    "delta_max": (float, 0.9, "phase grid delta end"),
    "delta_points": (int, 20, "phase grid delta count"),
    "rho_points": (int, 50, "band samples per delta"),
    "trials": (int, 20, "Monte Carlo trials per cell"),
    "band_lo": (float, 0.8, "band lower factor on rho(delta)"),
    "band_hi": (float, 1.2, "band upper factor on rho(delta)"),
    "display_out": (str, "", "optional CSV path for the interpolated display grid"),
}

# policy name -> (policy class, the option holding its one parameter)
_POLICIES = {
    "fixed-detection": (FixedDetection, "gamma"),
    "fixed-false-alarm": (FixedFalseAlarm, "beta"),
    "fixed-threshold": (FixedThreshold, "tau"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_options(sub: argparse.ArgumentParser, names: list[str]):
    for name in names:
        typ, _, help_text = _OPTIONS[name]
        sub.add_argument(_flag(name), dest=name, type=typ, default=None, help=help_text)


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
            values[key] = _OPTIONS[key][0](raw.strip())
    return values


def _resolve(args: argparse.Namespace, names: list[str]) -> dict:
    file_values = _read_config_file(args.config) if args.config else {}
    out = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            value = file_values.get(name, _OPTIONS[name][1])
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{_flag(name)} must be finite, got {value}")
        out[name] = value
    return out


def _grid(opts, name: str) -> np.ndarray:
    """The evenly spaced --<name>-min .. --<name>-max grid of
    --<name>-points values."""
    points = opts[f"{name}_points"]
    if points < 1:
        raise ConfigError(f"{_flag(name + '_points')} must be >= 1, got {points}")
    lo, hi = opts[f"{name}_min"], opts[f"{name}_max"]
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{_flag(name + '_max')} - {_flag(name + '_min')} overflows")
    return np.linspace(lo, hi, points)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: str | None, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _se_row(point) -> tuple:
    return (point.lam, point.beta, point.tau, point.gamma, point.sigma_hat, point.mse, point.detection)


def _build_model(opts) -> SEModel:
    return SEModel(opts["delta"], opts["sigma_w_sq"], parse_prior(opts["prior"]))


def _cmd_se_solve(opts, out):
    model = _build_model(opts)
    given = [k for k in ("lambda", "beta", "gamma") if opts[k] is not None]
    if len(given) != 1:
        raise ConfigError("pass exactly one of --lambda, --beta, --gamma")
    if given[0] == "lambda":
        point = beta_of_lambda(model, opts["lambda"])
    elif given[0] == "beta":
        point = lambda_of_beta(model, opts["beta"])
    else:
        point = calibrate_gamma(model, opts["gamma"])
    _write_csv(out, SE_COLUMNS, [_se_row(point)])


def _cmd_lasso_path(opts, out):
    model = _build_model(opts)
    points = lasso_path(model, _grid(opts, "lambda"))
    _write_csv(out, SE_COLUMNS, [_se_row(p) for p in points])


def _cmd_risk_curve(opts, out):
    prior = parse_prior(opts["prior"])
    rows = []
    for t in map(float, _grid(opts, "tau")):
        row = (t, risk(prior, opts["sigma"], t), risk_derivative(prior, opts["sigma"], t))
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"risk curve is not finite in double precision at tau = {t!r}")
        rows.append(row)
    _write_csv(out, ("tau", "risk", "risk_derivative"), rows)


def _instance_config(opts) -> InstanceConfig:
    if opts.get("k") is not None:
        signal = SparseSpec(opts["k"], opts["amplitude"], random_sign=not opts["fixed_sign"])
    else:
        signal = parse_prior(opts["prior"])
    return InstanceConfig(
        n_rows=opts["n"],
        n_cols=opts["big_n"],
        signal=signal,
        noise_variance=opts["sigma_w_sq"],
        seed=opts["seed"],
    )


def _cmd_amp_run(opts, out):
    if opts["policy"] not in _POLICIES:
        raise ConfigError(f"unknown policy {opts['policy']!r}")
    policy_class, param = _POLICIES[opts["policy"]]
    if opts[param] is None:
        raise ConfigError(f"{opts['policy']} needs {_flag(param)}")
    policy = policy_class(opts[param])
    instance = sample_instance(_instance_config(opts))
    _, trace = amp_run(instance, policy, max_iter=opts["amp_iters"], conv_tol=opts["conv_tol"])
    header = ("t", "tau", "active_count", "residual_norm", "mse", "kurtosis", "ks")
    rows = zip(trace.t, trace.tau, trace.active_count, trace.residual_norm,
               trace.mse, trace.kurtosis, trace.ks)
    _write_csv(out, header, rows)


def _cmd_sweep(opts, out):
    cfg = experiments.SweepConfig(
        instance=_instance_config(opts),
        lambda_grid=tuple(_grid(opts, "lambda")),
        solver=opts["solver"],
        solver_tol=opts["tol"] if opts["tol"] is not None else 1e-6,
        amp_max_iter=opts["amp_iters"],
    )
    rows = experiments.lambda_sweep_empirical(cfg)
    header = ("lambda", "empirical_mse", "se_mse", "empirical_dr", "se_dr",
              "kkt_residual", "converged")
    _write_csv(out, header, [[r[h] for h in header] for r in rows])


def _cmd_phase_transition(opts, out):
    cfg = experiments.PhaseGridConfig(
        n_signal=opts["big_n"],
        delta_grid=tuple(_grid(opts, "delta")),
        rho_band=(opts["band_lo"], opts["band_hi"]),
        rho_points=opts["rho_points"],
        trials=opts["trials"],
        tol=opts["tol"] if opts["tol"] is not None else 1e-2,
        max_iter=opts["amp_iters"],
        gamma=opts["gamma"] if opts["gamma"] is not None else 1.0,
        base_seed=opts["seed"],
    )
    grid = experiments.phase_transition_grid(cfg)
    rows = []
    for di, delta in enumerate(grid.delta_values):
        for ri in range(grid.rho_values.shape[1]):
            rows.append((delta, grid.rho_values[di, ri], grid.success[di, ri], grid.theory_rho[di]))
    _write_csv(out, ("delta", "rho", "success", "rho_theory"), rows)
    if opts["display_out"]:
        display_rho, matrix = experiments.interpolate_display_grid(grid)
        header = ["rho"] + [f"{d:.17g}" for d in grid.delta_values]
        out_rows = [(r, *matrix[i]) for i, r in enumerate(display_rho)]
        _write_csv(opts["display_out"], header, out_rows)


# subcommand -> (handler(opts, out), the options it reads)
_COMMANDS = {
    "se-solve": (_cmd_se_solve, ["delta", "sigma_w_sq", "prior", "lambda", "beta", "gamma"]),
    "lasso-path": (
        _cmd_lasso_path,
        ["delta", "sigma_w_sq", "prior", "lambda_min", "lambda_max", "lambda_points"],
    ),
    "risk-curve": (_cmd_risk_curve, ["prior", "sigma", "tau_min", "tau_max", "tau_points"]),
    "amp-run": (
        _cmd_amp_run,
        ["n", "big_n", "k", "amplitude", "fixed_sign", "prior", "sigma_w_sq", "seed",
         "policy", "gamma", "beta", "tau", "amp_iters", "conv_tol"],
    ),
    "sweep": (
        _cmd_sweep,
        ["n", "big_n", "k", "amplitude", "fixed_sign", "prior", "sigma_w_sq", "seed",
         "lambda_min", "lambda_max", "lambda_points", "solver", "tol", "amp_iters"],
    ),
    "phase-transition": (
        _cmd_phase_transition,
        ["big_n", "delta_min", "delta_max", "delta_points", "rho_points", "trials",
         "gamma", "tol", "amp_iters", "band_lo", "band_hi", "seed", "display_out"],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amppath", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, option_names) in _COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--out", default=None, help="CSV output path (default stdout)")
        sub.add_argument("--config", default=None, help="key = value file mirroring the flags")
        _add_options(sub, option_names)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, names = _COMMANDS[args.command]
    try:
        handler(_resolve(args, names), args.out)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
