"""Property: the CLI given arbitrary floats (NaN and +-inf included) exits
0, 2 or 3 and never ends in a traceback; every risk-curve row it writes is
finite.

Values go in as ``--flag=value``: argparse's negative-number pattern has no
exponent, so a separate ``-4.5e+16`` would be read as an option.  The
commands that sample instances draw tiny sizes and one or two grid points
and trials, so that each example takes milliseconds.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amppath.cli import main

# arbitrary doubles, plus a share of small ones so that some examples
# reach the solvers rather than the input checks; fractions do the same for
# the flags that must lie in (0, 1)
values = st.one_of(st.floats(), st.floats(min_value=-0.5, max_value=3.0))
fractions = st.one_of(st.floats(), st.floats(min_value=0.05, max_value=0.95))
points = st.integers(min_value=-2, max_value=12)
sizes = st.integers(min_value=1, max_value=40)
few = st.integers(min_value=1, max_value=2)
iters = st.integers(min_value=1, max_value=20)
seeds = st.integers(min_value=0, max_value=2**64 - 1)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
SAMPLING = settings(max_examples=50, deadline=None, derandomize=True)
# the sampling commands draw n > N too, where InstanceConfig warns that the
# regime is not undersampled: expected here, as is the stderr run() drops
OVERSAMPLED = pytest.mark.filterwarnings("ignore:n_rows > n_cols:UserWarning")


def run(*args) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    return code, stdout.getvalue()


def exit_code(*args) -> int:
    return run(*args)[0]


@pytest.mark.parametrize("by", ["lambda", "beta", "gamma"])
@PROPERTY
@given(delta=values, sigma_w_sq=values, target=values)
def test_se_solve(by, delta, sigma_w_sq, target):
    code = exit_code(
        "se-solve", f"--delta={delta!r}", f"--sigma-w-sq={sigma_w_sq!r}", f"--{by}={target!r}"
    )
    assert code in (0, 2, 3)


@PROPERTY
@given(sigma=values, tau_min=values, tau_max=values, tau_points=points)
def test_risk_curve(sigma, tau_min, tau_max, tau_points):
    code, text = run(
        "risk-curve", "--prior=0.8:0,0.1:1,0.1:-1", f"--sigma={sigma!r}",
        f"--tau-min={tau_min!r}", f"--tau-max={tau_max!r}", f"--tau-points={tau_points}",
    )
    assert code in (0, 2, 3)
    rows = text.splitlines()[1:]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@PROPERTY
@given(delta=values, sigma_w_sq=values, lambda_min=values, lambda_max=values, lambda_points=points)
def test_lasso_path(delta, sigma_w_sq, lambda_min, lambda_max, lambda_points):
    code = exit_code(
        "lasso-path", f"--delta={delta!r}", f"--sigma-w-sq={sigma_w_sq!r}",
        f"--lambda-min={lambda_min!r}", f"--lambda-max={lambda_max!r}",
        f"--lambda-points={lambda_points}",
    )
    assert code in (0, 2, 3)


@OVERSAMPLED
@SAMPLING
@given(
    n=sizes, big_n=sizes, k=sizes, amplitude=values, sigma_w_sq=values, seed=seeds,
    policy=st.sampled_from([("fixed-detection", "gamma"), ("fixed-false-alarm", "beta"),
                            ("fixed-threshold", "tau")]),
    param=values, amp_iters=iters, conv_tol=values,
)
def test_amp_run(n, big_n, k, amplitude, sigma_w_sq, seed, policy, param, amp_iters, conv_tol):
    code = exit_code(
        "amp-run", f"--n={n}", f"--big-n={big_n}", f"--k={k}", f"--amplitude={amplitude!r}",
        f"--sigma-w-sq={sigma_w_sq!r}", f"--seed={seed}", f"--policy={policy[0]}",
        f"--{policy[1]}={param!r}", f"--amp-iters={amp_iters}", f"--conv-tol={conv_tol!r}",
    )
    assert code in (0, 2, 3)


@OVERSAMPLED
@SAMPLING
@given(
    n=sizes, big_n=sizes, k=sizes, amplitude=values, sigma_w_sq=values, seed=seeds,
    lambda_min=values, lambda_max=values, lambda_points=few,
    solver=st.sampled_from(["fista", "amp"]), tol=values, amp_iters=iters,
)
def test_sweep(n, big_n, k, amplitude, sigma_w_sq, seed, lambda_min, lambda_max, lambda_points,
               solver, tol, amp_iters):
    code = exit_code(
        "sweep", f"--n={n}", f"--big-n={big_n}", f"--k={k}", f"--amplitude={amplitude!r}",
        f"--sigma-w-sq={sigma_w_sq!r}", f"--seed={seed}", f"--lambda-min={lambda_min!r}",
        f"--lambda-max={lambda_max!r}", f"--lambda-points={lambda_points}",
        f"--solver={solver}", f"--tol={tol!r}", f"--amp-iters={amp_iters}",
    )
    assert code in (0, 2, 3)


@SAMPLING
@given(
    big_n=sizes, delta_min=fractions, delta_max=fractions, delta_points=few, rho_points=few,
    trials=few, gamma=fractions, tol=values, amp_iters=iters, band_lo=fractions, band_hi=fractions,
    seed=seeds,
)
def test_phase_transition(big_n, delta_min, delta_max, delta_points, rho_points, trials, gamma,
                          tol, amp_iters, band_lo, band_hi, seed):
    code = exit_code(
        "phase-transition", f"--big-n={big_n}", f"--delta-min={delta_min!r}",
        f"--delta-max={delta_max!r}", f"--delta-points={delta_points}",
        f"--rho-points={rho_points}", f"--trials={trials}", f"--gamma={gamma!r}",
        f"--tol={tol!r}", f"--amp-iters={amp_iters}", f"--band-lo={band_lo!r}",
        f"--band-hi={band_hi!r}", f"--seed={seed}",
    )
    assert code in (0, 2, 3)
