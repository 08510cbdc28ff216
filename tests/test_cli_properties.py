"""Property: the CLI given arbitrary floats (NaN and +-inf included) exits
0, 2 or 3 and never ends in a traceback.

Values go in as ``--flag=value``: argparse's negative-number pattern has no
exponent, so a separate ``-4.5e+16`` would be read as an option.  The
property asks nothing of the rows written; a finite input can still give
non-finite ones (see CHANGES.md).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amppath.cli import main

# arbitrary doubles, plus a share of small ones so that some examples
# reach the solvers rather than the input checks
values = st.one_of(st.floats(), st.floats(min_value=-0.5, max_value=3.0))
points = st.integers(min_value=-2, max_value=12)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def exit_code(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


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
    code = exit_code(
        "risk-curve", "--prior=0.8:0,0.1:1,0.1:-1", f"--sigma={sigma!r}",
        f"--tau-min={tau_min!r}", f"--tau-max={tau_max!r}", f"--tau-points={tau_points}",
    )
    assert code in (0, 2, 3)


@PROPERTY
@given(delta=values, sigma_w_sq=values, lambda_min=values, lambda_max=values, lambda_points=points)
def test_lasso_path(delta, sigma_w_sq, lambda_min, lambda_max, lambda_points):
    code = exit_code(
        "lasso-path", f"--delta={delta!r}", f"--sigma-w-sq={sigma_w_sq!r}",
        f"--lambda-min={lambda_min!r}", f"--lambda-max={lambda_max!r}",
        f"--lambda-points={lambda_points}",
    )
    assert code in (0, 2, 3)
