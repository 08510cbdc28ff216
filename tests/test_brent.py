"""Contract of the private Brent root-finder: scipy's brentq float for
float and error for error.  scipy.optimize is only the oracle here; the
package itself never imports it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from amppath._brent import _div, brentq

# the tolerances the package passes, and scipy's default
XTOLS = (2e-12, 1e-13, 1e-14)

# strictly increasing shapes through 0: smooth, flat-tailed, kinked, jumping
SHAPES = {
    "linear": lambda t: t,
    "cubic": lambda t: t**3 + 0.1 * t,
    "expm1": math.expm1,
    "atan": math.atan,
    "tanh": math.tanh,
    "kink": lambda t: t if t < 0.0 else 5.0 * t,
    "jump": lambda t: t + math.copysign(1.0, t),
}


def outcome(solver, f, a, b, xtol):
    try:
        return "root", solver(f, a, b, xtol=xtol).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    root=st.floats(-5.0, 5.0),
    scale=st.floats(1e-3, 1e3),
    rate=st.floats(0.05, 20.0),
    sign=st.sampled_from((1.0, -1.0)),
    below=st.floats(1e-3, 30.0),
    above=st.floats(1e-3, 30.0),
    xtol=st.sampled_from(XTOLS),
)
def test_matches_scipy_on_monotone_functions(shape, root, scale, rate, sign, below, above, xtol):
    g = SHAPES[shape]

    def f(x):
        return sign * scale * g(rate * (x - root))

    a, b = root - below, root + above
    ours = outcome(brentq, f, a, b, xtol)
    assert ours == outcome(scipy_brentq, f, a, b, xtol)
    assert ours[0] == "root"


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0)], ids=["at-a", "at-b"])
def test_endpoint_root_is_returned(a, b):
    assert brentq(lambda x: x - 1.0, a, b, xtol=2e-12) == 1.0


def test_same_sign_bracket_is_value_error():
    def f(x):
        return x + 1.0

    with pytest.raises(ValueError, match=r"^f\(a\) and f\(b\) must have different signs$"):
        brentq(f, 0.0, 1.0, xtol=2e-12)
    assert outcome(brentq, f, 0.0, 1.0, 2e-12) == outcome(scipy_brentq, f, 0.0, 1.0, 2e-12)


@pytest.mark.parametrize("nan_from", [0.0, 0.2], ids=["at-a", "inside"])
def test_nan_value_is_value_error(nan_from):
    def f(x):
        return math.nan if nan_from <= x < 0.8 else x - 0.5

    ours = outcome(brentq, f, 0.0, 1.0, 2e-12)
    assert ours[0] == "ValueError"
    assert ours[1].endswith("is NaN; solver cannot continue.")
    assert ours == outcome(scipy_brentq, f, 0.0, 1.0, 2e-12)


def test_runtime_error_after_100_iterations():
    # a jump at 1e-250 with a tolerance far below it: bisection would need
    # about 900 halvings to reach the tolerance
    calls = []

    def f(x):
        calls.append(x)
        return -1.0 if x < 1e-250 else 1.0

    ours = outcome(brentq, f, -1.0, 1.0, 1e-300)
    assert ours == ("RuntimeError", "Failed to converge after 100 iterations.")
    assert len(calls) == 2 + 100
    assert ours == outcome(scipy_brentq, f, -1.0, 1.0, 1e-300)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: 1e-200 * (x**3 - 2.0), 0.0, 2.0),
        (lambda x: 1e-170 * math.expm1(x - 0.3), -1.0, 4.0),
    ],
    ids=["cubic", "expm1"],
)
def test_underflowing_extrapolation_denominator(f, a, b):
    # values near 1e-200 make the product of two secant slopes underflow to
    # 0, which C divides by and Python would not; the step is then a bisection
    ours = outcome(brentq, f, a, b, 1e-14)
    assert ours[0] == "root"
    assert ours == outcome(scipy_brentq, f, a, b, 1e-14)


@pytest.mark.parametrize(
    "num, den, expected",
    [(1.0, 0.0, math.inf), (-1.0, 0.0, -math.inf), (1.0, -0.0, -math.inf),
     (-2.0, -0.0, math.inf), (3.0, 2.0, 1.5)],
)
def test_ieee_division(num, den, expected):
    assert _div(num, den) == expected


@pytest.mark.parametrize("num", [0.0, -0.0, math.nan])
def test_ieee_division_without_a_value_is_nan(num):
    assert math.isnan(_div(num, 0.0))
