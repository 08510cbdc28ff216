"""Brent's bracketing root-finder (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4), step for step as scipy's C
``brentq.c``: it returns the float scipy's ``brentq`` returns at that
function's default ``rtol`` and ``maxiter``, and raises its errors with
the same texts.  Importing it costs nothing; scipy's optimizer package
adds about 0.3 s to every start of the command line.
"""

from __future__ import annotations

import math
import sys

_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 100


def _div(num: float, den: float) -> float:
    """num / den with the IEEE result (+-inf or NaN) where Python raises."""
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4*eps*|root|."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            limit = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAX_ITER} iterations.")
