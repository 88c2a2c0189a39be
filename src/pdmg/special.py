"""log Gamma and digamma of one positive double, without numpy.

``psi`` uses the recurrence psi(x) = psi(x+1) - 1/x to shift the argument
to >= 6, then the de Moivre asymptotic series through the y**-14 term
(truncation below 2e-13 at y = 6).  Two numerical refinements keep the
absolute error within 1e-10 even where |psi| approaches 1e6: the shifted
reciprocals accumulate with Neumaier compensation, and for x < 1e-3 the
dominant 1/x term carries an exact-product residual correction (Veltkamp
splitting) so the final subtraction is the only rounding at full scale.
Where 1/x exceeds 1e300 (x below 1e-300) the split would overflow, and the
residual is far below an ulp of the result, so it is skipped.  psi is
finite above 1/DBL_MAX (about 5.56e-309) and -inf at or below it, where
1/x itself overflows; that -inf is returned without dividing.
``model._validate_rows`` refuses such pseudo-counts, so a fit's psi values
are all finite.
"""

from __future__ import annotations

import math

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp split constant
_SPLIT_MAX = 1.0e300  # 1/x below _SPLIT * (1/x)'s overflow, about 1.34e300
_TINY = 2.0 ** -1024  # 1/DBL_MAX rounded: 1/x is finite for x above it

# Asymptotic series coefficients for psi, innermost last.
_C12, _C120, _C252 = 1.0 / 12.0, 1.0 / 120.0, 1.0 / 252.0
_C240, _C132 = 1.0 / 240.0, 1.0 / 132.0
_C32760 = 691.0 / 32760.0


def lgamma(x: float) -> float:
    """``math.lgamma``, but inf where log Gamma(x) exceeds the largest double."""
    try:
        return math.lgamma(x)
    except OverflowError:  # x above about 2.6e305: log Gamma(x) is not a double
        return math.inf


def _two_prod_err(a: float, b: float, p: float) -> float:
    """a * b - p, exactly, for p the rounded product a * b."""
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def psi(x: float) -> float:
    y = x
    big = bigfix = small = comp = 0.0
    if y < 1.0e-3:
        if y <= _TINY:  # 1/y overflows; so does psi(y), below -DBL_MAX
            return -math.inf
        big = 1.0 / y
        if big < _SPLIT_MAX:
            p = big * y
            bigfix = ((1.0 - p) - _two_prod_err(big, y, p)) / y
        y += 1.0
    while y < 6.0:
        t = 1.0 / y
        s = small + t
        comp += (small - s) + t if abs(small) >= t else (t - s) + small
        small = s
        y += 1.0
    v = 1.0 / y
    v2 = v * v
    ser = v2 * (_C12 - v2 * (_C120 - v2 * (_C252 - v2 * (
        _C240 - v2 * (_C132 - v2 * (_C32760 - v2 * _C12))))))
    return ((math.log(y) - 0.5 * v - ser - small) - (comp + bigfix)) - big
