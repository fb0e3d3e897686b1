"""Certified transcendental evaluation via interval arithmetic.

All theorem right-hand sides involving e, log and fractional powers are
computed as mpmath intervals at 160-bit precision, in this module's private
contexts `mp` and `iv` (mpmath's global contexts are left as they are).  A
bound reported as a float is the upper interval endpoint nudged one ulp
upward (`upper_float`), and a left-hand side reported as a float is the lower
endpoint nudged one ulp downward (`lower_float`), so a violation `lhs > rhs`
between them is never an artifact of rounding.  Interval widths here are
~1e-45, far below a float ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

mp = MPContext()
mp.prec = 160
iv = MPIntervalContext()
iv.prec = 160

IV_ONE = iv.mpf(1)
IV_E = iv.exp(IV_ONE)


def iv_from_fraction(x):
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def iv_max(a, b):
    lo = a.a if a.a > b.a else b.a
    hi = a.b if a.b > b.b else b.b
    return iv.mpf([lo, hi])


def iv_min(a, b):
    lo = a.a if a.a < b.a else b.a
    hi = a.b if a.b < b.b else b.b
    return iv.mpf([lo, hi])


def iv_pow(base, expo):
    """base**expo for a positive interval base and arbitrary interval expo."""
    return iv.exp(iv.log(base) * expo)


def upper_float(x):
    """Float upper bound of an interval (or mpf), rounded away from zero risk."""
    hi = float(x.b if hasattr(x, "b") else x)
    return math.nextafter(hi, math.inf)


def lower_float(x):
    lo = float(x.a if hasattr(x, "a") else x)
    return math.nextafter(lo, -math.inf)


def midpoint_float(x):
    if hasattr(x, "mid"):
        return float(x.mid)
    return float(x)
