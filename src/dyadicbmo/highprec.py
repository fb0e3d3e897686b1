"""Certified transcendental evaluation via interval arithmetic.

All theorem right-hand sides involving e, log and fractional powers, and the
exponent equation of `gurov.solve_p`, are computed as mpmath intervals at
160-bit precision in this module's private context `iv` (mpmath's global
contexts are left as they are).  A bound reported as a float is the upper
interval endpoint nudged one ulp upward (`upper_float`), so a violation
`lhs > rhs` against an exact or rounded-down lhs is never an artifact of
rounding.  Interval widths here are ~1e-45, far below a float ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

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


def iv_pow(base, expo):
    """base**expo for a positive interval base and arbitrary interval expo."""
    return iv.exp(iv.log(base) * expo)


def upper_float(x):
    """Float upper bound of an interval: its upper end, one ulp up."""
    return math.nextafter(float(x.b), math.inf)


# iv_min, lower_float and midpoint_float have no caller in the package; they
# stay because bench/tracer.py patches them by name, and go once the tracer
# reads its counts from the package (ROADMAP item 1).

def iv_min(a, b):
    lo = a.a if a.a < b.a else b.a
    hi = a.b if a.b < b.b else b.b
    return iv.mpf([lo, hi])


def lower_float(x):
    lo = float(x.a if hasattr(x, "a") else x)
    return math.nextafter(lo, -math.inf)


def midpoint_float(x):
    if hasattr(x, "mid"):
        return float(x.mid)
    return float(x)
