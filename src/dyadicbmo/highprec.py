"""Certified transcendental evaluation via interval arithmetic.

All theorem right-hand sides involving e, log and fractional powers, and the
exponent equation of `gurov.solve_p`, are computed at PREC = 160 bits as raw
mpmath interval tuples (lo, hi) of mpf endpoints, with the outward-rounded
`mpi_*` operations of `mpmath.libmp`.  There is no context object, so no
per-operation conversion and no global state: an integer wider than PREC bits
enters rounded outward (`iv_int`), a float as its exact point (`iv_float`), a
rational as the outward-rounded quotient of its two integers, and endpoints
are compared with `mpf_lt`, `mpf_gt` and `mpf_ge`, never with tuple order.
A bound reported as a float is the upper endpoint nudged one ulp upward
(`upper_float`), so a violation `lhs > rhs` against an exact or rounded-down
lhs is never an artifact of rounding; `lower_float` nudges the lower
endpoint one ulp down, a float below the whole interval.  Interval widths
here are ~1e-45, far below a float ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.libmp import (from_float, from_int, fzero, mpf_gt, mpf_lt, mpi_div,
                          mpi_exp, mpi_log, mpi_mid, mpi_mul, round_ceiling,
                          round_floor, to_float)

PREC = 160


def iv_int(k):
    """The integer k as an interval, rounded outward beyond PREC bits."""
    return from_int(k, PREC, round_floor), from_int(k, PREC, round_ceiling)


def iv_float(x):
    """The float x as its exact point interval."""
    v = from_float(x)
    return v, v


IV_ZERO = (fzero, fzero)
IV_ONE = iv_int(1)
IV_E = mpi_exp(IV_ONE, PREC)


def iv_from_fraction(x):
    x = Fraction(x)
    return mpi_div(iv_int(x.numerator), iv_int(x.denominator), PREC)


def iv_max(a, b):
    return (a[0] if mpf_gt(a[0], b[0]) else b[0],
            a[1] if mpf_gt(a[1], b[1]) else b[1])


def iv_pow(base, expo):
    """base**expo for a positive interval base and arbitrary interval expo."""
    return mpi_exp(mpi_mul(mpi_log(base, PREC), expo, PREC), PREC)


def upper_float(x):
    """Float upper bound of an interval: its upper end, one ulp up."""
    return math.nextafter(to_float(x[1]), math.inf)


def lower_float(x):
    """Float lower bound of an interval: its lower end, one ulp down."""
    return math.nextafter(to_float(x[0]), -math.inf)


# iv_min and midpoint_float have no caller in the package; they stay because
# bench/tracer.py patches them by name, and go once the tracer reads its
# counts from the package (ROADMAP item 1).

def iv_min(a, b):
    return (a[0] if mpf_lt(a[0], b[0]) else b[0],
            a[1] if mpf_lt(a[1], b[1]) else b[1])


def midpoint_float(x):
    return to_float(mpi_mid(x, PREC))
