"""Exponential distribution bounds governed by the dyadic BMO norm.

The decay constant is b = 1/(2^(n-1) e) with leading factor B = e, the pair
produced by iterating the running-average gap inequality at the optimal
ratio e.  Bounds are evaluated in interval arithmetic and reported as upper
endpoints, so a failed comparison is never a rounding artifact of the bound
side.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (mpi_div, mpi_exp, mpi_log, mpi_mid, mpi_mul, mpi_neg,
                          mpi_sub, to_float)

from .dyadic import bmo_dyadic_norm, distribution_above
from .errors import InputError, PreconditionError
from .highprec import IV_E, IV_ONE, PREC, iv_from_fraction, iv_int, upper_float
from .rearrangement import rearrange_signed


@dataclass(frozen=True)
class JNConstants:
    """b = b_scale / e with b_scale = 2^(1-n); B = e."""

    n: int

    @property
    def b_scale(self):
        return Fraction(1, 1 << (self.n - 1))

    @property
    def b(self):
        return to_float(mpi_mid(mpi_div(iv_from_fraction(self.b_scale), IV_E, PREC),
                                PREC))

    @property
    def B(self):
        return to_float(mpi_mid(IV_E, PREC))


def _scale(f, norm):
    """2^(n-1) e norm for norm = ||f|| as an interval, cached per function:
    the divisor of the jn exponent and the factor of the log bound."""
    if "jn_scale" not in f._cache:
        f._cache["jn_scale"] = mpi_mul(mpi_mul(iv_int(1 << (f.dim - 1)), IV_E, PREC),
                                       iv_from_fraction(norm), PREC)
    return f._cache["jn_scale"]


def _exp_bound(f, lam, norm):
    """Upper endpoint of e * exp(-lam / (2^(n-1) e norm)), norm = ||f||."""
    expo = mpi_div(mpi_neg(iv_from_fraction(lam), PREC), _scale(f, norm), PREC)
    return upper_float(mpi_mul(IV_E, mpi_exp(expo, PREC), PREC))


def logbound_check(f, t):
    """Signed-rearrangement value against the logarithmic bound.

    Requires exact zero mean.  lhs = f_d(t); rhs = 2^(n-1) e ||f|| ln(e/t),
    upward rounded.  The caller asserts lhs <= rhs.
    """
    if f.mean != 0:
        raise PreconditionError(
            f"requires exact zero mean; got {f.mean} (subtract the average first)")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    lhs = rearrange_signed(f).value_at(t)
    norm = bmo_dyadic_norm(f)
    if norm == 0:
        return lhs, 0.0
    return lhs, upper_float(_log_bound(f, norm, t))


def _log_bound(f, norm, t):
    """2^(n-1) e norm ln(e/t) as an interval, for norm = ||f|| > 0 and a
    Fraction t in (0,1]: the rhs of logbound_check, decreasing in t."""
    log_e_over_t = mpi_sub(IV_ONE, mpi_log(iv_from_fraction(t), PREC), PREC)
    return mpi_mul(_scale(f, norm), log_e_over_t, PREC)


def _lambda_grid(f, points=32):
    """The thresholds 2 spread i/points, i = 1..points; [] for a constant f."""
    spread = Fraction(max(f._nums) - min(f._nums), f._den)
    if spread == 0:
        return []
    return [2 * spread * Fraction(i, points) for i in range(1, points + 1)]


def jn_check(f, lam):
    """Measure of {f - f_Q0 > lam} against B exp(-b lam / ||f||).

    Zero-norm functions are constant, so the measure is 0 and the bound is
    reported as its limit 0 (trivial pass).
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    norm = bmo_dyadic_norm(f)
    measure = distribution_above(f, lam, f.mean)
    if norm == 0:
        return measure, 0.0
    return measure, _exp_bound(f, lam, norm)


def jn_abs_check(f, lam):
    """Two-sided variant: measure of {|f - f_Q0| > lam}, for nonnegative f."""
    if not f.is_nonnegative:
        raise PreconditionError("requires a nonnegative function")
    lam = Fraction(lam)
    if lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    norm = bmo_dyadic_norm(f)
    center = f.mean
    upper = distribution_above(f, lam, center)
    # {f < center - lam}: the numerators a < (center - lam) den, that is below
    # its ceiling, counted by bisection
    thr = center - lam
    ceil = -(-thr.numerator * f._den // thr.denominator)
    lower = Fraction(bisect_left(f._sorted_nums(), ceil), len(f._nums))
    measure = upper + lower
    if norm == 0:
        return measure, 0.0
    return measure, _exp_bound(f, lam, norm)
