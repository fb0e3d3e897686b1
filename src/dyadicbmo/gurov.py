"""The oscillation-to-mean modulus of nonnegative functions and its consequences.

For f >= 0 the modulus v(sigma) is the sup of oscillation/average over dyadic
cubes of side at most sigma.  It is a right-continuous step function of sigma
jumping only at dyadic side lengths, so profile lookups at irrational sigma
(such as 2*t^(1/n)) are exact: the value equals the value at the largest
dyadic side below, and the comparison of sides is an integer comparison.

Downstream bounds: the rearrangement inequality with factor 2^n, the
exponential Hardy-average bound with reconstructed constants, the power decay
t^(-1/p) with p solving p^p/(p-1)^(p-1) = 1/(2^(n-1) eps), and the resulting
L^q tail bound for q < p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from mpmath.libmp import (from_int, from_rational, fone, fzero, mpf_add,
                          mpf_div, mpf_exp, mpf_ge, mpf_log, mpf_lt, mpf_mul,
                          mpi_abs, mpi_add, mpi_div, mpi_exp, mpi_log,
                          mpi_mul, mpi_neg, mpi_sub, round_floor, to_float)

from .errors import InputError, PreconditionError
from .highprec import (IV_E, IV_ONE, IV_ZERO, PREC, iv_float, iv_from_fraction,
                       iv_int, iv_max, iv_pow, upper_float)
from .rearrangement import _window, hardy_average, rearrange_abs

P_CAP = 1.0e6


@dataclass(frozen=True)
class GRProfile:
    """v as a step function of sigma: values[i] on [sigma_breaks[i], next),
    values[-1] at sigma = 1; zero below the cell side 2^-L."""

    sigma_breaks: tuple
    values: tuple
    epsilon_global: Fraction
    nonneg: bool

    def value_at_level(self, k):
        """v at sigma = 2^-k (max ratio over cubes of level >= k)."""
        depth = len(self.values) - 1
        if k >= len(self.values):
            return Fraction(0)
        return self.values[depth - k]

    def value_at(self, sigma):
        sigma = Fraction(sigma)
        if not 0 <= sigma <= 1:
            raise InputError(f"sigma must lie in [0,1], got {sigma}")
        depth = len(self.values) - 1
        if sigma < Fraction(1, 1 << depth):
            return Fraction(0)
        k = 0
        while Fraction(1, 1 << k) > sigma:
            k += 1
        return self.value_at_level(k)


@dataclass(frozen=True)
class ExponentSolution:
    epsilon: Fraction
    n: int
    p: float
    residual: float
    capped: bool = False


@dataclass(frozen=True)
class Theorem4Result:
    lhs: Fraction
    rhs: float
    c1: float
    c2: float
    c3: float
    c4: float


def _require_nonneg(f):
    if not f.is_nonnegative:
        raise PreconditionError("requires a nonnegative function")


def gr_profile(f):
    """Exact modulus profile of a nonnegative function (cached per function)."""
    _require_nonneg(f)
    if "gr_profile" in f._cache:
        return f._cache["gr_profile"]
    # oscillation / average of a level-k cube is osc / (s * cnt), s its sum
    # and cnt its cell count; level-L cubes give 0
    per_level = [Fraction(o, s << (f.dim * (f.depth - k)))
                 for k, (o, s) in enumerate(f._level_bests()[1])]
    # v at sigma = 2^-k is the largest ratio over levels k..L, deepest first
    values = tuple(accumulate(reversed(per_level), max, initial=Fraction(0)))
    breaks = tuple(Fraction(1, 1 << k) for k in range(f.depth, -1, -1))
    profile = GRProfile(sigma_breaks=breaks, values=values,
                        epsilon_global=values[-1], nonneg=True)
    f._cache["gr_profile"] = profile
    return profile


def gr_modulus(f, sigma):
    """Max of oscillation/average over dyadic cubes of side <= sigma, exact."""
    return gr_profile(f).value_at(sigma)


def gr_membership(f):
    """Minimal eps with oscillation <= eps * average on every dyadic cube."""
    return gr_profile(f).epsilon_global


def sigma_level_for(t, n):
    """Level k* with 2^-k* the largest dyadic side <= min(2 t^(1/n), 1).

    2^-k <= 2 t^(1/n)  iff  2^-n(k+1) <= t, an exact rational comparison.
    """
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    k = 0
    while Fraction(1, 1 << (n * (k + 1))) > t:
        k += 1
    return k


def theorem3_check(f, t, profile=None):
    """Exact both sides of the rearrangement-versus-modulus inequality.

    lhs = (1/t) * int_0^t |f*(u) - F(t)| du with F(t) the Hardy average of
    the rearrangement f*; rhs = 2^n * F(t) * v(sigma_t).  The caller asserts
    lhs <= rhs.

    F(t) is the mean of f* over (0, t] and lhs its mean oscillation there,
    both from one window of f*; f* is nonincreasing, so the window takes its
    O(log pieces) path.
    """
    _require_nonneg(f)
    if not any(f._nums):
        raise PreconditionError("requires a function not identically zero")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    favg, lhs = _window(rearrange_abs(f), Fraction(0), t)
    if profile is None:
        profile = gr_profile(f)
    v_t = profile.value_at_level(sigma_level_for(t, f.dim))
    rhs = (1 << f.dim) * favg * v_t
    return lhs, rhs


def solve_p(epsilon, n):
    """The unique p > 1 with p^p/(p-1)^(p-1) = 1/(2^(n-1) eps), from below.

    Requires 0 < eps < 2^(1-n).  p is bisected on floats, each step decided
    on 160-bit intervals: the lower end moves only where val(p) = p ln p -
    (p-1) ln(p-1) lies certainly below ln(target), so p never exceeds the
    root (the thm5 and cor1 bounds shrink as p grows).  p is 1.0 when the
    root lies below 1 + 2^-52, and 1e6 (capped) when it lies above 1e6; the
    downstream bounds only weaken under the cap.  residual is a certified
    upper bound of |p^p/(p-1)^(p-1) - target| at the returned p (target - 1
    at p = 1.0).  Solved once per (eps, n).
    """
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    epsilon = Fraction(epsilon)
    # epsilon < 2^(1-n) needs a denominator above 2^(n-1), of n bits or
    # more, so a shorter one decides it before any power of two is built
    if not (epsilon > 0 and epsilon.denominator.bit_length() >= n
            and epsilon.numerator << (n - 1) < epsilon.denominator):
        raise PreconditionError(
            f"epsilon must lie in (0, {_limit_text(n)}) for dimension {n}, "
            f"got {epsilon}")
    return _solve_p_exact(epsilon, n)


def _limit_text(n):
    """2^(1-n) as a Fraction prints it, or as "2^(1-n)" where the power
    has more digits than str converts (or more than 2^16 bits)."""
    if n <= 1 << 16:
        try:
            return str(Fraction(1, 1 << (n - 1)))
        except ValueError:
            pass
    return f"2^(1-{n})"


def _val(p):
    """p ln p - (p-1) ln(p-1) at a float p > 1, a 160-bit interval; it
    rises from val(1) = 0."""
    p = iv_float(p)
    q = mpi_sub(p, IV_ONE, PREC)
    return mpi_sub(mpi_mul(p, mpi_log(p, PREC), PREC),
                   mpi_mul(q, mpi_log(q, PREC), PREC), PREC)


@lru_cache(maxsize=256)
def _solve_p_exact(epsilon, n):
    target = iv_from_fraction(1 / (Fraction(1 << (n - 1)) * epsilon))
    log_target_lo = mpi_log(target, PREC)[0]
    # lo moves only where val(mid) < ln(target) is certified, so lo stays
    # below the root; the loop ends when no float lies between lo and hi
    capped = mpf_lt(_val(P_CAP)[1], log_target_lo)
    lo, hi = (P_CAP, P_CAP) if capped else (1.0, P_CAP)
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if mpf_lt(_val(mid)[1], log_target_lo):
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    value = IV_ONE if lo == 1.0 else mpi_exp(_val(lo), PREC)
    residual = mpi_abs(mpi_sub(target, value, PREC), PREC)
    return ExponentSolution(epsilon=epsilon, n=n, p=lo,
                            residual=upper_float(residual), capped=capped)


def _power_exponent(f):
    """The exponent of the power bound for f >= 0 whose modulus eps lies
    below 2^(1-n): solve_p(eps, n), and p at the cap for eps = 0."""
    eps = gr_membership(f)
    limit = Fraction(1, 1 << (f.dim - 1))
    if eps >= limit:
        raise PreconditionError(
            f"modulus {eps} is not below 2^(1-n) = {limit}; the power bound "
            f"does not apply")
    if eps == 0:
        return ExponentSolution(epsilon=eps, n=f.dim, p=P_CAP,
                                residual=float("inf"), capped=True)
    return solve_p(eps, f.dim)


def theorem5_check(f, t):
    """lhs = F(t) exact; rhs = (p/(p-1)) * mean * t^(-1/p), rounded upward."""
    _require_nonneg(f)
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    sol = _power_exponent(f)
    lhs = hardy_average(rearrange_abs(f), t)
    p = iv_float(sol.p)
    factor = mpi_div(p, mpi_sub(p, IV_ONE, PREC), PREC)
    rhs = mpi_mul(mpi_mul(factor, iv_from_fraction(f.mean), PREC),
                  iv_pow(iv_from_fraction(t), mpi_div(mpi_neg(IV_ONE, PREC), p, PREC)),
                  PREC)
    return lhs, upper_float(rhs)


@lru_cache(maxsize=None)
def _theorem4_constants(n):
    """c1..c4 of theorem4_bound and 1/n as intervals, once per dimension."""
    two_n = iv_int(1 << n)
    inv_n = mpi_div(IV_ONE, iv_int(n), PREC)
    c1 = mpi_mul(two_n, mpi_exp(mpi_add(mpi_mul(two_n, IV_E, PREC), IV_ONE, PREC),
                                PREC), PREC)
    c2 = mpi_mul(mpi_mul(iv_int(1 << (n - 1)), IV_E, PREC), iv_int(n), PREC)
    c3 = mpi_mul(iv_int(2), mpi_exp(inv_n, PREC), PREC)
    c4 = mpi_mul(mpi_mul(two_n, IV_E, PREC), IV_E, PREC)
    return c1, c2, c3, c4, inv_n


@lru_cache(maxsize=None)
def _segment(k):
    """The level-k side range [2^-k, 2^-(k-1)] and the log of both ends."""
    lo = iv_from_fraction(Fraction(1, 1 << k))
    hi = iv_from_fraction(Fraction(1, 1 << (k - 1)))
    return lo, hi, mpi_log(lo, PREC), mpi_log(hi, PREC)


def theorem4_bound(f, t, profile=None):
    """Exponential Hardy-average bound with explicit dimensional constants.

    rhs = c1 * mean * exp(c2 * int_{c3 t^(1/n)}^1 v(sigma) dsigma/sigma) with
    c1 = 2^n e^(2^n e + 1), c2 = 2^(n-1) e n, c3 = 2 e^(1/n), valid for
    t <= 1/c4 = 2^-n e^-2.  The step-function integral is a finite sum of
    exact values times interval-arithmetic logarithms; rhs rounds upward.
    """
    _require_nonneg(f)
    if not any(f._nums):
        raise PreconditionError("requires a function not identically zero")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    c1, c2, c3, c4, inv_n = _theorem4_constants(f.dim)
    t_iv = iv_from_fraction(t)
    if mpf_lt(fone, mpf_mul(t_iv[0], c4[0], PREC, round_floor)):
        raise PreconditionError(
            f"t = {t} exceeds the validity threshold 1/(2^n e^2)")
    if profile is None:
        profile = gr_profile(f)
    lower_limit = mpi_mul(c3, iv_pow(t_iv, inv_n), PREC)
    integral = IV_ZERO
    for k in range(1, f.depth + 1):
        v_k = profile.value_at_level(k)
        if v_k == 0:
            continue
        seg_lo, seg_hi, log_lo, log_hi = _segment(k)
        eff_lo = iv_max(seg_lo, lower_limit)
        if mpf_ge(eff_lo[0], seg_hi[1]):
            continue
        log_eff = log_lo if eff_lo == seg_lo else mpi_log(eff_lo, PREC)
        contrib = iv_max(mpi_sub(log_hi, log_eff, PREC), IV_ZERO)
        integral = mpi_add(integral, mpi_mul(iv_from_fraction(v_k), contrib, PREC),
                           PREC)
    rhs = mpi_mul(mpi_mul(c1, iv_from_fraction(f.mean), PREC),
                  mpi_exp(mpi_mul(c2, integral, PREC), PREC), PREC)
    lhs = hardy_average(rearrange_abs(f), t)
    return Theorem4Result(lhs=lhs, rhs=upper_float(rhs),
                          c1=upper_float(c1), c2=upper_float(c2),
                          c3=upper_float(c3), c4=upper_float(c4))


def lq_tail_bound(f, q):
    """The q-th power integral against the decay bound.

    bound = (p/(p-1))^q * mean^q * p/(p-q), from integrating the power decay
    of the Hardy average; requires 1 <= q < p, with p the certified float
    below the root from solve_p (1e6 for eps = 0).  q is taken exactly (a
    float as its exact rational).  The integral is exact for an integer q
    and otherwise summed at 160 bits, with every step rounded down; the
    bound is rounded up.
    """
    sol = _power_exponent(f)
    if not 1 <= q < sol.p:
        raise PreconditionError(
            f"q must lie in [1, p) with p = {sol.p}, got {q}")
    q = Fraction(q)
    if q.denominator == 1:
        qi = q.numerator
        lq = Fraction(sum(a ** qi for a in f._nums), f._den ** qi * len(f._nums))
    else:
        # rounded down at every step, each monotone in its input for q > 0
        # (log, times q's numerator, over its denominator, exp, the sum, the
        # division), so a lower bound; for a float q the denominator is a
        # power of two and the division exact
        qn, qd, den = from_int(q.numerator), from_int(q.denominator), f._den
        acc = fzero
        for a in f._nums:
            if a:
                x = mpf_log(from_rational(a, den, PREC, round_floor), PREC, round_floor)
                x = mpf_div(mpf_mul(x, qn, PREC, round_floor), qd, PREC, round_floor)
                x = mpf_exp(x, PREC, round_floor)
                acc = mpf_add(acc, x, PREC, round_floor)
        acc = mpf_div(acc, from_int(len(f._nums)), PREC, round_floor)
        lq = math.nextafter(to_float(acc, rnd=round_floor), -math.inf)
    mean = f.mean
    if mean == 0:
        return lq, upper_float(IV_ZERO)
    q_iv = iv_from_fraction(q)
    p = iv_float(sol.p)
    factor = iv_pow(mpi_div(p, mpi_sub(p, IV_ONE, PREC), PREC), q_iv)
    bound = mpi_mul(mpi_mul(factor, iv_pow(iv_from_fraction(mean), q_iv), PREC), p,
                    PREC)
    return lq, upper_float(mpi_div(bound, mpi_sub(p, q_iv, PREC), PREC))
