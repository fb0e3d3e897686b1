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
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from mpmath.libmp import (from_int, from_rational, fone, fzero, mpf_add,
                          mpf_div, mpf_exp, mpf_ge, mpf_log, mpf_lt, mpf_mul,
                          mpi_abs, mpi_add, mpi_div, mpi_exp, mpi_log,
                          mpi_mul, mpi_neg, mpi_sub, round_floor, to_float)

from .dyadic import _level_ratios
from .errors import InputError, PreconditionError
from .highprec import (IV_E, IV_ONE, IV_ZERO, PREC, iv_float, iv_from_fraction,
                       iv_int, iv_max, iv_pow, upper_float)
from .rearrangement import _window, check_t, hardy_average, rearrange_abs

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
        """v at the least level k with 2^-k <= sigma = p/q: p << k >= q."""
        sigma = Fraction(sigma)
        if not 0 <= sigma <= 1:
            raise InputError(f"sigma must lie in [0,1], got {sigma}")
        if not sigma:
            return Fraction(0)
        return self.value_at_level(_least_shift(sigma.numerator, sigma.denominator))


def _least_shift(p, q):
    """The least e >= 0 with p << e >= q, for 0 < p <= q: shifted by the
    difference of the bit lengths, p has q's, so that shift or the next."""
    e = q.bit_length() - p.bit_length()
    return e if p << e >= q else e + 1


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
    # v at sigma = 2^-k is the largest ratio over levels k..L, deepest
    # first; level-L cubes give 0
    values = tuple(accumulate(reversed(_level_ratios(f)), max, initial=Fraction(0)))
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

    2^-k <= 2 t^(1/n)  iff  2^-n(k+1) <= t = p/q  iff  p << n(k+1) >= q.
    With e the least shift for which p << e >= q, k* is the least k >= 0
    with n(k+1) >= e.
    """
    t = check_t(t)
    return max(0, (_least_shift(t.numerator, t.denominator) - 1) // n)


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
    t = check_t(t)
    favg, lhs = _window(rearrange_abs(f), Fraction(0), t)
    if profile is None:
        profile = gr_profile(f)
    v_t = profile.value_at_level(sigma_level_for(t, f.dim))
    rhs = (1 << f.dim) * favg * v_t
    return lhs, rhs


def solve_p(epsilon, n):
    """The unique p > 1 with p^p/(p-1)^(p-1) = 1/(2^(n-1) eps), from below.

    Requires 0 < eps < 2^(1-n).  p is the largest float at which val(p) =
    p ln p - (p-1) ln(p-1) lies certainly below ln(target) on 160-bit
    intervals, so p never exceeds the root (the thm5 and cor1 bounds shrink
    as p grows); a float estimate of the root says where to look.  p is 1.0
    when the root lies below 1 + 2^-52, and 1e6 (capped) when it lies above 1e6; the
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


def _root_estimate(lt):
    """A float near the root of val(p) = lt > 0, in float arithmetic.

    With x = p - 1 and w = ln x, val = ln(1 + x) + x ln(1 + 1/x) is convex
    and rising in w, so Newton's method from a w above the root descends to
    it without overshooting; w = ln(expm1(lt)) is above it, since val > ln p.
    Where lt < 2^-60 the root lies below 1 + 2^-52 and 1 + 2^-52 is given.
    """
    if lt < 2.0 ** -60:
        return _ABOVE_ONE
    w = math.log(math.expm1(lt))
    for _ in range(100):
        x = math.exp(w)
        slope = x * math.log1p(1 / x)
        step = (math.log1p(x) + slope - lt) / slope
        if not step > 0 or w - step == w:
            break
        w -= step
    return 1 + math.exp(w)


_ABOVE_ONE = math.nextafter(1.0, math.inf)


def _bits(x):
    """The bit pattern of a float x >= 0, an integer that orders as x does."""
    return int.from_bytes(struct.pack("<d", x), "little")


def _from_bits(i):
    return struct.unpack("<d", i.to_bytes(8, "little"))[0]


@lru_cache(maxsize=256)
def _solve_p_exact(epsilon, n):
    """p is the largest float in (1, 1e6) at which val(p) < ln(target) is
    certified (1.0 where there is none, 1e6 where 1e6 passes: capped).

    The certified test is monotone over those floats, so that float is
    found from a float estimate of the root: gallop out from it one, two,
    four, ... floats until the test changes, then bisect between, on the
    floats' bit patterns.  Monotone, because for floats 1 < u < v <= 1e6,
    with u' = u + ulp(u) the float after u, val(v) - val(u) >= val(u') -
    val(u) >= ulp(u) / u' > 2^-54 (val is concave with val'(p) =
    ln(p / (p - 1)) > 1/p, and ulp(u) > u 2^-53), far above the width of
    the 160-bit interval of val, below 2^-130 there; so the upper end at u
    lies below the lower end at v, and a float that passes makes every
    float below it pass.  Hence this is the float that bisecting (1, 1e6)
    on the same test, midpoint by midpoint, ends at.
    """
    target = iv_from_fraction(1 / (Fraction(1 << (n - 1)) * epsilon))
    log_target_lo = mpi_log(target, PREC)[0]

    def below(i):  # the certified test at the float with bit pattern i
        return mpf_lt(_val(_from_bits(i))[1], log_target_lo)

    capped = below(_bits(P_CAP))
    if capped:
        lo = P_CAP
    else:
        # below(lo) or lo is 1.0; hi is 1e6 or not below(hi)
        lo, hi = _bits(1.0), _bits(P_CAP)
        guess = _bits(_root_estimate(to_float(log_target_lo)))
        guess = min(max(guess, lo + 1), hi - 1)
        step = 1
        if below(guess):
            lo = guess
            while lo + step < hi and below(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(lo + step, hi)
        else:
            hi = guess
            while hi - step > lo and not below(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(hi - step, lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        lo = _from_bits(lo)
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
    t = check_t(t)
    p = _power_exponent(f).p
    lhs = hardy_average(rearrange_abs(f), t)
    return lhs, upper_float(_theorem5_rhs(f, t, p))


def _theorem5_rhs(f, t, p):
    """(p/(p-1)) * mean * t^(-1/p) as an interval, for the float exponent p
    > 1 of f: the rhs of theorem5_check, decreasing in t."""
    p = iv_float(p)
    factor = mpi_div(p, mpi_sub(p, IV_ONE, PREC), PREC)
    return mpi_mul(mpi_mul(factor, iv_from_fraction(f.mean), PREC),
                   iv_pow(iv_from_fraction(t), mpi_div(mpi_neg(IV_ONE, PREC), p, PREC)),
                   PREC)


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
    t = check_t(t)
    rhs = _theorem4_rhs(f, t, profile)
    lhs = hardy_average(rearrange_abs(f), t)
    c1, c2, c3, c4, _ = _theorem4_constants(f.dim)
    return Theorem4Result(lhs=lhs, rhs=upper_float(rhs),
                          c1=upper_float(c1), c2=upper_float(c2),
                          c3=upper_float(c3), c4=upper_float(c4))


def _theorem4_rhs(f, t, profile):
    """c1 * mean * exp(c2 * int_{c3 t^(1/n)}^1 v(sigma) dsigma/sigma) as an
    interval, for t in (0, 1/c4] and f's profile (None: read it): the rhs
    of theorem4_bound, nonincreasing in t (the lower limit rises with t, and
    v >= 0)."""
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
    return mpi_mul(mpi_mul(c1, iv_from_fraction(f.mean), PREC),
                   mpi_exp(mpi_mul(c2, integral, PREC), PREC), PREC)


def lq_tail_bound(f, q):
    """The q-th power integral against the decay bound.

    bound = (p/(p-1))^q * mean^q * p/(p-q), from integrating the power decay
    of the Hardy average (_lq_rhs); requires 1 <= q < p, with p the
    certified float below the root from solve_p (1e6 for eps = 0).  q is
    taken exactly (a float as its exact rational).  The integral is exact
    for an integer q and otherwise summed at 160 bits, with every step
    rounded down; the bound is rounded up.  The cor1 suite calls this for a
    fractional q only where _lq_moment_bound does not already decide it.
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
    return lq, upper_float(_lq_rhs(f, q, sol.p))


def _lq_rhs(f, q, p):
    """(p/(p-1))^q * mean^q * p/(p-q) as an interval, for 1 <= q < p and
    the float exponent p of f: the rhs of lq_tail_bound (0 at mean 0)."""
    mean = f.mean
    if mean == 0:
        return IV_ZERO
    q_iv = iv_from_fraction(q)
    p = iv_float(p)
    factor = iv_pow(mpi_div(p, mpi_sub(p, IV_ONE, PREC), PREC), q_iv)
    bound = mpi_mul(mpi_mul(factor, iv_pow(iv_from_fraction(mean), q_iv), PREC), p,
                    PREC)
    return mpi_div(bound, mpi_sub(p, q_iv, PREC), PREC)


# The most bits (k+1) * bit_length(max numerator) that _lq_moment_bound
# lets the exact powers a^(k+1) reach: up to about 4096 bits one costs less
# than one 160-bit term of lq_tail_bound's sum, and far past it more.
MOMENT_BITS = 4096


def _lq_moment_bound(f, q):
    """An interval whose upper end bounds int |f|^q from above for a float
    q >= 1 and f >= 0 not identically zero, or None where the exact powers
    would pass MOMENT_BITS.

    With k = floor(q) and theta = q - k, Hoelder's inequality with the
    exponents 1/(1-theta) and 1/theta (Lyapunov's inequality) gives int f^q
    <= M_k^(1-theta) * M_(k+1)^theta for the exact moments M_j = S_j /
    (den^j N), S_j the sum of the j-th powers of the N numerators over den.
    So the bound is exp((1-theta) ln S_k + theta ln S_(k+1) - q ln den -
    ln N) on 160-bit intervals; the exact integers S_k, S_(k+1) enter
    rounded outward, and den^q is never built.
    """
    q = Fraction(q)
    k = q.numerator // q.denominator
    nums = f._nums
    if (k + 1) * max(nums).bit_length() > MOMENT_BITS:
        return None
    s_k = s_k1 = 0
    for a in nums:
        a_k = a ** k
        s_k += a_k
        s_k1 += a_k * a
    theta = q - k
    log_bound = mpi_sub(
        mpi_add(mpi_mul(iv_from_fraction(1 - theta), mpi_log(iv_int(s_k), PREC), PREC),
                mpi_mul(iv_from_fraction(theta), mpi_log(iv_int(s_k1), PREC), PREC),
                PREC),
        mpi_add(mpi_mul(iv_from_fraction(q), mpi_log(iv_int(f._den), PREC), PREC),
                mpi_log(iv_int(len(nums)), PREC), PREC),
        PREC)
    return mpi_exp(log_bound, PREC)
