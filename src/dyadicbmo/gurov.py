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

from mpmath.libmp import (from_int, from_rational, fzero, mpf_add, mpf_div,
                          mpf_exp, mpf_log, mpf_mul, round_floor, to_float)

from .errors import InputError, PreconditionError
from .highprec import (IV_E, IV_ONE, iv, iv_from_fraction, iv_max, iv_pow, mp,
                       upper_float)
from .rearrangement import (hardy_average, interval_mean_oscillation,
                            rearrange_abs)

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
    # oscillation / average of a level-k cube is osc / (s * cnt), s its sum;
    # s = 0 means f vanishes on the cube (ratio 0), level-L cubes give 0
    per_level = [Fraction(0)] * (f.depth + 1)
    for k, (osc, sums) in enumerate(zip(f._osc(), f._sums())):
        cnt = 1 << (f.dim * (f.depth - k))
        per_level[k] = max((Fraction(o, s * cnt) for o, s in zip(osc, sums) if s),
                           default=Fraction(0))
    suffix = [Fraction(0)] * (f.depth + 1)
    running = Fraction(0)
    for k in range(f.depth, -1, -1):
        running = max(running, per_level[k])
        suffix[k] = running
    breaks = tuple(Fraction(1, 1 << k) for k in range(f.depth, -1, -1))
    values = tuple(suffix[k] for k in range(f.depth, -1, -1))
    profile = GRProfile(sigma_breaks=breaks, values=values,
                        epsilon_global=suffix[0], nonneg=True)
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

    lhs is the mean oscillation of f* over (0, t], F(t) being its mean
    there; f* is nonincreasing, so interval_mean_oscillation takes its
    O(log pieces) path.
    """
    _require_nonneg(f)
    if not any(f._nums):
        raise PreconditionError("requires a function not identically zero")
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    fstar = rearrange_abs(f)
    favg = hardy_average(fstar, t)
    lhs = interval_mean_oscillation(fstar, 0, t)
    if profile is None:
        profile = gr_profile(f)
    v_t = profile.value_at_level(sigma_level_for(t, f.dim))
    rhs = (1 << f.dim) * favg * v_t
    return lhs, rhs


def _solve_exponent_mp(target_log):
    """Bracket (lo, hi) of the root of p*ln(p) - (p-1)*ln(p-1) = target_log,
    by bisection (the left side is increasing); val(lo) < target_log."""
    lo = mp.mpf(1) + mp.mpf(2) ** (-100)
    hi = mp.mpf(2)

    def val(p):
        return p * mp.log(p) - (p - 1) * mp.log(p - 1)

    while val(hi) < target_log:
        hi *= 2
        if hi > 4 * P_CAP:
            return hi, hi  # caller caps
    for _ in range(400):
        mid = (lo + hi) / 2
        if val(mid) < target_log:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_p(epsilon, n):
    """The unique p > 1 with p^p/(p-1)^(p-1) = 1/(2^(n-1) eps).

    Requires 0 < eps < 2^(1-n).  For eps so small that p would exceed 1e6 the
    root is capped there and the (large) residual reported; the downstream
    bounds only weaken under the cap.  p is a float no larger than the root
    (the 160-bit lower bisection endpoint rounded down); the residual is that
    of the 160-bit midpoint.  Solved once per (eps, n).
    """
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    epsilon = Fraction(epsilon)
    limit = Fraction(1, 1 << (n - 1))
    if not 0 < epsilon < limit:
        raise PreconditionError(
            f"epsilon must lie in (0, {limit}) for dimension {n}, got {epsilon}")
    return _solve_p_exact(epsilon, n)


@lru_cache(maxsize=256)
def _solve_p_exact(epsilon, n):
    target = Fraction(1, 1) / (Fraction(1 << (n - 1)) * epsilon)
    target_mp = mp.mpf(target.numerator) / mp.mpf(target.denominator)
    target_log = mp.log(target_mp)
    lo, hi = _solve_exponent_mp(target_log)
    root = (lo + hi) / 2
    capped = root > P_CAP
    if capped:
        lo = root = mp.mpf(P_CAP)
    value = mp.exp(root * mp.log(root) - (root - 1) * mp.log(root - 1))
    residual = abs(value - target_mp)
    # the float p is the lower endpoint rounded down, so p <= the true root:
    # the thm5 and cor1 bounds shrink as p grows
    p = float(lo)
    if p > lo:
        p = math.nextafter(p, -math.inf)
    return ExponentSolution(epsilon=epsilon, n=n, p=p,
                            residual=float(residual), capped=capped)


def _capped_exponent(epsilon, n):
    """Exponent solution for checks that admit eps = 0 (p at the cap)."""
    if epsilon == 0:
        return ExponentSolution(epsilon=Fraction(0), n=n, p=P_CAP,
                                residual=float("inf"), capped=True)
    return solve_p(epsilon, n)


def theorem5_check(f, t):
    """lhs = F(t) exact; rhs = (p/(p-1)) * mean * t^(-1/p), rounded upward."""
    _require_nonneg(f)
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    eps = gr_membership(f)
    limit = Fraction(1, 1 << (f.dim - 1))
    if eps >= limit:
        raise PreconditionError(
            f"modulus {eps} is not below 2^(1-n) = {limit}; the power bound "
            f"does not apply")
    sol = _capped_exponent(eps, f.dim)
    lhs = hardy_average(rearrange_abs(f), t)
    p = iv.mpf(sol.p)
    factor = p / (p - IV_ONE)
    rhs = factor * iv_from_fraction(f.mean) * iv_pow(iv_from_fraction(t),
                                                     -IV_ONE / p)
    return lhs, upper_float(rhs)


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
    n = f.dim
    two_n = iv.mpf(1 << n)
    c1 = two_n * iv.exp(two_n * IV_E + IV_ONE)
    c2 = iv.mpf(1 << (n - 1)) * IV_E * iv.mpf(n)
    c3 = iv.mpf(2) * iv.exp(IV_ONE / iv.mpf(n))
    c4 = two_n * IV_E * IV_E
    t_iv = iv_from_fraction(t)
    if t_iv.a * c4.a > 1:
        raise PreconditionError(
            f"t = {t} exceeds the validity threshold 1/(2^n e^2)")
    if profile is None:
        profile = gr_profile(f)
    lower_limit = c3 * iv_pow(t_iv, IV_ONE / iv.mpf(n))
    integral = iv.mpf(0)
    for k in range(1, f.depth + 1):
        seg_lo = iv_from_fraction(Fraction(1, 1 << k))
        seg_hi = iv_from_fraction(Fraction(1, 1 << (k - 1)))
        v_k = profile.value_at_level(k)
        if v_k == 0:
            continue
        eff_lo = iv_max(seg_lo, lower_limit)
        if eff_lo.a >= seg_hi.b:
            continue
        contrib = iv.log(seg_hi) - iv.log(eff_lo)
        contrib = iv_max(contrib, iv.mpf(0))
        integral += iv_from_fraction(v_k) * contrib
    rhs = c1 * iv_from_fraction(f.mean) * iv.exp(c2 * integral)
    lhs = hardy_average(rearrange_abs(f), t)
    return Theorem4Result(lhs=lhs, rhs=upper_float(rhs),
                          c1=upper_float(c1), c2=upper_float(c2),
                          c3=upper_float(c3), c4=upper_float(c4))


def lq_tail_bound(f, q):
    """The q-th power integral against the decay bound.

    bound = (p/(p-1))^q * mean^q * p/(p-q), from integrating the power decay
    of the Hardy average; requires 1 <= q < p.  The integral is exact for an
    integer q and otherwise summed at 160 bits with every step rounded down;
    the bound is rounded up.
    """
    _require_nonneg(f)
    eps = gr_membership(f)
    limit = Fraction(1, 1 << (f.dim - 1))
    if eps >= limit:
        raise PreconditionError(
            f"modulus {eps} is not below 2^(1-n) = {limit}")
    sol = _capped_exponent(eps, f.dim)
    if not 1 <= q < sol.p:
        raise PreconditionError(
            f"q must lie in [1, p) with p = {sol.p}, got {q}")
    q_iv = iv.mpf(q)
    if float(q).is_integer():
        qi = int(q)
        lq = Fraction(sum(a ** qi for a in f._nums), f._den ** qi * len(f._nums))
    else:
        # rounded down at every step, each monotone in its input for q > 0
        # (log, times q, exp, the sum, the division), so a lower bound
        prec, qm, den = mp.prec, mp.mpf(q)._mpf_, f._den
        acc = fzero
        for a in f._nums:
            if a:
                x = mpf_log(from_rational(a, den, prec, round_floor), prec, round_floor)
                x = mpf_exp(mpf_mul(x, qm, prec, round_floor), prec, round_floor)
                acc = mpf_add(acc, x, prec, round_floor)
        acc = mpf_div(acc, from_int(len(f._nums)), prec, round_floor)
        lq = math.nextafter(to_float(acc, rnd=round_floor), -math.inf)
    p = iv.mpf(sol.p)
    factor = iv_pow(p / (p - IV_ONE), q_iv)
    mean = f.mean
    if mean == 0:
        bound = iv.mpf(0)
    else:
        bound = factor * iv_pow(iv_from_fraction(mean), q_iv) * p / (p - q_iv)
    return lq, upper_float(bound)
