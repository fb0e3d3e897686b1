"""Step functions on (0,1]: rearrangements, Hardy averages, interval oscillations.

The nonincreasing rearrangement of a dyadic function sorts its cell values
(signed variant keeps signs, absolute variant rearranges |f|); both are exact
and equimeasurable with the input by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby

from .dyadic import DyadicFunction
from .errors import InputError, PreconditionError


class StepFunction1D:
    """Left-continuous step function on (0,1].

    breakpoints 0 = t_0 < t_1 < ... < t_m = 1; value v_i on (t_{i-1}, t_i].
    """

    def __init__(self, breakpoints, values):
        bps = tuple(Fraction(t) for t in breakpoints)
        vals = tuple(Fraction(v) for v in values)
        if len(bps) < 2 or len(vals) != len(bps) - 1:
            raise InputError("need m+1 breakpoints for m piece values")
        if bps[0] != 0 or bps[-1] != 1:
            raise InputError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise InputError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals
        self._prefix = None
        self._nonincreasing = None

    @classmethod
    def _exact(cls, breakpoints, values):
        """Unchecked build from tuples of Fractions that already form a valid
        step function, for the package's own derived functions."""
        g = cls.__new__(cls)
        g.breakpoints = breakpoints
        g.values = values
        g._prefix = None
        g._nonincreasing = None
        return g

    def __eq__(self, other):
        return (isinstance(other, StepFunction1D)
                and self.breakpoints == other.breakpoints
                and self.values == other.values)

    def __repr__(self):
        return f"StepFunction1D(pieces={len(self.values)})"

    @property
    def prefix_integrals(self):
        """P[i] = integral of g over (0, t_i]."""
        if self._prefix is None:
            acc = [Fraction(0)]
            for (a, b), v in zip(zip(self.breakpoints, self.breakpoints[1:]),
                                 self.values):
                acc.append(acc[-1] + v * (b - a))
            self._prefix = tuple(acc)
        return self._prefix

    @property
    def integral(self):
        return self.prefix_integrals[-1]

    @property
    def is_nonincreasing(self):
        if self._nonincreasing is None:
            self._nonincreasing = all(
                a >= b for a, b in zip(self.values, self.values[1:]))
        return self._nonincreasing

    @property
    def is_nondecreasing(self):
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    def value_at(self, t):
        """g(t) for t in (0,1], honoring left continuity."""
        t = Fraction(t)
        if not 0 < t <= 1:
            raise InputError(f"t must lie in (0,1], got {t}")
        i = bisect_left(self.breakpoints, t)
        return self.values[i - 1]

    def integral_to(self, t):
        """Exact integral of g over (0, t]."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise InputError(f"t must lie in [0,1], got {t}")
        if t == 0:
            return Fraction(0)
        i = bisect_left(self.breakpoints, t)
        return self.prefix_integrals[i - 1] + self.values[i - 1] * (t - self.breakpoints[i - 1])

    def pieces(self):
        return zip(self.breakpoints, self.breakpoints[1:], self.values)

    def merged(self):
        """Equal adjacent values merged into single pieces; self if none are."""
        if all(a != b for a, b in zip(self.values, self.values[1:])):
            return self
        bps = [Fraction(0)]
        vals = []
        for _, b, v in self.pieces():
            if vals and vals[-1] == v:
                bps[-1] = b
            else:
                vals.append(v)
                bps.append(b)
        return StepFunction1D._exact(tuple(bps), tuple(vals))

    def negated(self):
        return StepFunction1D._exact(self.breakpoints,
                                     tuple(-v for v in self.values))

    def reflected(self):
        """g(1 - t) as a step function (piece order and breakpoints mirrored)."""
        return StepFunction1D._exact(
            tuple(1 - t for t in reversed(self.breakpoints)),
            self.values[::-1])


def rearrange_signed(f):
    """Nonincreasing left-continuous step function equimeasurable with f.

    Sorts the integer cell numerators over f's common denominator; each run
    of equal numerators becomes one piece.
    """
    if "rearr_signed" in f._cache:
        return f._cache["rearr_signed"]
    den, total = f._den, len(f._nums)
    bps = [Fraction(0)]
    vals = []
    count = 0
    for num, run in groupby(sorted(f._nums, reverse=True)):
        count += sum(1 for _ in run)
        vals.append(Fraction(num, den))
        bps.append(Fraction(count, total))
    g = StepFunction1D._exact(tuple(bps), tuple(vals))
    f._cache["rearr_signed"] = g
    return g


def rearrange_abs(f):
    """Nonincreasing rearrangement of |f|, cached on |f| (itself cached on f)."""
    return rearrange_signed(f.abs())


def supinf_formula(f, t):
    """Largest value c such that |f| >= c on some set of measure exactly t.

    Brute-force form: for t = k cells' worth of mass the optimal set is the
    union of the k cells of largest |f|, so the answer is the k-th largest
    absolute cell value.  Restricted to cell-aligned t.
    """
    t = Fraction(t)
    total = len(f._nums)
    k = t * total
    if k.denominator != 1 or not 1 <= k <= total:
        raise InputError(
            f"t must be a multiple of 1/{total} in (0,1], got {t}")
    ordered = sorted(map(abs, f._nums), reverse=True)
    return Fraction(ordered[int(k) - 1], f._den)


def hardy_average(g, t):
    """(1/t) * integral of g over (0,t]."""
    t = Fraction(t)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    return g.integral_to(t) / t


def interval_mean_oscillation(g, a, b):
    """Exact mean oscillation of g over the interval [a,b] of (0,1].

    For nonincreasing g the window mean mu splits [a,b] into a prefix
    (a, s] where g > mu and a rest where g <= mu; the integral of |g - mu|
    is twice the excess over (a, s], so one bisection for s and two
    prefix-integral lookups give the value in O(log pieces).  Other step
    functions are summed piece by piece, O(pieces).
    """
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < b <= 1:
        raise InputError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    ia = g.integral_to(a)
    mu = (g.integral_to(b) - ia) / (b - a)
    if g.is_nonincreasing:
        above = bisect_left(g.values, True, key=mu.__ge__)  # pieces > mu
        s = min(max(g.breakpoints[above], a), b)
        return 2 * ((g.integral_to(s) - ia) - mu * (s - a)) / (b - a)
    acc = Fraction(0)
    for lo, hi, v in g.pieces():
        olo, ohi = max(lo, a), min(hi, b)
        if olo < ohi:
            acc += abs(v - mu) * (ohi - olo)
    return acc / (b - a)


def hardy_gap_check(g, t, gamma):
    """Both sides of the running-average gap inequality for nonincreasing g.

    lhs = F(t/gamma) - F(t), rhs = (gamma/2) * (1/t) * int_0^t |g - F(t)|,
    where F is the Hardy average of g.  F(t) is g's mean over (0, t], so the
    rhs is gamma/2 times g's mean oscillation there, an O(log pieces) lookup.
    Exact; the caller asserts lhs <= rhs.
    """
    if not g.is_nonincreasing:
        raise PreconditionError("hardy_gap_check requires a nonincreasing step function")
    t, gamma = Fraction(t), Fraction(gamma)
    if not 0 < t <= 1:
        raise InputError(f"t must lie in (0,1], got {t}")
    if gamma <= 1:
        raise PreconditionError(f"gamma must exceed 1, got {gamma}")
    lhs = hardy_average(g, t / gamma) - hardy_average(g, t)
    rhs = gamma / 2 * interval_mean_oscillation(g, 0, t)
    return lhs, rhs


def value_mass_distribution(obj):
    """Map value -> total measure carried, for a DyadicFunction or StepFunction1D."""
    dist = {}
    if isinstance(obj, DyadicFunction):
        mass = Fraction(1, len(obj._nums))
        for v in obj.cells:
            dist[v] = dist.get(v, Fraction(0)) + mass
    else:
        for lo, hi, v in obj.pieces():
            dist[v] = dist.get(v, Fraction(0)) + (hi - lo)
    return {v: m for v, m in dist.items() if m != 0}
