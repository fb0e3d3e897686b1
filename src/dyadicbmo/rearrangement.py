"""Step functions on (0,1]: rearrangements, Hardy averages, interval oscillations.

A step function is held as integers: breakpoint numerators over one common
denominator and value numerators over another.  StepFunction1D(breakpoints,
values) and the file reader's integer pairs (StepFunction1D._from_ratios)
share one checked build, whose Fraction views are built on first read.
Integrals, window means and oscillations are computed on those integers
(positions scaled to a common denominator, comparisons by
cross-multiplying), and each result becomes one Fraction.

The nonincreasing rearrangement of a dyadic function is the run-lengths of
its cell numerators, sorted once per function (DyadicFunction._sorted_nums,
the list distribution_above bisects too): the signed variant reads f's
list, the absolute variant that of |f|.  Both are exact and equimeasurable
with the input by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress, count
from math import gcd, lcm
from operator import ne

from .dyadic import DyadicFunction
from .errors import InputError, PreconditionError


class StepFunction1D:
    """Left-continuous step function on (0,1].

    breakpoints 0 = t_0 < t_1 < ... < t_m = 1; value v_i on (t_{i-1}, t_i].
    The state is _B and _V, t_i = _B[i] / _td and v_i = _V[i-1] / _vd, each
    family reduced by the gcd of its numerators and denominator, so the form
    is canonical and equality reads it.  breakpoints, values and
    prefix_integrals are Fraction views built on first read; the kernel is
    the integer prefix Q[i] = _td * _vd * (integral of g over (0, t_i]).
    """

    def __init__(self, breakpoints, values):
        bps = [Fraction(t) for t in breakpoints]
        vals = [Fraction(v) for v in values]
        self._build([t.numerator for t in bps], [t.denominator for t in bps],
                    [v.numerator for v in vals], [v.denominator for v in vals])

    @classmethod
    def _from_ratios(cls, bnums, bdens, vnums, vdens):
        """The step function with breakpoints bnums[i] / bdens[i] and values
        vnums[i] / vdens[i], each ratio in lowest terms with a positive
        denominator; checked as StepFunction1D(breakpoints, values) is."""
        g = cls.__new__(cls)
        g._build(bnums, bdens, vnums, vdens)
        return g

    def _build(self, bnums, bdens, vnums, vdens):
        """Check the shape, then store the breakpoints as numerators over
        their least common denominator and the values likewise.  With every
        ratio in lowest terms, each family is then reduced by its gcd."""
        if len(bnums) < 2 or len(vnums) != len(bnums) - 1:
            raise InputError("need m+1 breakpoints for m piece values")
        td = lcm(*set(bdens))
        B = tuple(p * (td // q) for p, q in zip(bnums, bdens))
        if B[0] != 0 or B[-1] != td:
            raise InputError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(B, B[1:])):
            raise InputError("breakpoints must be strictly increasing")
        vd = lcm(*set(vdens))
        self._td = td
        self._B = B
        self._vd = vd
        self._V = tuple(p * (vd // q) for p, q in zip(vnums, vdens))
        self._cache = {}

    @classmethod
    def _from_ints(cls, td, B, vd, V):
        """Unchecked: breakpoints B / td and values V / vd, tuples of
        integers that already form a valid step function (B strictly
        increasing from 0 to td, vd > 0), reduced to lowest terms."""
        g = cls.__new__(cls)
        b = gcd(*B)  # B ends at td
        v = gcd(vd, *V)
        g._td, g._B = (td, B) if b == 1 else (td // b, tuple(x // b for x in B))
        g._vd, g._V = (vd, V) if v == 1 else (vd // v, tuple(x // v for x in V))
        g._cache = {}
        return g

    def __eq__(self, other):
        return (isinstance(other, StepFunction1D)
                and (self._td, self._B, self._vd, self._V)
                == (other._td, other._B, other._vd, other._V))

    def __repr__(self):
        return f"StepFunction1D(pieces={len(self._V)})"

    # -- integer kernel -----------------------------------------------------

    def _prefix(self):
        """Q[i] = td * vd * (integral of g over (0, t_i]), integers."""
        if "Q" not in self._cache:
            B = self._B
            self._cache["Q"] = tuple(accumulate(
                (v * (hi - lo) for v, lo, hi in zip(self._V, B, B[1:])), initial=0))
        return self._cache["Q"]

    def _piece(self, x, d):
        """i >= 1 with t_{i-1} < t <= t_i at t = x / (td * d), d > 0; 1 at t = 0."""
        return bisect_left(self._B, -(-x // d), 1)

    def _integral_at(self, x, d):
        """td * vd * d times the integral of g over (0, t] at t = x / (td * d),
        for 0 <= t <= 1."""
        i = self._piece(x, d)
        return self._prefix()[i - 1] * d + self._V[i - 1] * (x - self._B[i - 1] * d)

    # -- Fraction views -------------------------------------------------------

    def _view(self, key, nums, den):
        """The Fractions nums / den, built on first read."""
        if key not in self._cache:
            self._cache[key] = tuple(Fraction(a, den) for a in nums)
        return self._cache[key]

    @property
    def breakpoints(self):
        return self._view("breakpoints", self._B, self._td)

    @property
    def values(self):
        return self._view("values", self._V, self._vd)

    @property
    def prefix_integrals(self):
        """P[i] = integral of g over (0, t_i]."""
        return self._view("prefix", self._prefix(), self._td * self._vd)

    @property
    def integral(self):
        return Fraction(self._prefix()[-1], self._td * self._vd)

    @property
    def is_nonincreasing(self):
        if "nonincreasing" not in self._cache:
            V = self._V
            self._cache["nonincreasing"] = all(a >= b for a, b in zip(V, V[1:]))
        return self._cache["nonincreasing"]

    @property
    def is_nondecreasing(self):
        V = self._V
        return all(a <= b for a, b in zip(V, V[1:]))

    def value_at(self, t):
        """g(t) for t in (0,1], honoring left continuity."""
        t = Fraction(t)
        if not 0 < t <= 1:
            raise InputError(f"t must lie in (0,1], got {t}")
        i = self._piece(t.numerator * self._td, t.denominator)
        return Fraction(self._V[i - 1], self._vd)

    def integral_to(self, t):
        """Exact integral of g over (0, t]."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise InputError(f"t must lie in [0,1], got {t}")
        return Fraction(self._integral_at(t.numerator * self._td, t.denominator),
                        self._td * self._vd * t.denominator)

    def pieces(self):
        return zip(self.breakpoints, self.breakpoints[1:], self.values)

    def merged(self):
        """Equal adjacent values merged into single pieces; self if none are
        (decided once, or recorded where g is built)."""
        V = self._V
        if "merged" not in self._cache:
            self._cache["merged"] = all(a != b for a, b in zip(V, V[1:]))
        if self._cache["merged"]:
            return self
        bps, vals = [0], []
        for b, v in zip(self._B[1:], V):
            if vals and vals[-1] == v:
                bps[-1] = b
            else:
                vals.append(v)
                bps.append(b)
        return StepFunction1D._from_ints(self._td, tuple(bps), self._vd, tuple(vals))

    def shifted(self, c):
        """g + c: each piece value moved by c, one integer per piece.  The
        records of a merged or nonincreasing g carry over."""
        c = Fraction(c)
        q, b = c.denominator, c.numerator * self._vd
        h = StepFunction1D._from_ints(self._td, self._B, self._vd * q,
                                      tuple(v * q + b for v in self._V))
        for key in ("merged", "nonincreasing"):
            if key in self._cache:
                h._cache[key] = self._cache[key]
        return h

    def negated(self):
        return StepFunction1D._from_ints(self._td, self._B, self._vd,
                                         tuple(-v for v in self._V))

    def reflected(self):
        """g(1 - t) as a step function (piece order and breakpoints mirrored)."""
        td = self._td
        return StepFunction1D._from_ints(td, tuple(td - b for b in reversed(self._B)),
                                         self._vd, self._V[::-1])


def rearrange_signed(f):
    """Nonincreasing left-continuous step function equimeasurable with f.

    Reads f's sorted cell numerators, largest first: a piece ends at each
    position where the numerator drops, found at C speed, so the distinct
    numerators are the piece values over f's common denominator, and piece
    i ends at the count of cells with the first i values over the cell
    count.  The result is recorded as merged and nonincreasing, so neither
    is re-derived from its values.
    """
    if "rearr_signed" in f._cache:
        return f._cache["rearr_signed"]
    d = f._sorted_nums()[::-1]
    B = (0, *compress(count(1), map(ne, d, d[1:])), len(d))
    g = StepFunction1D._from_ints(len(d), B, f._den, tuple(map(d.__getitem__, B[:-1])))
    # the values are distinct and descending
    g._cache["merged"] = g._cache["nonincreasing"] = True
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
    return Fraction(g._integral_at(t.numerator * g._td, t.denominator),
                    g._td * g._vd * t.numerator)


def interval_mean_oscillation(g, a, b):
    """Exact mean oscillation of g over the interval [a,b] of (0,1].

    Positions are integers x = t * td * c, c the common denominator of a
    and b, so the window has length L = xb - xa and the integral of g over
    it is J / (td * vd * c), its mean mu = J / (vd * L).  For nonincreasing
    g, mu splits [a,b] into a prefix (a, s] where g > mu and a rest where
    g <= mu; the integral of |g - mu| is twice the excess over (a, s], so
    one bisection for s, two prefix-integral lookups and the prefix at the
    breakpoint s give the value in O(log pieces).  Other step functions
    are summed piece by piece, O(pieces).  Either way the oscillation is an
    integer over vd * L^2.
    """
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < b <= 1:
        raise InputError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    return _window(g, a, b)[1]


def _window(g, a, b):
    """(mean, mean oscillation) of g over [a,b] for Fractions 0 <= a < b <= 1,
    both exact; see interval_mean_oscillation."""
    c = lcm(a.denominator, b.denominator)
    J, L, num = _window_ints(g, a.numerator * (c // a.denominator) * g._td,
                             b.numerator * (c // b.denominator) * g._td, c)
    return Fraction(J, g._vd * L), Fraction(num, g._vd * L * L)


def _window_ints(g, xa, xb, c):
    """(J, L, num) for the window (xa, xb] of positions over td * c: its
    length L = xb - xa, the integral J of g over it (td * vd * c times the
    integral), and num, with mean J / (vd * L) and mean oscillation
    num / (vd * L^2)."""
    L = xb - xa
    ia = g._integral_at(xa, c)
    J = g._integral_at(xb, c) - ia
    V, B = g._V, g._B
    if g.is_nonincreasing:
        # V[k] > mu iff V[k] > J // L; V descends, so count by bisection.
        # g > mu on (xa, s] and g <= mu after; s outside the window leaves
        # g constant on it
        above = bisect_left(V, True, key=(J // L).__ge__)
        s = B[above] * c
        num = (2 * ((g._prefix()[above] * c - ia) * L - J * (s - xa))
               if xa < s < xb else 0)
    else:
        num = 0
        for lo, hi, v in zip(B, B[1:], V):
            olo, ohi = max(lo * c, xa), min(hi * c, xb)
            if olo < ohi:
                num += abs(v * L - J) * (ohi - olo)
    return J, L, num


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
    favg, osc = _window(g, Fraction(0), t)
    return hardy_average(g, t / gamma) - favg, gamma / 2 * osc


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
