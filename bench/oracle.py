"""Exact reference computations that do not import dyadicbmo.

The benchmark checks the program's outputs with these: the mean oscillation
of a step function over an interval, the nonincreasing rearrangement of
grid cell values, and the dyadic BMO norm summed directly over every cube.
They are written for clarity, not speed, and run outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction


def rational(obj):
    """A JSON rational: an integer or a lowest-term "p/q" string."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not a rational: {obj!r}")
    return Fraction(obj)


def rational_text(x):
    """The JSON form of a rational, as the program's file formats expect."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def step_oscillation(breakpoints, values, a, b):
    """(1/(b-a)) * integral over (a,b] of |g - mean|, g = values[i] on (t_i, t_i+1]."""
    parts = []
    for lo, hi, v in zip(breakpoints, breakpoints[1:], values):
        overlap = min(hi, b) - max(lo, a)
        if overlap > 0:
            parts.append((overlap, v))
    length = b - a
    mean = sum(w * v for w, v in parts) / length
    return sum(w * abs(v - mean) for w, v in parts) / length


def max_jump(values):
    """Largest absolute difference between neighbouring piece values."""
    return max((abs(u - v) for u, v in zip(values, values[1:])), default=0)


def rearrangement(cells):
    """Nonincreasing rearrangement of equal-mass cells as (breakpoints, values)."""
    count = len(cells)
    return [Fraction(k, count) for k in range(count + 1)], sorted(cells, reverse=True)


def dyadic_bmo_norm(dim, depth, cells):
    """Largest mean oscillation over the dyadic cubes of levels 0..depth-1.

    Cell flat index i_1 + i_2 2^L + ... + i_n 2^((n-1)L); the level-k cube of a
    cell has index (i_m >> (L-k))_m.  Level-L cubes are single cells.
    """
    mask = (1 << depth) - 1
    best = Fraction(0)
    for k in range(depth):
        shift = depth - k
        cubes = {}
        for flat, v in enumerate(cells):
            key = tuple(((flat >> (m * depth)) & mask) >> shift for m in range(dim))
            cubes.setdefault(key, []).append(v)
        for vs in cubes.values():
            mean = sum(vs) / len(vs)
            best = max(best, sum(abs(v - mean) for v in vs) / len(vs))
    return best
