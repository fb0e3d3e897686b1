"""Stopping families on the dyadic tree and the parent-cover sets E, E*.

A stopping family collects the maximal dyadic cubes whose average crosses a
threshold (strictly above it, or weakly below it); the parent cover takes
each stopping cube's father and keeps the maximal ones.  All measures are
exact, and the cover obeys |E*| <= 2^n |E| by construction.

Both families come from two running-max pyramids of the integer kernel,
cached per function and direction: a cube is in a family iff its running max
crosses the integer threshold while its father's does not.  Each threshold
costs one O(cubes) scan, whose (level, Morton address) pairs become public
cubes once, already in order; the maximal function is the leaf level of the
same pyramid for |f|.

Where only |E| is read, no cube is built: E is the set of cells whose leaf of
the running max exceeds the threshold (_stopping_measure), and, without the
running max, the cells under some cube whose sum crosses it
(_crossing_measure).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import gt, le

from .dyadic import _morton_order, distribution_above, dyadic_maximal_function
from .errors import InputError, PreconditionError


@dataclass(frozen=True)
class CZDecomposition:
    threshold: Fraction
    direction: str
    stopping_cubes: tuple
    parent_cover: tuple
    measure_E: Fraction
    measure_E_star: Fraction


@dataclass(frozen=True)
class StoppingReport:
    stopping_cross: bool
    fathers_do_not_cross: bool
    parents_do_not_cross: bool
    complement_clean: bool
    cover_measure_ok: bool
    failures: tuple = ()

    @property
    def passed(self):
        return (self.stopping_cross and self.fathers_do_not_cross
                and self.parents_do_not_cross and self.complement_clean
                and self.cover_measure_ok)


def _shown(x):
    """str(x), or a note where x has more digits than str converts."""
    try:
        return str(x)
    except ValueError:
        return "a rational past the int-string digit limit"


def _checked_alpha(f, alpha, direction):
    """alpha as a Fraction, once it meets the direction's precondition."""
    if direction not in ("above", "below"):
        raise InputError(f"direction must be 'above' or 'below', got {direction!r}")
    alpha = Fraction(alpha)
    mean = f.mean
    if direction == "above" and alpha < mean:
        raise PreconditionError(
            f"above-direction stopping requires alpha >= the global average "
            f"({_shown(mean)}), got {alpha}")
    if direction == "below" and alpha >= mean:
        raise PreconditionError(
            f"below-direction stopping requires alpha < the global average "
            f"({_shown(mean)}), got {alpha}")
    return alpha


def stopping_family(f, alpha, direction):
    """Maximal dyadic cubes whose average crosses alpha, plus the parent cover.

    direction='above' selects averages strictly greater than alpha and
    requires alpha >= the global average (so the root never qualifies);
    direction='below' selects averages <= alpha and requires alpha < the
    global average.

    With A the cube averages times den * 2^(nL) and a = floor(alpha den
    2^(nL)), a cube stops iff the running max of A from the root first
    exceeds a there, and joins the cover iff the running max of its
    children's A first does ('below' tests -A > -a - 1).  The pyramids are
    built once per function and direction; each call is then one O(cubes)
    integer scan.  Both families are sorted by (level, flat index).
    """
    alpha = _checked_alpha(f, alpha, direction)
    stopping, cover = f._stopping(alpha, direction == "above")
    if stopping[:1] == [(0, 0)]:
        raise PreconditionError(
            "the root cube itself crosses the threshold; its father is undefined")
    n, depth = f.dim, f.depth
    cells = 1 << (n * depth)
    measure_e = Fraction(sum(1 << (n * (depth - k)) for k, _ in stopping), cells)
    measure_e_star = Fraction(sum(1 << (n * (depth - k)) for k, _ in cover), cells)
    return CZDecomposition(threshold=alpha, direction=direction,
                           stopping_cubes=f._cubes(stopping),
                           parent_cover=f._cubes(cover),
                           measure_E=measure_e,
                           measure_E_star=measure_e_star)


def _stopping_measure(f, alpha):
    """stopping_family(f, alpha, "above").measure_E with no cube built: E is
    the set of cells whose leaf of the running max R exceeds floor(alpha den
    2^(nL)), counted by bisection of R's leaf, sorted once per function."""
    alpha = _checked_alpha(f, alpha, "above")
    if "sorted R leaf" not in f._cache:
        f._cache["sorted R leaf"] = sorted(f._running_maxima(1, False)[-1])
    leaf = f._cache["sorted R leaf"]
    return Fraction(len(leaf) - bisect_right(leaf, f._scaled_floor(alpha)), len(leaf))


def _crossing_measure(f, alpha):
    """The same |E| from the sum pyramid alone, reading no running max: the
    share of cells under some cube whose average exceeds alpha.  Level by
    level, a cube is marked iff its father is or sums[k][z] * alpha_den >
    num * den << n(L-k), the integer rule of verify_stopping."""
    alpha = _checked_alpha(f, alpha, "above")
    n, L, alpha_den = f.dim, f.depth, alpha.denominator
    bar = alpha.numerator * f._den
    marked = [False]  # the root's father
    for k, sums in enumerate(f._sums()):
        fathers = chain.from_iterable(zip(*[marked] * (1 << n)))
        t = bar << n * (L - k)
        marked = [m or s * alpha_den > t for m, s in zip(fathers, sums)]
    return Fraction(sum(marked), len(marked))


def verify_stopping(d, f):
    """Exact re-check of the five structural facts behind a decomposition.

    (i) every stopping cube's average crosses the threshold; (ii) no stopping
    cube's father crosses (maximality); (iii) no parent-cover cube crosses;
    (iv) every cell outside E sits on the non-crossing side; (v) the cover
    measure is at most 2^n times the stopping measure.

    Each fact is an integer comparison on the sum pyramid: the level-k cube
    at Morton address z (Q.morton() for a cube Q; its father is at z >> n)
    is above alpha = num/alpha_den iff sums[k][z] * alpha_den > num * den <<
    n(L-k), below iff <=.  The running-max pyramids and the cube ordering
    stopping_family decides with are not read, so a fault in them shows here
    as a failed fact.
    """
    alpha, n, L, sums = d.threshold, f.dim, f.depth, f._sums()
    crosses = gt if d.direction == "above" else le
    num, alpha_den = alpha.numerator, alpha.denominator
    bar = num * f._den  # alpha * den * alpha_den, a level-L cell's threshold

    def cube_crosses(k, z):
        return crosses(sums[k][z] * alpha_den, bar << n * (L - k))

    stopping = d.stopping_cubes
    blocks = [f._block(q) for q in stopping]
    not_crossing = [q for q, (z, _) in zip(stopping, blocks)
                    if not cube_crosses(q.level, z)]
    bad_fathers = [q for q, (z, _) in zip(stopping, blocks)
                   if q.level == 0 or cube_crosses(q.level - 1, z >> n)]
    bad_parents = [p for p in d.parent_cover if cube_crosses(p.level, f._block(p)[0])]
    outside = bytearray(b"\1") * len(f._nums)  # by Morton address
    for z, cnt in blocks:
        outside[z * cnt:(z + 1) * cnt] = bytes(cnt)
    order = _morton_order(n, L)
    bad_cells = sorted(order[z] for z in compress(range(len(outside)), outside)
                       if crosses(sums[L][z] * alpha_den, bar))
    failures = (
        [f"stopping cube {q} does not cross {alpha}" for q in not_crossing]
        + ["root listed as a stopping cube" if q.level == 0
           else f"father of {q} also crosses {alpha}" for q in bad_fathers]
        + [f"parent {p} crosses {alpha}" for p in bad_parents]
        + [f"cell {c} outside E crosses {alpha}" for c in bad_cells])
    ok_measure = d.measure_E_star <= (1 << f.dim) * d.measure_E
    if not ok_measure:
        failures.append(
            f"|E*| = {d.measure_E_star} exceeds 2^n |E| = {(1 << f.dim) * d.measure_E}")

    return StoppingReport(stopping_cross=not not_crossing,
                          fathers_do_not_cross=not bad_fathers,
                          parents_do_not_cross=not bad_parents,
                          complement_clean=not bad_cells,
                          cover_measure_ok=ok_measure,
                          failures=tuple(failures))


def maximal_level_set(f, alpha):
    """Exact measure of the super-level set of the dyadic maximal function,
    counted over its cells."""
    alpha = Fraction(alpha)
    if alpha < f.mean:
        raise PreconditionError(
            f"requires alpha >= the global average ({f.mean}), got {alpha}")
    return distribution_above(dyadic_maximal_function(f), alpha, 0)
