"""Stopping families on the dyadic tree and the parent-cover sets E, E*.

A stopping family collects the maximal dyadic cubes whose average crosses a
threshold (strictly above it, or weakly below it); the parent cover takes
each stopping cube's father and keeps the maximal ones.  All measures are
exact, and the cover obeys |E*| <= 2^n |E| by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import _public_key, cube_average, dyadic_maximal_function
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


def _crosses(avg, alpha, direction):
    return avg > alpha if direction == "above" else avg <= alpha


def stopping_family(f, alpha, direction):
    """Maximal dyadic cubes whose average crosses alpha, plus the parent cover.

    direction='above' selects averages strictly greater than alpha and
    requires alpha >= the global average (so the root never qualifies);
    direction='below' selects averages <= alpha and requires alpha < the
    global average.

    The tree walk runs on (level, Morton address) pairs over the level-sum
    pyramid f._sums(), deciding each crossing by an integer cross-multiply,
    and builds the cover in the same pass; it visits only cubes with no
    stopping cube above them, O(1) each.  DyadicCubeIds are built only for
    the result, which is sorted by (level, flat index).
    """
    if direction not in ("above", "below"):
        raise InputError(f"direction must be 'above' or 'below', got {direction!r}")
    alpha = Fraction(alpha)
    mean = f.mean
    if direction == "above" and alpha < mean:
        raise PreconditionError(
            f"above-direction stopping requires alpha >= the global average "
            f"({mean}), got {alpha}")
    if direction == "below" and alpha >= mean:
        raise PreconditionError(
            f"below-direction stopping requires alpha < the global average "
            f"({mean}), got {alpha}")
    n, depth = f.dim, f.depth
    sums = f._sums()
    q = alpha.denominator
    # the level-k average sums[k][j] / (den 2^(n(L-k))) crosses alpha = p/q
    # iff sums[k][j] * q against thresholds[k], cross-multiplied
    thresholds = [(alpha.numerator * f._den) << (n * (depth - k))
                  for k in range(depth + 1)]
    above = direction == "above"

    def crosses(k, j):
        lhs = sums[k][j] * q
        return lhs > thresholds[k] if above else lhs <= thresholds[k]

    if crosses(0, 0):
        raise PreconditionError(
            "the root cube itself crosses the threshold; its father is undefined")

    # Walk the open (non-crossing) cubes level by level.  A cube with a
    # crossing child is a father; it joins the cover unless a father above
    # it already did, which the flag carried down the walk records.
    stopping, cover = [], []
    frontier = [(0, False)]  # (Morton address, lies inside a cover cube)
    digits = range(1 << n)
    for k in range(depth):
        nxt = []
        for j, covered in frontier:
            is_father = False
            opened = []
            for c in ((j << n) + d for d in digits):
                if crosses(k + 1, c):
                    stopping.append((k + 1, c))
                    is_father = True
                else:
                    opened.append(c)
            if is_father and not covered:
                cover.append((k, j))
            nxt.extend((c, covered or is_father) for c in opened)
        frontier = nxt

    def public(cubes):
        return tuple(sorted((f._cube(k, z) for k, z in cubes), key=_public_key))

    cells = 1 << (n * depth)
    measure_e = Fraction(sum(1 << (n * (depth - k)) for k, _ in stopping), cells)
    measure_e_star = Fraction(sum(1 << (n * (depth - k)) for k, _ in cover), cells)
    return CZDecomposition(threshold=alpha, direction=direction,
                           stopping_cubes=public(stopping),
                           parent_cover=public(cover),
                           measure_E=measure_e,
                           measure_E_star=measure_e_star)


def verify_stopping(d, f):
    """Exact re-check of the five structural facts behind a decomposition.

    (i) every stopping cube's average crosses the threshold; (ii) no stopping
    cube's father crosses (maximality); (iii) no parent-cover cube crosses;
    (iv) every cell outside E sits on the non-crossing side; (v) the cover
    measure is at most 2^n times the stopping measure.
    """
    alpha, direction = d.threshold, d.direction
    failures = []

    ok_cross = True
    for q in d.stopping_cubes:
        if not _crosses(cube_average(f, q), alpha, direction):
            ok_cross = False
            failures.append(f"stopping cube {q} does not cross {alpha}")

    ok_fathers = True
    for q in d.stopping_cubes:
        if q.level == 0:
            ok_fathers = False
            failures.append("root listed as a stopping cube")
            continue
        if _crosses(cube_average(f, q.father()), alpha, direction):
            ok_fathers = False
            failures.append(f"father of {q} also crosses {alpha}")

    ok_parents = True
    for p in d.parent_cover:
        if _crosses(cube_average(f, p), alpha, direction):
            ok_parents = False
            failures.append(f"parent {p} crosses {alpha}")

    covered = set()
    for q in d.stopping_cubes:
        covered.update(f.cell_indices(q))
    ok_complement = True
    for c, v in enumerate(f.cells):
        if c not in covered and _crosses(v, alpha, direction):
            ok_complement = False
            failures.append(f"cell {c} outside E crosses {alpha}")

    ok_measure = d.measure_E_star <= (1 << f.dim) * d.measure_E
    if not ok_measure:
        failures.append(
            f"|E*| = {d.measure_E_star} exceeds 2^n |E| = {(1 << f.dim) * d.measure_E}")

    return StoppingReport(stopping_cross=ok_cross,
                          fathers_do_not_cross=ok_fathers,
                          parents_do_not_cross=ok_parents,
                          complement_clean=ok_complement,
                          cover_measure_ok=ok_measure,
                          failures=tuple(failures))


def maximal_level_set(f, alpha):
    """Exact measure of the super-level set of the dyadic maximal function.

    Computed from the maximal function itself, independently of
    stopping_family, so the two can cross-check each other.
    """
    alpha = Fraction(alpha)
    if alpha < f.mean:
        raise PreconditionError(
            f"requires alpha >= the global average ({f.mean}), got {alpha}")
    m = dyadic_maximal_function(f)
    count = sum(1 for v in m.cells if v > alpha)
    return Fraction(count, len(m.cells))
