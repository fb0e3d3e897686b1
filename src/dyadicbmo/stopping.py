"""Stopping families on the dyadic tree and the parent-cover sets E, E*.

A stopping family collects the maximal dyadic cubes whose average crosses a
threshold (strictly above it, or weakly below it); the parent cover takes
each stopping cube's father and keeps the maximal ones.  All measures are
exact, and the cover obeys |E*| <= 2^n |E| by construction.

Both families come from two running-max pyramids of the integer kernel,
cached per function and direction: a cube is in a family iff its running
max crosses the integer threshold while its father's does not.  Each
threshold costs one O(cubes) scan; the maximal function is the leaf level
of the same pyramid for |f|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (_public_key, cube_average, distribution_above,
                     dyadic_maximal_function)
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

    With A the cube averages times den * 2^(nL) and a = floor(alpha den
    2^(nL)), a cube stops iff the running max of A from the root first
    exceeds a there, and joins the cover iff the running max of its
    children's A first does ('below' tests -A > -a - 1).  The pyramids are
    built once per function and direction; each call is then one O(cubes)
    integer scan.  The result is sorted by (level, flat index).
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
    stopping, cover = f._stopping(alpha, direction == "above")
    if stopping[:1] == [(0, 0)]:
        raise PreconditionError(
            "the root cube itself crosses the threshold; its father is undefined")

    def public(cubes):
        return tuple(sorted((f._cube(k, z) for k, z in cubes), key=_public_key))

    n, depth = f.dim, f.depth
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
    """Exact measure of the super-level set of the dyadic maximal function,
    counted over its cells."""
    alpha = Fraction(alpha)
    if alpha < f.mean:
        raise PreconditionError(
            f"requires alpha >= the global average ({f.mean}), got {alpha}")
    return distribution_above(dyadic_maximal_function(f), alpha, 0)
