"""Stopping families on the dyadic tree and the parent-cover sets E, E*.

A stopping family collects the maximal dyadic cubes whose average crosses a
threshold (strictly above it, or weakly below it); the parent cover takes
each stopping cube's father and keeps the maximal ones.  All measures are
exact, and the cover obeys |E*| <= 2^n |E| by construction.

The stopping cubes come from one pass of the running max R of the integer
kernel per function and direction, which decides every threshold asked for
at once: a cube stops iff its running max crosses the integer threshold
while its father's does not.  The pairs are memoized per threshold, and no
level of R is kept.  The cover takes the fathers level by level, coarsest
first, and keeps those under no father kept at a coarser level: cubes are
nested or disjoint, so those are the maximal ones.  A decomposition keeps
both families as (level, Morton address) pairs, and builds a tuple of
public cubes only when it is first read; verify_stopping checks the pairs
on the sum pyramid.  The maximal function is the leaf level of the same
running max for |f|.

Where only |E| is read, no decomposition is made: E is measured from the
stopping pairs (_stopping_measure), and, without the running max, as the
cells under some cube whose sum crosses the threshold (_crossing_measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, groupby, repeat
from operator import gt, itemgetter, le

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

    @classmethod
    def _of_pairs(cls, f, stopping, cover, **fields):
        """The decomposition with both families given as (level, Morton
        address) pairs of f's grid; each cube tuple is built on first read."""
        d = object.__new__(cls)
        d.__dict__.update(fields, _pairs=(f, stopping, cover))
        return d

    def __getattr__(self, name):  # reached only for a field not yet built
        pairs = self.__dict__.get("_pairs")
        if pairs is None or name not in _FAMILIES:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        cubes = pairs[0]._cubes(pairs[_FAMILIES[name]])
        object.__setattr__(self, name, cubes)
        return cubes


_FAMILIES = {"stopping_cubes": 1, "parent_cover": 2}  # their places in _pairs


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
    exceeds a there ('below' tests -A > -a - 1); the precondition keeps the
    root from crossing.  The stopping pairs come from one O(cubes) pass per
    function and direction, shared by the thresholds asked for together
    (f._stopping) and memoized; each call then takes the fathers of each
    level's stopping cubes as one set, less those under a father kept at a
    coarser level.  Both families are sorted by (level, flat index), and
    built as cubes on first read.
    """
    alpha = _checked_alpha(f, alpha, direction)
    [stopping] = f._stopping([alpha], direction == "above")
    n, depth = f.dim, f.depth
    cover, kept = [], []  # kept: (level, addresses) of the fathers kept
    e = e_star = 0  # the cells of E and of E*
    for k, zs in _by_level(stopping):
        e += len(zs) << n * (depth - k)
        fathers = {z >> n for z in zs}  # at level k - 1
        for j, addresses in kept:  # drop those under a coarser father kept
            shift = n * (k - 1 - j)
            fathers = {w for w in fathers if w >> shift not in addresses}
        if fathers:
            kept.append((k - 1, fathers))
            cover.extend(zip(repeat(k - 1), sorted(fathers)))
            e_star += len(fathers) << n * (depth - k + 1)
    cells = 1 << n * depth
    return CZDecomposition._of_pairs(f, stopping, cover, threshold=alpha,
                                     direction=direction,
                                     measure_E=Fraction(e, cells),
                                     measure_E_star=Fraction(e_star, cells))


def _by_level(pairs):
    """[(k, addresses)] for (level, Morton address) pairs: one item per
    level present, coarsest first, its addresses in the pairs' order."""
    level = itemgetter(0)
    return [(k, [z for _, z in group])
            for k, group in groupby(sorted(pairs, key=level), level)]


def _measure(f, pairs):
    """The measure of the union of the disjoint cubes at (level, Morton
    address) pairs."""
    n, depth = f.dim, f.depth
    return Fraction(sum(1 << n * (depth - k) for k, _ in pairs), 1 << n * depth)


def _stopping_measure(f, alpha):
    """stopping_family(f, alpha, "above").measure_E with no cube built: the
    measure of the stopping pairs that the pass of R finds."""
    [stopping] = f._stopping([_checked_alpha(f, alpha, "above")], True)
    return _measure(f, stopping)


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
    at Morton address z (its father is at z >> n) is above alpha =
    num/alpha_den iff sums[k][z] * alpha_den > num * den << n(L-k), below
    iff <=.  A decomposition stopping_family made from f is read as its
    (level, Morton address) pairs; any other has its cubes mapped to them by
    Q.morton().  The running max stopping_family decides with is not read,
    so a fault in it shows here as a failed fact.  Facts (i)-(iii) read,
    level by level, the one sum of the level's cubes least or most likely
    to cross, and fact (iv) the largest (above) or smallest (below) cell
    outside E; the offending cubes or cells are listed only when that one
    fails.
    """
    alpha, n, L, sums = d.threshold, f.dim, f.depth, f._sums()
    crosses = gt if d.direction == "above" else le
    num, alpha_den = alpha.numerator, alpha.denominator
    bar = num * f._den  # alpha * den * alpha_den, a level-L cell's threshold
    bars = [bar << n * (L - k) for k in range(L + 1)]  # by cube level

    own = d.__dict__.get("_pairs")
    if own is not None and own[0] is f:
        _, stopping, cover = own

        def named(bad):  # sorted, as d's tuples are
            return f._cubes(bad) if bad else ()
    else:
        cubes = [*d.stopping_cubes, *d.parent_cover]
        pairs = [(q.level, f._block(q)[0]) for q in cubes]
        stopping, cover = pairs[:len(d.stopping_cubes)], pairs[len(d.stopping_cubes):]
        cube_at = dict(zip(pairs, cubes))

        def named(bad):
            return [cube_at[p] for p in bad]

    # per level, the least (worst) and most (best) crossing sum
    worst, best = (min, max) if d.direction == "above" else (max, min)
    stop_levels = _by_level(stopping)
    not_crossing = bad_fathers = bad_parents = ()
    if any(not crosses(worst(map(sums[k].__getitem__, zs)) * alpha_den, bars[k])
           for k, zs in stop_levels):
        not_crossing = [(k, z) for k, z in stopping
                        if not crosses(sums[k][z] * alpha_den, bars[k])]
    if any(k == 0 or crosses(best([sums[k - 1][z >> n] for z in zs]) * alpha_den,
                             bars[k - 1])
           for k, zs in stop_levels):
        bad_fathers = [(k, z) for k, z in stopping if k == 0
                       or crosses(sums[k - 1][z >> n] * alpha_den, bars[k - 1])]
    if any(crosses(best(map(sums[k].__getitem__, zs)) * alpha_den, bars[k])
           for k, zs in _by_level(cover)):
        bad_parents = [(k, z) for k, z in cover
                       if crosses(sums[k][z] * alpha_den, bars[k])]
    # fact (iv): outside[z] is 0 on the cells of E, by Morton address
    outside = bytearray(b"\1") * len(f._nums)
    for k, zs in stop_levels:
        cnt = 1 << n * (L - k)
        if cnt == 1:
            for z in zs:
                outside[z] = 0
        else:
            empty = bytes(cnt)
            for z in zs:
                outside[z * cnt:(z + 1) * cnt] = empty
    cells = sums[L]
    extreme = best(compress(cells, outside), default=None)
    bad_cells = []
    if extreme is not None and crosses(extreme * alpha_den, bar):
        order = _morton_order(n, L)
        bad_cells = sorted(order[z] for z in compress(range(len(outside)), outside)
                           if crosses(cells[z] * alpha_den, bar))
    failures = (
        [f"stopping cube {q} does not cross {alpha}" for q in named(not_crossing)]
        + ["root listed as a stopping cube" if q.level == 0
           else f"father of {q} also crosses {alpha}" for q in named(bad_fathers)]
        + [f"parent {p} crosses {alpha}" for p in named(bad_parents)]
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
