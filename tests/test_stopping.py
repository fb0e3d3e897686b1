"""Stopping families: examples from 7-cube enumeration, invariants, mutation."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import (CZDecomposition, DyadicCubeId, DyadicFunction,
                       PreconditionError, dyadic_maximal_function,
                       hardy_average, maximal_level_set,
                       rearrange_signed, stopping_family, verify_stopping)
from dyadicbmo.stopping import _crossing_measure, _measure, _stopping_measure
from dyadicbmo.verify import verify_all
from conftest import (all_cubes_oracle, average_oracle, cube_cells_oracle,
                      first_crossings_oracle, maximal_oracle, parent_cover_oracle,
                      random_function, random_nonneg, running_max_oracle,
                      stopping_oracle)

SPIKE = DyadicFunction(1, 2, [4, 0, 0, 0])


def agrees_with_oracles(f, alpha, direction):
    d = stopping_family(f, alpha, direction)
    stopping = stopping_oracle(f, alpha, direction)
    cover = parent_cover_oracle(stopping)
    order = lambda q: (q.level, q.flat())
    assert d.stopping_cubes == tuple(sorted(stopping, key=order))
    assert d.parent_cover == tuple(sorted(cover, key=order))
    assert d.measure_E == sum((q.measure for q in stopping), Fraction(0))
    assert d.measure_E_star == sum((q.measure for q in cover), Fraction(0))


class TestExamples:
    def test_spike_above(self):
        d = stopping_family(SPIKE, 2, "above")
        assert d.stopping_cubes == (DyadicCubeId(2, (0,)),)
        assert d.parent_cover == (DyadicCubeId(1, (0,)),)
        assert d.measure_E == Fraction(1, 4)
        assert d.measure_E_star == Fraction(1, 2)

    def test_constant_above_empty(self):
        f = DyadicFunction(1, 2, [3, 3, 3, 3])
        d = stopping_family(f, 5, "above")
        assert d.stopping_cubes == ()
        assert d.measure_E == 0
        assert verify_stopping(d, f).passed  # vacuous

    def test_spike_below(self):
        # stopping family from the 7-cube enumeration; the father of the
        # level-1 cube (1/2,1] is the root, which then covers (0,1/2] too
        d = stopping_family(SPIKE, Fraction(1, 2), "below")
        assert d.stopping_cubes == (DyadicCubeId(1, (1,)), DyadicCubeId(2, (1,)))
        assert set(d.stopping_cubes) == set(
            stopping_oracle(SPIKE, Fraction(1, 2), "below"))
        assert d.parent_cover == (DyadicCubeId.root(1),)
        assert d.measure_E == Fraction(3, 4)
        assert d.measure_E_star == 1

    def test_preconditions(self):
        from dyadicbmo import InputError
        with pytest.raises(PreconditionError):
            stopping_family(SPIKE, Fraction(1, 2), "above")  # alpha < mean
        with pytest.raises(PreconditionError):
            stopping_family(SPIKE, 1, "below")  # alpha >= mean
        with pytest.raises(InputError):
            stopping_family(SPIKE, 2, "sideways")


class TestVerify:
    def test_all_pass_on_real_decomposition(self):
        rep = verify_stopping(stopping_family(SPIKE, 2, "above"), SPIKE)
        assert rep.passed
        assert rep.failures == ()

    def test_vacuous_empty(self):
        f = DyadicFunction(2, 1, [1, 1, 1, 1])
        rep = verify_stopping(stopping_family(f, 2, "above"), f)
        assert rep.passed

    def test_mutation_dropped_cube_detected(self):
        d = stopping_family(SPIKE, 2, "above")
        corrupted = CZDecomposition(
            threshold=d.threshold, direction=d.direction,
            stopping_cubes=(), parent_cover=d.parent_cover,
            measure_E=Fraction(0), measure_E_star=d.measure_E_star)
        rep = verify_stopping(corrupted, SPIKE)
        assert not rep.passed
        assert not rep.complement_clean or not rep.cover_measure_ok

    def test_mutation_non_maximal_cube_detected(self):
        # replace the stopping cube by its child: the father then crosses
        f = DyadicFunction(1, 3, [8, 8, 0, 0, 0, 0, 0, 0])
        d = stopping_family(f, 3, "above")
        assert d.stopping_cubes == (DyadicCubeId(1, (0,)),)
        child = DyadicCubeId(2, (0,))
        corrupted = CZDecomposition(
            threshold=d.threshold, direction=d.direction,
            stopping_cubes=(child,), parent_cover=(DyadicCubeId(1, (0,)),),
            measure_E=child.measure, measure_E_star=Fraction(1, 2))
        rep = verify_stopping(corrupted, f)
        assert not rep.fathers_do_not_cross or not rep.parents_do_not_cross
        assert not rep.passed


class TestInvariants:
    def test_matches_enumeration_oracle(self, rng):
        for i in range(180):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, rng.randrange(6 - dim))
            mean = f.mean
            span = max(f.cells) - min(f.cells)
            agrees_with_oracles(f, mean + span * Fraction(rng.randrange(0, 9), 8),
                                "above")
            if span > 0:
                agrees_with_oracles(
                    f, mean - span * Fraction(rng.randrange(1, 9), 8), "below")

    def test_structure_randomized(self, rng):
        for _ in range(150):
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            span = max(f.cells) - min(f.cells)
            alpha = f.mean + span * Fraction(rng.randrange(0, 9), 8)
            d = stopping_family(f, alpha, "above")
            rep = verify_stopping(d, f)
            assert rep.passed, rep.failures
            # pairwise disjointness of both families
            for fam in (d.stopping_cubes, d.parent_cover):
                for i, a in enumerate(fam):
                    for b in fam[i + 1:]:
                        assert not a.contains(b) and not b.contains(a)
            # cover containment: every stopping cube inside some parent
            for q in d.stopping_cubes:
                assert any(p.contains(q) for p in d.parent_cover)
            assert d.measure_E == sum((q.measure for q in d.stopping_cubes),
                                      Fraction(0))
            assert d.measure_E_star <= (1 << f.dim) * d.measure_E

    def test_cover_is_union_of_cells(self, rng):
        for _ in range(60):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            span = max(f.cells) - min(f.cells)
            alpha = f.mean + span * Fraction(rng.randrange(0, 5), 4)
            d = stopping_family(f, alpha, "above")
            e_cells = set()
            for q in d.stopping_cubes:
                e_cells.update(f.cell_indices(q))
            cover_cells = set()
            for p in d.parent_cover:
                cover_cells.update(f.cell_indices(p))
            assert e_cells <= cover_cells

    def test_maximal_level_set_agreement(self, rng):
        for _ in range(120):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(4))
            span = max(f.cells) - min(f.cells)
            alpha = f.mean + span * Fraction(rng.randrange(0, 9), 8)
            assert maximal_level_set(f, alpha) \
                == stopping_family(f, alpha, "above").measure_E

    def test_level_set_examples(self):
        assert maximal_level_set(SPIKE, 2) == Fraction(1, 4)
        assert maximal_level_set(SPIKE, 1) == Fraction(1, 2)
        assert maximal_level_set(SPIKE, 4) == 0

    def test_measure_monotone_in_alpha(self, rng):
        for _ in range(40):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(4))
            span = max(f.cells) - min(f.cells)
            prev = None
            for j in range(9):
                alpha = f.mean + span * Fraction(j, 8)
                m = stopping_family(f, alpha, "above").measure_E
                if prev is not None:
                    assert m <= prev
                prev = m

    def test_measure_bounded_by_matching_t(self):
        rng = random.Random(3)
        checks = 0
        while checks < 400:
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(4))
            g = rearrange_signed(f)
            t = Fraction(rng.randrange(1, 17), 16)
            alpha = hardy_average(g, t)
            d = stopping_family(f, alpha, "above")
            assert d.measure_E <= t
            checks += 1


class TestIntegerThresholdRule:
    """stopping_family decides on running maxima of integer-scaled averages
    against floor(alpha * den * 2^(nL)); these inputs sit where an
    off-by-one in that rule shows."""

    def test_alpha_at_cube_averages(self, rng):
        # a cube whose average equals alpha stops below, not above
        for i in range(60):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, 1 + rng.randrange(4 - dim))
            mean = f.mean
            for alpha in {average_oracle(f, q) for q in all_cubes_oracle(f)}:
                agrees_with_oracles(f, alpha, "above" if alpha >= mean else "below")

    def test_alpha_between_scaled_averages(self, rng):
        # alpha 1/7 of a grid step D = 1/(den 2^(nL)) off a cube average, so
        # alpha / D is no integer and the floor decides
        for i in range(60):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, 1 + rng.randrange(4 - dim))
            den = math.lcm(*(v.denominator for v in f.cells))
            eps = Fraction(1, 7 * den << (dim * f.depth))
            mean = f.mean
            for avg in {average_oracle(f, q) for q in all_cubes_oracle(f)}:
                for alpha in (avg - eps, avg + eps):
                    agrees_with_oracles(f, alpha,
                                        "above" if alpha >= mean else "below")

    def test_depth_zero(self):
        for dim in (1, 2, 3):
            for v in (Fraction(-3, 2), Fraction(0), Fraction(5, 3)):
                f = DyadicFunction(dim, 0, [v])
                for alpha in (v, v + Fraction(1, 3), v + 7):
                    agrees_with_oracles(f, alpha, "above")
                for alpha in (v - Fraction(1, 3), v - 7):
                    agrees_with_oracles(f, alpha, "below")

    def test_maximal_level_set_counts_oracle_cells(self, rng):
        # the maximal function and stopping_family now read one pyramid, so
        # the level set is also counted on the per-cell oracle
        for i in range(60):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, rng.randrange(5 - dim))
            m = maximal_oracle(f)
            values = sorted(set(m))
            alphas = values + [(a + b) / 2 for a, b in zip(values, values[1:])]
            for alpha in alphas:
                if alpha >= f.mean:
                    assert maximal_level_set(f, alpha) == Fraction(
                        sum(v > alpha for v in m), len(m))


@st.composite
def _small_grids(draw):
    """(dim, depth, cells) with dim 1-3 and at most 16 cells."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4 // dim))
    den = draw(st.sampled_from((1, 3, 4)))
    cells = draw(st.lists(st.integers(-6, 6), min_size=1 << dim * depth,
                          max_size=1 << dim * depth))
    return dim, depth, [Fraction(c, den) for c in cells]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_grids())
def test_batch_pass_equals_first_crossings(grid):
    """The one-pass batch gives, per threshold, the pairs a full scan of the
    kept running-max pyramid gives, however the thresholds are grouped.
    Thresholds: the cube averages and one scaled unit either side, the
    mean, the largest admissible below it (scaled a = sum - 1, twice) and
    repeats."""
    dim, depth, cells = grid

    def fresh():
        return DyadicFunction(dim, depth, cells)

    f = fresh()
    mean, scale = f.mean, math.lcm(*(v.denominator for v in cells)) << dim * depth
    unit = Fraction(1, scale)
    averages = {average_oracle(f, q) for q in all_cubes_oracle(f)}
    alphas = sorted({a + d for a in averages for d in (-unit, 0, unit)})
    alphas += [mean, mean - unit, mean - unit / 2, alphas[0], alphas[-1]]
    for above in (True, False):
        chosen = [a for a in alphas if (a >= mean) == above]
        pyramid = running_max_oracle(f, 1 if above else -1)
        expected = []
        for alpha in chosen:
            a = alpha.numerator * scale // alpha.denominator
            expected.append(first_crossings_oracle(
                pyramid, a if above else -a - 1, dim))
        assert all((0, 0) not in pairs for pairs in expected)  # root never stops
        g = fresh()
        assert [g._stopping([alpha], above)[0] for alpha in chosen] == expected
        assert fresh()._stopping(chosen, above) == expected
        g, third = fresh(), len(chosen) // 3
        assert g._stopping(chosen[:2 * third + 1], above) == expected[:2 * third + 1]
        assert g._stopping(chosen[third:], above) == expected[third:]


def decomposition(alpha, direction, stopping, cover):
    return CZDecomposition(
        threshold=Fraction(alpha), direction=direction,
        stopping_cubes=tuple(stopping), parent_cover=tuple(cover),
        measure_E=sum((q.measure for q in stopping), Fraction(0)),
        measure_E_star=sum((q.measure for q in cover), Fraction(0)))


def report_oracle(d, f):
    """The facts verify_stopping reports, from geometric cube membership and
    Fraction averages."""
    alpha = d.threshold

    def crosses(v):
        return v > alpha if d.direction == "above" else v <= alpha

    cross = [crosses(average_oracle(f, q)) for q in d.stopping_cubes]
    fathers = [q.level == 0 or crosses(average_oracle(f, q.father()))
               for q in d.stopping_cubes]
    parents = [crosses(average_oracle(f, p)) for p in d.parent_cover]
    inside = {c for q in d.stopping_cubes for c in cube_cells_oracle(f, q)}
    dirty = [c for c, v in enumerate(f.cells) if c not in inside and crosses(v)]
    return (all(cross), not any(fathers), not any(parents), not dirty,
            d.measure_E_star <= (1 << f.dim) * d.measure_E, dirty)


class TestVerifyIntegerRule:
    """verify_stopping compares cube sums times alpha's denominator with
    alpha's numerator times den << n(L-k).  Each hand-made decomposition has
    den != 1 and an average, father average or cell exactly at alpha, where a
    strict/weak swap, a dropped den or a wrong father address shows."""

    @staticmethod
    def facts(rep):
        return (rep.stopping_cross, rep.fathers_do_not_cross,
                rep.parents_do_not_cross, rep.complement_clean,
                rep.cover_measure_ok)

    def test_above_father_at_alpha(self):
        # den 3, alpha 1/2: cell 1 is above, its father averages exactly 1/2
        f = DyadicFunction(1, 2, [Fraction(1, 3), Fraction(2, 3), 0, 0])
        d = decomposition(Fraction(1, 2), "above", [DyadicCubeId(2, (1,))],
                          [DyadicCubeId(1, (0,))])
        assert stopping_family(f, Fraction(1, 2), "above") == d
        rep = verify_stopping(d, f)
        assert rep.passed and rep.failures == ()

    def test_above_cube_at_alpha(self):
        f = DyadicFunction(1, 2, [Fraction(1, 3), Fraction(2, 3), 0, 0])
        d = decomposition(Fraction(1, 2), "above", [DyadicCubeId(1, (0,))],
                          [DyadicCubeId.root(1)])
        rep = verify_stopping(d, f)
        assert self.facts(rep) == (False, True, True, True, True)
        assert rep.failures == (
            f"stopping cube {DyadicCubeId(1, (0,))} does not cross 1/2",)

    def test_above_cell_at_alpha_outside_e(self):
        # den 3, alpha 1/3 = the mean: cell 2 sits at alpha outside E, and
        # the root, father of the stopping cube, averages exactly alpha
        f = DyadicFunction(1, 2, [1, 0, Fraction(1, 3), 0])
        d = stopping_family(f, Fraction(1, 3), "above")
        assert d == decomposition(Fraction(1, 3), "above", [DyadicCubeId(1, (0,))],
                                  [DyadicCubeId.root(1)])
        assert verify_stopping(d, f).passed

    def test_below_cube_and_father_at_alpha(self):
        # den 3, alpha 1/2: the level-1 cube (0,1/2] averages exactly 1/2
        f = DyadicFunction(1, 2, [Fraction(1, 3), Fraction(2, 3), 1, 1])
        d = decomposition(Fraction(1, 2), "below", [DyadicCubeId(1, (0,))],
                          [DyadicCubeId.root(1)])
        assert stopping_family(f, Fraction(1, 2), "below") == d
        assert verify_stopping(d, f).passed
        # its child cell 0 also lies below, but the father at alpha crosses
        child = DyadicCubeId(2, (0,))
        rep = verify_stopping(decomposition(Fraction(1, 2), "below", [child],
                                            [DyadicCubeId(1, (0,))]), f)
        assert self.facts(rep) == (True, False, False, True, True)
        assert rep.failures == (f"father of {child} also crosses 1/2",
                                f"parent {DyadicCubeId(1, (0,))} crosses 1/2")

    def test_below_cell_at_alpha_outside_e(self):
        f = DyadicFunction(1, 2, [Fraction(1, 3), 1, 1, Fraction(4, 3)])
        rep = verify_stopping(decomposition(Fraction(1, 3), "below", [], []), f)
        assert self.facts(rep) == (True, True, True, False, True)
        assert rep.failures == ("cell 0 outside E crosses 1/3",)

    def test_father_address_in_two_dimensions(self):
        # n = 2, den 3, alpha 1/2: the cell at index (1, 0) (Morton address
        # 2) has father (0, 0), averaging 1/3; the level-1 cube (0, 1)
        # (Morton address 1) averages 4/3 and stops too
        cells = [0] * 16
        for flat in (1, 8, 9, 12, 13):
            cells[flat] = Fraction(4, 3)
        f = DyadicFunction(2, 2, cells)
        d = stopping_family(f, Fraction(1, 2), "above")
        assert d.stopping_cubes == (DyadicCubeId(1, (0, 1)), DyadicCubeId(2, (1, 0)))
        assert verify_stopping(d, f).passed
        rep = verify_stopping(decomposition(
            Fraction(1, 2), "above", [DyadicCubeId(2, (0, 2))],
            [DyadicCubeId(1, (0, 1))]), f)
        assert self.facts(rep) == (True, False, False, False, True)

    def test_agrees_with_oracle_on_arbitrary_families(self, rng):
        # alpha at every cube average and 1/7 of a grid step either side
        # (a denominator den does not divide); the families are random cube
        # sets, so every fact fails somewhere
        for i in range(30):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, 1 + rng.randrange(4 - dim))
            cubes = list(all_cubes_oracle(f))
            eps = Fraction(1, 7 * f._den << (dim * f.depth))
            for avg in {average_oracle(f, q) for q in cubes}:
                for alpha in (avg - eps, avg, avg + eps):
                    for direction in ("above", "below"):
                        d = decomposition(alpha, direction,
                                          rng.sample(cubes, rng.randrange(3)),
                                          rng.sample(cubes, rng.randrange(3)))
                        rep = verify_stopping(d, f)
                        expect = report_oracle(d, f)
                        assert self.facts(rep) == expect[:5]
                        assert [m for m in rep.failures if m.startswith("cell")] \
                            == [f"cell {c} outside E crosses {alpha}"
                                for c in expect[5]]


# -- measures with no cube built ------------------------------------------------

@st.composite
def signed_functions(draw):
    """Signed cells over mixed denominators from a small pool (ties, and
    cube averages shared across levels)."""
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(0, {1: 5, 2: 3, 3: 2}[n]))
    pool = draw(st.lists(st.builds(Fraction, st.integers(-20, 20),
                                   st.sampled_from((1, 2, 3, 4, 7))),
                         min_size=1, max_size=5))
    cells = draw(st.lists(st.sampled_from(pool), min_size=1 << (n * depth),
                          max_size=1 << (n * depth)))
    return DyadicFunction(n, depth, cells)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(f=signed_functions(), data=st.data())
def test_measure_helpers_match_stopping_family(f, data):
    # alpha at a cube average (the cube does not cross), one unit of the
    # scaled grid 1/(den 2^(nL)) above it (the floor moves by one), or
    # anywhere above the mean
    unit = Fraction(1, f._den << (f.dim * f.depth))
    averages = {average_oracle(f, q) for q in all_cubes_oracle(f)}
    at = st.sampled_from(sorted(a for a in averages if a >= f.mean))
    alpha = data.draw(st.one_of(
        at, at.map(lambda a: a + unit),
        st.fractions(0, 30, max_denominator=12).map(lambda x: f.mean + x)))
    for g in (f, f.abs()):
        if alpha < g.mean:
            continue
        expected = stopping_family(g, alpha, "above").measure_E
        assert _stopping_measure(g, alpha) == expected
        assert _crossing_measure(g, alpha) == expected
    if alpha >= f.abs().mean:  # M f = M |f|
        assert maximal_level_set(f, alpha) == stopping_family(
            f.abs(), alpha, "above").measure_E


def test_measure_helpers_keep_preconditions():
    for helper in (_stopping_measure, _crossing_measure):
        with pytest.raises(PreconditionError):
            helper(SPIKE, Fraction(1, 2))  # alpha < mean
    assert _stopping_measure(SPIKE, 1) == _crossing_measure(SPIKE, 1) == Fraction(1, 2)


class TestMaximalCheckReadsTwoSides:
    """The cz suite compares {M|f| > alpha} (from the leaf of the running
    max R of |f|) with the cells under cubes whose sum crosses alpha (no R):
    a fault in that leaf must show as a failed check."""

    def test_corrupted_running_max_is_reported(self):
        assert verify_all(DyadicFunction(1, 2, [-4, 0, 0, 0]), ["cz"]).passed
        f = DyadicFunction(1, 2, [-4, 0, 0, 0])  # fresh caches
        h = f.abs()  # [4, 0, 0, 0]: M h = (4, 2, 1, 1), {M h > 1} = 1/2
        m = dyadic_maximal_function(h)  # the leaf of R, the only level kept
        m._nums = m._nums[:3] + (10 ** 6 * m._den,)  # M h at cell 3 far above
        result = verify_all(f, ["cz"]).results[0]
        assert not result.passed
        assert "maximal-function level set disagrees at alpha=1" in result.failures

    def test_corrupted_maximal_function_is_reported(self):
        cells = [Fraction(-1, 3), 2, 0, 1]
        good = verify_all(DyadicFunction(2, 1, cells), ["cz"]).results[0]
        assert good.passed
        f = DyadicFunction(2, 1, cells)
        f.abs()._cache["maximal"] = DyadicFunction(2, 1, [0, 0, 0, 0])
        result = verify_all(f, ["cz"]).results[0]
        assert result.checks == good.checks
        assert [m for m in result.failures
                if m.startswith("maximal-function level set disagrees")]


class TestCzWalksEachRunningMaxOnce:
    """For f >= 0, f is |f|: the cz suite's pass of R above keeps its leaf
    as the maximal function, so R of f is walked once per direction."""

    @pytest.mark.parametrize("cells", [[4, 0, 1, 2, 7, 3, 3, 1],
                                       [4, 0, -1, 2, 7, 3, -3, 1]])
    def test_running_max_calls(self, cells, monkeypatch):
        f = DyadicFunction(1, 3, cells)
        calls = []
        original = DyadicFunction._running_max

        def counted(g, sign):
            calls.append((g, sign))
            return original(g, sign)
        monkeypatch.setattr(DyadicFunction, "_running_max", counted)
        assert verify_all(f, ["cz"]).passed
        walks = [(f, 1), (f, -1)] + ([] if f.is_nonnegative else [(f.abs(), 1)])
        assert calls == walks
        assert "maximal_leaf" not in f.abs()._cache  # read once, then dropped
        assert dyadic_maximal_function(f).cells == tuple(maximal_oracle(f))
        assert calls == walks


# -- families held as (level, Morton address) pairs ---------------------------

def _alphas(f):
    """A few thresholds of each direction: the mean, cube averages either
    side of it and a point between two of them."""
    mean = f.mean
    averages = sorted({average_oracle(f, q) for q in all_cubes_oracle(f)})
    above = [mean] + [a for a in averages if a > mean][:3]
    below = [a for a in averages if a < mean][-3:]
    if len(averages) > 1:
        mid = (averages[0] + averages[1]) / 2
        above += [mid] if mid >= mean else []
        below += [mid] if mid < mean else []
    return [(a, "above") for a in above] + [(a, "below") for a in below]


def _eager(d, stopping, cover):
    return CZDecomposition(threshold=d.threshold, direction=d.direction,
                           stopping_cubes=tuple(stopping), parent_cover=tuple(cover),
                           measure_E=d.measure_E, measure_E_star=d.measure_E_star)


class TestPairFamilies:
    """stopping_family keeps its families as (level, Morton address) pairs
    and builds the cube tuples on first read; verify_stopping reads the
    pairs of a decomposition made from the same function."""

    def test_lazy_equals_eager(self, rng):
        order = lambda q: (q.level, q.flat())  # noqa: E731
        for i in range(45):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, rng.randrange(5 - dim))
            for alpha, direction in _alphas(f):
                stopping = sorted(stopping_oracle(f, alpha, direction), key=order)
                cover = sorted(parent_cover_oracle(stopping), key=order)
                e = CZDecomposition(
                    threshold=Fraction(alpha), direction=direction,
                    stopping_cubes=tuple(stopping), parent_cover=tuple(cover),
                    measure_E=sum((q.measure for q in stopping), Fraction(0)),
                    measure_E_star=sum((q.measure for q in cover), Fraction(0)))
                # each comparison on a fresh decomposition, no field read before
                assert stopping_family(f, alpha, direction) == e
                assert e == stopping_family(f, alpha, direction)
                assert repr(stopping_family(f, alpha, direction)) == repr(e)
                assert hash(stopping_family(f, alpha, direction)) == hash(e)
                d = stopping_family(f, alpha, direction)
                assert dataclasses.replace(d) == e and dataclasses.asdict(d) == \
                    dataclasses.asdict(e)

    def test_unknown_attribute_still_raises(self):
        d = stopping_family(SPIKE, 2, "above")
        with pytest.raises(AttributeError, match="no attribute 'cubes'"):
            d.cubes  # noqa: B018
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.stopping_cubes = ()

    def test_pair_path_matches_cube_path(self, rng):
        # the same families, once as pairs of f and once as cubes, corrupted
        # at random: both paths give one report, failures and their order
        listed = Counter()
        for i in range(150):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, 1 + rng.randrange(4 - dim))
            n, L = f.dim, f.depth
            alpha, direction = rng.choice(_alphas(f))
            stopping, cover = stopping_family(f, alpha, direction)._pairs[1:]
            stopping, cover = list(stopping), list(cover)

            def any_cube():
                k = rng.randrange(L + 1)
                return k, rng.randrange(1 << n * k)

            for _ in range(rng.randrange(4)):
                family = rng.choice((stopping, cover))
                move = rng.randrange(4)
                if move == 0 and family:  # drop one
                    family.pop(rng.randrange(len(family)))
                elif move == 1:  # add any cube
                    family.append(any_cube())
                elif move == 2 and family:  # a child in place of a cube
                    k, z = family.pop(rng.randrange(len(family)))
                    if k < L:
                        family.append((k + 1, (z << n) + rng.randrange(1 << n)))
                elif move == 3 and family:  # the father in place of a cube
                    k, z = family.pop(rng.randrange(len(family)))
                    family.append((k - 1, z >> n) if k else (k, z))
            fields = dict(threshold=Fraction(alpha), direction=direction,
                          measure_E=_measure(f, stopping),
                          measure_E_star=_measure(f, cover))
            pairs = CZDecomposition._of_pairs(f, stopping, cover, **fields)
            cubes = CZDecomposition(stopping_cubes=f._cubes(stopping),
                                    parent_cover=f._cubes(cover), **fields)
            rep = verify_stopping(pairs, f)
            assert rep == verify_stopping(cubes, f)
            listed.update(m.split()[0] for m in rep.failures)
        # every kind of failure shows, cells outside E among them
        assert {"stopping", "father", "parent", "cell"} <= set(listed)

    def test_pair_path_lists_cubes_in_public_order(self):
        # Morton addresses 1 and 2 are the cubes (0, 1) and (1, 0), which
        # sort the other way by flat index
        f = DyadicFunction(2, 1, [0, 0, 0, 0])
        d = CZDecomposition._of_pairs(
            f, [(1, z) for z in range(4)], [], threshold=Fraction(1),
            direction="above", measure_E=Fraction(1), measure_E_star=Fraction(0))
        cubes = [DyadicCubeId(1, index) for index in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert verify_stopping(d, f).failures == tuple(
            f"stopping cube {q} does not cross 1" for q in cubes)

    def test_cz_suite_builds_no_cube(self, rng, monkeypatch):
        counts = Counter()
        for cls, name in ((DyadicFunction, "_cubes"), (DyadicCubeId, "morton")):
            original = getattr(cls, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cls, name, counted)
        for i in range(12):
            dim = (1, 2, 3)[i % 3]
            f = random_function(rng, dim, 1 + rng.randrange(4 - dim))
            assert verify_all(f, ["cz"]).passed
        assert counts == Counter()
        # the counters count: reading a family builds its cubes
        f = random_function(rng, 2, 2)
        stopping_family(f, f.mean, "above").stopping_cubes  # noqa: B018
        verify_stopping(_eager(stopping_family(f, f.mean, "above"),
                               [DyadicCubeId(1, (0, 1))], []), f)
        assert counts == Counter({"_cubes": 1, "morton": 1})

    def test_other_functions_decomposition_takes_cube_path(self, monkeypatch):
        # g's family read as cubes of f: pairs of g's grid are not used for f
        f = DyadicFunction(2, 2, [Fraction(k % 5, 3) for k in range(16)])
        g = DyadicFunction(2, 2, [Fraction(k % 7, 2) for k in range(16)])
        d = stopping_family(g, g.mean, "above")
        expected = verify_stopping(_eager(d, d.stopping_cubes, d.parent_cover), f)
        assert not expected.passed
        calls = Counter()
        original = DyadicCubeId.morton
        monkeypatch.setattr(DyadicCubeId, "morton",
                            lambda q: calls.update(["morton"]) or original(q))
        assert verify_stopping(stopping_family(g, g.mean, "above"), f) == expected
        assert calls["morton"] == len(d.stopping_cubes) + len(d.parent_cover) > 0


# -- the per-level verify_stopping against a per-pair reference -----------------


def verify_stopping_per_pair(d, f):
    """verify_stopping deciding facts (i)-(iii) pair by pair and marking E
    by slices of cells: the report, failures in order, that the per-level
    decision must give."""
    from itertools import compress
    from operator import gt, le
    from dyadicbmo.dyadic import _morton_order
    from dyadicbmo.stopping import StoppingReport
    alpha, n, L, sums = d.threshold, f.dim, f.depth, f._sums()
    crosses = gt if d.direction == "above" else le
    alpha_den, bar = alpha.denominator, alpha.numerator * f._den
    bars = [bar << n * (L - k) for k in range(L + 1)]
    own = d.__dict__.get("_pairs")
    if own is not None and own[0] is f:
        _, stopping, cover = own

        def named(bad):
            return f._cubes(bad) if bad else ()
    else:
        cubes = [*d.stopping_cubes, *d.parent_cover]
        pairs = [(q.level, q.morton()) for q in cubes]
        stopping, cover = pairs[:len(d.stopping_cubes)], pairs[len(d.stopping_cubes):]
        cube_at = dict(zip(pairs, cubes))

        def named(bad):
            return [cube_at[p] for p in bad]
    not_crossing = [(k, z) for k, z in stopping
                    if not crosses(sums[k][z] * alpha_den, bars[k])]
    bad_fathers = [(k, z) for k, z in stopping
                   if k == 0 or crosses(sums[k - 1][z >> n] * alpha_den, bars[k - 1])]
    bad_parents = [(k, z) for k, z in cover if crosses(sums[k][z] * alpha_den, bars[k])]
    outside = bytearray(b"\1") * len(f._nums)
    for k, z in stopping:
        cnt = 1 << n * (L - k)
        outside[z * cnt:(z + 1) * cnt] = bytes(cnt)
    cells = sums[L]
    order = _morton_order(n, L)
    bad_cells = sorted(order[z] for z in compress(range(len(outside)), outside)
                       if crosses(cells[z] * alpha_den, bar))
    failures = (
        [f"stopping cube {q} does not cross {alpha}" for q in named(not_crossing)]
        + ["root listed as a stopping cube" if q.level == 0
           else f"father of {q} also crosses {alpha}" for q in named(bad_fathers)]
        + [f"parent {p} crosses {alpha}" for p in named(bad_parents)]
        + [f"cell {c} outside E crosses {alpha}" for c in bad_cells])
    ok_measure = d.measure_E_star <= (1 << n) * d.measure_E
    if not ok_measure:
        failures.append(
            f"|E*| = {d.measure_E_star} exceeds 2^n |E| = {(1 << n) * d.measure_E}")
    return StoppingReport(stopping_cross=not not_crossing,
                          fathers_do_not_cross=not bad_fathers,
                          parents_do_not_cross=not bad_parents,
                          complement_clean=not bad_cells,
                          cover_measure_ok=ok_measure, failures=tuple(failures))


@st.composite
def corrupted_families(draw):
    """(f, pairs, cubes): a decomposition of f at one of its thresholds,
    each family changed at every level, the root's included (a cube of the
    level added, one dropped, or one put in its child's or father's place),
    once as pairs of f and once as public cubes in a shuffled order."""
    f = draw(signed_functions().filter(lambda g: g.depth > 0))
    n, L = f.dim, f.depth
    alpha, direction = draw(st.sampled_from(_alphas(f)))
    d = stopping_family(f, alpha, direction)
    families = [list(d._pairs[1]), list(d._pairs[2])]
    for k in range(L + 1):
        for family in families:
            at_k = [p for p in family if p[0] == k]
            move = draw(st.sampled_from(("keep", "add", "drop", "child", "father")))
            if move == "add":
                family.append((k, draw(st.integers(0, (1 << n * k) - 1))))
            elif at_k and move != "keep":
                p = draw(st.sampled_from(at_k))
                family.remove(p)
                if move == "child" and k < L:
                    family.append((k + 1, (p[1] << n) + draw(st.integers(0, (1 << n) - 1))))
                elif move == "father" and k > 0:
                    family.append((k - 1, p[1] >> n))
    stopping, cover = (draw(st.permutations(family)) for family in families)
    fields = dict(threshold=Fraction(alpha), direction=direction,
                  measure_E=_measure(f, stopping), measure_E_star=_measure(f, cover))
    pairs = CZDecomposition._of_pairs(f, stopping, cover, **fields)
    by_pair = {p: f._cubes([p])[0] for p in {*stopping, *cover}}
    cubes = CZDecomposition(stopping_cubes=tuple(map(by_pair.get, stopping)),
                            parent_cover=tuple(map(by_pair.get, cover)), **fields)
    return f, pairs, cubes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted_families())
def test_per_level_decision_equals_the_per_pair_reference(case):
    f, pairs, cubes = case
    for d in (pairs, cubes):
        assert verify_stopping(d, f) == verify_stopping_per_pair(d, f)
