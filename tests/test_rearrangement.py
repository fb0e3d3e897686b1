"""Rearrangements, Hardy averages, interval oscillations, gap inequality."""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import (DyadicFunction, InputError, PreconditionError,
                       StepFunction1D, hardy_average, hardy_gap_check,
                       interval_bmo_norm, interval_mean_oscillation,
                       rearrange_abs,
                       rearrange_signed, supinf_formula,
                       value_mass_distribution)
from conftest import (integral_to_oracle, interval_mean_oscillation_oracle,
                      merged_oracle, prefix_integrals_oracle, random_function,
                      random_nonneg, value_at_oracle, window_oscillation_oracle)


def sort_oracle(f, absolute=False):
    """(value, mass) steps by plain sorting, no merging logic."""
    mass = Fraction(1, len(f.cells))
    vals = sorted((abs(v) if absolute else v for v in f.cells), reverse=True)
    return [(v, mass) for v in vals]


def eval_steps(steps, t):
    """Left-continuous evaluation of a (value, mass) list at t."""
    acc = Fraction(0)
    for v, m in steps:
        acc += m
        if t <= acc:
            return v
    raise AssertionError("t beyond domain")


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(InputError):
            StepFunction1D([0, 1], [])
        with pytest.raises(InputError):
            StepFunction1D([0, Fraction(1, 2)], [1])
        with pytest.raises(InputError):
            StepFunction1D([0, Fraction(1, 2), Fraction(1, 2), 1], [1, 2, 3])

    def test_left_continuity(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [3, 1])
        assert g.value_at(Fraction(1, 2)) == 3
        assert g.value_at(Fraction(1, 2) + Fraction(1, 100)) == 1
        assert g.value_at(1) == 1

    def test_integral(self):
        g = StepFunction1D([0, Fraction(1, 4), 1], [4, 0])
        assert g.integral == 1
        assert g.integral_to(Fraction(1, 8)) == Fraction(1, 2)

    def test_merged(self):
        g = StepFunction1D([0, Fraction(1, 4), Fraction(1, 2), 1], [2, 2, 1])
        h = g.merged()
        assert h.breakpoints == (0, Fraction(1, 2), 1)
        assert h.values == (2, 1)
        assert h.merged() is h  # nothing left to merge

    def test_reflect_negate(self):
        g = StepFunction1D([0, Fraction(1, 4), 1], [4, 0])
        r = g.reflected()
        assert r.breakpoints == (0, Fraction(3, 4), 1)
        assert r.values == (0, 4)
        assert r.negated().is_nonincreasing
        assert g.negated().is_nondecreasing


    def test_derived_functions_hold_fractions(self):
        # derived functions skip validation; they must still hold tuples of
        # Fractions equal to a validated build of the same pieces
        g = StepFunction1D([0, Fraction(1, 3), Fraction(1, 2), 1], [2, 2, -1])
        f = DyadicFunction(1, 2, [3, -1, 3, 0])
        for h in (g.merged(), g.negated(), g.reflected(), rearrange_signed(f)):
            assert type(h.breakpoints) is tuple and type(h.values) is tuple
            assert all(type(x) is Fraction for x in h.breakpoints + h.values)
            assert h == StepFunction1D(list(h.breakpoints), list(h.values))

class TestRearrange:
    def test_sort_example(self):
        f = DyadicFunction(1, 2, [0, 4, 0, 0])
        g = rearrange_signed(f)
        assert g.breakpoints == (0, Fraction(1, 4), 1)
        assert g.values == (4, 0)

    def test_already_sorted_identity(self):
        f = DyadicFunction(1, 2, [5, 3, 2, 1])
        g = rearrange_signed(f)
        assert g.values == (5, 3, 2, 1)
        assert g.breakpoints == (0, Fraction(1, 4), Fraction(1, 2),
                                 Fraction(3, 4), 1)

    def test_signed(self):
        f = DyadicFunction(1, 1, [-1, 1])
        g = rearrange_signed(f)
        assert g.values == (1, -1)
        assert rearrange_abs(f).values == (1,)  # constant 1 after |.|

    def test_abs_of_zero(self):
        f = DyadicFunction(1, 1, [0, 0])
        assert rearrange_abs(f).values == (0,)

    def test_nonneg_signed_equals_abs(self, rng):
        for _ in range(200):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(4))
            assert rearrange_signed(f) == rearrange_abs(f)

    def test_equimeasurable_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            g = rearrange_signed(f)
            assert value_mass_distribution(f) == value_mass_distribution(g)
            h = rearrange_abs(f)
            assert value_mass_distribution(f.abs()) == value_mass_distribution(h)
            # distribution functions agree at every value in the merged set
            for lam in set(f.cells) | set(g.values):
                mf = Fraction(sum(1 for v in f.cells if v > lam), len(f.cells))
                mg = sum((hi - lo for lo, hi, v in g.pieces() if v > lam),
                         Fraction(0))
                assert mf == mg

    def test_matches_sorted_fraction_oracle(self):
        # mixed cell denominators, so the common denominator is nontrivial
        rng = random.Random(11)
        for _ in range(150):
            n = rng.choice([1, 2, 3])
            depth = rng.randrange(4 if n < 3 else 3)
            cells = [Fraction(rng.randrange(-6, 7), rng.choice((1, 3, 4, 10)))
                     for _ in range(1 << (n * depth))]
            bps, vals = [Fraction(0)], []
            for v, m in sort_oracle(DyadicFunction(n, depth, cells)):
                if vals and vals[-1] == v:
                    bps[-1] += m
                else:
                    vals.append(v)
                    bps.append(bps[-1] + m)
            g = rearrange_signed(DyadicFunction(n, depth, cells))
            assert g.breakpoints == tuple(bps)
            assert g.values == tuple(vals)
            assert g.merged() is g

    def test_output_nonincreasing_and_integral_preserved(self, rng):
        for _ in range(200):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(4))
            g = rearrange_signed(f)
            assert g.is_nonincreasing
            assert g.integral == f.mean

    def test_recorded_shape(self):
        # the rearrangement is recorded as merged and nonincreasing; both
        # flags agree with the oracle and with the values, and the same
        # integers without the flags give the same interval-BMO bound
        rng = random.Random(25)
        for _ in range(150):
            n = rng.choice([1, 2, 3])
            f = random_function(rng, n, rng.randrange(7 // n), lo=-2, hi=2,
                                denom_bits=rng.choice((0, 1, 3)))
            g = rearrange_signed(f)
            V = g._V
            assert g._cache["merged"] is (merged_oracle(g) == (g.breakpoints,
                                                               g.values))
            assert g._cache["merged"] is all(a != b for a, b in zip(V, V[1:]))
            assert g._cache["nonincreasing"] is all(a >= b for a, b in zip(V, V[1:]))
            plain = StepFunction1D._from_ints(g._td, g._B, g._vd, V)
            assert "merged" not in plain._cache
            assert "nonincreasing" not in plain._cache
            assert plain == g
            assert interval_bmo_norm(plain) == interval_bmo_norm(g)


class TestSupInf:
    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert supinf_formula(f, Fraction(1, 4)) == 4

    def test_full_mass_is_min(self):
        f = DyadicFunction(1, 2, [4, -2, 1, 3])
        assert supinf_formula(f, 1) == 1  # min |value|

    def test_half(self):
        f = DyadicFunction(1, 1, [1, 0])
        assert supinf_formula(f, Fraction(1, 2)) == 1

    def test_rejects_unaligned(self):
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            supinf_formula(f, Fraction(1, 3))
        with pytest.raises(InputError):
            supinf_formula(f, 0)

    def test_agrees_with_rearrangement_everywhere(self, rng):
        for _ in range(150):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            g = rearrange_abs(f)
            total = len(f.cells)
            for k in range(1, total + 1):
                t = Fraction(k, total)
                assert supinf_formula(f, t) == g.value_at(t)

    def test_agrees_with_sort_oracle(self, rng):
        for _ in range(100):
            f = random_function(rng, 1, 3)
            steps = sort_oracle(f, absolute=True)
            for k in range(1, 9):
                t = Fraction(k, 8)
                assert supinf_formula(f, t) == eval_steps(steps, t)


class TestHardy:
    def test_prefix_oracle(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [1, 0])
        assert hardy_average(g, Fraction(3, 4)) == Fraction(2, 3)

    def test_within_first_piece(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [7, 0])
        assert hardy_average(g, Fraction(1, 8)) == 7

    def test_spike(self):
        g = StepFunction1D([0, Fraction(1, 4), 1], [4, 0])
        assert hardy_average(g, Fraction(1, 2)) == 2

    def test_rejects_out_of_domain(self):
        g = StepFunction1D([0, 1], [1])
        with pytest.raises(InputError):
            hardy_average(g, 0)
        with pytest.raises(InputError):
            hardy_average(g, 2)

    def test_dominates_and_nonincreasing_for_rearrangements(self, rng):
        # f* <= f** pointwise and f** is nonincreasing
        for _ in range(100):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(3))
            g = rearrange_abs(f)
            total = len(f.cells)
            prev = None
            for k in range(1, total + 1):
                t = Fraction(k, total)
                h = hardy_average(g, t)
                assert g.value_at(t) <= h
                if prev is not None:
                    assert h <= prev
                prev = h


class TestIntervalOscillation:
    def test_piece_sum_example(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [1, 0])
        assert interval_mean_oscillation(g, Fraction(1, 4), Fraction(3, 4)) \
            == Fraction(1, 2)
        assert interval_mean_oscillation(g, 0, 1) == Fraction(1, 2)

    def test_inside_one_piece(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [1, 0])
        assert interval_mean_oscillation(g, Fraction(1, 8), Fraction(3, 8)) == 0

    def test_rejects_degenerate(self):
        g = StepFunction1D([0, 1], [1])
        with pytest.raises(InputError):
            interval_mean_oscillation(g, Fraction(1, 2), Fraction(1, 2))

    def test_matches_dyadic_oscillation(self, rng):
        # on dyadic intervals the 1d step-function oscillation of the cell
        # profile equals the cube oscillation
        from dyadicbmo import DyadicCubeId, mean_oscillation
        for _ in range(80):
            f = random_function(rng, 1, 3)
            g = StepFunction1D(
                [Fraction(k, 8) for k in range(9)], list(f.cells))
            level = rng.randrange(4)
            idx = rng.randrange(1 << level)
            q = DyadicCubeId(level, (idx,))
            a = Fraction(idx, 1 << level)
            b = Fraction(idx + 1, 1 << level)
            assert interval_mean_oscillation(g, a, b) \
                == mean_oscillation(f, q).oscillation


    def test_matches_piecewise_oracle(self, rng):
        # nonincreasing inputs take the bisection path, the rest the piece
        # sum; both must agree with the oracle on every window tried
        monotone = 0
        for i in range(150):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(4))
            g = rearrange_signed(f)
            if i % 3 == 2:
                g = StepFunction1D(g.breakpoints, list(f.cells[:len(g.values)]))
            monotone += g.is_nonincreasing
            pts = sorted(set(g.breakpoints)
                         | {Fraction(k, 12) for k in range(13)}
                         | {(lo + hi) / 2 for lo, hi, _ in g.pieces()})
            windows = [(0, 1)] + [sorted(rng.sample(pts, 2)) for _ in range(40)]
            for a, b in windows:
                assert interval_mean_oscillation(g, a, b) \
                    == window_oscillation_oracle(g, a, b)
        assert monotone >= 100


class TestHardyGap:
    def test_equality_case(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [1, 0])
        lhs, rhs = hardy_gap_check(g, 1, 2)
        assert lhs == Fraction(1, 2)
        assert rhs == Fraction(1, 2)

    def test_constant(self):
        g = StepFunction1D([0, 1], [5])
        lhs, rhs = hardy_gap_check(g, Fraction(1, 2), 2)
        assert lhs == 0
        assert rhs == 0

    def test_spike(self):
        g = StepFunction1D([0, Fraction(1, 4), 1], [4, 0])
        lhs, rhs = hardy_gap_check(g, Fraction(1, 2), 2)
        assert lhs == 2
        assert rhs >= 2
        assert rhs == 2  # computed: (2/2)*(1/(1/2))*int_0^(1/2)|g-2|

    def test_rejects_non_monotone(self):
        g = StepFunction1D([0, Fraction(1, 2), 1], [0, 1])
        with pytest.raises(PreconditionError):
            hardy_gap_check(g, 1, 2)

    def test_rejects_bad_gamma(self):
        g = StepFunction1D([0, 1], [1])
        with pytest.raises(PreconditionError):
            hardy_gap_check(g, 1, 1)

    def test_inequality_randomized(self):
        rng = random.Random(13)
        checks = 0
        while checks < 1000:
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(4))
            g = rearrange_signed(f)
            t = Fraction(rng.randrange(1, 17), 16)
            gamma = 1 + Fraction(rng.randrange(1, 33), 8)
            lhs, rhs = hardy_gap_check(g, t, gamma)
            assert lhs <= rhs
            checks += 1


# -- the integer representation against the Fraction readers ----------------

rationals = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from((1, 2, 3, 4, 7, 16)))


@st.composite
def step_functions(draw):
    """1-8 pieces, breakpoints with mixed denominators, values from a pool
    small enough to tie often; sorted down, up or not at all, so both
    interval-oscillation paths run."""
    cuts = draw(st.sets(st.builds(Fraction, st.integers(1, 47),
                                  st.sampled_from((48, 49, 60))),
                        max_size=7))
    pool = draw(st.lists(rationals, min_size=1, max_size=4, unique=True))
    vals = draw(st.lists(st.sampled_from(pool), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    order = draw(st.sampled_from(("down", "up", "none")))
    if order != "none":
        vals.sort(reverse=order == "down")
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], vals)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=step_functions(), k=st.integers(1, 12), j=st.integers(1, 12))
def test_integer_form_matches_fraction_readers(g, k, j):
    bps, vals = g.breakpoints, g.values
    # _from_ints reduces a scaled-up integer form to the canonical one
    td = k * lcm(*(t.denominator for t in bps))
    vd = j * lcm(*(v.denominator for v in vals))
    h = StepFunction1D._from_ints(td, tuple(int(t * td) for t in bps),
                                  vd, tuple(int(v * vd) for v in vals))
    assert h == g
    assert (h.breakpoints, h.values) == (bps, vals)
    assert StepFunction1D(h.breakpoints, h.values) == h
    assert h.prefix_integrals == g.prefix_integrals == prefix_integrals_oracle(g)
    assert g.integral == prefix_integrals_oracle(g)[-1]
    m = g.merged()
    assert (m.breakpoints, m.values) == merged_oracle(g)
    assert m == StepFunction1D(*merged_oracle(g))
    assert g.negated() == StepFunction1D(bps, [-v for v in vals])
    assert g.reflected() == StepFunction1D([1 - t for t in reversed(bps)],
                                           vals[::-1])
    assert g.is_nonincreasing == all(u >= v for u, v in zip(vals, vals[1:]))
    assert g.is_nondecreasing == all(u <= v for u, v in zip(vals, vals[1:]))
    pts = sorted(set(bps) | {Fraction(i, 10) for i in range(11)}
                 | {(lo + hi) / 2 for lo, hi in zip(bps, bps[1:])})
    for t in pts:
        assert g.integral_to(t) == integral_to_oracle(g, t)
        if t > 0:
            assert g.value_at(t) == value_at_oracle(g, t)
            assert hardy_average(g, t) == integral_to_oracle(g, t) / t
    for a, b in zip(pts, pts[3:]):
        assert interval_mean_oscillation(g, a, b) \
            == interval_mean_oscillation_oracle(g, a, b) \
            == window_oscillation_oracle(g, a, b)


cell_values = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 3, 4, 10)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([(1, 0), (1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
       .flatmap(lambda nd: st.tuples(st.just(nd), st.lists(
           cell_values, min_size=1 << (nd[0] * nd[1]),
           max_size=1 << (nd[0] * nd[1])))))
def test_rearrangement_is_equimeasurable(case):
    """At every cell value lam, the sets {f > lam} and {f = lam} have the
    same measure as {f* > lam} and {f* = lam}, read off the pieces."""
    (n, depth), cells = case
    f = DyadicFunction(n, depth, cells)
    g = rearrange_signed(f)
    for lam in set(cells):
        above = sum((hi - lo for lo, hi, v in g.pieces() if v > lam), Fraction(0))
        level = sum((hi - lo for lo, hi, v in g.pieces() if v == lam), Fraction(0))
        assert above == Fraction(sum(v > lam for v in cells), len(cells))
        assert level == Fraction(cells.count(lam), len(cells))


def counter_reference(f):
    """The rearrangement by counting: distinct numerators, largest first,
    each piece as long as its count."""
    vals, counts = zip(*sorted(Counter(f._nums).items(), reverse=True))
    return StepFunction1D._from_ints(len(f._nums), tuple(accumulate(counts, initial=0)),
                                     f._den, vals)


@st.composite
def grid_functions(draw):
    """n = 1..3 on small grids, depth 0 included; signed, nonnegative,
    constant or few-valued cells, with mixed denominators."""
    n, depth = draw(st.sampled_from([(1, 0), (1, 1), (1, 4), (2, 0), (2, 1),
                                     (2, 2), (3, 0), (3, 1)]))
    size = 1 << (n * depth)
    kind = draw(st.sampled_from(("signed", "nonneg", "constant", "few")))
    if kind == "constant":
        cells = [draw(cell_values)] * size
    else:
        pool = (st.sampled_from(draw(st.lists(cell_values, min_size=1, max_size=3)))
                if kind == "few" else cell_values)
        cells = draw(st.lists(pool, min_size=size, max_size=size))
        if kind == "nonneg":
            cells = [abs(v) for v in cells]
    return DyadicFunction(n, depth, cells)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_functions())
def test_rearrangement_matches_counting_reference(f):
    assert rearrange_signed(f) == counter_reference(f)
    assert rearrange_abs(f) == counter_reference(f.abs())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(f=grid_functions(), data=st.data())
def test_shift_carries_the_rearrangement(f, data):
    """f + c carries f's signed rearrangement with its values moved by c,
    for c = 0, c < 0, c with a new denominator and c = minus a cell value
    (a zero value): the one built from scratch, recorded merged and
    nonincreasing, sharing f*'s breakpoints and carrying no sorted list."""
    kind = data.draw(st.sampled_from(("zero", "negative", "new denominator",
                                      "minus a cell")))
    c = data.draw({
        "zero": st.just(Fraction(0)),
        "negative": st.builds(Fraction, st.integers(-9, -1), st.sampled_from((1, 3, 4))),
        "new denominator": st.builds(Fraction, st.integers(-9, 9),
                                     st.sampled_from((7, 11, 35))),
        "minus a cell": st.sampled_from(f.cells).map(lambda v: -v)}[kind])
    base = rearrange_signed(f)
    g = f.shifted(c)
    carried = g._cache["rearr_signed"]
    assert "sorted" not in g._cache
    assert carried._B is base._B
    assert carried._cache["merged"] is carried._cache["nonincreasing"] is True
    if kind == "minus a cell":
        assert 0 in carried.values
    fresh = DyadicFunction(f.dim, f.depth, [v + c for v in f.cells])
    assert g == fresh
    assert rearrange_signed(g) is carried
    assert carried == rearrange_signed(fresh) == counter_reference(fresh)
    assert carried.values == tuple(v + c for v in base.values)


def test_shift_without_a_rearrangement_carries_none():
    f = DyadicFunction(1, 2, [3, -1, Fraction(1, 2), 3])
    f._sorted_nums()
    g = f.shifted(Fraction(-2, 3))
    assert "rearr_signed" not in g._cache and "sorted" not in g._cache
    assert rearrange_signed(g) == counter_reference(g)
    assert g._cache["sorted"] == sorted(g._nums)
