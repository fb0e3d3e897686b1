"""Exponential distribution and logarithmic rearrangement bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import (DyadicFunction, InputError, JNConstants,
                       PreconditionError, bmo_dyadic_norm, distribution_above,
                       jn_abs_check, jn_check, logbound_check)
from conftest import count_above_oracle, random_function, random_nonneg


class TestConstants:
    def test_values(self):
        c1 = JNConstants(1)
        assert c1.b_scale == 1
        assert c1.b == pytest.approx(1 / math.e, rel=1e-12)
        assert c1.B == pytest.approx(math.e, rel=1e-12)
        c3 = JNConstants(3)
        assert c3.b_scale == Fraction(1, 4)
        assert c3.b == pytest.approx(1 / (4 * math.e), rel=1e-12)


class TestLogBound:
    def test_plus_minus_one(self):
        f = DyadicFunction(1, 1, [1, -1])
        lhs, rhs = logbound_check(f, Fraction(1, 2))
        assert lhs == 1
        assert rhs == pytest.approx(math.e * (1 + math.log(2)), rel=1e-12)
        assert lhs <= rhs

    def test_zero_function(self):
        f = DyadicFunction(1, 1, [0, 0])
        lhs, rhs = logbound_check(f, Fraction(1, 2))
        assert lhs == 0
        assert rhs == 0.0

    def test_deep_spike(self):
        f = DyadicFunction(1, 2, [3, -1, -1, -1])
        lhs, rhs = logbound_check(f, Fraction(1, 4))
        assert lhs == 3
        # norm is 2, attained on the left half
        assert bmo_dyadic_norm(f) == 2
        assert rhs == pytest.approx(math.e * 2 * math.log(4 * math.e), rel=1e-12)
        assert lhs <= rhs

    def test_rejects_nonzero_mean(self):
        with pytest.raises(PreconditionError):
            logbound_check(DyadicFunction(1, 1, [1, 0]), Fraction(1, 2))

    def test_rejects_bad_t(self):
        f = DyadicFunction(1, 1, [1, -1])
        with pytest.raises(InputError):
            logbound_check(f, 0)

    def test_holds_at_breakpoints_randomized(self):
        rng = random.Random(17)
        from dyadicbmo import rearrange_signed
        checks = 0
        while checks < 400:
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            f = f.shifted(-f.mean)
            gd = rearrange_signed(f)
            for t in gd.breakpoints[1:]:
                lhs, rhs = logbound_check(f, t)
                assert Fraction(lhs) <= Fraction(rhs) + Fraction(1, 10 ** 12)
                checks += 1


class TestJNCheck:
    def test_two_cells(self):
        f = DyadicFunction(1, 1, [1, 0])
        measure, bound = jn_check(f, Fraction(1, 4))
        assert measure == Fraction(1, 2)
        assert bound == pytest.approx(math.e * math.exp(-1 / (2 * math.e)),
                                      rel=1e-12)

    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        measure, bound = jn_check(f, 2)
        assert measure == Fraction(1, 4)
        assert bound == pytest.approx(math.e * math.exp(-1 / math.e), rel=1e-12)

    def test_above_range_measure_zero(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        measure, bound = jn_check(f, 4)
        assert measure == 0
        assert measure <= bound

    def test_constant_trivial(self):
        f = DyadicFunction(2, 1, [3, 3, 3, 3])
        measure, bound = jn_check(f, 1)
        assert measure == 0
        assert bound == 0.0

    def test_rejects_nonpositive_lambda(self):
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            jn_check(f, 0)

    def test_grid_randomized(self):
        rng = random.Random(23)
        tol = Fraction(1, 10 ** 12)
        for _ in range(120):
            n = rng.choice([1, 2, 3])
            depth = rng.randrange(0, {1: 5, 2: 3, 3: 2}[n] + 1)
            f = random_function(rng, n, depth)
            spread = max(f.cells) - min(f.cells)
            if spread == 0:
                continue
            prev_measure = None
            prev_bound = None
            for i in range(1, 33):
                lam = 2 * spread * Fraction(i, 32)
                measure, bound = jn_check(f, lam)
                assert Fraction(measure) <= Fraction(bound) + tol
                if prev_measure is not None:
                    assert measure <= prev_measure
                    assert bound < prev_bound
                prev_measure, prev_bound = measure, bound


class TestJNAbs:
    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        measure, bound = jn_abs_check(f, Fraction(1, 2))
        assert measure == 1  # every cell deviates from the mean by > 1/2
        assert measure <= bound

    def test_two_cells(self):
        f = DyadicFunction(1, 1, [1, 0])
        measure, bound = jn_abs_check(f, Fraction(1, 4))
        assert measure == 1
        assert bound == pytest.approx(math.e * math.exp(-1 / (2 * math.e)),
                                      rel=1e-12)

    def test_constant(self):
        f = DyadicFunction(1, 1, [2, 2])
        measure, bound = jn_abs_check(f, 1)
        assert measure == 0

    def test_rejects_signed(self):
        with pytest.raises(PreconditionError):
            jn_abs_check(DyadicFunction(1, 1, [1, -1]), 1)

    def test_decomposes_into_one_sided(self, rng):
        for _ in range(80):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(3))
            spread = max(f.cells) - min(f.cells)
            if spread == 0:
                continue
            lam = spread * Fraction(rng.randrange(1, 9), 8)
            measure, _ = jn_abs_check(f, lam)
            up = distribution_above(f, lam, f.mean)
            down = distribution_above(f.scaled(-1), lam, -f.mean)
            assert measure == up + down

    def test_measure_matches_cell_count(self):
        # brute force over the public cells, both tails, strict inequalities;
        # lambdas hit cell values exactly so boundary cells are exercised
        rng = random.Random(13)
        for _ in range(120):
            n = rng.choice([1, 2, 3])
            f = random_nonneg(rng, n, rng.randrange(4 if n < 3 else 3))
            center = f.mean
            for v in set(f.cells) | {center + 1}:
                lam = abs(v - center)
                if lam == 0:
                    continue
                count = sum(1 for c in f.cells if abs(c - center) > lam)
                measure, _ = jn_abs_check(f, lam)
                assert measure == Fraction(count, len(f.cells))

    def test_grid_randomized(self, rng):
        tol = Fraction(1, 10 ** 12)
        for _ in range(100):
            f = random_nonneg(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            spread = max(f.cells) - min(f.cells)
            if spread == 0:
                continue
            for i in range(1, 33, 4):
                lam = 2 * spread * Fraction(i, 32)
                measure, bound = jn_abs_check(f, lam)
                assert Fraction(measure) <= Fraction(bound) + tol


# -- counts by bisection against one comparison per cell -----------------------

@st.composite
def mixed_functions(draw):
    """Signed cells over mixed denominators, few distinct values (ties)."""
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(0, {1: 4, 2: 2, 3: 1}[n]))
    pool = draw(st.lists(st.builds(Fraction, st.integers(-40, 40),
                                   st.sampled_from((1, 2, 3, 5, 8, 12))),
                         min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=1 << (n * depth),
                          max_size=1 << (n * depth)))
    return DyadicFunction(n, depth, cells)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=mixed_functions(), data=st.data())
def test_distribution_above_matches_count(f, data):
    # thresholds at cell values exactly, just beside them, and anywhere
    at = st.sampled_from(sorted(set(f.cells)))
    beside = st.tuples(at, st.sampled_from((-1, 1))).map(
        lambda vs: vs[0] + Fraction(vs[1], 10 ** 9))
    thr = data.draw(st.one_of(at, beside, st.fractions(-50, 50, max_denominator=30)))
    center = data.draw(st.sampled_from([f.mean, Fraction(0), f.cells[0]]))
    assert distribution_above(f, thr - center, center) == count_above_oracle(f, thr)
