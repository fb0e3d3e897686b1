"""Certified interval BMO norm: closed forms, oracles, path cross-checks."""

import random
from fractions import Fraction

import pytest

from dyadicbmo import (DyadicFunction, InputError, StepFunction1D,
                       bmo_dyadic_norm, interval_bmo_norm,
                       interval_mean_oscillation, rearrange_signed)
from dyadicbmo.generators import GeneratorSpec, generate
from dyadicbmo.interval_bmo import _general_norm, _monotone_norm
from conftest import (general_norm_oracle, grid_bmo_lower_oracle,
                      monotone_norm_oracle, random_function)


def random_step(rng, pieces, lo=-6, hi=6, den=16):
    cuts = sorted(rng.sample(range(1, den), pieces - 1)) if pieces > 1 else []
    bps = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    vals = [Fraction(rng.randrange(lo * 4, hi * 4 + 1), 4) for _ in range(pieces)]
    return StepFunction1D(bps, vals)


class TestTwoPiece:
    def test_balanced_jump_exact(self):
        # sup is (v1-v2)/2 wherever the breakpoint sits, attained on a
        # balanced window around the jump
        for s_num in (1, 3, 5, 7, 9, 15):
            g = StepFunction1D([0, Fraction(s_num, 16), 1], [3, -2])
            b = interval_bmo_norm(g)
            assert b.lower == Fraction(5, 2)
            a, bt = b.witness
            assert interval_mean_oscillation(g, a, bt) == Fraction(5, 2)

    def test_constant(self):
        g = StepFunction1D([0, 1], [42])
        b = interval_bmo_norm(g)
        assert b.lower == 0
        assert b.upper == 0.0
        assert b.tol_met

    def test_rearranged_square_wave(self):
        g = rearrange_signed(DyadicFunction(1, 2, [1, 0, 1, 0]))
        assert interval_bmo_norm(g).lower == Fraction(1, 2)


class TestAgainstDenseGrid:
    def test_monotone_beats_grid(self, rng):
        for _ in range(40):
            g = random_step(rng, rng.randrange(1, 6))
            g = StepFunction1D(g.breakpoints, sorted(g.values, reverse=True))
            b = interval_bmo_norm(g)
            oracle = grid_bmo_lower_oracle(g)
            assert b.lower >= oracle          # exact sup dominates any grid
            assert float(oracle) <= b.upper

    def test_general_beats_grid(self, rng):
        for _ in range(40):
            g = random_step(rng, rng.randrange(2, 6))
            b = interval_bmo_norm(g)
            oracle = grid_bmo_lower_oracle(g)
            assert b.lower >= oracle
            assert float(oracle) <= b.upper

    def test_witness_attains_lower(self, rng):
        for _ in range(60):
            g = random_step(rng, rng.randrange(1, 7))
            b = interval_bmo_norm(g)
            a, t = b.witness
            if a == t:
                assert b.lower == 0
            else:
                assert interval_mean_oscillation(g, a, t) == b.lower


def random_monotone(rng, pieces, increasing=False):
    """Monotone step function with mixed breakpoint and value denominators
    and many tied values (adjacent ties are left unmerged)."""
    dens = (2, 3, 5, 7, 8, 12, 64)
    cuts = set()
    while len(cuts) < pieces - 1:
        d = rng.choice(dens)
        cuts.add(Fraction(rng.randrange(1, d), d))
    bps = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
    pool = [Fraction(rng.randrange(-12, 13), rng.choice((1, 3, 16)))
            for _ in range(rng.randrange(1, pieces + 1))]
    vals = sorted((rng.choice(pool) for _ in range(pieces)),
                  reverse=not increasing)
    return StepFunction1D(bps, vals)


class TestIntegerMonotonePath:
    def test_matches_fraction_oracle(self):
        # same sup and the same witness, tie-break included
        rng = random.Random(41)
        for _ in range(120):
            g = random_monotone(rng, rng.randrange(2, 41))
            for h in (g, g.merged()):
                assert _monotone_norm(h) == monotone_norm_oracle(h)

    def test_nondecreasing_matches_negated_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_monotone(rng, rng.randrange(2, 41), increasing=True)
            for h in (g, g.merged()):
                assert _monotone_norm(h) == monotone_norm_oracle(h.negated())

    def test_public_bound_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_monotone(rng, rng.randrange(2, 21),
                                increasing=rng.random() < 0.5)
            h = g.merged()
            if len(h.values) == 1:
                continue
            b = interval_bmo_norm(g)
            dec = h if h.is_nonincreasing else h.negated()
            assert (b.lower, b.witness) == monotone_norm_oracle(dec)


def random_general(rng, pieces):
    """Step function with non-uniform breakpoints of mixed denominators;
    half the time few-valued (many ties, two-valued included), otherwise
    values of mixed denominators."""
    dens = (2, 3, 4, 5, 7, 8, 12, 16)
    cuts = set()
    while len(cuts) < pieces - 1:
        d = rng.choice(dens)
        cuts.add(Fraction(rng.randrange(1, d), d))
    bps = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
    if rng.random() < 0.5:
        pool = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3)))
                for _ in range(rng.randrange(2, 4))]
        vals = [rng.choice(pool) for _ in range(pieces)]
    else:
        vals = [Fraction(rng.randrange(-12, 13), rng.choice((1, 3, 4, 16)))
                for _ in range(pieces)]
    return StepFunction1D(bps, vals)


def max_half_jump(g):
    return max(abs(a - b) for a, b in zip(g.values, g.values[1:])) / 2


class TestIntegerGeneralPath:
    def test_matches_fraction_oracle(self):
        # same sup and the same witness as the unpruned Fraction version
        rng = random.Random(51)
        seen = 0
        while seen < 220:
            g = random_general(rng, rng.randrange(2, 10)).merged()
            if len(g.values) < 2 or g.is_nonincreasing or g.is_nondecreasing:
                continue
            seen += 1
            assert _general_norm(g) == general_norm_oracle(g)

    def test_sup_at_the_pruning_seed(self):
        # two- and three-valued functions: the sup is max|jump|/2, the
        # value pruning compares against, and bands whose bound equals it
        # exactly hold the witness
        rng = random.Random(52)
        at_seed = 0
        for _ in range(80):
            m = rng.randrange(3, 9)
            pool = rng.sample([Fraction(k, 2) for k in range(-4, 5)],
                              rng.choice((2, 3)))
            vals = [rng.choice(pool) for _ in range(m)]
            g = StepFunction1D([Fraction(k, m) for k in range(m + 1)],
                               vals).merged()
            if len(g.values) < 2:
                continue
            got = _general_norm(g)
            assert got == general_norm_oracle(g)
            at_seed += got[0] == max_half_jump(g)
        assert at_seed >= 40

    def test_square_waves(self):
        # two-valued: every pair and every band is bounded exactly by the seed
        for m in range(2, 9):
            for lo, hi in ((0, 1), (Fraction(-1, 3), Fraction(5, 7))):
                vals = [hi if k % 2 == 0 else lo for k in range(m)]
                g = StepFunction1D([Fraction(k, m) for k in range(m + 1)], vals)
                got = _general_norm(g)
                assert got[0] == (hi - lo) / 2
                assert got == general_norm_oracle(g)

    def test_lines_of_critical_points(self, monkeypatch):
        # the oracle adds the feasible midpoint of a line of critical points;
        # 2F/T^2 is constant on it, so the integer path, which has no such
        # candidate, keeps the same sup and witness
        import conftest
        line_midpoint = conftest._line_midpoint_oracle
        hits = []

        def counted(*args):
            y = line_midpoint(*args)
            hits.append(y is not None)
            return y

        monkeypatch.setattr(conftest, "_line_midpoint_oracle", counted)
        rng = random.Random(54)
        seen = 0
        while seen < 60:
            m = rng.randrange(3, 7)
            pool = [Fraction(k, 2) for k in rng.sample(range(-4, 5), 3)]
            cuts = sorted(rng.sample(range(1, 12), m - 1))
            g = StepFunction1D([Fraction(c, 12) for c in [0, *cuts, 12]],
                               [rng.choice(pool) for _ in range(m)]).merged()
            if len(g.values) < 2 or g.is_nonincreasing or g.is_nondecreasing:
                continue
            seen += 1
            assert _general_norm(g) == general_norm_oracle(g)
        assert sum(hits) >= 60

    def test_bench_sized_inputs(self):
        # uniform-cells functions as the interval-bmo command sees them
        for seed, depth, kw in ((1, 4, {}), (2, 4, {}),
                                (3, 4, {"low": 0, "high": 4, "denom_bits": 2})):
            spec = GeneratorSpec(kind="uniform-cells", dim=1, depth=depth,
                                 seed=seed, **kw)
            f = generate(spec)
            g = StepFunction1D([Fraction(k, len(f.cells))
                                for k in range(len(f.cells) + 1)],
                               f.cells).merged()
            assert _general_norm(g) == general_norm_oracle(g)


def corner_means(g, i, j):
    """Window means at the corners of the box of pieces i < j (1-based):
    the window is pieces i..j with piece i and piece j each empty or whole.
    Adjacent pieces have no window at the (0, 0) corner."""
    bps, vals, P = g.breakpoints, g.values, g.prefix_integrals
    mid_len, mid_int = bps[j - 1] - bps[i], P[j - 1] - P[i]
    len_i, len_j = bps[i] - bps[i - 1], bps[j] - bps[j - 1]
    means = []
    for x, y in ((0, 0), (len_i, 0), (len_i, len_j), (0, len_j)):
        if mid_len + x + y:
            means.append((mid_int + vals[i - 1] * x + vals[j - 1] * y)
                         / (mid_len + x + y))
    return means


def witness_pieces(g, witness):
    """The pieces (i, j), 1-based, that hold the ends of a witness window."""
    a, b = witness
    bps = g.breakpoints
    return (next(k for k in range(1, len(bps)) if a < bps[k]),
            next(k for k in range(1, len(bps)) if b <= bps[k]))


class TestBoxPath:
    """The general path maximizes each band's 2F/T^2 over the whole piece-pair
    box and keeps the bands that the corner means reach; the polygon-clipping
    oracle decides the same sup and witness."""

    def test_corner_mean_on_a_window_value(self):
        # a corner mean equal to a distinct window value puts a band edge
        # exactly at an end of the mean range: the band must stay
        g = StepFunction1D([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1],
                           [4, 0, 2, 1])
        assert corner_means(g, 1, 4)[0] == 1 == g.values[3]
        assert _general_norm(g) == general_norm_oracle(g)
        rng = random.Random(55)
        hits = 0
        for _ in range(120):
            m = rng.randrange(3, 8)
            cuts = sorted(rng.sample(range(1, 12), m - 1))
            pool = [Fraction(k, 2) for k in rng.sample(range(-6, 7), 4)]
            g = StepFunction1D([Fraction(c, 12) for c in (0, *cuts, 12)],
                               [rng.choice(pool) for _ in range(m)]).merged()
            if len(g.values) < 2:
                continue
            m = len(g.values)
            for i in range(1, m):
                for j in range(i + 2, m + 1):
                    window = set(g.values[i - 1:j])
                    hits += any(mu in window and mu not in (min(window), max(window))
                                for mu in corner_means(g, i, j))
            assert _general_norm(g) == general_norm_oracle(g)
        assert hits >= 90

    def test_adjacent_pairs(self):
        # one jump much larger than the rest: the sup and its witness sit
        # in an adjacent pair, whose box has no middle pieces (M = 0)
        rng = random.Random(56)
        adjacent = 0
        for _ in range(60):
            m = rng.randrange(3, 9)
            cuts = sorted(rng.sample(range(1, 24), m - 1))
            vals = [Fraction(rng.randrange(0, 7), rng.choice((1, 3)))
                    for _ in range(m)]
            k = rng.randrange(1, m)
            vals[k:] = [v + 40 for v in vals[k:]]
            g = StepFunction1D([Fraction(c, 24) for c in (0, *cuts, 24)],
                               vals).merged()
            got = _general_norm(g)
            assert got == general_norm_oracle(g)
            i, j = witness_pieces(g, got[1])
            adjacent += j == i + 1
        assert adjacent >= 30

    def test_two_and_three_valued_unequal_pieces(self):
        rng = random.Random(57)
        seen = 0
        while seen < 80:
            m = rng.randrange(3, 10)
            cuts = sorted(rng.sample(range(1, 36), m - 1))
            pool = rng.sample([Fraction(k, 3) for k in range(-6, 7)],
                              rng.choice((2, 3)))
            g = StepFunction1D([Fraction(c, 36) for c in (0, *cuts, 36)],
                               [rng.choice(pool) for _ in range(m)]).merged()
            if g.is_nonincreasing or g.is_nondecreasing:
                continue
            seen += 1
            assert _general_norm(g) == general_norm_oracle(g)


class TestPathAgreement:
    def test_monotone_matches_general_path(self, rng):
        # run monotone inputs through the general piece-pair box path too
        cases = []
        for _ in range(60):
            g = random_step(rng, rng.randrange(2, 6))
            cases.append(StepFunction1D(g.breakpoints,
                                        sorted(g.values, reverse=True)))
        # mixed breakpoint and value denominators, both directions
        mixed = random.Random(44)
        for _ in range(40):
            cases.append(random_monotone(mixed, mixed.randrange(2, 7),
                                         increasing=mixed.random() < 0.5))
        for g in cases:
            g = g.merged()
            if len(g.values) == 1:
                continue
            mono, _ = _monotone_norm(g)
            general, _ = _general_norm(g)
            assert mono == general

    def test_nondecreasing_mirrors(self, rng):
        for _ in range(40):
            g = random_step(rng, rng.randrange(2, 6))
            inc = StepFunction1D(g.breakpoints, sorted(g.values))
            dec = StepFunction1D(g.breakpoints, sorted(g.values, reverse=True))
            # reversal changes the function but negation symmetry makes the
            # sup of the nondecreasing variant match its negated mirror
            assert interval_bmo_norm(inc).lower \
                == interval_bmo_norm(inc.negated()).lower
            assert interval_bmo_norm(dec).lower \
                == interval_bmo_norm(dec.negated()).lower


class TestBoundsContract:
    def test_gap_and_tol(self, rng):
        for _ in range(30):
            g = random_step(rng, rng.randrange(1, 6))
            b = interval_bmo_norm(g, tol=1e-9)
            assert b.tol_met
            assert 0 <= b.gap <= 1e-9
            assert float(b.lower) <= b.upper
            # upper bounds the sup: never rounded to it or below it
            assert Fraction(b.upper) > b.lower or b.upper == b.lower == 0

    def test_rejects_bad_tol(self):
        g = StepFunction1D([0, 1], [1])
        with pytest.raises(InputError):
            interval_bmo_norm(g, tol=0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        g = StepFunction1D([0, 1], [1])
        with pytest.raises(InputError):
            interval_bmo_norm(g, tol=tol)

    def test_rejects_non_step(self):
        with pytest.raises(InputError):
            interval_bmo_norm([0, 1])


class TestTheoremOnePropertySmall:
    def test_rearrangement_norm_capped(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.choice([1, 1, 2, 3])
            depth = rng.randrange(0, 4 if n == 1 else 2)
            f = random_function(rng, n, depth)
            bound = interval_bmo_norm(rearrange_signed(f))
            cap = (1 << n) * bmo_dyadic_norm(f)
            assert bound.lower <= cap
            assert Fraction(bound.upper) <= cap + Fraction(1, 10 ** 9)
