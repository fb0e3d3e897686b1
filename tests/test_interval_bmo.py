"""Certified interval BMO norm: closed forms, oracles, path cross-checks."""

import hashlib
import random
from fractions import Fraction

import pytest

from dyadicbmo import (DyadicFunction, InputError, StepFunction1D,
                       bmo_dyadic_norm, interval_bmo_norm,
                       interval_mean_oscillation, rearrange_signed)
from dyadicbmo.generators import GeneratorSpec, generate
from dyadicbmo import interval_bmo
from dyadicbmo.interval_bmo import (MAX_GENERAL_PIECES, _general_norm,
                                    _monotone_norm)
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


def step(bps, vals):
    return StepFunction1D([Fraction(b) for b in bps], [Fraction(v) for v in vals])


class TestMonotoneSubSegments:
    """Edge cases of the one-argmax-per-sub-segment scan: the sup and the
    witness, tie-break included, against the Fraction enumeration of every
    candidate {piece ends, mean crossings, stationary points}."""

    @staticmethod
    def norm(g):
        result = _monotone_norm(g)
        assert result == monotone_norm_oracle(
            g if g.is_nonincreasing else g.negated())
        return result

    def test_stationary_point_at_sub_segment_end(self):
        # on piece 3 of the [0,t] family, t* = 2C/a = 1 ends the sub-segment;
        # the mirror family also reaches 9/8 at t = 1, so [0,1] wins
        g = step([0, "1/8", "1/2", 1], [3, 2, 0])
        assert self.norm(g) == (Fraction(9, 8), (Fraction(0), Fraction(1)))

    def test_stationary_point_at_sub_segment_start(self):
        # the mirror family's sub-segment from its t = 3/4 has t* = 3/4
        for g in (step([0, "5/8", "3/4", 1], [3, 1, -2]),
                  step([0, "3/8", "5/8", "3/4", "7/8", 1], [3, 3, 1, -2, -2])):
            assert self.norm(g) == (Fraction(25, 12),
                                    (Fraction(2, 5), Fraction(1)))

    def test_mean_crosses_a_value_at_a_breakpoint(self):
        # the mean of [0,t] reaches the value 0 exactly at the breakpoint
        # 7/8 (hn == t1), after the winning stationary point t* = 7/12
        g = step([0, "1/4", "3/8", "7/8", 1], [3, 1, 0, -1])
        assert self.norm(g) == (Fraction(9, 7), (Fraction(0), Fraction(7, 12)))
        # here the mean of [0,3/4] is the value 1, and the next segment
        # starts on that crossing: an empty sub-segment, then kappa steps on
        g = step([0, "1/4", "1/2", "3/4", 1], [2, 1, 0, -1])
        assert self.norm(g) == (Fraction(1), (Fraction(0), Fraction(1)))

    def test_equal_maxima_keep_the_first(self):
        # [0,1/2] and [0,1] both oscillate 1/2, and so do the mirrored
        # windows [1/2,1] and [0,1]: the first [0,t] argmax wins
        g = step([0, "1/4", "3/4", 1], [1, 0, -1])
        assert self.norm(g) == (Fraction(1, 2), (Fraction(0), Fraction(1, 2)))
        # an interior t* = 3/4 on piece 2 and the end t = 1 of piece 3
        g = step([0, "3/8", "7/8", 1], [2, -1, -2])
        assert self.norm(g) == (Fraction(3, 2), (Fraction(0), Fraction(3, 4)))

    def test_unmerged_runs(self):
        # runs of equal values before and at v_j: the equal crossings give
        # empty sub-segments, and the runs change neither sup nor witness
        for bps, vals in (([0, "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", 1],
                           [3, 3, 1, 1, 1, 0, 0]),
                          ([0, "1/6", "1/3", "1/2", "2/3", 1], [2, 2, 2, 2, -1]),
                          ([0, "1/5", "2/5", "3/5", "4/5", 1], [4, 1, 1, 1, 1])):
            g = step(bps, vals)
            assert self.norm(g) == self.norm(g.merged())

    def test_nondecreasing(self):
        # read through the negation; the [0,t] family of -g wins the tie
        g = step([0, "1/3", "1/2", 1], [0, 1, 3])
        assert self.norm(g) == (Fraction(4, 3), (Fraction(0), Fraction(1)))
        g = step([0, "1/4", "3/4", 1], [-1, 0, 1])
        assert self.norm(g) == (Fraction(1, 2), (Fraction(0), Fraction(1, 2)))


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


def skip_input(rng):
    """A general input of 3-10 pieces, equal or not, on which the two bound
    skips of the general path fire: a walk of +-1 steps, a few-valued
    function whose sup often equals the seed max|jump|/2 and ties between
    bands, or values near 0 with one plateau raised far above them, so
    that pairs on either side of the plateau have a middle (M > 0)."""
    m = rng.randrange(3, 11)
    den = rng.choice((m, 2 * m, 24))
    cuts = sorted(rng.sample(range(1, den), m - 1))
    bps = [Fraction(c, den) for c in (0, *cuts, den)]
    kind = rng.randrange(3)
    if kind == 0:
        vals, v = [], 0
        for _ in range(m):
            v += rng.choice((-1, 1))
            vals.append(Fraction(v))
    elif kind == 1:
        pool = rng.sample([Fraction(k, 2) for k in range(-4, 5)],
                          rng.choice((2, 3)))
        vals = [rng.choice(pool) for _ in range(m)]
    else:
        vals = [Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))
                for _ in range(m)]
        a = rng.randrange(1, m - 1)
        b = rng.randrange(a + 1, m)
        vals[a:b] = [v + 40 for v in vals[a:b]]
    return StepFunction1D(bps, vals).merged()


class TestUpperBoundSkips:
    """A pair is skipped by the bound 2(H-mu)(mu-Lo)/(H-Lo) at the centre
    clamped to its mean range, and a band with a middle (M > 0) by
    2F(L_i, L_j)/M^2; neither may change the sup or its witness."""

    def test_matches_fraction_oracle(self):
        rng = random.Random(58)
        seen = at_seed = 0
        while seen < 50:
            g = skip_input(rng)
            if len(g.values) < 2 or g.is_nonincreasing or g.is_nondecreasing:
                continue
            seen += 1
            got = _general_norm(g)
            assert got == general_norm_oracle(g)
            at_seed += got[0] == max_half_jump(g)
        assert at_seed >= 10

    def test_bench_many_band_box_evaluations(self, monkeypatch):
        # the many-band L=5 interval-general input of bench seed 1, pass 0,
        # slot 1 (32 pieces): 103 box evaluations without the two skips
        seed = hashlib.sha256(b"interval-general/1/0/1").hexdigest()
        f = generate(GeneratorSpec(kind="uniform-cells", dim=1, depth=5,
                                   seed=int(seed[:8], 16)))
        g = equal_pieces(f.cells).merged()
        calls = []
        box_candidates = interval_bmo._box_candidates

        def counted(*args):
            calls.append(args)
            return box_candidates(*args)

        monkeypatch.setattr(interval_bmo, "_box_candidates", counted)
        got = _general_norm(g)
        assert 0 < len(calls) <= 103 // 2
        assert interval_mean_oscillation(g, *got[1]) == got[0]


def interior_candidate(fq, M):
    """The interior critical point of 2F/T^2 as a homogeneous triple, or None
    where there is none or the critical points fill a line: the candidate
    the general path once scored after the corners and the edge points.

    F_x = F_y is the line F11 (Y - X) = F01 - F10, and on it G = F_x*T - 2F
    is linear in Y (the Y^2 terms cancel)."""
    F11, F10, F01, F00 = fq
    if F11 == 0:
        return None
    # X = Y + (F10 - F01)/F11 and Y = -C/(F11*B)
    B = F11 * M - F10 - F01
    if B == 0:
        return None
    C = F10 * (F11 * M - F10 + F01) - 2 * F00 * F11
    W = F11 * B
    if W < 0:
        W, C, B = -W, -C, -B
    return (F10 - F01) * B - C, -C, W


def box_score(fq, M, point):
    """2F/T^2 at a homogeneous point with T > 0."""
    F11, F10, F01, F00 = fq
    X, Y, W = point
    T = X + Y + M * W
    return Fraction(2 * (F11 * X * Y + (F10 * X + F01 * Y + F00 * W) * W), T * T)


class TestNoInteriorCandidate:
    """The general path scores only corners and edge stationary points: on
    every band it visits, a critical point inside the box is a saddle, so it
    scores strictly below the best of those candidates."""

    def test_interior_points_lose_to_the_box_candidates(self, monkeypatch):
        bands = []
        box_candidates = interval_bmo._box_candidates

        def counted(fq, M, Li, Lj):
            pts = box_candidates(fq, M, Li, Lj)
            bands.append((fq, M, Li, Lj, pts))
            return pts

        monkeypatch.setattr(interval_bmo, "_box_candidates", counted)
        rng = random.Random(60)
        seen = inside = 0
        while seen < 3000:
            g = random_general(rng, rng.randrange(3, 12)).merged()
            if len(g.values) < 2 or g.is_nonincreasing or g.is_nondecreasing:
                continue
            seen += 1
            del bands[:]
            _general_norm(g)
            for fq, M, Li, Lj, pts in bands:
                F11, F10, F01, F00 = fq
                # F on T = 0 is never definite (the module docstring's identity)
                assert 4 * F11 * F00 - 4 * F10 * F01 + (F11 * M - F10 - F01) ** 2 >= 0
                inner = interior_candidate(fq, M)
                if inner is None:
                    continue
                X, Y, W = inner
                if not (0 <= X <= Li * W and 0 <= Y <= Lj * W) or X + Y + M * W <= 0:
                    continue
                inside += 1
                best = max(box_score(fq, M, p) for p in pts if p[0] + p[1] + M * p[2] > 0)
                assert box_score(fq, M, inner) < best
        assert inside >= 80


class TestMeanRange:
    """_mean_range is read by the band skip and the pair bound: it must hold
    every window mean of the box, and its ends must be window means."""

    def test_dense_grid(self):
        rng = random.Random(59)
        steps = 10
        for case in range(100):
            M = 0 if case % 5 == 0 else rng.randrange(1, 30)
            MI = rng.randrange(-20 * M, 20 * M + 1)
            vi, vj = rng.randrange(-25, 26), rng.randrange(-25, 26)
            if case % 3 == 0:
                # both ends on one side of the middle mean: the (Li, Lj)
                # corner is an extreme
                vi = vj = (MI // M if M else 0) + rng.choice((-20, 20))
            Li, Lj = rng.randrange(1, 30), rng.randrange(1, 30)
            ln, ld, hn, hd = interval_bmo._mean_range(M, MI, vi, Li, vj, Lj)
            assert ld > 0 and hd > 0
            lo, hi = Fraction(ln, ld), Fraction(hn, hd)
            means = {(MI + vi * x + vj * y) / (M + x + y)
                     for x in (Fraction(k * Li, steps) for k in range(steps + 1))
                     for y in (Fraction(k * Lj, steps) for k in range(steps + 1))
                     if M + x + y}
            assert min(means) == lo and max(means) == hi


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


def equal_pieces(vals):
    m = len(vals)
    return StepFunction1D([Fraction(k, m) for k in range(m + 1)], vals)


class TestGeneralPieceCap:
    def test_over_cap_fails_before_any_pair(self, monkeypatch):
        def unreachable(g):
            raise AssertionError("the general path ran")
        monkeypatch.setattr(interval_bmo, "_general_norm", unreachable)
        m = MAX_GENERAL_PIECES + 1
        with pytest.raises(InputError, match=f"has {m} pieces after merging"):
            interval_bmo_norm(equal_pieces([k % 2 for k in range(m)]))

    def test_cap_counts_merged_pieces(self, monkeypatch):
        monkeypatch.setattr(interval_bmo, "MAX_GENERAL_PIECES", 4)
        # six pieces that merge to four are accepted, five distinct are not
        g = equal_pieces([0, 0, 1, 1, 0, 1])
        assert interval_bmo_norm(g).lower == _general_norm(g.merged())[0]
        with pytest.raises(InputError):
            interval_bmo_norm(equal_pieces([0, 1, 0, 1, 0]))

    @pytest.mark.parametrize("increasing", [False, True])
    def test_monotone_inputs_are_uncapped(self, increasing):
        rng = random.Random(46)
        m = 4096
        vals = sorted((Fraction(rng.randrange(-500, 501), rng.choice((1, 3, 8)))
                       for _ in range(m)), reverse=not increasing)
        g = equal_pieces(vals)
        assert len(g.merged().values) > MAX_GENERAL_PIECES
        b = interval_bmo_norm(g)
        assert b.lower > 0
        assert interval_mean_oscillation(g, *b.witness) == b.lower


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
