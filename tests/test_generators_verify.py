"""Generators, the aggregated verification suites, and fault injection."""

import dataclasses
import hashlib
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadicbmo.johnnirenberg as jn_mod
import dyadicbmo.verify as verify_mod
from dyadicbmo import (DyadicFunction, GenerationError, GeneratorSpec,
                       InputError, StepFunction1D, bmo_dyadic_norm, every_cube,
                       generate, gr_membership, rearrange_signed, verify_all)
from dyadicbmo.formats import canonical_json, function_to_obj
from dyadicbmo.gurov import Theorem4Result
from dyadicbmo.highprec import lower_float, upper_float
from conftest import float_just_below, matched_mean_b_oracle, random_function


class TestGenerators:
    def test_uniform_shape_and_range(self):
        spec = GeneratorSpec(kind="uniform-cells", dim=1, depth=2, seed=1)
        f = generate(spec)
        assert f.dim == 1 and f.depth == 2 and len(f.cells) == 4
        assert all(-8 <= v <= 8 for v in f.cells)

    def test_deterministic(self):
        spec = GeneratorSpec(kind="uniform-cells", dim=2, depth=2, seed=42)
        assert generate(spec) == generate(spec)
        other = GeneratorSpec(kind="uniform-cells", dim=2, depth=2, seed=43)
        assert generate(other) != generate(spec)

    def test_monotone(self):
        f = generate(GeneratorSpec(kind="monotone-1d", dim=1, depth=3, seed=5))
        assert all(a >= b for a, b in zip(f.cells, f.cells[1:]))

    def test_monotone_requires_1d(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="monotone-1d", dim=2, depth=1)

    def test_cascade_meets_target_exactly(self):
        for seed in range(8):
            spec = GeneratorSpec(kind="cascade-gr", dim=2, depth=2, seed=seed,
                                 target_eps=Fraction(1, 8))
            f = generate(spec)
            assert gr_membership(f) <= Fraction(1, 8)
            assert all(v > 0 for v in f.cells)

    def test_cascade_explicit_multipliers(self):
        spec = GeneratorSpec(kind="cascade-gr", dim=1, depth=2, seed=9,
                             target_eps=Fraction(1, 2),
                             multipliers=(Fraction(7, 8), 1, Fraction(9, 8)))
        f = generate(spec)
        assert gr_membership(f) <= Fraction(1, 2)
        assert all(v > 0 for v in f.cells)

    def test_cascade_infeasible_target_fails_loudly(self):
        # pinned aggressive multipliers, tiny target, seed whose draws never
        # coincide: all retries produce a modulus far above the target
        spec = GeneratorSpec(kind="cascade-gr", dim=1, depth=1, seed=25,
                             target_eps=Fraction(1, 10 ** 6),
                             multipliers=(Fraction(1, 2), Fraction(3, 2)),
                             cascade_retries=4)
        with pytest.raises(GenerationError):
            generate(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="bogus", dim=1, depth=1)
        with pytest.raises(InputError):
            GeneratorSpec(kind="uniform-cells", dim=3, depth=7)  # 2^21 cells
        with pytest.raises(InputError):
            GeneratorSpec(kind="uniform-cells", dim=1, depth=2, denom_bits=-1)

    # sha256 over the function files made for each kind at seeds 0, 3 and
    # 11, several sizes and 0, 3 and 9 denominator bits (the command line
    # cannot set denom_bits; tests/test_outputs.py pins its generate runs)
    @pytest.mark.parametrize("kind,sha", [
        ("uniform-cells", "7d4a378039931aa57c2920677c5fae3475b65bb3518a1895003d9988e34e4a4e"),
        ("monotone-1d", "9a6525819a096b4dd8bdd1835ba141054334c63a9f48c1812c67642be7892b16"),
        ("cascade-gr", "cfa7c07c55716fdd4564952d19fc33b6f7c74534808981103f3ea016aa845c41"),
    ])
    def test_denom_bits_outputs_pinned(self, kind, sha):
        sizes = {"uniform-cells": [(1, 0), (1, 6), (2, 3), (3, 2)],
                 "monotone-1d": [(1, 0), (1, 7)],
                 "cascade-gr": [(1, 4), (2, 2), (3, 1)]}[kind]
        digest = hashlib.sha256()
        for seed, (n, level), bits in product((0, 3, 11), sizes, (0, 3, 9)):
            f = generate(GeneratorSpec(kind=kind, dim=n, depth=level, seed=seed,
                                       denom_bits=bits, low=Fraction(-5, 2),
                                       high=Fraction(7, 3)))
            digest.update(canonical_json(function_to_obj(f)).encode())
        assert digest.hexdigest() == sha


class TestVerifyAll:
    def test_spike_all_pass(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        report = verify_all(f)
        assert report.passed
        names = [r.name for r in report.results]
        assert names == list(verify_mod.SUITES)
        # the spike's modulus is 3/2 >= 1, so the power-decay suites skip
        by_name = {r.name: r for r in report.results}
        assert by_name["thm5"].skipped
        assert by_name["cor1"].skipped

    def test_cascade_runs_power_suites(self):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2, seed=3,
                                   target_eps=Fraction(1, 8)))
        report = verify_all(f, ["thm5", "cor1"])
        assert report.passed
        assert all(not r.skipped for r in report.results)

    def test_constant_vacuous(self):
        f = DyadicFunction(1, 1, [5, 5])
        report = verify_all(f)
        assert report.passed  # trivial/vacuous passes, no rejections

    def test_random_signed_functions_pass(self, rng):
        for _ in range(10):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            report = verify_all(f)
            assert report.passed, [
                (r.name, r.failures) for r in report.results if not r.passed]

    def test_unknown_suite_rejected(self):
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            verify_all(f, ["thm1", "thm99"])

    def test_subset_selection(self):
        f = DyadicFunction(1, 1, [1, 0])
        report = verify_all(f, ["lemma21", "thm2"])
        assert [r.name for r in report.results] == ["lemma21", "thm2"]

    def test_fault_injection_reports_witness(self, monkeypatch):
        # corrupt one checker: verification must fail with a witness
        f = DyadicFunction(1, 2, [4, 0, 0, 0])

        def corrupted(fn, lam):
            measure, bound = real_jn(fn, lam)
            return measure + 1, bound

        real_jn = verify_mod.jn_check
        monkeypatch.setattr(verify_mod, "jn_check", corrupted)
        report = verify_all(f, ["thm2"])
        assert not report.passed
        assert report.results[0].failures
        assert "lambda" in report.results[0].failures[0]

    @pytest.mark.parametrize("cells", [[3, -1, 0, 2], [3, 1, 0, 2]])
    @pytest.mark.parametrize("values", [[4, 2, 1, 0], [3, 2, 1, -1], [3, 2, 2, 0]])
    def test_remark31_fails_on_a_corrupted_rearrangement(self, cells, values):
        # h* with a wrong max, min or integral, planted where remark31 reads it
        clean = verify_all(DyadicFunction(1, 2, cells), ["remark31"]).results[0]
        assert clean.passed
        f = DyadicFunction(1, 2, cells)
        f.abs()._cache["rearr_signed"] = StepFunction1D(
            [Fraction(k, 4) for k in range(5)], values)
        result = verify_all(f, ["remark31"]).results[0]
        assert not result.passed
        assert result.checks == clean.checks
        assert result.failures == ("rearrangement of h misses h's integral, "
                                   "max or min",)

    def test_to_obj_shape(self):
        f = DyadicFunction(1, 1, [1, 0])
        obj = verify_all(f, ["lemma21"]).to_obj()
        assert obj["passed"] is True
        assert obj["suites"][0]["name"] == "lemma21"
        assert obj["suites"][0]["checks"] > 0


def _rhs_just_below(real):
    """Wrap a checker so that its rhs sits just below its lhs."""
    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, tuple):
            return out[0], float_just_below(Fraction(out[0]))
        return dataclasses.replace(out, rhs=float_just_below(out.lhs))
    return patched


class TestSampledCubes:
    @pytest.mark.parametrize("n, depth", [(1, 0), (1, 3), (1, 8), (1, 9), (1, 12),
                                          (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_same_picks_as_listing_every_cube(self, n, depth):
        f = DyadicFunction(n, depth, [0] * (1 << (n * depth)))
        cubes = list(every_cube(f))
        step = 1 if len(cubes) <= 512 else len(cubes) // 512 + 1
        assert verify_mod._sampled_cubes(f) == cubes[::step]


class TestExactDecisions:
    """A violation far below any float tolerance is still a violation."""

    CASCADE = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2, seed=3,
                                     target_eps=Fraction(1, 8)))

    @pytest.mark.parametrize("suite, binding", [
        ("thm2", "jn_check"), ("thm31", "logbound_check"),
        ("remark31", "jn_abs_check"), ("thm4", "theorem4_bound"),
        ("thm5", "theorem5_check"), ("cor1", "lq_tail_bound")])
    def test_sub_ulp_violation_fails(self, monkeypatch, suite, binding):
        assert verify_all(self.CASCADE, [suite]).passed
        monkeypatch.setattr(verify_mod, binding,
                            _rhs_just_below(getattr(verify_mod, binding)))
        result = verify_all(self.CASCADE, [suite]).results[0]
        assert not result.passed and not result.skipped
        assert result.failures

    def test_every_rule_failure_names_its_place_and_both_sides(self, monkeypatch):
        """Each lhs > rhs check reads "<place>: <lhs> > <rhs>" and counts once."""
        def failing(*args, **kwargs):
            return Fraction(3, 2), 1.25

        for binding in ("hardy_gap_check", "jn_check", "logbound_check", "jn_abs_check",
                        "theorem3_check", "theorem5_check", "lq_tail_bound"):
            monkeypatch.setattr(verify_mod, binding, failing)
        monkeypatch.setattr(verify_mod, "theorem4_bound", lambda *args, **kwargs:
                            Theorem4Result(Fraction(7, 3), 0.5, 1, 1, 1, 1))
        report = verify_all(DyadicFunction(1, 3, [8, 9, 8, 8, 9, 9, 8, 9]))
        seen = {r.name: (r.checks, len(r.failures), r.failures[0])
                for r in report.results if r.failures}
        assert seen == {
            "lemma23": (12, 8, "gap bound fails at t=1/4, gamma=3/2: 3/2 > 1.25"),
            "thm2": (32, 8, "distribution bound fails at lambda=1/16: 3/2 > 1.25"),
            "thm31": (2, 1, "log bound fails at t=1: 3/2 > 1.25"),
            "remark31": (9, 8, "two-sided bound fails at lambda=1/4: 3/2 > 1.25"),
            "thm3": (8, 8, "rearrangement-modulus bound fails at t=1/8: 3/2 > 1.25"),
            "thm4": (8, 8, "exponential bound fails at t=1/128: 7/3 > 0.5"),
            "thm5": (8, 8, "power bound fails at t=1/8: 3/2 > 1.25"),
            "cor1": (2, 2, "L^q tail bound fails at q=1: 3/2 > 1.25")}

    def test_thm1_upper_below_lower_fails(self, monkeypatch):
        real = verify_mod.interval_bmo_norm

        def rounded_down(g, *args):
            bound = real(g, *args)
            return dataclasses.replace(bound,
                                       upper=float_just_below(bound.lower))

        f = DyadicFunction(1, 2, [4, 0, 1, 0])
        assert verify_all(f, ["thm1"]).passed
        monkeypatch.setattr(verify_mod, "interval_bmo_norm", rounded_down)
        result = verify_all(f, ["thm1"]).results[0]
        assert not result.passed
        assert "rounded below" in result.failures[0]


def _matching_mean_endpoint(g, x, d, mu, defect):
    """Least b > a with the mean of g over (a,b] equal to mu, or None, for
    the anchor a = x / (td * d), found on its own by bisection: the endpoint
    that verify._matched_endpoints must give at every anchor of its sweep,
    as (y, e) with b = y / (td * e).  From the first piece ending after a:
    at the mean, its right end; below, none; above, the first breakpoint
    with D <= D(a) closes the piece where the concave defect D crosses
    D(a), and that piece's linear equation gives b."""
    B, V = g._B, g._V
    md = mu.denominator
    w = mu.numerator * g._vd
    i = bisect_right(B, x // d)  # first piece (t_{i-1}, t_i] with t_i > a
    excess = V[i - 1] * md - w  # the sign of v - mu
    if excess == 0:
        return B[i] * d, d
    if excess < 0:
        return None
    X = defect[i - 1] * d + excess * (x - B[i - 1] * d)
    # first k > i with defect[k] <= D(a) (defect[i] > D(a))
    lo = bisect_left(defect, True, i + 1, len(B), key=(X // d).__ge__)
    if lo == len(B):
        return None
    W = w - V[lo - 1] * md  # (mu - v) * vd * md > 0
    return (B[lo - 1] * W + defect[lo - 1]) * d - X, d * W


def _endpoint(g, a):
    """The matched-mean endpoint from the anchor a, as a Fraction."""
    a, mu = Fraction(a), g.integral
    end = _matching_mean_endpoint(
        g, a.numerator * g._td, a.denominator, mu, verify_mod._mean_defect(g, mu))
    return None if end is None else Fraction(end[0], g._td * end[1])


class TestMatchedMeanEndpoint:
    def test_flat_piece_at_the_mean(self):
        third = Fraction(1, 3)
        g = StepFunction1D([0, third, 2 * third, 1], [2, 1, 0])  # mean 1
        assert _endpoint(g, 0) == 1
        assert _endpoint(g, Fraction(1, 6)) == Fraction(5, 6)
        for a in (third, Fraction(1, 2)):  # flat piece: its right end
            assert _endpoint(g, a) == 2 * third
        for a in (2 * third, Fraction(5, 6)):  # below the mean: none
            assert _endpoint(g, a) is None

    def test_matches_piece_scan(self, rng):
        anchors_checked = 0
        with_flat = 0
        for i in range(160):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(1, 4))
            if i % 2:
                # make the last cell equal the mean: the rearrangement then
                # has a piece exactly at mu
                cells = list(f.cells)
                cells[-1] = sum(cells[:-1], Fraction(0)) / (len(cells) - 1)
                f = DyadicFunction(f.dim, f.depth, cells)
            g = rearrange_signed(f)
            mu = g.integral
            with_flat += mu in g.values
            anchors = set(g.breakpoints[:-1])
            anchors.update(Fraction(k, 16) for k in range(16))
            anchors.update((lo + hi) / 2 for lo, hi, _ in g.pieces())
            for a in sorted(anchors):
                assert _endpoint(g, a) == matched_mean_b_oracle(g, a, mu)
                anchors_checked += 1
        assert with_flat >= 80 and anchors_checked > 2000


@st.composite
def sweep_inputs(draw):
    """(g, d, anchors): the rearrangement of a function whose cells are
    random, have one cell at the mean (a flat piece at mu) or one cell above
    the others (a single piece above mu), and increasing anchor positions
    over td * d: every breakpoint of g before 1 and some points between."""
    n, depth = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    size = 1 << (n * depth)
    value = st.fractions(-4, 4, max_denominator=5)
    kind = draw(st.sampled_from(("random", "flat at the mean", "single above")))
    if kind == "single above":
        low = draw(value)
        cells = [low] * size
        cells[draw(st.integers(0, size - 1))] = low + draw(
            st.fractions(Fraction(1, 5), 4, max_denominator=5))
    else:
        cells = draw(st.lists(value, min_size=size, max_size=size))
        if kind == "flat at the mean":
            cells[-1] = sum(cells[:-1], Fraction(0)) / (size - 1)
    g = rearrange_signed(DyadicFunction(n, depth, cells))
    d = draw(st.sampled_from((1, 2, 3, 8)))
    end = g._td * d
    between = draw(st.lists(st.integers(0, end - 1), max_size=24))
    return g, d, sorted({*(b * d for b in g._B[:-1]), *between})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sweep_inputs())
def test_sweep_matches_the_endpoint_of_each_anchor(inputs):
    g, d, anchors = inputs
    mu = g.integral
    defect = verify_mod._mean_defect(g, mu)
    swept = list(verify_mod._matched_endpoints(g, anchors, d, mu, defect))
    assert swept == [(x, _matching_mean_endpoint(g, x, d, mu, defect))
                     for x in anchors]


def _thm31_per_t(f):
    """(checks, passed, failures) of thm31 by one logbound_check per
    breakpoint of the rearrangement of f - mean, the rule the block path
    must reproduce."""
    g = f.shifted(-f.mean)
    ts = verify_mod.rearrange_signed(g).breakpoints[1:]
    failures = []
    for t in ts:
        lhs, rhs = verify_mod.logbound_check(g, t)
        if lhs > rhs:
            failures.append(f"log bound fails at t={t}: {lhs} > {rhs}")
    return len(ts), not failures, tuple(failures[:8])


def _thm31_blocks(f):
    result = verify_all(f, ["thm31"]).results[0]
    return result.checks, result.passed, result.failures


def _plant(monkeypatch, f, i, j=None):
    """Raise the rearrangement of g = f - mean on its first i pieces to a c
    strictly between the rhs at t_j and at t_(j-1), for 1 <= j <= i (j = i
    by default).  It stays nonincreasing, and the bound fails at
    t_j, ..., t_i alone; return those t."""
    j = i if j is None else j
    g = f.shifted(-f.mean)
    real = rearrange_signed(g)
    ts, norm = real.breakpoints, bmo_dyadic_norm(g)
    above = Fraction(upper_float(jn_mod._log_bound(g, norm, ts[j])))
    below = (Fraction(lower_float(jn_mod._log_bound(g, norm, ts[j - 1])))
             if j > 1 else above + 1)
    assert above < below
    c = (above + below) / 2
    planted = StepFunction1D(ts, [max(v, c) if k < i else v
                                  for k, v in enumerate(real.values)])

    def rearranged(h):
        return planted if h == g else rearrange_signed(h)
    monkeypatch.setattr(verify_mod, "rearrange_signed", rearranged)
    monkeypatch.setattr(jn_mod, "rearrange_signed", rearranged)
    return ts[j:i + 1]


_THM31_GRIDS = st.one_of(
    st.tuples(st.just("uniform-cells"), st.integers(1, 3), st.integers(0, 7)),
    st.tuples(st.just("cascade-gr"), st.integers(1, 3), st.integers(1, 7)),
    st.tuples(st.just("monotone-1d"), st.just(1), st.integers(0, 7)))


def _grid(kind, n, level, seed):
    return generate(GeneratorSpec(kind=kind, dim=n, depth=min(level, 8 // n),
                                  seed=seed))


class TestThm31Blocks:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_THM31_GRIDS, st.integers(0, 2 ** 16))
    def test_matches_per_t_rule(self, grid, seed):
        f = _grid(*grid, seed)
        assert _thm31_blocks(f) == _thm31_per_t(f)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(_THM31_GRIDS, st.integers(0, 2 ** 16), st.data())
    def test_planted_violations_match_per_t_rule(self, grid, seed, data):
        f = _grid(*grid, seed)
        pieces = len(rearrange_signed(f.shifted(-f.mean)).values)
        i = data.draw(st.integers(1, pieces))
        j = data.draw(st.integers(1, i))
        with pytest.MonkeyPatch.context() as mp:
            ts = _plant(mp, f, i, j)
            blocks = _thm31_blocks(f)
            assert blocks == _thm31_per_t(f)
        # in increasing t, the first 8 kept
        assert not blocks[1] and len(blocks[2]) == min(len(ts), 8)
        for t, failure in zip(ts, blocks[2]):
            assert failure.startswith(f"log bound fails at t={t}: ")

    def test_planted_violation_inside_a_long_run(self, monkeypatch):
        f = DyadicFunction(1, 7, [(37 * k) % 128 - 64 for k in range(128)])
        calls = []
        real = verify_mod.logbound_check

        def counted(g, t):
            calls.append(t)
            return real(g, t)
        monkeypatch.setattr(verify_mod, "logbound_check", counted)
        assert _thm31_blocks(f) == (128, True, ())
        # decided in runs, each run's right end through the per-t rule
        assert len(calls) < 16 and calls == sorted(calls) and calls[-1] == 1
        t, = _plant(monkeypatch, f, 77)
        calls.clear()
        checks, passed, failures = _thm31_blocks(f)
        assert (checks, passed) == (128, False) and t in calls
        assert failures == _thm31_per_t(f)[2]
        assert len(failures) == 1 and failures[0].startswith(
            f"log bound fails at t={t}: ")


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("n, depth", [(1, 9), (2, 4), (3, 3)])
def test_lemma21_reports_a_cube_whose_one_sided_form_is_off(monkeypatch, side, n, depth):
    # every cube sampled (all of them at n = 2, L = 4), one of them above
    # cell level given one unit more of its numerator on one side
    f = DyadicFunction(n, depth, [Fraction((7919 * k) % 61 - 30, 7)
                                  for k in range(1 << (n * depth))])
    cubes = verify_mod._sampled_cubes(f)
    assert verify_all(f, ["lemma21"]).results[0].checks == len(cubes)
    above_cells = [q for q in cubes if q.level == depth - 1]
    target = above_cells[len(above_cells) // 2]
    real = verify_mod.one_sided_oscillation

    def off(g, q, which):
        value = real(g, q, which)
        if q == target and which == side:
            value += Fraction(2, g._den << 2 * n * (depth - q.level))
        return value
    monkeypatch.setattr(verify_mod, "one_sided_oscillation", off)
    result = verify_all(f, ["lemma21"]).results[0]
    assert (result.passed, result.checks) == (False, len(cubes))
    assert len(result.failures) == 1
    assert result.failures[0].startswith(f"one-sided forms differ on {target}: ")


class TestLemma22Integers:
    def test_endpoint_one_unit_off_is_reported(self, monkeypatch):
        # distinct values around a mean no cell takes: no flat piece at the
        # mean, so moving b changes the window mean
        f = DyadicFunction(1, 3, [7, 3, 5, 0, 1, 6, 2, 4])
        assert verify_all(f, ["lemma22"]).passed
        real = verify_mod._matched_endpoints

        def one_unit_early(g, anchors, d, mu, defect):
            for x, end in real(g, anchors, d, mu, defect):
                yield x, None if end is None else (end[0] - 1, end[1])
        monkeypatch.setattr(verify_mod, "_matched_endpoints", one_unit_early)
        result = verify_all(f, ["lemma22"]).results[0]
        assert not result.passed and result.failures
        assert all(m.startswith("endpoint solve failed at a=")
                   for m in result.failures)

    def test_anchors_are_eighths_and_breakpoints(self, monkeypatch):
        f = DyadicFunction(1, 2, [Fraction(1, 3), 5, 0, 2])
        g = rearrange_signed(f)
        seen = []
        real = verify_mod._matched_endpoints

        def recorded(g, anchors, d, mu, defect):
            for x, end in real(g, anchors, d, mu, defect):
                seen.append(Fraction(x, g._td * d))
                yield x, end
        monkeypatch.setattr(verify_mod, "_matched_endpoints", recorded)
        verify_all(f, ["lemma22"])
        # the anchors that have an endpoint: those in a piece at or above
        # the mean, here the first half
        anchors = sorted({Fraction(k, 8) for k in range(8)} | set(g.breakpoints[:-1]))
        assert seen == [a for a in anchors
                        if matched_mean_b_oracle(g, a, g.integral) is not None]
        assert seen == [0, Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]
