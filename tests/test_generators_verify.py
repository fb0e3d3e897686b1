"""Generators, the aggregated verification suites, and fault injection."""

import dataclasses
import hashlib
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyadicbmo.generators as generators_mod
import dyadicbmo.gurov as gurov_mod
import dyadicbmo.johnnirenberg as jn_mod
import dyadicbmo.verify as verify_mod
from dyadicbmo import (DyadicFunction, GenerationError, GeneratorSpec,
                       InputError, StepFunction1D, bmo_dyadic_norm, every_cube,
                       generate, gr_membership, rearrange_signed, verify_all)
from dyadicbmo.formats import canonical_json, function_to_obj
from dyadicbmo.gurov import Theorem4Result
from dyadicbmo.highprec import lower_float, upper_float
from dyadicbmo.rearrangement import _window_ints
from conftest import (cascade_oracle, float_just_below, matched_mean_b_oracle,
                      random_function)


# pinned aggressive multipliers, tiny target, seed whose draws never
# coincide: all retries produce a modulus far above the target
INFEASIBLE_CASCADE = GeneratorSpec(kind="cascade-gr", dim=1, depth=1, seed=25,
                                   target_eps=Fraction(1, 10 ** 6),
                                   multipliers=(Fraction(1, 2), Fraction(3, 2)),
                                   cascade_retries=4)


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
        with pytest.raises(GenerationError):
            generate(INFEASIBLE_CASCADE)

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


@st.composite
def cascade_specs(draw):
    """cascade-gr specs of n = 1-3 up to 1024 cells: adaptive spreads of
    0-9 denominator bits, or int and Fraction multipliers, whose small
    targets often take retries or exhaust them."""
    n = draw(st.integers(1, 3))
    multipliers = draw(st.one_of(st.just(()), st.lists(st.sampled_from(
        (1, 2, Fraction(7, 8), Fraction(9, 8), Fraction(1, 3), Fraction(5, 4))),
        min_size=1, max_size=4)))
    return GeneratorSpec(
        kind="cascade-gr", dim=n, depth=draw(st.integers(0, {1: 6, 2: 5, 3: 3}[n])),
        seed=draw(st.integers(0, 1 << 32)), denom_bits=draw(st.integers(0, 9)),
        target_eps=draw(st.sampled_from((Fraction(3, 2), Fraction(1, 8),
                                         Fraction(1, 64), Fraction(1, 4096)))),
        multipliers=tuple(multipliers), cascade_retries=draw(st.integers(1, 8)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cascade_specs(), st.integers(0, 2))
@example(INFEASIBLE_CASCADE, 0)
def test_cascade_matches_the_fraction_oracle(spec, refused):
    # the integer cascade makes the Fraction one's function, or its error.
    # The first `refused` attempts are refused whatever their modulus: an
    # adaptive cascade within the size cap meets its target at the first
    # attempt, so only this makes its spread halve
    real = generators_mod._level_ratios
    attempts = []

    def refusing(f):
        attempts.append(f)
        return [Fraction(2)] if len(attempts) <= refused else real(f)
    try:
        expected = cascade_oracle(spec, refused)
    except GenerationError as error:
        expected = error
    with pytest.MonkeyPatch.context() as m:
        m.setattr(generators_mod, "_level_ratios", refusing)
        if isinstance(expected, GenerationError):
            with pytest.raises(GenerationError) as raised:
                generate(spec)
            assert str(raised.value) == str(expected)
            return
        f = generate(spec)
    assert (f.dim, f.depth, f._den, f._nums) == (
        expected.dim, expected.depth, expected._den, expected._nums)


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
            "thm31": (2, 2, "log bound fails at t=1/2: 3/2 > 1.25"),
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


def _at_or_above_the_mean(g, d, anchors):
    """The anchors of a piece of g at or above its mean, the ones lemma22
    sweeps."""
    mu = g.integral
    k = bisect_left(g._V, True, key=lambda v: Fraction(v, g._vd) < mu)
    return [x for x in anchors if x < g._B[k] * d]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sweep_inputs())
def test_windows_match_window_ints_at_every_anchor(inputs):
    g, d, anchors = inputs
    anchors = _at_or_above_the_mean(g, d, anchors)
    mu = g.integral
    windows = list(verify_mod._matched_windows(g, anchors, d, mu))
    assert [w[0] for w in windows] == anchors
    for x, y, e, J, L, num in windows:
        assert 0 <= x * (e // d) < y <= g._td * e
        assert (J, L, num) == _window_ints(g, x * (e // d), y, e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(inputs=sweep_inputs(), data=st.data())
def test_windows_read_any_endpoint(inputs, data):
    # endpoints that need not fall, nor match the mean: J and L still as
    # _window_ints reads them, num only where the mean is mu
    g, d, anchors = inputs
    anchors = _at_or_above_the_mean(g, d, anchors)
    scale = data.draw(st.sampled_from((1, 2, 5)))
    e = d * scale
    ends = [data.draw(st.integers(x * scale + 1, g._td * e)) for x in anchors]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify_mod, "_matched_endpoints",
                  lambda g, anchors, d, mu, defect: zip(anchors, ((y, e) for y in ends)))
        windows = list(verify_mod._matched_windows(g, anchors, d, g.integral))
    mu = g.integral
    for (x, y, e_, J, L, num), b in zip(windows, ends):
        assert (y, e_) == (b, e)
        wJ, wL, wnum = _window_ints(g, x * scale, y, e)
        assert (J, L) == (wJ, wL)
        assert num == (wnum if Fraction(J, g._vd * L) == mu else None)


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


# the suites decided a run at a time besides thm31: each one's public check,
# its failure message and where its lhs and rhs come from
_RUN_CHECK = {"thm2": "jn_check", "remark31": "jn_abs_check",
              "thm4": "theorem4_bound", "thm5": "theorem5_check"}
_RUN_WHAT = {"thm2": "distribution bound fails at lambda={}",
             "remark31": "two-sided bound fails at lambda={}",
             "thm4": "exponential bound fails at t={}",
             "thm5": "power bound fails at t={}"}
_RUN_LHS = {"thm2": ((verify_mod, jn_mod), "distribution_above"),
            "remark31": ((verify_mod, jn_mod), "_two_sided_measure"),
            "thm4": ((verify_mod, gurov_mod), "hardy_average"),
            "thm5": ((verify_mod, gurov_mod), "hardy_average")}


def _run_target(suite, f):
    return f if suite == "thm2" else f.abs()


def _run_points(suite, h):
    """The suite's grid on h, [] where the suite skips or has no grid."""
    if suite == "thm2":
        return verify_mod._lambda_grid(h)
    if suite == "remark31":
        return verify_mod._lambda_grid(h, points=8)
    if suite == "thm4":
        top = Fraction(1, 8 * (1 << h.dim))
        return [top * Fraction(j, 8) for j in range(1, 9)] if any(h._nums) else []
    if verify_mod._power_skip("thm5", h) is not None:
        return []
    return verify_mod._cell_aligned_grid(h, cap=16)


def _run_public(suite, h, x):
    out = getattr(verify_mod, _RUN_CHECK[suite])(h, x)
    return (out.lhs, out.rhs) if suite == "thm4" else out


def _run_rhs_iv(suite, h, x):
    if suite in ("thm2", "remark31"):
        return jn_mod._exp_iv(h, x, bmo_dyadic_norm(h))
    if suite == "thm4":
        return gurov_mod._theorem4_rhs(h, x, None)
    return gurov_mod._theorem5_rhs(h, x, gurov_mod._power_exponent(h).p)


def _run_per_point(suite, f):
    """(checks, passed, failures) of suite by one public check per grid
    point, the rule the run path must reproduce (remark31's check of h*
    counts once and passes)."""
    h = _run_target(suite, f)
    xs = _run_points(suite, h)
    failures, prev = [], None
    for x in xs:
        lhs, rhs = _run_public(suite, h, x)
        if lhs > rhs:
            failures.append(f"{_RUN_WHAT[suite].format(x)}: {lhs} > {rhs}")
        if suite == "thm2" and prev is not None and lhs > prev:
            failures.append(f"measure increased along the lambda grid at {x}")
        prev = lhs
    return len(xs) + (suite == "remark31"), not failures, tuple(failures[:8])


def _run_decided(suite, f):
    result = verify_all(f, [suite]).results[0]
    return result.checks, result.passed, result.failures


def _plantable(suite, h, i):
    """The j <= i for which _plant_lhs can make exactly points j..i fail:
    0, and each j whose rhs lies wholly below the rhs at j - 1."""
    xs = _run_points(suite, h)
    return [j for j in range(i + 1)
            if j == 0 or upper_float(_run_rhs_iv(suite, h, xs[j]))
            < lower_float(_run_rhs_iv(suite, h, xs[j - 1]))]


def _plant_lhs(monkeypatch, suite, h, i, j):
    """Raise the lhs at grid points 0..i to a c strictly between the rhs at
    x_j and at x_(j-1), for j in _plantable(suite, h, i), in verify and in
    the public check alike.  The lhs stays nonincreasing where it was, and
    the bound fails at x_j, ..., x_i alone; return those x."""
    xs = _run_points(suite, h)
    above = Fraction(upper_float(_run_rhs_iv(suite, h, xs[j])))
    below = (Fraction(lower_float(_run_rhs_iv(suite, h, xs[j - 1])))
             if j else above + 1)
    assert above < below
    c = (above + below) / 2
    raised = set(xs[:i + 1])
    modules, name = _RUN_LHS[suite]
    real = getattr(verify_mod, name)

    def planted(g, x, *rest):
        value = real(g, x, *rest)
        return max(value, c) if x in raised else value
    for module in modules:
        monkeypatch.setattr(module, name, planted)
    return xs[j:i + 1]


def _fails_at(real, points):
    """Wrap a public check so that its rhs sits just below its lhs at the
    given points and is left alone elsewhere."""
    just_below = _rhs_just_below(real)

    def patched(h, x, *args, **kwargs):
        return (just_below if x in points else real)(h, x, *args, **kwargs)
    return patched


def _counted(real, calls):
    """Wrap a public check so that it appends each grid point it is called at."""
    def counted(h, x, *args, **kwargs):
        calls.append(x)
        return real(h, x, *args, **kwargs)
    return counted


_RUN_SUITES = pytest.mark.parametrize("suite", sorted(_RUN_CHECK))
_PLANT_GRIDS = st.tuples(st.sampled_from(["uniform-cells", "cascade-gr"]),
                         st.integers(1, 3), st.integers(1, 7))
_CASCADES = st.tuples(st.just("cascade-gr"), st.integers(1, 3), st.integers(1, 7))


class TestRunDecisions:
    """thm2, remark31, thm4 and thm5 decide their grids a run at a time and
    report what one public check per point reports."""

    @_RUN_SUITES
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_THM31_GRIDS, st.integers(0, 2 ** 16))
    def test_matches_per_point_rule(self, suite, grid, seed):
        f = _grid(*grid, seed)
        assert _run_decided(suite, f) == _run_per_point(suite, f)

    @_RUN_SUITES
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_PLANT_GRIDS, _CASCADES, st.integers(0, 2 ** 16), st.data())
    def test_planted_violations_match_per_point_rule(self, suite, grid, cascade,
                                                     seed, data):
        # thm5 applies where the modulus is small: plant it on cascades
        f = _grid(*(cascade if suite == "thm5" else grid), seed)
        h = _run_target(suite, f)
        xs = _run_points(suite, h)
        if not xs:
            return  # a constant f: nothing to plant
        i = data.draw(st.integers(0, len(xs) - 1))
        j = data.draw(st.sampled_from(_plantable(suite, h, i)))
        with pytest.MonkeyPatch.context() as mp:
            failing = _plant_lhs(mp, suite, h, i, j)
            decided = _run_decided(suite, f)
            assert decided == _run_per_point(suite, f)
        # in grid order, the first 8 kept
        assert not decided[1] and len(decided[2]) == min(len(failing), 8)
        for x, failure in zip(failing, decided[2]):
            assert failure.startswith(_RUN_WHAT[suite].format(x) + ": ")

    @_RUN_SUITES
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_PLANT_GRIDS, _CASCADES, st.integers(0, 2 ** 16), st.data())
    def test_public_check_failing_past_the_run_test_falls_back(
            self, suite, grid, cascade, seed, data):
        # a public check that fails at a run's right end, where the run test
        # passed on the true values, and at a point inside that run: the run
        # is then decided point by point
        f = _grid(*(cascade if suite == "thm5" else grid), seed)
        xs = _run_points(suite, _run_target(suite, f))
        if not xs:
            return
        binding = _RUN_CHECK[suite]
        ends = []  # each run's right end, in grid order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, binding, _counted(getattr(verify_mod, binding), ends))
            _run_decided(suite, f)
        m = data.draw(st.integers(0, len(ends) - 1))
        run = xs[xs.index(ends[m - 1]) + 1 if m else 0:xs.index(ends[m]) + 1]
        points = {ends[m], data.draw(st.sampled_from(run))}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, binding,
                       _fails_at(getattr(verify_mod, binding), points))
            decided = _run_decided(suite, f)
            assert decided == _run_per_point(suite, f)
        assert [m.split(": ")[0] for m in decided[2]] == [
            _RUN_WHAT[suite].format(x) for x in sorted(points)]

    @_RUN_SUITES
    def test_planted_violation_inside_a_long_run(self, monkeypatch, suite):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=1, depth=7, seed=1))
        h = _run_target(suite, f)
        xs = _run_points(suite, h)
        calls = []
        monkeypatch.setattr(verify_mod, _RUN_CHECK[suite],
                            _counted(getattr(verify_mod, _RUN_CHECK[suite]), calls))
        checks = len(xs) + (suite == "remark31")
        assert _run_decided(suite, f) == (checks, True, ())
        # decided in runs, each run's right end through the public check
        assert len(calls) < len(xs) and calls == sorted(calls) and calls[-1] == xs[-1]
        i = len(xs) * 2 // 3
        j = _plantable(suite, h, i)[-1]
        failing = _plant_lhs(monkeypatch, suite, h, i, j)
        calls.clear()
        decided = _run_decided(suite, f)
        assert decided[:2] == (checks, False) and xs[i] in calls
        assert decided == _run_per_point(suite, f)
        assert [m.split(": ")[0] for m in decided[2]] == [
            _RUN_WHAT[suite].format(x) for x in failing[:8]]

    def test_rising_measure_is_reported_at_its_lambda(self, monkeypatch):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=1, depth=7, seed=1))
        grid = verify_mod._lambda_grid(f)
        k = 20
        real = verify_mod.distribution_above

        def rising(g, lam, center):  # the measure at grid[k] rises past grid[k-1]'s
            if lam == grid[k]:
                return real(g, grid[k - 1], center) + Fraction(1, 1 << 20)
            return real(g, lam, center)
        monkeypatch.setattr(verify_mod, "distribution_above", rising)
        rise = f"measure increased along the lambda grid at {grid[k]}"
        assert _run_decided("thm2", f) == (32, False, (rise,))
        # in grid order: the bound at a lambda before the rise there
        monkeypatch.setattr(verify_mod, "jn_check", _fails_at(
            verify_mod.jn_check, {grid[k], grid[-1]}))
        checks, passed, failures = _run_decided("thm2", f)
        bound = "distribution bound fails at lambda={}"
        assert (checks, passed) == (32, False)
        assert [m.split(": ")[0] for m in failures] == [
            bound.format(grid[k]), rise, bound.format(grid[-1])]

    @pytest.mark.parametrize("suite", ["thm3", "thm4"])
    def test_identically_zero_is_skipped(self, suite):
        result = verify_all(DyadicFunction(1, 2, [0, 0, 0, 0]), [suite]).results[0]
        assert (result.passed, result.skipped, result.checks) == (True, True, 0)
        assert result.note == "identically zero"

    def test_cor1_at_mean_zero(self):
        # eps = 0, so only q = 1, whose tail bound at mean 0 is 0
        result = verify_all(DyadicFunction(1, 2, [0, 0, 0, 0]), ["cor1"]).results[0]
        assert (result.passed, result.skipped, result.checks) == (True, False, 1)


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


def _threshold_one_unit_low(target, above):
    """DyadicFunction._stopping with the scaled threshold floor(alpha den
    2^(nL)) one unit low at alpha = target in the direction above."""
    real = DyadicFunction._stopping

    def off(f, alphas, direction):
        if direction == above:
            unit = Fraction(1, f._den << f.dim * f.depth)
            alphas = [a - unit if a == target else a for a in alphas]
        return real(f, alphas, direction)
    return off


class TestEachFailureIsReported:
    """One kernel one unit off makes one check of a suite fail, and the
    suite reports that failure and no other."""

    # above the mean 2 the alphas are 2, 7/2 and 5; below it 0, 1/2, 1
    # and 3/2.  f = 5 on one cell only, so only that cell stops at 5 one
    # unit low, and f = 0 on one cell only, so only that cell is left
    # outside E at 0 one unit low
    F = DyadicFunction(1, 2, [0, 1, 2, 5])

    def test_cz_stopping_cube_that_does_not_cross(self, monkeypatch):
        assert _run_decided("cz", self.F) == (14, True, ())
        monkeypatch.setattr(DyadicFunction, "_stopping",
                            _threshold_one_unit_low(Fraction(5), True))
        assert _run_decided("cz", self.F) == (14, False, (
            "structure checks fail at alpha=5: ('stopping cube "
            "DyadicCubeId(level=2, index=(3,)) does not cross 5',)",))

    def test_cz_below_cell_outside_e_that_crosses(self, monkeypatch):
        monkeypatch.setattr(DyadicFunction, "_stopping",
                            _threshold_one_unit_low(Fraction(0), False))
        assert _run_decided("cz", self.F) == (14, False, (
            "below-direction checks fail at alpha=0: "
            "('cell 0 outside E crosses 0',)",))

    def test_cz_measure_that_grows_with_alpha(self, monkeypatch):
        # above the mean 9/2: alphas 9/2, 8, 17/2, 9, and E is the right
        # half at both 9/2 and 8, so one cell more at 8 is a rise
        f = DyadicFunction(1, 2, [0, 1, 8, 9])
        real = verify_mod.stopping_family

        def one_cell_more(g, alpha, direction):
            d = real(g, alpha, direction)
            if (alpha, direction) == (8, "above"):
                d = dataclasses.replace(d, measure_E=d.measure_E + Fraction(1, 4))
            return d
        assert _run_decided("cz", f) == (15, True, ())
        monkeypatch.setattr(verify_mod, "stopping_family", one_cell_more)
        assert _run_decided("cz", f) == (
            15, False, ("|E| increased as alpha grew, at alpha=8",))

    def test_cz_matched_threshold_whose_measure_exceeds_t(self, monkeypatch):
        # f* = 4 on (0, 1/2]: F(1/4) = 4, and one unit (1/2) below it the
        # cell of 4 stops, of measure 1/2
        f = DyadicFunction(1, 1, [4, 0])
        real = verify_mod.hardy_average

        def one_unit_low(g, t):
            return real(g, t) - (Fraction(1, 2) if t == Fraction(1, 4) else 0)
        assert _run_decided("cz", f) == (9, True, ())
        monkeypatch.setattr(verify_mod, "hardy_average", one_unit_low)
        assert _run_decided("cz", f) == (9, False, (
            "|E| = 1/2 exceeds t = 1/4 at the matched threshold",))

    def test_thm1_lower_bound_above_the_cap(self, monkeypatch):
        # the dyadic norm at lower / 2^n passes; one unit of its lattice,
        # 1 / (den 4^(nL)), below it fails
        f = DyadicFunction(1, 3, [7, 3, 5, 0, 1, 6, 2, 4])
        lower = verify_mod.interval_bmo_norm(rearrange_signed(f)).lower
        assert (bmo_dyadic_norm(f), lower) == (Fraction(5, 2), 2)
        unit = Fraction(1, 4 ** 3)
        for shrink, failures in ((0, ()), (unit, (
                "certified lower bound 2 exceeds 2^n norm 63/32",))):
            monkeypatch.setattr(verify_mod, "bmo_dyadic_norm",
                                lambda g, shrink=shrink: lower / 2 - shrink)
            assert _run_decided("thm1", f) == (2, not failures, failures)

    def test_lemma22_window_above_the_full_oscillation(self, monkeypatch):
        # the anchor 0's window is [0, 1], whose oscillation is the full
        # interval's exactly: one unit more of its numerator exceeds it
        f = DyadicFunction(1, 3, [7, 3, 5, 0, 1, 6, 2, 4])
        real = verify_mod._matched_windows

        def one_unit_more(g, anchors, d, mu):
            for x, y, e, J, L, num in real(g, anchors, d, mu):
                yield x, y, e, J, L, num + 1 if x == 0 else num
        assert _run_decided("lemma22", f) == (4, True, ())
        monkeypatch.setattr(verify_mod, "_matched_windows", one_unit_more)
        assert _run_decided("lemma22", f) == (4, False, (
            "oscillation on [0,1] exceeds the full interval's",))


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
