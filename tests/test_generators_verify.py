"""Generators, the aggregated verification suites, and fault injection."""

import dataclasses
from fractions import Fraction

import pytest

import dyadicbmo.verify as verify_mod
from dyadicbmo import (DyadicFunction, GenerationError, GeneratorSpec,
                       InputError, StepFunction1D, every_cube, generate,
                       gr_membership, rearrange_signed, verify_all)
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


def _endpoint(g, a):
    mu = g.integral
    return verify_mod._matching_mean_endpoint(
        g, a, mu, verify_mod._mean_defect(g, mu))


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
