"""Extremal search: determinism, caps, the exhaustive binary case."""

import concurrent.futures
import multiprocessing
import random
import sys
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyadicbmo import (DyadicFunction, InputError, PreconditionError,
                       SearchConfig, bmo_dyadic_norm, interval_bmo_norm,
                       ratio_objective, rearrange_signed, search)
from dyadicbmo.cli import main
from dyadicbmo.search import (JN_PROBE_WEIGHT, MAX_SEARCH_WORK, OBJECTIVES,
                              _jn_probe_score, _normalize, _ratio_nums)
from conftest import normalize_oracle, random_function


def ratio_pair(f):
    """The trial kernel's (num, den) on f's numerators; None for a constant f."""
    return _ratio_nums(f.dim, f.depth, f._den, f._nums)


# 2^m cells of numerators over 2^bits, as the search holds them
lattices = st.integers(0, 6).flatmap(lambda m: st.lists(
    st.integers(-(1 << 14), 1 << 14), min_size=1 << m, max_size=1 << m))


class TestNormalize:
    @given(nums=lattices, bits=st.integers(0, 12))
    @example(nums=[-5, 0], bits=2)       # cells +-5/2 after scaling: ties
    @example(nums=[1, -2], bits=1)       # a tie at -3/2
    @example(nums=[3, -1, 0, 2], bits=0)
    @example(nums=[7], bits=3)           # one cell
    @example(nums=[4, 4, 4, 4], bits=5)  # constant cells
    @example(nums=[1, 0], bits=0)
    def test_matches_fraction_oracle(self, nums, bits):
        assert _normalize(nums, bits) == normalize_oracle(nums, bits)

    def test_ties_round_to_even(self):
        # -5/4, 0 -> -5/8, 5/8 -> +-5/2 on the 2^-2 lattice -> +-2
        assert _normalize([-5, 0], 2) == [-2, 2]


class TestRatioObjective:
    def test_two_cells(self):
        assert ratio_objective(DyadicFunction(1, 1, [1, 0])) == 1.0

    def test_square_wave(self):
        assert ratio_objective(DyadicFunction(1, 2, [1, 0, 1, 0])) == 1.0

    def test_rejects_constant(self):
        with pytest.raises(PreconditionError):
            ratio_objective(DyadicFunction(1, 1, [2, 2]))

    def test_capped_by_two_pow_n(self):
        import random
        rng = random.Random(2)
        for _ in range(80):
            n = rng.choice([1, 2])
            depth = rng.randrange(1, 4 if n == 1 else 2)
            cells = [Fraction(rng.randrange(-16, 17), 8)
                     for _ in range(1 << (n * depth))]
            f = DyadicFunction(n, depth, cells)
            if bmo_dyadic_norm(f) == 0:
                continue
            assert ratio_objective(f) <= float(1 << n)

    def test_invariance_under_shift_and_scale(self):
        f = DyadicFunction(1, 2, [3, 1, 0, 2])
        base = ratio_objective(f)
        assert ratio_objective(f.shifted(Fraction(7, 3))) == base
        assert ratio_objective(f.scaled(Fraction(5, 2))) == base


class TestIntegerScore:
    def test_pair_is_the_fraction_ratio(self):
        # the trial score is an integer pair; its value is the certified
        # lower bound over the public dyadic norm, and its float is the
        # ratio_objective value
        rng = random.Random(25)
        fs = [DyadicFunction(2, 1, ["5/3"] * 4)]
        for _ in range(120):
            n = rng.choice([1, 2, 3])
            fs.append(random_function(rng, n, rng.randrange(1, 7 // n),
                                      denom_bits=rng.choice((0, 2, 4))))
        for f in fs:
            scored = ratio_pair(f)
            norm = bmo_dyadic_norm(f)
            if norm == 0:
                assert scored is None
                with pytest.raises(PreconditionError):
                    ratio_objective(f)
                continue
            num, den = scored
            exact = interval_bmo_norm(rearrange_signed(f)).lower / norm
            assert Fraction(num, den) == exact
            assert num / den == float(exact) == ratio_objective(f)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_ratio_objective_rejects_bad_tol(self, tol):
        with pytest.raises(InputError, match="tolerance must be positive"):
            ratio_objective(DyadicFunction(1, 2, [3, 1, 0, 2]), tol)

    def test_search_builds_one_certificate(self, monkeypatch):
        # trials are scored on the integer core; only the reported best
        # gets an interval bound
        search_mod = sys.modules["dyadicbmo.search"]
        real, calls = search_mod.interval_bmo_norm, []

        def counted(g, tol=1e-9):
            calls.append(g)
            return real(g, tol)

        monkeypatch.setattr(search_mod, "interval_bmo_norm", counted)
        res = search(SearchConfig(dim=2, depth=1, restarts=3, iterations=20,
                                  seed=4))
        assert len(calls) == 1
        assert calls[0] == rearrange_signed(res.best_function)
        assert res.certificate == real(calls[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_best_trial_function_is_reported(self, threads, monkeypatch):
        # the reported function is the best trial's, built from its
        # numerators alone: no trial builds a function, and the reported
        # one builds its own level pass once, for the certificate
        search_mod = sys.modules["dyadicbmo.search"]
        cfg = SearchConfig(dim=1, depth=3, restarts=2, iterations=15, seed=2,
                           threads=threads)
        expected = search(cfg)
        # a function's own level pass goes through dyadic's _level_pass; the
        # trials' kernel through search's binding of it
        dyadic_mod = sys.modules["dyadicbmo.dyadic"]
        made, passes, kept = [], [], []
        real_pass, real_from_nums = dyadic_mod._level_pass, DyadicFunction._from_nums
        monkeypatch.setattr(dyadic_mod, "_level_pass",
                            lambda *a: passes.append(a[0]) or real_pass(*a))
        monkeypatch.setattr(DyadicFunction, "_from_nums",
                            lambda *a: made.append(1) or real_from_nums(*a))
        real_rearrange = search_mod.rearrange_signed
        monkeypatch.setattr(search_mod, "rearrange_signed",
                            lambda f: kept.append(set(f._cache)) or real_rearrange(f))
        res = search(cfg)
        assert (res.best_function, res.trace, res.best_score_exact,
                res.certificate) == (expected.best_function, expected.trace,
                                     expected.best_score_exact, expected.certificate)
        # one function per restart, in the process that runs it
        assert len(made) == (cfg.restarts if threads == 1 else 0)
        assert passes == [res.best_function._nums]
        assert kept == [set()]  # nothing is handed to the reported function
        assert "bmo" in res.best_function._cache

    def test_a_fault_in_the_trial_kernel_is_refused(self, monkeypatch):
        # every nonzero top of the trials' level pass one unit high: the
        # trial scores are wrong, and the certificate, which recomputes the
        # norm and the rearrangement from the reported function, refuses it
        search_mod = sys.modules["dyadicbmo.search"]
        real = search_mod._level_pass

        def faulty(*args):
            tops, ratios, firsts = real(*args)
            return [t + 1 if t else 0 for t in tops], ratios, firsts

        monkeypatch.setattr(search_mod, "_level_pass", faulty)
        with pytest.raises(AssertionError, match=r"the best score \S+ is not its "
                           r"certificate's lower bound over the dyadic norm"):
            search(SearchConfig(dim=1, depth=3, restarts=2, iterations=30, seed=1))


class TestTrialKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_matches_the_public_path(self, seed):
        # the kernel scores bare numerators over any den, unreduced, as the
        # certificate over the public norm does
        rng = random.Random(seed)
        cases = [(1, 2, 5, [0, 0, 5, 5])]  # f >= 0, level 1 every o = 0, g = 5
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            depth = rng.randrange(1, 7 // n)
            size = 1 << (n * depth)
            pool = [rng.randrange(-8, 9) for _ in range(rng.choice((2, 3, size)))]
            factor = rng.choice((1, 2, 3, 4, 12))  # shared by every numerator
            nums = [factor * rng.choice(pool) for _ in range(size)]
            if rng.random() < 0.25:
                nums = [abs(a) for a in nums]
            cases.append((n, depth, rng.choice((1, 3, 4, 12, 16)), nums))
        for n, depth, den, nums in cases:
            f = DyadicFunction._from_nums(n, depth, den, nums)
            scored = _ratio_nums(n, depth, den, nums)
            norm = bmo_dyadic_norm(f)
            if norm == 0:
                assert scored is None
                continue
            assert Fraction(*scored) == interval_bmo_norm(rearrange_signed(f)).lower / norm

    def test_a_ratio_one_unit_past_the_cap_is_refused(self, monkeypatch):
        # the interval numerator bn at the cap passes; one unit higher the
        # trial is refused, by _ratio_nums and inside a search
        search_mod = sys.modules["dyadicbmo.search"]
        real, seen = search_mod._monotone_ints, []
        monkeypatch.setattr(search_mod, "_monotone_ints",
                            lambda *a: seen.append(real(*a)) or seen[-1])
        f = DyadicFunction(1, 2, [3, 1, 0, 2])
        num, den = ratio_pair(f)
        bn, bd, arg = seen[0]
        at_cap = (den << f.dim) * bn // num  # num is bn times a constant
        monkeypatch.setattr(search_mod, "_monotone_ints",
                            lambda *a: (at_cap, bd, arg))
        ratio = Fraction(*ratio_pair(f))
        assert ratio <= 2 < ratio + Fraction(num, den * bn)  # bn's unit
        monkeypatch.setattr(search_mod, "_monotone_ints",
                            lambda *a: (at_cap + 1, bd, arg))
        with pytest.raises(AssertionError, match=r"exceeds the proven cap 2; "
                           r"this indicates a bug in the norm computation"):
            ratio_pair(f)
        monkeypatch.setattr(search_mod, "_monotone_ints",
                            lambda *a: (lambda b: (b[0] << 8, *b[1:]))(real(*a)))
        with pytest.raises(AssertionError, match=r"exceeds the proven cap 2; "):
            search(SearchConfig(dim=1, depth=2, restarts=1, iterations=5, seed=1))

    def test_a_certificate_one_unit_off_is_refused(self, monkeypatch):
        # a certificate whose lower bound is one unit off the reported
        # ratio times the norm fails the search's final check
        search_mod = sys.modules["dyadicbmo.search"]
        real = search_mod.interval_bmo_norm

        def off(g, tol=1e-9):
            bound = real(g, tol)
            return replace(bound, lower=bound.lower + Fraction(1, bound.lower.denominator))

        monkeypatch.setattr(search_mod, "interval_bmo_norm", off)
        with pytest.raises(AssertionError, match=r"the best score \S+ is not its "
                           r"certificate's lower bound over the dyadic norm"):
            search(SearchConfig(dim=1, depth=2, restarts=1, iterations=5, seed=1))


class TestExhaustiveBinaryCase:
    def test_enumeration_oracle(self):
        # all non-constant {0,1} functions at n=1, L=1: ratio exactly 1
        ratios = []
        for cells in product((0, 1), repeat=2):
            f = DyadicFunction(1, 1, cells)
            if bmo_dyadic_norm(f) == 0:
                continue
            ratios.append(ratio_objective(f))
        assert ratios == [1.0, 1.0]

    def test_search_returns_one(self):
        cfg = SearchConfig(dim=1, depth=1, restarts=2, iterations=40, seed=4,
                           denom_bits=1)
        res = search(cfg)
        assert res.best_score == 1.0
        assert res.best_score_exact == 1


class TestSearch:
    def test_probe_has_no_score_on_a_constant_function(self):
        assert _jn_probe_score(DyadicFunction(1, 2, [3, 3, 3, 3])) is None

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_every_draw_constant_finds_no_candidate(self, monkeypatch, objective):
        # every cell of every start draws 0, so each restart gives up after
        # its retries and no restart has a best to report
        monkeypatch.setattr(random.Random, "randrange", lambda self, *args: 0)
        cfg = SearchConfig(dim=1, depth=2, restarts=2, iterations=5, seed=1,
                           objective=objective)
        with pytest.raises(PreconditionError,
                           match="no valid \\(non-constant\\) candidate"):
            search(cfg)

    def test_deterministic_given_seed(self):
        cfg = SearchConfig(dim=1, depth=2, restarts=2, iterations=50, seed=9)
        a = search(cfg)
        b = search(cfg)
        assert a.best_function == b.best_function
        assert a.best_score == b.best_score
        assert a.trace == b.trace

    def test_different_seeds_may_differ_but_stay_capped(self):
        for seed in (1, 2, 3):
            cfg = SearchConfig(dim=1, depth=2, restarts=1, iterations=40,
                               seed=seed)
            res = search(cfg)
            assert 0 < res.best_score <= res.hard_cap
            assert res.best_score_exact <= 2

    def test_trace_monotone_per_restart(self):
        cfg = SearchConfig(dim=1, depth=3, restarts=2, iterations=120, seed=6)
        res = search(cfg)
        per_restart = {}
        for r, it, score in res.trace:
            if r in per_restart:
                prev_it, prev_score = per_restart[r]
                assert it > prev_it and score > prev_score
            per_restart[r] = (it, score)

    def test_certificate_matches_score(self):
        cfg = SearchConfig(dim=1, depth=2, restarts=1, iterations=60, seed=8)
        res = search(cfg)
        norm = bmo_dyadic_norm(res.best_function)
        assert res.best_score_exact == res.certificate.lower / norm

    def test_ratio_range_default_levels(self):
        # the experiment's asserted range: [1, 2] for n=1
        cfg = SearchConfig(dim=1, depth=4, restarts=2, iterations=150, seed=12)
        res = search(cfg)
        assert 1.0 <= res.best_score <= 2.0

    def test_parallel_restarts_match_serial(self):
        base = SearchConfig(dim=1, depth=2, restarts=2, iterations=30, seed=5)
        par = SearchConfig(dim=1, depth=2, restarts=2, iterations=30, seed=5,
                           threads=2)
        a, b = search(base), search(par)
        assert a.best_function == b.best_function
        assert a.trace == b.trace

    def test_config_validation(self):
        with pytest.raises(InputError):
            SearchConfig(restarts=0)
        with pytest.raises(InputError):
            SearchConfig(objective="nope")
        with pytest.raises(InputError):
            SearchConfig(dim=3, depth=7)  # over the 2^20-cell cap
        for bad in (dict(temp_final=0), dict(temp_initial=0),
                    dict(temp_initial=-0.5), dict(denom_bits=-1)):
            with pytest.raises(InputError):
                SearchConfig(**bad)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_one_cell_grid_is_refused_up_front(self, dim, monkeypatch, capsys):
        # n * L = 0: no candidate is drawn, one error line, exit 2
        search_mod = sys.modules["dyadicbmo.search"]
        monkeypatch.setattr(search_mod, "_run_restart", None)
        with pytest.raises(InputError, match="search needs depth >= 1"):
            SearchConfig(dim=dim, depth=0)
        assert main(["search", "--n", str(dim), "--level", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: search needs depth >= 1: every one-cell "
                       "function is constant and has no score\n")

    def test_config_bounds_the_work(self):
        # restarts x (iterations + 1) x cells, times the probe's weight
        half = MAX_SEARCH_WORK // 2
        SearchConfig(dim=1, depth=1, restarts=1, iterations=half - 1)
        SearchConfig(dim=1, depth=1, restarts=half // 2, iterations=1)
        SearchConfig(dim=1, depth=1, restarts=1, iterations=half // JN_PROBE_WEIGHT - 1,
                     objective="jn_B_probe")
        for big in (dict(iterations=half), dict(restarts=half // 2 + 1, iterations=1),
                    dict(iterations=half // JN_PROBE_WEIGHT, objective="jn_B_probe"),
                    dict(restarts=10 ** 9, iterations=10 ** 9)):
            with pytest.raises(InputError):
                SearchConfig(**{"dim": 1, "depth": 1, "restarts": 1, **big})

    def test_cli_refuses_an_oversized_search(self, tmp_path, capsys):
        code = main(["search", "--n", "1", "--level", "4", "--iters",
                     "1000000000", "--function-output", str(tmp_path / "best.json")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: a search of restarts x (iterations + 1) x cells "
                       f"= 256000000256 trial cells is too large; at most "
                       f"{MAX_SEARCH_WORK} are supported\n")
        assert not (tmp_path / "best.json").exists()

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_config_rejects_bad_tol(self, tol):
        with pytest.raises(InputError):
            SearchConfig(tol=tol)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_cli_rejects_non_finite_tol(self, tol, tmp_path, capsys):
        code = main(["search", "--n", "1", "--level", "2", "--restarts", "1",
                     "--iters", "2", "--tol", tol, "--function-output",
                     str(tmp_path / "best.json")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive and finite, got {tol}\n"
        assert not (tmp_path / "best.json").exists()

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_pooled_restarts_match_serial_under_start_method(self, method, monkeypatch):
        # forkserver and spawn workers import the package afresh and inherit
        # no state from this process; two workers only
        search_mod = sys.modules["dyadicbmo.search"]
        cfg = SearchConfig(dim=1, depth=2, restarts=2, iterations=30, seed=5)
        serial = search(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            partial(concurrent.futures.ProcessPoolExecutor,
                                    mp_context=multiprocessing.get_context(method)))
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
        pooled = search(replace(cfg, threads=2))
        assert pooled == serial

    def test_pool_clamped(self, monkeypatch):
        # a pool that runs inline and records its size: no process starts
        search_mod = sys.modules["dyadicbmo.search"]
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 4)
        base = dict(dim=1, depth=2, iterations=5, seed=5)
        serial = search(SearchConfig(restarts=3, **base))
        pooled = search(SearchConfig(restarts=3, threads=8, **base))
        search(SearchConfig(restarts=6, threads=8, **base))
        search(SearchConfig(restarts=6, threads=1, **base))
        assert sizes == [3, 4]
        assert pooled.best_function == serial.best_function
        assert pooled.trace == serial.trace

    def test_jn_probe_objective(self):
        cfg = SearchConfig(dim=1, depth=2, restarts=1, iterations=40, seed=3,
                           objective="jn_B_probe")
        res = search(cfg)
        assert 0 < res.best_score <= res.hard_cap  # cap is e
        assert res.certificate is None

    def test_jn_probe_checks_the_certified_bound(self, monkeypatch):
        # the best probe is re-checked against jn_check's upward-rounded
        # bound with no slack: a bound one float below the measure trips it
        from conftest import float_just_below
        import dyadicbmo.johnnirenberg as jn_mod
        real = jn_mod.jn_check

        def just_below(fn, lam):
            measure, _ = real(fn, lam)
            return measure, float_just_below(measure)

        monkeypatch.setattr(jn_mod, "jn_check", just_below)
        cfg = SearchConfig(dim=1, depth=2, restarts=1, iterations=5, seed=3,
                           objective="jn_B_probe")
        with pytest.raises(AssertionError, match="certified bound"):
            search(cfg)
