"""CLI subcommands, file formats, round trips, exit codes."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import DyadicFunction, InputError, StepFunction1D
from dyadicbmo.cli import main
from dyadicbmo.formats import (canonical_json, format_rational,
                               function_from_obj, function_to_obj,
                               parse_rational, step_from_obj, step_to_obj)
from dyadicbmo.generators import GeneratorSpec, generate
from conftest import float_just_below


@pytest.fixture
def spike_file(tmp_path):
    path = tmp_path / "spike.json"
    path.write_text(canonical_json(
        function_to_obj(DyadicFunction(1, 2, [4, 0, 0, 0]))))
    return str(path)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational(3) == 3
        assert parse_rational("3") == 3
        assert parse_rational("-7/4") == Fraction(-7, 4)
        assert parse_rational(" 1/3 ") == Fraction(1, 3)

    def test_parse_rejects(self):
        for bad in ("x", "1/0", 1.5, None, True):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_rational(Fraction(4, 2)) == 2
        assert format_rational(Fraction(-6, 4)) == "-3/2"


class TestRoundTrip:
    def test_function_bit_identical(self):
        f = DyadicFunction(2, 1, [Fraction(1, 3), -2, 0, Fraction(22, 7)])
        text = canonical_json(function_to_obj(f))
        f2 = function_from_obj(json.loads(text))
        assert f2 == f
        assert canonical_json(function_to_obj(f2)) == text

    def test_step_bit_identical(self):
        g = StepFunction1D([0, Fraction(1, 3), 1], [Fraction(5, 2), -1])
        text = canonical_json(step_to_obj(g))
        g2 = step_from_obj(json.loads(text))
        assert g2 == g
        assert canonical_json(step_to_obj(g2)) == text

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            function_from_obj({"n": 1, "values": [1, 2]})
        with pytest.raises(InputError):
            function_from_obj({"n": 1, "level": 1, "values": [1]})
        with pytest.raises(InputError):
            step_from_obj({"breakpoints": [0, 1]})


# -- round trips over random exact rationals and grids ------------------------

rationals = st.one_of(
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-(10 ** 40), 10 ** 40), st.integers(1, 3 ** 60)))


@st.composite
def dyadic_functions(draw):
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(0, {1: 5, 2: 2, 3: 1}[n]))
    cells = draw(st.lists(rationals, min_size=1 << (n * depth),
                          max_size=1 << (n * depth)))
    return DyadicFunction(n, depth, cells)


@st.composite
def step_functions(draw):
    cuts = draw(st.sets(st.fractions(0, 1, max_denominator=1000)
                        .filter(lambda t: 0 < t < 1), max_size=8))
    values = draw(st.lists(rationals, min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x
    assert parse_rational(json.loads(json.dumps(format_rational(x)))) == x


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dyadic_functions())
def test_function_round_trip(f):
    obj = json.loads(canonical_json(function_to_obj(f)))
    assert function_from_obj(obj) == f


@settings(derandomize=True, max_examples=60, deadline=None)
@given(step_functions())
def test_step_round_trip(g):
    obj = json.loads(canonical_json(step_to_obj(g)))
    assert step_from_obj(obj) == g


class TestOversizedNumbers:
    """Numbers past the interpreter's int-string digit limit fail fast as
    input errors (exit 2, one line), not as tracebacks or minutes of work."""

    @staticmethod
    def run(tmp_path, capsys, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        code = main(["norm", "--input", str(path)])
        err = capsys.readouterr().err
        return code, err

    def test_json_integer_past_digit_limit(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             '{"n": 1, "level": 0, "values": [' + "7" * 5000 + "]}")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1e10000000", "-3.5E+30000000", "2e-30000000",
                                       "11e4299", "1e" + "9" * 5000])
    def test_exponent_past_digit_limit(self, value, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             '{"n": 1, "level": 0, "values": ["%s"]}' % value)
        assert code == 2
        assert err.startswith("error: cannot parse rational") and err.count("\n") == 1

    def test_exponent_at_digit_limit_parses(self):
        assert parse_rational("1e4299") == 10 ** 4299
        assert parse_rational("-25e-4298") == Fraction(-25, 10 ** 4298)

    @pytest.mark.parametrize("argv", [["norm"], ["maximal"],
                                      ["cz", "--alpha", "0"]])
    def test_result_past_digit_limit(self, argv, tmp_path, capsys):
        # each denominator has 4002 digits, within the limit, but the
        # mean's denominator is about their product
        big = 10 ** 4001
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "level": 1, "values": ["1/%d", "1/%d"]}'
                        % (big + 1, 3 * big + 7))
        code = main([*argv, "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCommands:
    def test_norm(self, spike_file, capsys):
        assert main(["norm", "--input", spike_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bmo_dyadic_norm"] == 2
        assert out["argmax_cube"] == {"level": 1, "index": [0]}

    def test_rearrange_with_samples(self, spike_file, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        assert main(["rearrange", "--input", spike_file, "--samples", "4",
                     "--samples-output", str(csv_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [4, 0]
        text = csv_path.read_text()
        assert text.splitlines()[0] == "t,hardy_average,t_exact,hardy_average_exact"
        assert "\r" not in text
        assert text.endswith("\n")

    def test_interval_bmo(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        g = StepFunction1D([0, Fraction(1, 4), 1], [1, 0])
        path.write_text(canonical_json(step_to_obj(g)))
        assert main(["interval-bmo", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == "1/2"
        assert out["tol_met"] is True

    def test_interval_bmo_large_value_meets_tol(self, tmp_path, capsys):
        # the exact value 150000000 sits one float ulp (about 3e-8) below
        # its upper bound; the gap is judged relative to the value
        path = tmp_path / "g.json"
        path.write_text('{"breakpoints":[0,"1/3",1],"values":[300000000,0]}')
        assert main(["interval-bmo", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == 150000000
        assert out["tol_met"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_interval_bmo_rejects_non_finite_tol(self, tol, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"breakpoints":[0,"1/4","1/2","3/4",1],'
                        '"values":[0,2,1,3]}')
        code = main(["interval-bmo", "--input", str(path), "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive and finite, got {tol}\n"

    def test_interval_bmo_rejects_bad_breakpoints(self, tmp_path):
        # parsing validates: unordered breakpoints exit 2 (InputError)
        path = tmp_path / "g.json"
        path.write_text('{"breakpoints":[0,"1/2","1/3",1],"values":[1,0,2]}')
        assert main(["interval-bmo", "--input", str(path)]) == 2

    def test_cz(self, spike_file, capsys):
        assert main(["cz", "--input", spike_file, "--alpha", "2",
                     "--direction", "above"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stopping_cubes"] == [{"level": 2, "index": [0]}]
        assert out["parent_cover"] == [{"level": 1, "index": [0]}]
        assert out["measure_E"] == "1/4"
        assert out["verification"]["passed"] is True

    def test_maximal(self, spike_file, capsys):
        assert main(["maximal", "--input", spike_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [4, 2, 1, 1]

    def test_jn_csv(self, spike_file, tmp_path):
        out_path = tmp_path / "jn.csv"
        assert main(["jn", "--input", spike_file, "--lambda-grid", "8",
                     "--output", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "lambda,measure,bound,pass"
        assert len(lines) == 9
        assert all(line.split(",")[3] == "1" for line in lines[1:])

    def test_jn_sub_ulp_violation_fails(self, spike_file, tmp_path,
                                        monkeypatch):
        # a bound one float below the measure is a violation, however small
        import dyadicbmo.cli as cli_mod
        real = cli_mod.jn_check

        def just_below(fn, lam):
            measure, _ = real(fn, lam)
            return measure, float_just_below(measure)

        monkeypatch.setattr(cli_mod, "jn_check", just_below)
        out_path = tmp_path / "jn.csv"
        assert main(["jn", "--input", spike_file, "--lambda-grid", "8",
                     "--output", str(out_path)]) == 1
        lines = out_path.read_text().splitlines()
        assert len(lines) == 9
        assert all(line.split(",")[3] == "0" for line in lines[1:])

    def test_gr_csv(self, spike_file, tmp_path, capsys):
        out_path = tmp_path / "gr.csv"
        assert main(["gr", "--input", spike_file, "--output", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "sigma,sigma_exact,v"
        assert lines[-1].endswith(",3/2")  # v at sigma = 1
        assert "epsilon = 3/2" in capsys.readouterr().out

    def test_gr_rejects_signed(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(canonical_json(
            function_to_obj(DyadicFunction(1, 1, [1, -1]))))
        assert main(["gr", "--input", str(path)]) == 2

    def test_p_root(self, capsys):
        assert main(["p-root", "--n", "1", "--eps", "1/4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["p"] - 2) < 1e-12
        assert out["residual"] <= 1e-12

    def test_p_root_out_of_range(self, capsys):
        assert main(["p-root", "--n", "1", "--eps", "3"]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_p_root_rejects_dimension(self, n, capsys):
        assert main(["p-root", "--n", n, "--eps", "1/4"]) == 2
        assert "dimension must be >= 1" in capsys.readouterr().err

    def test_check_pass(self, spike_file, capsys):
        assert main(["check", "--input", spike_file,
                     "--suite", "lemma21,thm1,thm2,cz"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert [s["name"] for s in out["suites"]] == ["lemma21", "thm1",
                                                      "thm2", "cz"]

    def test_check_unknown_suite(self, spike_file):
        assert main(["check", "--input", spike_file, "--suite", "nope"]) == 2

    def test_check_failure_exit_code(self, spike_file, monkeypatch, capsys):
        import dyadicbmo.verify as verify_mod
        real = verify_mod.jn_check

        def corrupted(fn, lam):
            m, b = real(fn, lam)
            return m + 1, b

        monkeypatch.setattr(verify_mod, "jn_check", corrupted)
        assert main(["check", "--input", spike_file, "--suite", "thm2"]) == 1

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.json"
        assert main(["generate", "--kind", "cascade-gr", "--n", "2",
                     "--level", "2", "--seed", "3", "--target-eps", "1/8",
                     "--output", str(out_path)]) == 0
        f = function_from_obj(json.loads(out_path.read_text()))
        assert f.dim == 2 and f.depth == 2
        from dyadicbmo import gr_membership
        assert gr_membership(f) <= Fraction(1, 8)

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["generate", "--kind", "uniform-cells", "--n", "1",
                         "--level", "3", "--seed", "11",
                         "--output", str(path)]) == 0
        assert a.read_text() == b.read_text()

    def test_search_small(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        best_path = tmp_path / "best.json"
        assert main(["search", "--n", "1", "--level", "1", "--restarts", "2",
                     "--iters", "25", "--seed", "4", "--output", str(out_path),
                     "--function-output", str(best_path)]) == 0
        res = json.loads(out_path.read_text())
        assert res["best_score"] <= res["hard_cap"] == 2.0
        best = function_from_obj(json.loads(best_path.read_text()))
        assert best.dim == 1 and best.depth == 1

    def test_grid_cap(self, capsys):
        # 2^21 cells: rejected by the spec and the config before any allocation
        assert main(["generate", "--kind", "uniform-cells", "--n", "3",
                     "--level", "7"]) == 2
        assert main(["search", "--n", "3", "--level", "7"]) == 2
        assert "at most 2^20" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["norm"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["norm", "--input", str(path)]) == 2


class TestUnwritableOutput:
    """Every writer turns an OSError into an input error: exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["norm", "--output", "{bad}"],
        ["jn", "--output", "{bad}"],
        ["rearrange", "--samples", "2", "--samples-output", "{bad}"],
        ["search", "--n", "1", "--level", "1", "--restarts", "1",
         "--iters", "2", "--function-output", "{bad}"],
    ])
    def test_exit_code_2(self, argv, spike_file, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "out")
        argv = [a.format(bad=bad) for a in argv]
        if argv[0] != "search":
            argv += ["--input", spike_file]
        assert main(argv) == 2
        assert f"cannot write {bad}" in capsys.readouterr().err


# -- pinned outputs ------------------------------------------------------------

def _bench_seed(*parts):
    """The input seed bench/workloads.py derives from (workload, seed, pass, slot)."""
    return int(hashlib.sha256("/".join(map(str, parts)).encode()).hexdigest()[:8], 16)


# sha256 of stdout of `check` on the seven check-mixed inputs of bench seed 1,
# pass 0: any change to a suite's verdict, check count or note shows here
PINNED_CHECKS = [
    ("uniform-cells", 1, 10,
     "9a6b3c1adb259e009d242e595e6c2145b16bdeb846d8b5fc369d5592382b0f82"),
    ("uniform-cells", 2, 5,
     "a2a52e1f1064e3b42e3197332d98bbaecc9c11f3106844793c1e27bcd5551cec"),
    ("uniform-cells", 3, 4,
     "105efc89062c9b32bbd6141a10fc82d5168794fd58c007405dc3d07531e8f601"),
    ("cascade-gr", 1, 8,
     "f18470df9507d54946ded8bfaef5e48ba33b200952eb5bb02dff0965fc313546"),
    ("cascade-gr", 2, 4,
     "9dcaff3121da1b7f581462c271bd8ad24064ca3950f1fee0fcde89e5f89edadf"),
    ("cascade-gr", 3, 3,
     "4d5902cfbf6a8a858ca4f1faa225e1874d2c9ea96c437331008c852cbb0ca895"),
    ("monotone-1d", 1, 10,
     "060424c3321c40af39c24a092e60ae829a77b0778c3f923d683640c5142a6761"),
]


@pytest.mark.parametrize("slot", range(len(PINNED_CHECKS)))
def test_check_outputs_pinned(slot, tmp_path, capsys):
    kind, n, level, stdout_sha = PINNED_CHECKS[slot]
    f = generate(GeneratorSpec(kind=kind, dim=n, depth=level,
                               seed=_bench_seed("check-mixed", 1, 0, slot)))
    path = tmp_path / "f.json"
    path.write_text(canonical_json(function_to_obj(f)))
    assert main(["check", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# sha256 of stdout of `jn` (the 32-lambda grid, its measures and the
# exponential bounds as floats) on check-mixed inputs of bench seed 1, pass 0
PINNED_JN = [
    (0, "41fa0181e4e30d32cbad74f75cfb471779aaec4a35b5a5dce54fb2c8356474c5"),
    (4, "b49fda858806386afc346652e2169cd489b3d03dffaa2e3365f023f7753eec54"),
]


@pytest.mark.parametrize("slot,stdout_sha", PINNED_JN)
def test_jn_outputs_pinned(slot, stdout_sha, tmp_path, capsys):
    kind, n, level, _ = PINNED_CHECKS[slot]
    f = generate(GeneratorSpec(kind=kind, dim=n, depth=level,
                               seed=_bench_seed("check-mixed", 1, 0, slot)))
    path = tmp_path / "f.json"
    path.write_text(canonical_json(function_to_obj(f)))
    assert main(["jn", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# sha256 of stdout of `interval-bmo` on a many-band and a few-band input of
# the interval-general workload (bench seed 1, pass 0, slots 0 and 2)
PINNED_INTERVALS = [
    (0, {"depth": 4},
     "ed8a4918ff42f348cefb245e8d2f49597e632e1e03fae02adb8dfc4c2fa4b93e"),
    (2, {"depth": 5, "low": 0, "high": 4, "denom_bits": 2},
     "111d0b683719deca7215f8ac60030efe66f7fb5ccdb21f6dafcf243971d33ea4"),
]


@pytest.mark.parametrize("slot,kw,stdout_sha", PINNED_INTERVALS)
def test_interval_bmo_outputs_pinned(slot, kw, stdout_sha, tmp_path, capsys):
    f = generate(GeneratorSpec(kind="uniform-cells", dim=1,
                               seed=_bench_seed("interval-general", 1, 0, slot),
                               **kw))
    count = len(f.cells)
    g = StepFunction1D([Fraction(k, count) for k in range(count + 1)], f.cells)
    path = tmp_path / "g.json"
    path.write_text(canonical_json(step_to_obj(g)))
    assert main(["interval-bmo", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


def _walk(pieces, seed, many_values):
    """A step function on unequal pieces k/(4 pieces): a random walk of
    steps +-1, +-2, or else values p/q with |p| < 10^4 and q in 1, 3, 7."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, 4 * pieces), pieces - 1))
    values, v = [], 0
    for _ in range(pieces):
        if many_values:
            v = Fraction(rng.randrange(-10 ** 4, 10 ** 4), rng.choice((1, 3, 7)))
        else:
            v += rng.choice((-2, -1, 1, 2))
        values.append(v)
    return StepFunction1D([Fraction(c, 4 * pieces) for c in (0, *cuts, 4 * pieces)],
                          values)


# sha256 of stdout of `interval-bmo` on larger general inputs: a 48-piece
# random walk and 96 pieces with nearly all values distinct
PINNED_GENERAL = [
    (48, 0, False,
     "3a2f3f6ba79caf104770d2564df497fd046e11e59f905287ad4cd033fcc6d73c"),
    (96, 1, True,
     "fd77056e93511fe65a5b24f363982ade3e79035767dbe825947d399dd1f45910"),
]


@pytest.mark.parametrize("pieces,seed,many_values,stdout_sha", PINNED_GENERAL)
def test_interval_bmo_general_pinned(pieces, seed, many_values, stdout_sha,
                                     tmp_path, capsys):
    g = _walk(pieces, seed, many_values)
    assert not (g.merged().is_nonincreasing or g.merged().is_nondecreasing)
    path = tmp_path / "g.json"
    path.write_text(canonical_json(step_to_obj(g)))
    assert main(["interval-bmo", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# sha256 of stdout and stderr of the exponent commands: p is the certified
# float below the root and residual bounds |p^p/(p-1)^(p-1) - target| there
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED_EXPONENTS = [
    (["p-root", "--n", "1", "--eps", "1/4"],
     "9bf5abb7121e639408c83a7d8bbddf6e7f988fbab19f58dde0e644108fdd19f7", EMPTY_SHA),
    (["p-root", "--n", "2", "--eps", "3/1000"],
     "5f9e6eb9ce88a30ccbacb5a078f7b7a2e5582a94c3851fb1a2c2a9d5f8acee9b", EMPTY_SHA),
    (["p-root", "--n", "1", "--eps", "1/1000000000000"],  # capped
     "081e8be2c3ae996c1ea75fc00d8ed7313ddbe716115f025a0049b98c9b624b80", EMPTY_SHA),
    (["gr", "--input", "{cascade}"],
     "0df878fc9096aec28bc7e92928c40d0c5c7bd1022958a24fe89557752f6fce5c",
     "46f40c0867611b05f2ce3de129f4b8bfddf2cbb0fede7f9c86286b76a0bc65da"),
]


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", PINNED_EXPONENTS)
def test_exponent_outputs_pinned(argv, stdout_sha, stderr_sha, tmp_path, capsys):
    cascade = str(tmp_path / "cascade.json")
    assert main(["generate", "--kind", "cascade-gr", "--n", "2", "--level", "3",
                 "--output", cascade]) == 0
    capsys.readouterr()
    assert main([a.format(cascade=cascade) for a in argv]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(err.encode()).hexdigest() == stderr_sha


def test_check_skips_power_bounds_at_p_one(tmp_path, capsys):
    # eps = (2e16 - 1)/(2e16 + 1) < 1, but its root lies below 1 + 2^-52, so
    # the float p is 1.0 and p/(p-1) is infinite: thm5 and cor1 do not apply
    path = tmp_path / "f.json"
    path.write_text(canonical_json(function_to_obj(
        DyadicFunction(1, 1, [1, 20000000000000000]))))
    assert main(["check", "--input", str(path)]) == 0
    suites = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    assert len(suites) == 12
    for name in ("thm5", "cor1"):
        assert suites[name]["skipped"] and suites[name]["checks"] == 0
        assert suites[name]["note"].startswith("p = 1.0")
    assert not any(s["skipped"] for n, s in suites.items() if n not in ("thm5", "cor1"))
