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
from dyadicbmo.interval_bmo import MAX_GENERAL_PIECES
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


# -- the integer parse ---------------------------------------------------------

# values of every syntax function_from_obj takes: JSON integers and ASCII
# "p" / "p/q" strings, read as ints (unreduced, "-0", leading zeros,
# padding), and the forms only Fraction reads: a sign, decimals, exponents,
# underscores and non-ASCII digits
SYNTAXES = (7, -3, 0, 10 ** 30, "2/4", "-0", "007/3", " 5/6 ", "-12/8", "9/1",
            "+3", "1.5", "1e3", "1_000", "\u0663", "-2.5e-1", "\u0661/\u0664",
            "\t-6/4\n", "+0/5", "12345678901234567890/30")


@st.composite
def mixed_syntax_objects(draw):
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(0, {1: 4, 2: 2, 3: 1}[n]))
    value = st.one_of(
        st.sampled_from(SYNTAXES),
        st.integers(-10 ** 6, 10 ** 6),
        st.builds(lambda p, q, k: f"{p * k}/{q * k}", st.integers(-99, 99),
                  st.integers(1, 12), st.integers(1, 4)))
    values = draw(st.lists(value, min_size=1 << (n * depth),
                           max_size=1 << (n * depth)))
    return {"n": n, "level": depth, "values": values}


def _fraction_or_none(v):
    """Fraction(v), or None for a form this Python's Fraction does not read
    (underscores before 3.11)."""
    try:
        return Fraction(v)
    except ValueError:
        return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mixed_syntax_objects())
def test_integer_parse_equals_fraction_parse(obj):
    expected = [_fraction_or_none(v) for v in obj["values"]]
    if any(v is None for v in expected):
        with pytest.raises(InputError):
            function_from_obj(obj)
        return
    f = function_from_obj(obj)
    g = DyadicFunction(obj["n"], obj["level"], expected)
    assert f == g
    assert (f._den, f._nums) == (g._den, g._nums)
    assert f.cells == g.cells


def test_integer_parse_reads_every_syntax():
    values = [v for v in SYNTAXES if _fraction_or_none(v) is not None]
    values += [0] * (32 - len(values))
    f = function_from_obj({"n": 1, "level": 5, "values": values})
    assert f.cells == tuple(Fraction(v) for v in values)


# each message as `check` printed it before the integer parse; a bad value
# is reported before the grid's size, as every value is parsed first
PARSE_ERRORS = [
    ({"n": 1, "level": 1, "values": ["1/0", 1]},
     "cannot parse rational '1/0': Fraction(1, 0)"),
    ({"n": 1, "level": 1, "values": [1, "1/-2"]},
     "cannot parse rational '1/-2': Invalid literal for Fraction: '1/-2'"),
    ({"n": 1, "level": 1, "values": ["", 1]},
     "cannot parse rational '': Invalid literal for Fraction: ''"),
    ({"n": 1, "level": 1, "values": [True, 1]}, "expected a rational, got True"),
    ({"n": 1, "level": 1, "values": [1.5, 1]},
     "expected an integer or 'p/q' string, got 1.5"),
    ({"n": 1, "level": 1, "values": [None, 1]},
     "expected an integer or 'p/q' string, got None"),
    ({"n": 1, "level": 2, "values": [1, "2/3", 3]},
     "expected 4 cells for n=1, L=2, got 3"),
    ({"n": 3, "level": 7, "values": [1, "1/0"]},
     "cannot parse rational '1/0': Fraction(1, 0)"),
    ({"n": 3, "level": 7, "values": [1, 2]},
     "grid of n=3, L=7 has 2^21 cells; at most 2^20 are supported"),
]


@pytest.mark.parametrize("obj,message", PARSE_ERRORS)
def test_parse_error_messages(obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- the integer parse of step files ---------------------------------------------

def _spellings(x):
    """Spellings of a Fraction x >= 0 that parse_rational reads as x: the
    ASCII forms read as ints and forms only Fraction reads."""
    p, q = x.numerator, x.denominator
    forms = [f"{p}/{q}", f" {3 * p}/{3 * q} ", f"+{p}/{q}", f"{p}/{q}\n",
             f"{p}_0/{q}_0", "".join(chr(0x660 + int(c)) if c.isdigit() else c
                                     for c in f"{p}/{q}")]
    if q == 1:
        forms += [p, f"{p}e0", f"{p}.0"]
    elif 10 ** 6 % q == 0:
        forms += [str(p / q), f"{p * 10 ** 6 // q}e-6"]
    return forms


def _step_by_fractions(obj):
    """step_from_obj as it read a file before the integer parse."""
    return StepFunction1D([parse_rational(t) for t in obj["breakpoints"]],
                          [parse_rational(v) for v in obj["values"]])


def _outcome(read, obj):
    """The step function read, or the message of its InputError."""
    try:
        return read(obj)
    except InputError as exc:
        return str(exc)


@st.composite
def step_objects(draw):
    """Step files whose breakpoints and values take every syntax: mostly
    valid breakpoints in mixed spellings, sometimes one replaced by an
    entry of SYNTAXES (out of order, past 1 or a bad form)."""
    cuts = sorted(draw(st.sets(st.builds(Fraction, st.integers(1, 39),
                                         st.sampled_from((2, 5, 8, 40))),
                               max_size=6).map(lambda s: {t for t in s if t < 1})))
    bps = [draw(st.sampled_from(_spellings(t)))
           for t in (Fraction(0), *cuts, Fraction(1))]
    if draw(st.integers(0, 3)) == 0:
        bps[draw(st.integers(0, len(bps) - 1))] = draw(st.sampled_from(SYNTAXES))
    value = st.one_of(st.sampled_from(SYNTAXES), st.integers(-10 ** 6, 10 ** 6),
                      st.builds(lambda p, q, k: f"{p * k}/{q * k}",
                                st.integers(-99, 99), st.integers(1, 12),
                                st.integers(1, 4)))
    count = len(bps) - 1 + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    return {"breakpoints": bps,
            "values": draw(st.lists(value, min_size=count, max_size=count))}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(step_objects())
def test_step_integer_parse_equals_fraction_parse(obj):
    got = _outcome(step_from_obj, obj)
    expected = _outcome(_step_by_fractions, obj)
    assert got == expected
    if isinstance(expected, StepFunction1D):
        assert (got._td, got._B, got._vd, got._V) == (
            expected._td, expected._B, expected._vd, expected._V)
        assert got.breakpoints == tuple(map(parse_rational, obj["breakpoints"]))
        assert got.values == tuple(map(parse_rational, obj["values"]))
        assert got.prefix_integrals == expected.prefix_integrals


def test_step_integer_parse_reads_every_syntax():
    # every entry of SYNTAXES as a value and as a breakpoint (where most
    # are out of range or out of order), and every spelling of a cut
    for syntax in SYNTAXES:
        obj = {"breakpoints": [0, syntax, 1], "values": [1, 2]}
        assert _outcome(step_from_obj, obj) == _outcome(_step_by_fractions, obj)
        x = _fraction_or_none(syntax)
        if x is None:
            continue
        obj = {"breakpoints": [0, "1/2", 1], "values": [syntax, "1/3"]}
        assert step_from_obj(obj).values == (x, Fraction(1, 3))
        if x == 0:
            obj = {"breakpoints": [syntax, "1/2", 1], "values": [1, 2]}
            assert step_from_obj(obj).breakpoints == (0, Fraction(1, 2), 1)
    for t, place in ((Fraction(0), lambda form: [form, "1/2", 1]),
                     (Fraction(3, 8), lambda form: [0, "1/8", form, "7/8", 1]),
                     (Fraction(1), lambda form: [0, "1/2", form])):
        for form in _spellings(t):
            if _fraction_or_none(form) is None:
                continue
            obj = {"breakpoints": place(form), "values": [1, -1] * 2}
            obj["values"] = obj["values"][:len(obj["breakpoints"]) - 1]
            g = step_from_obj(obj)
            assert g == _step_by_fractions(obj)
            assert t in g.breakpoints


# each message as interval-bmo printed it before the integer parse: the
# breakpoints are parsed first, then the values, then the shape is checked
STEP_ERRORS = [
    ({"breakpoints": [0, "1/2", 1], "values": [True, 1]},
     "expected a rational, got True"),
    ({"breakpoints": [False, "1/2", 1], "values": [1, 2]},
     "expected a rational, got False"),
    ({"breakpoints": [0, "1/0", 1], "values": [1, 2]},
     "cannot parse rational '1/0': Fraction(1, 0)"),
    ({"breakpoints": [0, "1/2", 1], "values": ["x", True]},
     "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    ({"breakpoints": [0, 1.5, 1], "values": [1, 2]},
     "expected an integer or 'p/q' string, got 1.5"),
    ({"breakpoints": [0, "1/2", "1/2", 1], "values": [1, 2, 3]},
     "breakpoints must be strictly increasing"),
    ({"breakpoints": [0, "3/4", "1/2", 1], "values": [1, 2, 3]},
     "breakpoints must be strictly increasing"),
    ({"breakpoints": [0, "-1/2", 1], "values": [1, 2]},
     "breakpoints must be strictly increasing"),
    ({"breakpoints": ["1/8", "1/2", 1], "values": [1, 2]},
     "breakpoints must start at 0 and end at 1"),
    ({"breakpoints": [0, "1/2", "3/2"], "values": [1, 2]},
     "breakpoints must start at 0 and end at 1"),
    ({"breakpoints": [0, "1/2", 1], "values": [1, 2, 3]},
     "need m+1 breakpoints for m piece values"),
    ({"breakpoints": [0, "2/1", "1/2", 1], "values": [1, 2]},
     "need m+1 breakpoints for m piece values"),
    ({"breakpoints": [0], "values": []},
     "need m+1 breakpoints for m piece values"),
]


@pytest.mark.parametrize("obj,message", STEP_ERRORS)
def test_step_parse_error_messages(obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["interval-bmo", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text", ["1" * 4301, "-" + "2" * 4301, "1/" + "3" * 4301])
def test_parse_past_digit_limit_message(text, tmp_path, capsys):
    # the ASCII form int() rejects takes Fraction's path and its message
    with pytest.raises(ValueError) as exc:
        Fraction(text)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 1, "level": 1, "values": [1, text]}))
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot parse rational {text!r}: {exc.value}\n")


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
    """Numbers past the interpreter's int-string digit limit or past the
    float range, and grids past the size caps, fail fast as input errors
    (exit 2, one line), not as tracebacks or minutes of work."""

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

    # 10^400 has 401 digits, within the digit limit, but is past the
    # largest float
    @pytest.mark.parametrize("argv, text", [
        (["interval-bmo"], '{"breakpoints": [0, "1/2", 1], "values": ["1e400", 0]}'),
        (["check"], '{"n": 1, "level": 1, "values": ["1e400", 0]}'),
        (["check", "--suite", "thm1"], '{"n": 1, "level": 1, "values": ["1e400", 0]}'),
        (["jn"], '{"n": 1, "level": 1, "values": ["1e400", 0]}'),
        (["rearrange", "--samples", "2"], '{"n": 1, "level": 1, "values": ["1e400", 0]}'),
    ])
    def test_value_past_float_range(self, argv, text, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(text)
        code = main([argv[0], "--input", str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "past the largest float" in err

    # without the cap n = 64 fails on a 2^64-element list (exit 1), and
    # n = 21 builds 2^21-element lists, which stay small
    @pytest.mark.parametrize("dim", [21, 64])
    def test_dimension_past_cap(self, dim, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"n": %d, "level": 0, "values": [3]}' % dim)
        assert main(["check", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: dimension n={dim} is not supported; at most n=20 is\n"

    @pytest.mark.parametrize("n, limit", [("20", "1/524288"),
                                          ("20000", "2^(1-20000)")])
    def test_p_root_dimension_past_eps(self, n, limit, capsys):
        # 2^(1-n) for n = 20000 has more digits than str converts
        assert main(["p-root", "--n", n, "--eps", "1/8"]) == 2
        assert capsys.readouterr().err == (
            f"error: epsilon must lie in (0, {limit}) for dimension {n}, got 1/8\n")


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

    def test_interval_bmo_rejects_too_many_general_pieces(self, tmp_path,
                                                          capsys):
        # one piece over the cap of the non-monotone path: exit 2 at once
        m = MAX_GENERAL_PIECES + 1
        path = tmp_path / "g.json"
        path.write_text(canonical_json(step_to_obj(StepFunction1D(
            [Fraction(k, m) for k in range(m + 1)], [k % 2 for k in range(m)]))))
        assert main(["interval-bmo", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: non-monotone step function has {m} pieces "
                       f"after merging; at most {MAX_GENERAL_PIECES} are "
                       "supported\n")

    @pytest.mark.parametrize("command,text", [
        ("interval-bmo", '{"breakpoints": 5, "values": [1]}'),
        ("interval-bmo", '{"breakpoints": [0, 1], "values": 7}'),
        ("interval-bmo", '{"breakpoints": "01", "values": [5]}'),
        ("norm", '{"n": true, "level": 1, "values": [1, 2]}'),
        ("norm", '{"n": 1, "level": true, "values": [1, 2]}'),
    ])
    def test_malformed_object_exits_2(self, command, text, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main([command, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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


def _check_mixed(slot):
    """The check-mixed input of bench seed 1, pass 0, at slot."""
    kind, n, level, _ = PINNED_CHECKS[slot]
    return generate(GeneratorSpec(kind=kind, dim=n, depth=level,
                                  seed=_bench_seed("check-mixed", 1, 0, slot)))


def _function_file(f, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(canonical_json(function_to_obj(f)))
    return str(path)


@pytest.mark.parametrize("slot", range(len(PINNED_CHECKS)))
def test_check_outputs_pinned(slot, tmp_path, capsys):
    path = _function_file(_check_mixed(slot), tmp_path)
    assert main(["check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CHECKS[slot][3]


# sha256 of stdout of `jn` (the 32-lambda grid, its measures and the
# exponential bounds as floats) on check-mixed inputs of bench seed 1, pass 0
PINNED_JN = [
    (0, "41fa0181e4e30d32cbad74f75cfb471779aaec4a35b5a5dce54fb2c8356474c5"),
    (4, "b49fda858806386afc346652e2169cd489b3d03dffaa2e3365f023f7753eec54"),
]


@pytest.mark.parametrize("slot,stdout_sha", PINNED_JN)
def test_jn_outputs_pinned(slot, stdout_sha, tmp_path, capsys):
    assert main(["jn", "--input", _function_file(_check_mixed(slot), tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# sha256 of stdout of `cz` and `maximal` on check-mixed inputs of bench seed
# 1, pass 0 (slot 0: n = 1; slot 1: n = 2), and on NESTED (slot None), whose
# parent cover keeps the father (1, 0) of the stopping cube (2, 0) and drops
# the father (2, 1) of the stopping cell (3, 3), which lies inside it
NESTED = DyadicFunction(1, 3, [5, 0, 0, 3, 0, 0, 0, 0])
PINNED_CZ = [
    (0, "1/2", "above",
     "7a2d7c2134dc2d32607f257a3838c5be31bd4c5aeea830cfd872fb22c75c4ac4"),
    (0, "7/3", "above",
     "c36e5e78e6fbb5abfddf07fb8fb271ac6d9b0a6cafbfc95d0f480b79dbda2b7c"),
    (0, "-8", "below",
     "b5639d59c4fb5e39e702dadbf884a1cbcfea9c7c4f0b4f58e13d8462b89b48ba"),
    (0, "-29/4", "below",
     "27e0b750d9d2e2482843c49451c3cc7851a111c9e97b02be32ca2bb1ce41c940"),
    (1, "1", "above",
     "eb684e7da49c48800189d340f3f8171ded6a9afc0d0239ab677884cf5a904c91"),
    (1, "4", "above",
     "2d004f94d3ec15cdd6863dcfefff476d6ee85aab3cdb84c4b9ae4d3418d2d99a"),
    (1, "-31/4", "below",
     "cdc37b263b56804c3d0071060036f891c53d4f9b79e03ff5894eb1b4774423ee"),
    (1, "-29/4", "below",
     "c832f99bbd8d6fc46866506d30c2cb45016162c625ab8d7197e9dedc2f6230bc"),
    (None, "2", "above",
     "b41c846a01f5bec9da6c11b3fe98a1e8a7a6d249c517fd2fc75ff13ae0513749"),
]
PINNED_MAXIMAL = [
    (0, "8131dd87e4d3e61f6d1d98e3d67b8cf6f84bc3a26e29bb384efe7ebf3f03fbd2"),
    (1, "02bf82ba370f398d4b2f24f7b52b0477a22e25c2988559d16f587405844be235"),
    (None, "5073d94a6f048d1ab2f894640f582f3ff9a543efb0fe2f23e42b5f1324e0942f"),
]


@pytest.mark.parametrize("slot,alpha,direction,stdout_sha", PINNED_CZ)
def test_cz_outputs_pinned(slot, alpha, direction, stdout_sha, tmp_path, capsys):
    f = NESTED if slot is None else _check_mixed(slot)
    assert main(["cz", "--input", _function_file(f, tmp_path), f"--alpha={alpha}",
                 "--direction", direction]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("slot,stdout_sha", PINNED_MAXIMAL)
def test_maximal_outputs_pinned(slot, stdout_sha, tmp_path, capsys):
    f = NESTED if slot is None else _check_mixed(slot)
    assert main(["maximal", "--input", _function_file(f, tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# sha256 of stdout of `interval-bmo` on inputs of the interval-general
# workload (bench seed 1, pass 0): many-band L=4, few-band, many-band L=5
PINNED_INTERVALS = [
    (0, {"depth": 4},
     "ed8a4918ff42f348cefb245e8d2f49597e632e1e03fae02adb8dfc4c2fa4b93e"),
    (2, {"depth": 5, "low": 0, "high": 4, "denom_bits": 2},
     "111d0b683719deca7215f8ac60030efe66f7fb5ccdb21f6dafcf243971d33ea4"),
    (1, {"depth": 5},
     "e8cad50e86c996d8cfff86a3d67fda3620cc8624d9514dcdeebd61f2b38b1430"),
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
# random walk, 96 pieces with nearly all values distinct and a 200-piece walk
PINNED_GENERAL = [
    (48, 0, False,
     "3a2f3f6ba79caf104770d2564df497fd046e11e59f905287ad4cd033fcc6d73c"),
    (96, 1, True,
     "fd77056e93511fe65a5b24f363982ade3e79035767dbe825947d399dd1f45910"),
    (200, 2, False,
     "373be2f351f62bb29a267876b1a1b219fc933306b21befb52ffb1344d2c23a9b"),
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


# sha256 over the stdout of `generate` for each kind at seeds 0, 3 and 11,
# several sizes and four value ranges, and of the functions the generator
# makes at 0, 3 and 9 denominator bits
GENERATE_SIZES = {"uniform-cells": [(1, 0), (1, 6), (2, 3), (3, 2)],
                  "monotone-1d": [(1, 0), (1, 7)],
                  "cascade-gr": [(1, 4), (2, 2), (3, 1)]}
PINNED_GENERATE = [
    ("uniform-cells", "f41f8b4380c14060600aff9370b4bfa03338513eac9d8436bd2cfb2bb80e15f9"),
    ("monotone-1d", "046aa2aa5f3e17ce9064f10fc3a689c3aa607b9548ddde3335b4532af8fb9555"),
    ("cascade-gr", "de1a005bc5a5a2f66da89b0f425dab8442c1b7976a00cb08c6c56eb258586c22"),
]


@pytest.mark.parametrize("kind,sha", PINNED_GENERATE)
def test_generate_outputs_pinned(kind, sha, capsys):
    digest = hashlib.sha256()
    for seed in (0, 3, 11):
        for n, level in GENERATE_SIZES[kind]:
            for low, high in (("-8", "8"), ("-1/3", "5/7"), ("2", "2"), ("0", "1/6")):
                code = main(["generate", "--kind", kind, "--n", str(n),
                             "--level", str(level), "--seed", str(seed),
                             f"--low={low}", f"--high={high}"])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
            for bits in (0, 3, 9):
                f = generate(GeneratorSpec(kind=kind, dim=n, depth=level, seed=seed,
                                           denom_bits=bits, low=Fraction(-5, 2),
                                           high=Fraction(7, 3)))
                digest.update(canonical_json(function_to_obj(f)).encode())
    assert digest.hexdigest() == sha


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
