"""CLI subcommands, file formats, round trips, exit codes."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import (DyadicCubeId, DyadicFunction, GeneratorSpec,
                       InputError, PreconditionError, StepFunction1D,
                       gr_profile, jn_abs_check, maximal_level_set,
                       theorem3_check, theorem4_bound)
from dyadicbmo.cli import main
from dyadicbmo.formats import (canonical_json, format_rational,
                               function_from_obj, function_to_obj,
                               parse_rational, step_from_obj, step_to_obj)
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


def test_each_distinct_string_is_parsed_once(monkeypatch):
    import dyadicbmo.formats as formats_mod
    real, parsed = formats_mod._ratio, []

    def counted(obj):
        parsed.append(obj)
        return real(obj)
    monkeypatch.setattr(formats_mod, "_ratio", counted)
    values = ["1/2", " 1/2 ", "2/4", "1/2", 3, 3, "1.5", " 1/2 ", "1.5", 3]
    f = function_from_obj({"n": 1, "level": 4, "values": values + ["0"] * 6})
    assert f.cells == tuple(Fraction(v) for v in values + ["0"] * 6)
    # strings by their raw text, once each; ints where they stand
    assert parsed == ["1/2", " 1/2 ", "2/4", 3, 3, "1.5", 3, "0"]


def test_parsed_strings_stay_right_past_the_memo(monkeypatch):
    # 5000 distinct strings, then the first 3192 again: the memo of 4096 is
    # emptied at the 4097th, so the repeats are parsed again, and every
    # value still parses to its own pair
    import dyadicbmo.formats as formats_mod
    real, parsed = formats_mod._ratio, []
    monkeypatch.setattr(formats_mod, "_ratio", lambda obj: parsed.append(obj) or real(obj))
    values = [f"{k}/7" for k in range(5000)] + [f"{k}/7" for k in range(3192)]
    f = function_from_obj({"n": 1, "level": 13, "values": values})
    assert f.cells == tuple(Fraction(k % 5000, 7) for k in range(8192))
    assert len(parsed) == 8192


@pytest.mark.parametrize("values,message", [
    (["1/2", "1/2", "x", "1/2", "y"],
     "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    ([1, 1, True, 1, "1/0"], "expected a rational, got True"),
    (["1", "1", 1.0, "1/0"], "expected an integer or 'p/q' string, got 1.0"),
    (["3/4", "3/4", "1/0", "3/4", "1/0"],
     "cannot parse rational '1/0': Fraction(1, 0)"),
])
def test_repeated_values_fail_at_the_first_bad_one(values, message):
    with pytest.raises(InputError) as err:
        function_from_obj({"n": 1, "level": 3, "values": values + [0] * (8 - len(values))})
    assert str(err.value) == message


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
        import dyadicbmo.johnnirenberg as jn_mod
        real = jn_mod.jn_check

        def just_below(fn, lam):
            measure, _ = real(fn, lam)
            return measure, float_just_below(measure)

        monkeypatch.setattr(jn_mod, "jn_check", just_below)
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


# input errors no command line reaches, each with its message
NONNEG = DyadicFunction(1, 2, [1, 3, 0, 2])  # mean 3/2
ZERO = DyadicFunction(1, 2, [0, 0, 0, 0])
INPUT_ERRORS = [
    (lambda: DyadicCubeId(-1, (0,)), InputError, "cube level must be >= 0, got -1"),
    (lambda: DyadicCubeId(0, ()), InputError,
     "cube index must have at least one coordinate"),
    (lambda: gr_profile(NONNEG).value_at(Fraction(3, 2)), InputError,
     "sigma must lie in [0,1], got 3/2"),
    (lambda: jn_abs_check(NONNEG, 0), InputError, "lambda must be positive, got 0"),
    (lambda: maximal_level_set(NONNEG, 1), PreconditionError,
     "requires alpha >= the global average (3/2), got 1"),
    (lambda: StepFunction1D([0, 1], [1]).integral_to(2), InputError,
     "t must lie in [0,1], got 2"),
    (lambda: function_from_obj([1]), InputError,
     "a dyadic function must be a JSON object"),
    (lambda: function_from_obj({"n": 1, "level": 1, "values": "12"}), InputError,
     "'values' must be a list"),
    (lambda: DyadicFunction(0, 1, [1]), InputError, "dimension must be >= 1, got 0"),
    (lambda: DyadicFunction(1, -1, [1]), InputError, "depth must be >= 0, got -1"),
    (lambda: step_from_obj([1]), InputError, "a step function must be a JSON object"),
    (lambda: GeneratorSpec(kind="uniform-cells", dim=1, depth=1, low=2, high=1),
     InputError, "value range is empty"),
    (lambda: GeneratorSpec(kind="cascade-gr", dim=1, depth=1, target_eps=2),
     InputError, "cascade target eps must lie in (0, 2)"),
    (lambda: GeneratorSpec(kind="cascade-gr", dim=1, depth=1, multipliers=(2, 0)),
     InputError, "cascade multipliers must be positive"),
    (lambda: GeneratorSpec(kind="monotone-1d", dim=2, depth=1), InputError,
     "monotone-1d generates one-dimensional functions"),
    (lambda: theorem3_check(ZERO, Fraction(1, 2)), PreconditionError,
     "requires a function not identically zero"),
    (lambda: theorem4_bound(ZERO, Fraction(1, 16)), PreconditionError,
     "requires a function not identically zero"),
]


@pytest.mark.parametrize("call, error, message", INPUT_ERRORS)
def test_input_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
