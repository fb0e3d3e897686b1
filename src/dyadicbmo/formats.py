"""JSON and CSV serialization with exact rationals.

Rationals travel as integers or lowest-term "p/q" strings, so a round trip
re-parses to a bit-identical object.  Function and step files are read
straight into integer (numerator, denominator) pairs, handed to the same
checked constructors that DyadicFunction(...) and StepFunction1D(...) use,
and written from the objects' integers.  CSV output is locale-independent:
'.' decimal point, LF line endings.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd

from .dyadic import DyadicFunction
from .errors import InputError
from .rearrangement import StepFunction1D

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _exponent_too_large(text):
    """True if text ends in a decimal exponent e that, with the mantissa's
    digits, could make an integer past the interpreter's int-string digit
    limit (4300 where it has none).  Fraction builds 10**|e| first, which
    takes seconds to minutes for e in the millions."""
    exp = _EXPONENT.search(text)
    if exp is None:
        return False
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    return abs(int(exp[1])) + sum(c.isdigit() for c in text[:exp.start()]) > limit


def parse_rational(obj):
    if isinstance(obj, bool):
        raise InputError(f"expected a rational, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        text = obj.strip()
        try:
            if _exponent_too_large(text):
                raise ValueError("the exponent makes an integer past the "
                                 "int-string digit limit")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {obj!r}: {exc}") from None
    raise InputError(f"expected an integer or 'p/q' string, got {obj!r}")


def format_rational(x):
    """x as an int or a "p/q" string; InputError where exact arithmetic made
    a result past the int-string digit limit from inputs within it."""
    x = Fraction(x)
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(p, q):
    """format_rational(Fraction(p, q)) for integers p and q > 0."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    try:  # str raises past the int-string digit limit, q == 1 included
        text = str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        raise InputError("a result has a numerator or denominator past the "
                         "int-string digit limit") from None
    return p if q == 1 else text


def function_to_obj(f):
    """The function file of f, written from its integers: one formatted
    value per distinct cell numerator."""
    den = f._den
    return {"n": f.dim, "level": f.depth,
            "values": f._public(lambda a: _format_ratio(a, den))}


def _ratio(obj):
    """parse_rational(obj) as (numerator, denominator) in lowest terms.
    JSON integers and strings of ASCII digits "p" or "p/q" (after strip)
    are read as ints; every other form, a zero denominator and a number
    int() rejects (past the digit limit) take parse_rational, with its
    message."""
    if type(obj) is int:
        return obj, 1
    m = _PLAIN.fullmatch(obj.strip()) if type(obj) is str else None
    if m is not None:
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:  # past the int-string digit limit
            q = 0
        if q == 1:
            return p, 1
        if q:
            g = gcd(p, q)
            return p // g, q // g
    x = parse_rational(obj)
    return x.numerator, x.denominator


def _ratios(values):
    """Numerators and denominators of the parsed values, as two lists.  A
    string is parsed once and its pair reused wherever it recurs, from a
    memo of the last 4096 distinct strings met (emptied when full, so a grid
    of distinct values keeps it small); other values (ints, and the bools,
    floats and containers that fail) are parsed where they stand."""
    nums, dens, parsed = [], [], {}
    for obj in values:
        if type(obj) is str:
            pair = parsed.get(obj)
            if pair is None:
                if len(parsed) == 4096:
                    parsed.clear()
                pair = parsed[obj] = _ratio(obj)
        else:
            pair = _ratio(obj)
        nums.append(pair[0])
        dens.append(pair[1])
    return nums, dens


def function_from_obj(obj):
    if not isinstance(obj, dict):
        raise InputError("a dyadic function must be a JSON object")
    missing = {"n", "level", "values"} - set(obj)
    if missing:
        raise InputError(f"missing keys in function object: {sorted(missing)}")
    if any(isinstance(obj[k], bool) or not isinstance(obj[k], int)
           for k in ("n", "level")):
        raise InputError("'n' and 'level' must be integers")
    if not isinstance(obj["values"], list):
        raise InputError("'values' must be a list")
    return DyadicFunction._from_ratios(obj["n"], obj["level"],
                                      *_ratios(obj["values"]))


def step_to_obj(g):
    """The step-function file of g, written from its integers."""
    return {"breakpoints": [_format_ratio(b, g._td) for b in g._B],
            "values": [_format_ratio(v, g._vd) for v in g._V]}


def step_from_obj(obj):
    if not isinstance(obj, dict):
        raise InputError("a step function must be a JSON object")
    missing = {"breakpoints", "values"} - set(obj)
    if missing:
        raise InputError(f"missing keys in step-function object: {sorted(missing)}")
    if not isinstance(obj["breakpoints"], list) or not isinstance(obj["values"], list):
        raise InputError("'breakpoints' and 'values' must be lists")
    return StepFunction1D._from_ratios(*_ratios(obj["breakpoints"]),
                                       *_ratios(obj["values"]))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past the digit limit, or bad UTF-8
        raise InputError(f"cannot parse {path}: {exc}") from None


def dump_json(obj, path=None):
    _write(canonical_json(obj), path)


def _write(text, path):
    """text to the file at path, or to stdout where path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def format_float(x):
    """repr(float(x)); InputError where x is past the largest float."""
    try:
        return repr(float(x))
    except OverflowError:
        raise InputError("a result is past the largest float") from None


def write_csv(rows, header, path=None):
    """Rows of already-formatted strings; LF endings regardless of platform."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write("\n".join(lines) + "\n", path)
