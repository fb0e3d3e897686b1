"""JSON and CSV serialization with exact rationals.

Rationals travel as integers or lowest-term "p/q" strings, so a round trip
re-parses to a bit-identical object.  CSV output is locale-independent:
'.' decimal point, LF line endings.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .dyadic import DyadicFunction
from .errors import InputError
from .rearrangement import StepFunction1D

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


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
    try:
        text = str(x)
    except ValueError:
        raise InputError("a result has a numerator or denominator past the "
                         "int-string digit limit") from None
    return int(x) if x.denominator == 1 else text


def function_to_obj(f):
    return {"n": f.dim, "level": f.depth,
            "values": [format_rational(v) for v in f.cells]}


def function_from_obj(obj):
    if not isinstance(obj, dict):
        raise InputError("a dyadic function must be a JSON object")
    missing = {"n", "level", "values"} - set(obj)
    if missing:
        raise InputError(f"missing keys in function object: {sorted(missing)}")
    if not isinstance(obj["n"], int) or not isinstance(obj["level"], int):
        raise InputError("'n' and 'level' must be integers")
    if not isinstance(obj["values"], list):
        raise InputError("'values' must be a list")
    return DyadicFunction(obj["n"], obj["level"],
                          [parse_rational(v) for v in obj["values"]])


def step_to_obj(g):
    return {"breakpoints": [format_rational(t) for t in g.breakpoints],
            "values": [format_rational(v) for v in g.values]}


def step_from_obj(obj):
    if not isinstance(obj, dict):
        raise InputError("a step function must be a JSON object")
    missing = {"breakpoints", "values"} - set(obj)
    if missing:
        raise InputError(f"missing keys in step-function object: {sorted(missing)}")
    return StepFunction1D([parse_rational(t) for t in obj["breakpoints"]],
                          [parse_rational(v) for v in obj["values"]])


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


def dump_json(obj, path=None, stream=None):
    _write(canonical_json(obj), path, stream)


def _write(text, path, stream):
    if path is None:
        stream.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def format_float(x):
    return repr(float(x))


def write_csv(rows, header, path=None, stream=None):
    """Rows of already-formatted strings; LF endings regardless of platform."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write("\n".join(lines) + "\n", path, stream)
