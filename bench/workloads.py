"""The workloads: seeded inputs, the command-line operation, its output check.

An operation is one call of ``dyadicbmo.cli.main(argv)`` with ``--threads 1``.
Inputs come from ``dyadicbmo.generators`` (called through the module, so a
traced run sees the calls) and are written as JSON files under WORK; every
operation parses its file afresh, so no per-function cache carries over from
one operation to the next.  Pass ``i`` of a run with seed ``s`` has its own
inputs, derived from (workload, s, i, slot).

Each check re-derives what it can with `oracle`, which does not import
dyadicbmo, and raises CheckError when the output is wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import dyadicbmo.generators as generators

from oracle import (dyadic_bmo_norm, max_jump, rational, rational_text,
                    rearrangement, step_oscillation)

WORK = ".bench-state/work"

# written out rather than imported, so that a suite dropped from `check`
# fails the check instead of silently shrinking the work
SUITE_NAMES = ("lemma21", "lemma22", "lemma23", "thm1", "thm2", "thm31",
               "remark31", "thm3", "thm4", "thm5", "cor1", "cz")


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class Op:
    label: str
    argv: list
    files: dict         # path -> text, written before the op runs
    evals: int          # nominal interval-BMO solves the op makes
    check: object       # check(exit_code, stdout, read_file) -> None
    outputs: tuple = () # files the op writes, part of its output digest


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: object   # make_pass(seed, index) -> [Op]
    traced_passes: int  # passes the traced run times, with and without spans
    expected: tuple     # spans or counts that must not stay at zero when traced


def derived_seed(*parts):
    text = "/".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def canonical(obj):
    """Inputs are serialized here, not by dyadicbmo.formats, which is under test."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# -- check-mixed -------------------------------------------------------------

CHECK_SPECS = (("uniform-cells", 1, 10), ("uniform-cells", 2, 5),
               ("uniform-cells", 3, 4), ("cascade-gr", 1, 8),
               ("cascade-gr", 2, 4), ("cascade-gr", 3, 3),
               ("monotone-1d", 1, 10))


def _check_report(rc, out, read):
    _require(rc == 0, f"exit code {rc}")
    report = json.loads(out)
    names = tuple(s["name"] for s in report["suites"])
    _require(names == SUITE_NAMES, f"suites {names}")
    failed = [s["name"] for s in report["suites"] if s["passed"] is not True]
    _require(report["passed"] is True and not failed, f"failed suites {failed}")


def _check_pass(seed, index):
    ops = []
    for slot, (kind, n, level) in enumerate(CHECK_SPECS):
        spec = generators.GeneratorSpec(
            kind=kind, dim=n, depth=level,
            seed=derived_seed("check-mixed", seed, index, slot))
        f = generators.generate(spec)
        path = f"{WORK}/check-{slot}.json"
        text = canonical({"n": n, "level": level,
                          "values": [rational_text(v) for v in f.cells]})
        ops.append(Op(f"{kind} n={n} L={level}",
                      ["check", "--input", path, "--threads", "1"],
                      {path: text}, 1, _check_report))
    return ops


# -- search-anneal -------------------------------------------------------------

SEARCH_GRIDS = ((1, 4), (2, 2))
SEARCH_RESTARTS, SEARCH_ITERS = 2, 150


def _search_result(n, level, best_path):
    def check(rc, out, read):
        _require(rc == 0, f"exit code {rc}")
        result = json.loads(out)
        _require(result["best_function_file"] == best_path, "best-function path")
        best = json.loads(read(best_path))
        _require((best["n"], best["level"]) == (n, level), "best-function grid")
        cells = [rational(v) for v in best["values"]]
        _require(len(cells) == 1 << (n * level), "best-function cell count")
        norm = dyadic_bmo_norm(n, level, cells)
        _require(norm > 0, "best function is constant")
        cert = result["certificate"]
        lower = rational(cert["lower"])
        a, b = (rational(t) for t in cert["witness"])
        _require(0 <= a < b <= 1, f"witness ({a}, {b})")
        _require(step_oscillation(*rearrangement(cells), a, b) == lower,
                 "certificate lower bound not attained at its witness")
        exact = rational(result["best_score_exact"])
        _require(exact == lower / norm, "best_score_exact is not lower / norm")
        _require(exact <= 1 << n and result["hard_cap"] == 1 << n,
                 f"score {exact} above the 2^n cap")
        _require(result["best_score"] == float(exact), "best_score rounding")
    return check


def _search_pass(seed, index):
    ops = []
    for slot, (n, level) in enumerate(SEARCH_GRIDS):
        best_path = f"{WORK}/search-best.json"
        argv = ["search", "--n", str(n), "--level", str(level),
                "--restarts", str(SEARCH_RESTARTS), "--iters", str(SEARCH_ITERS),
                "--seed", str(derived_seed("search-anneal", seed, index, slot)),
                "--threads", "1", "--function-output", best_path]
        ops.append(Op(f"search n={n} L={level}", argv, {},
                      SEARCH_RESTARTS * (SEARCH_ITERS + 1),
                      _search_result(n, level, best_path), (best_path,)))
    return ops


# -- interval-general ------------------------------------------------------------

# Half the inputs of a pass are many-band and half few-band.  Few-band ops
# take the middle of the op times, so op_p50_s is the median of a few-band
# cluster rather than a value on the gap between two kinds of input.
FEW_BAND = ("few-band L=5", {"depth": 5, "low": 0, "high": 4, "denom_bits": 2})
INTERVAL_KINDS = (("many-band L=4", {"depth": 4}),
                  ("many-band L=5", {"depth": 5}),
                  FEW_BAND, FEW_BAND)


def _interval_result(breakpoints, values):
    def check(rc, out, read):
        _require(rc == 0, f"exit code {rc}")
        result = json.loads(out)
        lower = rational(result["lower"])
        a, b = (rational(t) for t in result["witness"])
        _require(0 <= a < b <= 1, f"witness ({a}, {b})")
        _require(step_oscillation(breakpoints, values, a, b) == lower,
                 "lower bound not attained at its witness")
        # the sup is at least the whole-interval oscillation and half of any
        # jump (balanced windows), and at most half the range
        _require(lower >= step_oscillation(breakpoints, values, 0, 1),
                 "lower bound below the oscillation over (0,1]")
        _require(2 * lower >= max_jump(values), "lower bound below half a jump")
        _require(2 * lower <= max(values) - min(values),
                 "lower bound above half the range")
        _require(result["upper"] >= float(lower), "upper bound below lower")
    return check


def _interval_pass(seed, index):
    ops = []
    for slot, (label, kw) in enumerate(INTERVAL_KINDS):
        spec = generators.GeneratorSpec(
            kind="uniform-cells", dim=1,
            seed=derived_seed("interval-general", seed, index, slot), **kw)
        values = list(generators.generate(spec).cells)
        count = len(values)
        breakpoints = [Fraction(k, count) for k in range(count + 1)]
        path = f"{WORK}/interval-{slot}.json"
        text = canonical({"breakpoints": [rational_text(t) for t in breakpoints],
                          "values": [rational_text(v) for v in values]})
        ops.append(Op(label, ["interval-bmo", "--input", path, "--threads", "1"],
                      {path: text}, 1, _interval_result(breakpoints, values)))
    return ops


# -- the table -----------------------------------------------------------------

_CLI = ("cli.main", "formats.dump")
WORKLOADS = {w.name: w for w in (
    Workload("check-mixed", _check_pass, traced_passes=1,
             expected=_CLI + (
                 "formats.parse", "generators.generate", "verify.verify_all",
                 "dyadic.bmo_argmax.first", "dyadic.bmo_argmax.repeat",
                 "dyadic.mean_oscillation", "dyadic.one_sided_oscillation",
                 "dyadic.cube_average", "dyadic.dyadic_maximal_function",
                 "dyadic.distribution_above",
                 "stopping.stopping_family", "stopping.verify_stopping",
                 "stopping.maximal_level_set",
                 "gurov.gr_profile.first", "gurov.theorem3_check",
                 "gurov.theorem4_bound", "gurov.theorem5_check",
                 "gurov.lq_tail_bound", "gurov.solve_p",
                 "johnnirenberg.jn_check", "johnnirenberg.jn_abs_check",
                 "johnnirenberg.logbound_check", "highprec",
                 "rearrangement.rearrange_signed", "rearrangement.rearrange_abs",
                 "rearrangement.interval_mean_oscillation",
                 "rearrangement.hardy_average", "rearrangement.hardy_gap_check",
                 "interval_bmo.monotone")),
    Workload("search-anneal", _search_pass, traced_passes=4,
             expected=_CLI + (
                 "search.search", "search.evals", "dyadic.bmo_argmax.first",
                 "rearrangement.rearrange_signed", "interval_bmo.monotone")),
    Workload("interval-general", _interval_pass, traced_passes=2,
             expected=_CLI + (
                 "formats.parse", "generators.generate", "interval_bmo.general")),
)}
