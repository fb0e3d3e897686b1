"""Command-line front end.

Subcommands: norm, rearrange, interval-bmo, cz, maximal, jn, gr, p-root,
check, search, generate.  Exit codes: 0 success, 1 an inequality check
failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import __version__
from .dyadic import bmo_argmax, dyadic_maximal_function
from .errors import GenerationError, InputError
from .formats import (dump_json, format_float, format_rational,
                      function_from_obj, function_to_obj, load_json,
                      parse_rational, step_from_obj, step_to_obj, write_csv)
from .generators import KINDS, GeneratorSpec, generate
from .interval_bmo import interval_bmo_norm
from .rearrangement import hardy_average, rearrange_abs, rearrange_signed
from .search import SearchConfig, search
from .stopping import stopping_family, verify_stopping

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# largest K of `rearrange --samples K` and `jn --lambda-grid K`, whose time
# and memory grow linearly in K: at 2^18 both stay within what `check` takes
# on a 2^20-cell grid
MAX_POINTS = 1 << 18


class _SuiteHelp(str):
    """The --suite help, which reads the suite names from verify only when
    argparse expands it (``help % params``) to print it."""

    def __mod__(self, params):
        from .verify import SUITES
        return f"comma-separated subset of: {','.join(SUITES)}"


def _common_flags(sub):
    sub.add_argument("--input", help="input JSON file")
    sub.add_argument("--output", help="output file (default: stdout)")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="largest gap interval-bmo reports as tol_met "
                          "(default 1e-9); no inequality check uses it")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker processes where supported (results do not "
                          "depend on this)")


@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="dyadicbmo",
        description="Exact dyadic BMO / rearrangement functionals, "
                    "stopping-time decompositions and inequality checkers "
                    "on [0,1]^n.")
    ap.add_argument("--version", action="version", version=__version__)
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("norm", help="dyadic BMO norm and its witness cube")
    _common_flags(p)

    p = subs.add_parser("rearrange", help="nonincreasing rearrangement as a "
                                          "step function")
    _common_flags(p)
    p.add_argument("--abs", action="store_true",
                   help="rearrange |f| instead of f")
    p.add_argument("--samples", type=int, default=0, metavar="K",
                   help="also write K Hardy-average samples as CSV")
    p.add_argument("--samples-output", default=None,
                   help="CSV path for --samples (default: stdout)")

    p = subs.add_parser("interval-bmo", help="certified two-sided interval "
                                             "BMO norm of a step function")
    _common_flags(p)

    p = subs.add_parser("cz", help="stopping family and parent cover at a "
                                   "threshold")
    _common_flags(p)
    p.add_argument("--alpha", required=True, help="threshold as p/q or integer")
    p.add_argument("--direction", choices=("above", "below"), default="above")

    p = subs.add_parser("maximal", help="dyadic maximal function")
    _common_flags(p)

    p = subs.add_parser("jn", help="distribution measure vs exponential bound "
                                   "over a lambda grid (CSV)")
    _common_flags(p)
    p.add_argument("--lambda-grid", type=int, default=32, metavar="K",
                   help="number of lambda grid points (default 32)")

    p = subs.add_parser("gr", help="oscillation-to-mean modulus profile (CSV)")
    _common_flags(p)

    p = subs.add_parser("p-root", help="solve p^p/(p-1)^(p-1) = 1/(2^(n-1) eps)")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--eps", required=True, help="epsilon as p/q")

    p = subs.add_parser("check", help="run verification suites on a function")
    _common_flags(p)
    p.add_argument("--suite", default=None,
                   help=_SuiteHelp("comma-separated subset of the suites"))

    p = subs.add_parser("search", help="search for a large rearrangement-norm "
                                       "ratio")
    _common_flags(p)
    p.add_argument("--n", type=int, default=1, help="dimension")
    p.add_argument("--level", type=int, default=3, help="grid depth")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--objective", choices=("ratio", "jnB"), default="ratio")
    p.add_argument("--function-output", default=None,
                   help="where to write the best function "
                        "(default: <output>.best.json or search_best.json)")

    p = subs.add_parser("generate", help="generate a random function")
    _common_flags(p)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, default=1, help="dimension")
    p.add_argument("--level", type=int, default=3, help="grid depth")
    p.add_argument("--low", default="-8", help="value range low (uniform)")
    p.add_argument("--high", default="8", help="value range high (uniform)")
    p.add_argument("--target-eps", default="1/8",
                   help="modulus target for cascade-gr")
    return ap


def _emit_json(obj, args):
    dump_json(obj, path=args.output)


def _load_function(args):
    if not args.input:
        raise InputError("--input is required for this command")
    return function_from_obj(load_json(args.input))


def _cube_obj(q):
    return {"level": q.level, "index": list(q.index)}


def _cmd_norm(args):
    f = _load_function(args)
    rep = bmo_argmax(f)
    _emit_json({"bmo_dyadic_norm": format_rational(rep.oscillation),
                "argmax_cube": _cube_obj(rep.cube),
                "argmax_average": format_rational(rep.average)}, args)
    return EXIT_OK


def _check_points(flag, k, least):
    """Refuse a K of --samples or --lambda-grid outside [least, MAX_POINTS]."""
    if k < least:
        raise InputError(f"{flag} must be at least {least}")
    if k > MAX_POINTS:
        raise InputError(f"{flag} must be at most {MAX_POINTS}, got {k}")


def _cmd_rearrange(args):
    _check_points("--samples", args.samples, 0)
    f = _load_function(args)
    g = rearrange_abs(f) if args.abs else rearrange_signed(f)
    rows = []  # built first, so that a failing sample leaves stdout empty
    for k in range(1, args.samples + 1):
        t = Fraction(k, args.samples)
        h = hardy_average(g, t)
        rows.append((format_float(t), format_float(h),
                     str(format_rational(t)), str(format_rational(h))))
    _emit_json(step_to_obj(g), args)
    if rows:
        write_csv(rows, ("t", "hardy_average", "t_exact", "hardy_average_exact"),
                  path=args.samples_output)
    return EXIT_OK


def _cmd_interval_bmo(args):
    if not args.input:
        raise InputError("--input is required for this command")
    g = step_from_obj(load_json(args.input))
    bound = interval_bmo_norm(g, tol=args.tol)
    _emit_json({"lower": format_rational(bound.lower),
                "lower_float": float(bound.lower),
                "upper": bound.upper,
                "witness": [format_rational(bound.witness[0]),
                            format_rational(bound.witness[1])],
                "gap": bound.gap,
                "tol": bound.tol,
                "tol_met": bound.tol_met}, args)
    return EXIT_OK if bound.tol_met else EXIT_VIOLATION


def _cmd_cz(args):
    f = _load_function(args)
    alpha = parse_rational(args.alpha)
    d = stopping_family(f, alpha, args.direction)
    rep = verify_stopping(d, f)
    _emit_json({"threshold": format_rational(d.threshold),
                "direction": d.direction,
                "stopping_cubes": [_cube_obj(q) for q in d.stopping_cubes],
                "parent_cover": [_cube_obj(q) for q in d.parent_cover],
                "measure_E": format_rational(d.measure_E),
                "measure_E_star": format_rational(d.measure_E_star),
                "verification": {
                    "passed": rep.passed,
                    "stopping_cross": rep.stopping_cross,
                    "fathers_do_not_cross": rep.fathers_do_not_cross,
                    "parents_do_not_cross": rep.parents_do_not_cross,
                    "complement_clean": rep.complement_clean,
                    "cover_measure_ok": rep.cover_measure_ok,
                    "failures": list(rep.failures)}}, args)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_maximal(args):
    f = _load_function(args)
    _emit_json(function_to_obj(dyadic_maximal_function(f)), args)
    return EXIT_OK


def _cmd_jn(args):
    from .johnnirenberg import _lambda_grid, jn_check
    _check_points("--lambda-grid", args.lambda_grid, 1)
    f = _load_function(args)
    rows = []
    all_pass = True
    for lam in _lambda_grid(f, args.lambda_grid):
        measure, bound = jn_check(f, lam)
        ok = measure <= bound
        all_pass = all_pass and ok
        rows.append((format_float(lam), format_float(measure),
                     format_float(bound), "1" if ok else "0"))
    write_csv(rows, ("lambda", "measure", "bound", "pass"), path=args.output)
    return EXIT_OK if all_pass else EXIT_VIOLATION


def _cmd_gr(args):
    from .gurov import gr_profile, solve_p
    f = _load_function(args)
    profile = gr_profile(f)
    rows = [(format_float(s), str(format_rational(s)), str(format_rational(v)))
            for s, v in zip(profile.sigma_breaks, profile.values)]
    write_csv(rows, ("sigma", "sigma_exact", "v"), path=args.output)
    eps = profile.epsilon_global
    limit = Fraction(1, 1 << (f.dim - 1))
    summary = [f"epsilon = {format_rational(eps)}"]
    if 0 < eps < limit:
        sol = solve_p(eps, f.dim)
        summary.append(f"p = {sol.p!r} (residual {sol.residual:.3e})")
    else:
        summary.append("p = n/a (epsilon outside (0, 2^(1-n)))")
    print("\n".join(summary), file=sys.stderr if args.output is None else sys.stdout)
    return EXIT_OK


def _cmd_p_root(args):
    from .gurov import solve_p
    sol = solve_p(parse_rational(args.eps), args.n)
    _emit_json({"n": sol.n, "epsilon": format_rational(sol.epsilon),
                "p": sol.p, "residual": sol.residual,
                "capped": sol.capped}, args)
    return EXIT_OK


def _cmd_check(args):
    from .verify import verify_all
    f = _load_function(args)
    suites = None
    if args.suite:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    report = verify_all(f, suites)
    _emit_json(report.to_obj(), args)
    if args.output is not None:
        for r in report.results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            print(f"{r.name:10s} {status} ({r.checks} checks)"
                  + (f" {r.note}" if r.note else ""))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_search(args):
    cfg = SearchConfig(dim=args.n, depth=args.level, restarts=args.restarts,
                       iterations=args.iters, seed=args.seed,
                       objective="ratio_thm1" if args.objective == "ratio"
                       else "jn_B_probe",
                       tol=args.tol, threads=max(1, args.threads))
    result = search(cfg)
    fn_path = args.function_output
    if fn_path is None:
        fn_path = (args.output + ".best.json") if args.output else "search_best.json"
    dump_json(function_to_obj(result.best_function), path=fn_path)
    obj = {"objective": result.objective,
           "best_score": result.best_score,
           "best_score_exact": format_rational(result.best_score_exact),
           "hard_cap": result.hard_cap,
           "best_function_file": fn_path,
           "trace": [{"restart": r, "iteration": i, "score": s}
                     for r, i, s in result.trace]}
    if result.certificate is not None:
        obj["certificate"] = {
            "lower": format_rational(result.certificate.lower),
            "upper": result.certificate.upper,
            "witness": [format_rational(result.certificate.witness[0]),
                        format_rational(result.certificate.witness[1])]}
    _emit_json(obj, args)
    return EXIT_OK


def _cmd_generate(args):
    spec = GeneratorSpec(kind=args.kind, dim=args.n, depth=args.level,
                         seed=args.seed,
                         low=parse_rational(args.low),
                         high=parse_rational(args.high),
                         target_eps=parse_rational(args.target_eps))
    f = generate(spec)
    _emit_json(function_to_obj(f), args)
    return EXIT_OK


_COMMANDS = {
    "norm": _cmd_norm,
    "rearrange": _cmd_rearrange,
    "interval-bmo": _cmd_interval_bmo,
    "cz": _cmd_cz,
    "maximal": _cmd_maximal,
    "jn": _cmd_jn,
    "gr": _cmd_gr,
    "p-root": _cmd_p_root,
    "check": _cmd_check,
    "search": _cmd_search,
    "generate": _cmd_generate,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
