#!/usr/bin/env python3
"""Benchmark of the dyadicbmo command line, driven in-process.

    python3 bench/run.py --workload check-mixed --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
One client in one process runs a closed loop: each operation is one call of
``dyadicbmo.cli.main([...])`` with ``--threads 1``, and the next starts only
after the previous one returned.  Workloads, inputs and output checks are in
workloads.py.

--trace 0 measures whole passes of operations for about --seconds (and at
least enough operations for op_tail_s to have ten beyond it) and reports the
end-to-end metrics.  Their times are in reference seconds (reference.py):
a fixed kernel runs between ops and between set-up probes, and each op or
probe is scaled by the kernel's mean time around it, so a host that runs
everything slower for a while does not read as a slower program.  The
measured values are printed too.  --trace 1 times the first passes of the
workload without and then with per-layer spans (tracer.py), repeated for
about --seconds, and reports the per-layer metrics in measured seconds:
counts from the spans, times as medians over the repetitions.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Files go under .bench-state/ in the
checkout; it holds the output digest recorded for every input, so a repeated
input is checked against its earlier output.  Exit code 0 when every output
is correct, 1 when one is not, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = Path(".bench-state")
SETUP_REPEATS = 5
KERNEL_SPAN = 3      # reference kernel runs on each side of a timed piece
# op_tail_s is the nearest-rank p50 and a run makes at least MIN_OPS ops, so
# ten lie beyond it.  A higher percentile needs more ops than check-mixed
# (7 ops of about 2 s a pass) makes in a run of well under a minute.
TAIL_Q, MIN_OPS = 50, 20
MAX_MEASURE_S = 120     # stop adding passes past this, whatever else is due


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    package = SRC / "dyadicbmo"
    if not (package / "__init__.py").is_file():
        _fail(f"no program at {package}")
    sys.path.insert(0, str(SRC))
    import dyadicbmo
    import dyadicbmo.cli  # noqa: F401  the entry point every op calls
    if Path(dyadicbmo.__file__).resolve().parent != package:
        _fail(f"imported dyadicbmo from {dyadicbmo.__file__}, not {package}")
    return package


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs operations, checks their outputs and keeps the digest record."""

    def __init__(self, package):
        source = "".join(_sha(p.name + p.read_text())
                         for p in sorted(package.glob("*.py")))
        self.source = _sha(source)
        self.store_path = STATE / "digests.json"
        self.store = (json.loads(self.store_path.read_text())
                      if self.store_path.is_file() else {})
        self.errors = []
        (STATE / "work").mkdir(parents=True, exist_ok=True)

    def execute(self, op):
        """Run one op; return (seconds, output digest); record any error."""
        for path, text in op.files.items():
            Path(path).write_text(text)
        cli = sys.modules["dyadicbmo.cli"]   # looked up now: traced runs patch it
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except Exception as exc:  # a crashed op is a failed op; keep measuring
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        try:
            op.check(rc, stdout, lambda p: Path(p).read_text())
        except Exception as exc:  # CheckError, or output of the wrong shape
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc} "
                               f"{err.getvalue().strip()}")
            return elapsed, None
        written = "".join(Path(p).read_text() for p in op.outputs)
        digest = _sha(stdout + written)
        key = _sha(self.source + json.dumps(op.argv)
                   + json.dumps(op.files, sort_keys=True))
        recorded = self.store.setdefault(key, digest)
        if recorded != digest:
            self.errors.append(f"{op.label}: output differs from the digest "
                               f"recorded for this input")
            return elapsed, None
        return elapsed, digest

    def close(self):
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, sort_keys=True))
        os.replace(tmp, self.store_path)
        shutil.rmtree(STATE / "work", ignore_errors=True)


# -- end-to-end run ------------------------------------------------------------

def _reference_seconds(measured, kernel_s):
    """Measured seconds in reference seconds (reference.py).

    kernel_s[i] ran just before piece i and kernel_s[i + 1] just after it.
    A single kernel run is short enough to fall in a burst of the host's
    load, so each piece is scaled by the mean of the KERNEL_SPAN kernel
    runs on each side of it, which cover about as long as a few pieces."""
    return [t * reference.NOMINAL_S / statistics.fmean(
                kernel_s[max(0, i + 1 - KERNEL_SPAN): i + 1 + KERNEL_SPAN])
            for i, t in enumerate(measured)]


def _setup_seconds(workload, seed):
    """Measured seconds of each fresh interpreter, and the kernel's around them."""
    runs, kernel_s = [], [reference.seconds()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        runs.append(float(done.stdout))
        kernel_s.append(reference.seconds())
    return runs, kernel_s


def _tail(times):
    rank = math.ceil(TAIL_Q * len(times) / 100)
    return sorted(times)[rank - 1], rank


def end_to_end(runner, workload, seed, seconds):
    raw_setup, setup_kernel_s = _setup_seconds(workload, seed)
    setup_s = statistics.median(_reference_seconds(raw_setup, setup_kernel_s))
    raw, labels, evals, attempted = [], [], 0, 0
    kernel_s = [reference.seconds()]
    start = time.perf_counter()
    passes = 0
    while True:
        for op in workload.make_pass(seed, passes):
            elapsed, digest = runner.execute(op)
            kernel_s.append(reference.seconds())
            attempted += 1
            raw.append(elapsed)
            labels.append(op.label)
            if digest is not None:
                evals += op.evals
        passes += 1
        wall = time.perf_counter() - start
        if wall >= MAX_MEASURE_S or (
                len(raw) >= MIN_OPS and wall + wall / passes / 2 >= seconds):
            break
    times = _reference_seconds(raw, kernel_s)
    busy, raw_busy = sum(times), sum(raw)
    ok = attempted - len(runner.errors)
    tail_s, rank = _tail(times)
    metrics = {
        "ops_per_s": (ok / busy, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "evals_per_s": (evals / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    by_label = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    kernel_s += setup_kernel_s
    notes = [f"{attempted} ops in {passes} passes, {busy:.3f} s busy "
             f"in reference seconds, {raw_busy:.3f} s measured",
             f"times are in reference seconds: measured seconds x "
             f"{reference.NOMINAL_S} / the mean reference kernel time of the "
             f"{2 * KERNEL_SPAN} kernel runs around them; the kernel took "
             f"{statistics.median(kernel_s):.4f} s median, {min(kernel_s):.4f} "
             f"to {max(kernel_s):.4f} s, over {len(kernel_s)} runs",
             f"measured: ops_per_s {ok / raw_busy}, op_p50_s "
             f"{statistics.median(raw)}, op_tail_s {_tail(raw)[0]}, evals_per_s "
             f"{evals / raw_busy}, setup_s {statistics.median(raw_setup)}",
             f"op_tail_s is p{TAIL_Q}: rank {rank} of {len(times)}, "
             f"{len(times) - rank} beyond",
             f"error_rate {len(runner.errors) / attempted} "
             f"({len(runner.errors)} failed of {attempted})",
             f"evals_per_s counts nominal interval-BMO solves: "
             f"search restarts x (iterations + 1), one per check or interval-bmo",
             f"setup_s is the median of {SETUP_REPEATS} fresh interpreters "
             f"importing dyadicbmo and generating the first pass"]
    notes += [f"median op {label}: {statistics.median(t):.4f} reference s over {len(t)}"
              for label, t in by_label.items()]
    return attempted, metrics, notes


# -- traced run ----------------------------------------------------------------

def _timed_ops(runner, ops, tracer=None):
    total, digests = 0.0, []
    for op in ops:
        if tracer is not None:
            tracer.new_op()
        elapsed, digest = runner.execute(op)
        total += elapsed
        digests.append(digest)
    return total, digests


def _suite_seconds(ops, suites):
    """Per-suite wall time: verify_all(f, [s]) once per suite, on one function
    object per check input; also the digest of the report they make up."""
    from dyadicbmo.formats import canonical_json, function_from_obj, load_json
    from dyadicbmo.verify import VerificationReport, verify_all
    totals = dict.fromkeys(suites, 0.0)
    digests = []
    for op in ops:
        if op.argv[0] != "check":
            continue
        (path, text), = op.files.items()
        Path(path).write_text(text)
        f = function_from_obj(load_json(path))
        results = []
        for s in suites:
            start = time.perf_counter()
            results.extend(verify_all(f, [s]).results)
            totals[s] += time.perf_counter() - start
        digests.append(_sha(canonical_json(VerificationReport(tuple(results)).to_obj())))
    return totals, digests


_SPANS = ("dyadic.mean_oscillation", "dyadic.one_sided_oscillation",
          "dyadic.cube_average", "dyadic.dyadic_maximal_function",
          "dyadic.distribution_above",
          "stopping.stopping_family", "stopping.verify_stopping",
          "stopping.maximal_level_set",
          "gurov.theorem3_check", "gurov.theorem4_bound", "gurov.theorem5_check",
          "gurov.lq_tail_bound", "gurov.solve_p",
          "johnnirenberg.jn_check", "johnnirenberg.jn_abs_check",
          "johnnirenberg.logbound_check", "highprec",
          "rearrangement.rearrange_signed", "rearrangement.rearrange_abs",
          "rearrangement.interval_mean_oscillation", "rearrangement.hardy_average",
          "rearrangement.hardy_gap_check",
          "interval_bmo.monotone", "interval_bmo.general")
_SELF_ONLY = ("verify.verify_all", "search.search", "formats.parse",
              "formats.dump", "cli.main", "generators.generate")
_COUNTS = ("dyadic.cells", "dyadic.cubes", "stopping.stopping_family.cubes",
           "interval_bmo.monotone.pieces", "interval_bmo.general.pieces",
           "interval_bmo.general.regions", "search.evals")


def _layer_values(tracer, suite_s):
    calls, self_s = tracer.calls, tracer.self_s
    values = {f"verify.{s}.s": t for s, t in suite_s.items()}
    for prefix in ("dyadic.bmo_argmax", "gurov.gr_profile"):
        values[prefix + ".calls"] = calls[prefix + ".first"] + calls[prefix + ".repeat"]
        values[prefix + ".first_s"] = self_s[prefix + ".first"]
    values["dyadic.bmo_argmax.repeat_s"] = self_s["dyadic.bmo_argmax.repeat"]
    for name in _SPANS:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = self_s[name]
    for name in _SELF_ONLY:
        values[name + ".self_s"] = self_s[name]
    for name in _COUNTS:
        values[name] = tracer.counts[name]
    values["trace.exceptions"] = tracer.exceptions
    return values


def _unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced(runner, workload, seed, seconds):
    from dyadicbmo.verify import SUITES
    from tracer import Tracer, installed
    passes = range(workload.traced_passes)
    reps, ratios, notes = [], [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        ops = [op for i in passes for op in workload.make_pass(seed, i)]
        base_s, base = _timed_ops(runner, ops)
        tracer = Tracer()
        with installed(tracer):
            traced_ops = [op for i in passes for op in workload.make_pass(seed, i)]
            traced_s, spans = _timed_ops(runner, traced_ops, tracer)
        if [(o.argv, o.files) for o in traced_ops] != [(o.argv, o.files) for o in ops]:
            runner.errors.append("traced inputs differ from untraced inputs")
        if spans != base:
            runner.errors.append("traced outputs differ from untraced outputs")
        suite_s, suite_digests = _suite_seconds(ops, SUITES)
        checks = [d for o, d in zip(ops, base) if o.argv[0] == "check"]
        if suite_digests != checks:
            runner.errors.append("per-suite reports differ from the check output")
        reps.append(_layer_values(tracer, suite_s))
        ratios.append(traced_s / base_s)
        notes.append(f"repetition {len(reps)}: {len(ops)} ops, "
                     f"{base_s:.3f} s untraced, {traced_s:.3f} s traced")
        silent = [n for n in workload.expected
                  if not (tracer.calls[n] or tracer.counts[n])]
        if silent:
            runner.errors.append(f"expected spans or counts stayed at zero: {silent}")
    metrics = {}
    for name in reps[0]:
        unit = _unit(name)
        if unit == "count":
            if any(rep[name] != reps[0][name] for rep in reps):
                runner.errors.append(f"count {name} differs between repetitions")
            metrics[name] = (reps[0][name], unit)
        else:
            metrics[name] = (statistics.median(rep[name] for rep in reps), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    attempted = len(reps) * 2 * len(ops)
    return attempted, metrics, notes


# -- main ------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = _import_program()
    os.chdir(ROOT)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    runner = Runner(package)
    try:
        run = traced if args.trace else end_to_end
        attempted, metrics, notes = run(runner, workload, args.seed, args.seconds)
    finally:
        runner.close()

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"closed loop, 1 client, 1 process, --threads 1")
    print(f"env python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"mpmath {importlib.metadata.version('mpmath')}, seed {args.seed}")
    for note in notes:
        print(note)
    for error in runner.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = not runner.errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(runner.errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
