"""Every subcommand's exit code and output bytes, pinned in data/outputs.json:
each command line in COMMANDS maps to its exit code and the sha256 of its
stdout, its stderr and each file it writes.  The commands run in-process
through cli.main in one directory of the named inputs below, so a key is
the plain argv.  After an intended change of bytes, rewrite the data file
with `PYTHONPATH=src python tests/test_outputs.py`.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from dyadicbmo import GeneratorSpec, StepFunction1D, generate
from dyadicbmo.cli import MAX_POINTS, main
from dyadicbmo.formats import canonical_json, function_to_obj, step_to_obj
from dyadicbmo.interval_bmo import MAX_GENERAL_PIECES

DATA = Path(__file__).resolve().with_name("data") / "outputs.json"

# the check-mixed inputs of bench seed 1, pass 0: bench/workloads.py seeds
# slot s with the first 8 hex digits of sha256("check-mixed/1/0/s")
CHECK_MIXED = [("uniform-cells", 1, 10, 624184134), ("uniform-cells", 2, 5, 1650870948),
               ("uniform-cells", 3, 4, 3513629909), ("cascade-gr", 1, 8, 4178518945),
               ("cascade-gr", 2, 4, 1266476460), ("cascade-gr", 3, 3, 622890299),
               ("monotone-1d", 1, 10, 1798540761)]
# the interval-general inputs of bench seed 1, pass 0 (seeded the same way):
# many-band L=4, many-band L=5, few-band L=5
INTERVALS = [(3996238302, {"depth": 4}), (3233443843, {"depth": 5}),
             (2805481308, {"depth": 5, "low": 0, "high": 4, "denom_bits": 2})]
# small literal grids: n = 1-3, depth 0 up, signed and nonnegative, mixed
# denominators, a constant; nested's parent cover at 2 keeps the father
# (1, 0) of the stopping cube (2, 0) and drops the father (2, 1) of the
# stopping cell (3, 3), which lies inside it
GRIDS = {"const": (1, 2, [3, 3, 3, 3]),
         "depth0": (2, 0, ["-5/3"]),
         "spike": (1, 2, [4, 0, 0, 0]),
         "nested": (1, 3, [5, 0, 0, 3, 0, 0, 0, 0]),
         "mixed-1": (1, 3, [4, 0, "1/3", "-7/2", "5/6", -2, 1, "2/7"]),
         "nonneg-2": (2, 2, [0, "1/2", 3, "7/3", 1, 0, "5/4", 2,
                             6, "1/6", 0, 4, "3/5", 1, 0, 2]),
         "signed-3": (3, 1, [1, -2, "3/4", 0, -1, "5/2", -3, "1/3"]),
         "nonneg-3": (3, 2, [f"{k * 37 % 11}/{1 + k % 3}" for k in range(64)])}
OVERCAP = MAX_GENERAL_PIECES + 1
# literal files: step functions, and inputs that exit 2
LITERALS = {"zero-den": {"n": 1, "level": 1, "values": ["1/0", 1]},
            "past-float": {"n": 1, "level": 1, "values": ["1e400", 0]},
            "wide": {"n": 64, "level": 0, "values": [3]},
            "bool": {"n": 1, "level": 1, "values": [True, 1]},
            "no-values": {"n": 1, "level": 1},
            "wave-step": {"breakpoints": [0, "1/4", "1/2", "3/4", 1], "values": [0, 2, 1, 3]},
            "rising-step": {"breakpoints": [0, "1/3", "1/2", 1], "values": [0, 1, 3]},
            "past-float-step": {"breakpoints": [0, "1/2", 1], "values": ["1e400", 0]},
            "bool-step": {"breakpoints": [0, "1/2", 1], "values": [True, 1]},
            "no-values-step": {"breakpoints": [0, 1]},
            "unsorted-step": {"breakpoints": [0, "2/3", "1/3", 1], "values": [1, 2, 3]},
            "overcap-step": {"breakpoints": [f"{k}/{OVERCAP}" for k in range(OVERCAP + 1)],
                             "values": [k % 2 for k in range(OVERCAP)]}}
# generate: each kind at seeds 0, 3 and 11, several sizes, four value ranges
GENERATE_SIZES = {"uniform-cells": [(1, 0), (1, 6), (2, 3), (3, 2)],
                  "monotone-1d": [(1, 0), (1, 7)],
                  "cascade-gr": [(1, 4), (2, 2), (3, 1)]}
SMALL = [*GRIDS, "cascade"]


def _walk(pieces, seed, many_values):
    """A step function on unequal pieces k/(4 pieces): a random walk of
    steps +-1, +-2, or else values p/q with |p| < 10^4 and q in 1, 3, 7."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, 4 * pieces), pieces - 1))
    if many_values:
        values = [Fraction(rng.randrange(-10 ** 4, 10 ** 4), rng.choice((1, 3, 7)))
                  for _ in range(pieces)]
    else:
        values = list(accumulate(rng.choice((-2, -1, 1, 2)) for _ in range(pieces)))
    return StepFunction1D([Fraction(c, 4 * pieces) for c in (0, *cuts, 4 * pieces)],
                          values)


def write_inputs(directory):
    """The named input files, written into directory."""
    files = {f"{name}.json": {"n": n, "level": level, "values": values}
             for name, (n, level, values) in GRIDS.items()}
    files.update((f"{name}.json", obj) for name, obj in LITERALS.items())
    for slot, (kind, n, level, seed) in enumerate(CHECK_MIXED):
        f = generate(GeneratorSpec(kind=kind, dim=n, depth=level, seed=seed))
        files[f"check-{slot}.json"] = function_to_obj(f)
    files["cascade.json"] = function_to_obj(
        generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=3)))
    for slot, (seed, kw) in enumerate(INTERVALS):
        cells = generate(GeneratorSpec(kind="uniform-cells", dim=1, seed=seed, **kw)).cells
        g = StepFunction1D([Fraction(k, len(cells)) for k in range(len(cells) + 1)], cells)
        files[f"interval-{slot}.json"] = step_to_obj(g)
    for pieces, seed, many_values in ((48, 0, False), (96, 1, True), (200, 2, False)):
        files[f"walk-{pieces}.json"] = step_to_obj(_walk(pieces, seed, many_values))
    for name, obj in files.items():
        (directory / name).write_text(canonical_json(obj))
    (directory / "bad.json").write_text("{nope")


# cz thresholds by input and direction.  Below at the mean (mixed-1 5/42,
# const 3) and above under it (mixed-1 at 0) exit 2; above at the mean is
# nested 1, mixed-1 5/42, nonneg-2 477/320, signed-3 -17/96, const, depth0
CZ = [("check-0", "above", "1/2 7/3"), ("check-0", "below", "-8 -29/4"),
      ("check-1", "above", "1 4"), ("check-1", "below", "-31/4 -29/4"),
      ("check-2", "above", "1"), ("check-2", "below", "-1"),
      ("check-3", "above", "1"), ("check-3", "below", "9/10"),
      ("check-5", "below", "99/100"), ("check-6", "below", "-2"),
      ("nested", "above", "2 1"), ("nested", "below", "1/2"),
      ("mixed-1", "above", "5/42 2 0"), ("mixed-1", "below", "-1 5/42"),
      ("nonneg-2", "above", "477/320 3"), ("nonneg-2", "below", "1 0"),
      ("signed-3", "above", "-17/96"), ("signed-3", "below", "-1"),
      ("nonneg-3", "above", "4"), ("nonneg-3", "below", "2"),
      ("const", "above", "3"), ("const", "below", "3"), ("depth0", "above", "-5/3"),
      ("cascade", "above", "101/100"), ("cascade", "below", "1")]

COMMANDS = [
    # the check-mixed inputs: every suite, the jn grid, maximal
    *(f"check --input check-{slot}.json" for slot in range(7)),
    "jn --input check-0.json", "jn --input check-4.json",
    "jn --input check-0.json --lambda-grid 8",
    "maximal --input check-0.json", "maximal --input check-1.json",
    "norm --input check-1.json", "rearrange --input check-6.json",
    *(f"cz --input {name}.json --alpha={alpha} --direction {direction}"
      for name, direction, alphas in CZ for alpha in alphas.split()),
    # interval-bmo: bench inputs, general walks, a wave, a monotone step
    *(f"interval-bmo --input interval-{slot}.json" for slot in (0, 2, 1)),
    *(f"interval-bmo --input walk-{pieces}.json" for pieces in (48, 96, 200)),
    "interval-bmo --input wave-step.json", "interval-bmo --input rising-step.json",
    *(f"generate --kind {kind} --n {n} --level {level} --seed {seed} "
      f"--low={low} --high={high}"
      for seed in (0, 3, 11) for kind, sizes in GENERATE_SIZES.items()
      for n, level in sizes
      for low, high in (("-8", "8"), ("-1/3", "5/7"), ("2", "2"), ("0", "1/6"))),
    "generate --kind cascade-gr --n 2 --level 2 --seed 3 --target-eps 1/4 --output g.json",
    # the exponent p: certified below the root, capped at 10^6
    "p-root --n 1 --eps 1/4", "p-root --n 2 --eps 3/1000",
    "p-root --n 1 --eps 1/1000000000000", "p-root --n 2 --eps 1/8",
    # search: both search-anneal grids and one jnB run, best function to a file
    *(f"search {argv} --restarts 2 --function-output best.json" for argv in (
        "--n 1 --level 4 --iters 150 --seed 7",
        "--n 2 --level 2 --iters 150 --seed 7",
        "--n 1 --level 3 --iters 100 --seed 3 --objective jnB")),
    "search --n 1 --level 2 --restarts 1 --iters 10 --seed 1 --output res.json",
    # every subcommand that reads a function, on the small grids
    *(f"{command} --input {name}.json" for name in SMALL
      for command in ("norm", "maximal", "rearrange", "rearrange --abs", "gr",
                      "jn --lambda-grid 8", "check")),
    "rearrange --input mixed-1.json --samples 4",
    "rearrange --input mixed-1.json --samples 0",
    "rearrange --input nonneg-2.json --abs --samples 3 --samples-output h.csv",
    "rearrange --input signed-3.json --output step.json",
    "norm --input nested.json --output norm.json",
    "maximal --input nested.json --output maximal.json",
    "cz --input nested.json --alpha=1 --direction above --output cz.json",
    "jn --input mixed-1.json --output jn.csv", "gr --input cascade.json --output gr.csv",
    "check --input mixed-1.json --suite lemma21,thm1,thm2,cz",
    "check --input nonneg-2.json --suite thm3,thm4,thm5 --output report.json",
    "rearrange --input past-float.json",
    # exit 1: a tolerance no float gap meets; then exit 2: input errors
    "interval-bmo --input wave-step.json --tol 1e-300",
    "interval-bmo --input wave-step.json --tol 0",
    *(f"check --input {name}.json" for name in ("zero-den", "past-float", "wide", "bool")),
    *(f"interval-bmo --input {name}-step.json"
      for name in ("past-float", "bool", "no-values", "unsorted", "overcap")),
    *(f"norm --input {name}.json" for name in ("bad", "no-values", "absent")), "norm",
    "check --input mixed-1.json --suite lemma21,nope",
    "p-root --n 1 --eps 1", "p-root --n 2 --eps 0", "p-root --n 20000 --eps 1/8",
    "generate --kind monotone-1d --n 2 --level 2",
    "generate --kind uniform-cells --n 3 --level 7", "search --n 3 --level 7",
    # exit 2 here too: a sample past the largest float, grid sizes below 1
    # and 0, and one past MAX_POINTS
    "rearrange --input past-float.json --samples 2",
    "jn --input cascade.json --lambda-grid 0", "jn --input mixed-1.json --lambda-grid -2",
    "rearrange --input mixed-1.json --samples -1",
    f"rearrange --input spike.json --samples {MAX_POINTS + 1}",
    f"jn --input spike.json --lambda-grid {MAX_POINTS + 1}",
    # exit 2: a search past MAX_SEARCH_WORK, refused before any trial
    "search --n 1 --level 4 --iters 1000000000",
    # a jnB search of 2^15 trial cells, within MAX_SEARCH_WORK at the probe's
    # weight of 8 (and past it at a weight of 32, one per lambda)
    "search --n 1 --level 12 --restarts 1 --iters 7 --seed 5 --objective jnB "
    "--function-output best.json",
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run(command):
    """The record of one command run in the current directory: its exit
    code and the sha256 of stdout, stderr and each file it writes (which is
    then removed)."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    files = {}
    for name in sorted(set(os.listdir()) - before):
        files[name] = _sha(Path(name).read_bytes())
        os.remove(name)
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


@functools.cache
def _expected():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


def test_records_match_commands():
    assert list(_expected()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output(command, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    got, want = run(command), _expected()[command]
    changed = [key for key in ("exit", "stdout", "stderr") if got[key] != want[key]]
    changed += [f"file {name}" for name in sorted(got["files"] | want["files"])
                if got["files"].get(name) != want["files"].get(name)]
    assert not changed, f"{command}: {', '.join(changed)} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        records = {command: run(command) for command in COMMANDS}
        os.chdir(DATA.parent)
    DATA.write_text("{\n" + ",\n".join(f"{json.dumps(c)}: {json.dumps(r)}"
                                       for c, r in records.items()) + "\n}\n")
