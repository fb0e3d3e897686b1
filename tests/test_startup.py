"""What a fresh interpreter loads: the mpmath-backed modules, the suites and
the process pool only when a subcommand runs code that uses them."""

import json
import os
import subprocess
import sys

import pytest

import dyadicbmo

HEAVY = ("mpmath", "multiprocessing", "concurrent.futures.process",
         "dyadicbmo.gurov", "dyadicbmo.johnnirenberg", "dyadicbmo.highprec",
         "dyadicbmo.verify")
WAVE = {"breakpoints": [0, "1/4", "1/2", "3/4", 1], "values": [0, 2, 1, 3]}
# every subcommand that needs none of HEAVY, run through cli.main
LIGHT = ["interval-bmo --input wave.json",
         "generate --kind uniform-cells --n 2 --level 3 --seed 4 --output f.json",
         "generate --kind cascade-gr --n 2 --level 3 --seed 4 --output c.json",
         "search --n 1 --level 3 --restarts 2 --iters 5 --threads 1 "
         "--function-output best.json",
         "norm --input f.json", "rearrange --input f.json --samples 4",
         "cz --input f.json --alpha 0", "maximal --input f.json"]
# runs the commands given as arguments, then prints their exit codes and
# which of HEAVY are loaded
RUN = f"""
import contextlib, io, json, sys
from dyadicbmo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split()) for argv in sys.argv[1:]]
print(json.dumps([codes, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def _python(code, *args, cwd=None):
    src = os.path.dirname(os.path.dirname(dyadicbmo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          check=True, capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def test_light_subcommands_load_no_heavy_module(tmp_path):
    (tmp_path / "wave.json").write_text(json.dumps(WAVE))
    codes, loaded = _python(RUN, *LIGHT, cwd=tmp_path)
    assert codes == [0] * len(LIGHT)
    assert loaded == []


def test_check_loads_the_suites_and_mpmath(tmp_path):
    codes, loaded = _python(RUN, LIGHT[1], "check --input f.json", cwd=tmp_path)
    assert codes == [0, 0]
    assert loaded == ["mpmath", "dyadicbmo.gurov", "dyadicbmo.johnnirenberg",
                      "dyadicbmo.highprec", "dyadicbmo.verify"]


def test_lazy_names_are_the_defining_objects():
    # in a fresh interpreter: dir() lists every public name before any is
    # resolved, and a star import binds each to the object of every
    # submodule that holds that name
    code = f"""
import importlib, json, pkgutil, sys
import dyadicbmo
listed = set(dyadicbmo.__all__) <= set(dir(dyadicbmo))
before = [m for m in {HEAVY!r} if m in sys.modules]
ns = {{}}
exec("from dyadicbmo import *", ns)
subs = [importlib.import_module("dyadicbmo." + m.name)
        for m in pkgutil.iter_modules(dyadicbmo.__path__)]
wrong = [name for name in dyadicbmo.__all__
         if not any(name in vars(m) for m in subs)
         or any(vars(m).get(name, ns[name]) is not ns[name] for m in subs)]
print(json.dumps([listed, before, wrong, callable(dyadicbmo.search)]))
"""
    listed, before, wrong, search_is_function = _python(code)
    assert listed and before == []
    assert wrong == []
    assert search_is_function


def test_dir_lists_every_public_name():
    assert set(dyadicbmo.__all__) <= set(dir(dyadicbmo))


def test_check_help_lists_every_suite(capsys):
    from dyadicbmo.cli import main
    from dyadicbmo.verify import SUITES
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    assert exit_.value.code == 0
    assert len(SUITES) == 12
    assert ",".join(SUITES) in "".join(capsys.readouterr().out.split())
