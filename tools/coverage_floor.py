#!/usr/bin/env python3
"""Fail when tier-1 leaves a line of src/dyadicbmo unrun that ALLOWED does
not name, or when an entry of ALLOWED names no unrun line or more than one.

    python tools/coverage_floor.py

Needs Python 3.12+ (sys.monitoring) and pytest; no coverage package.  It
runs the tier-1 tests in this process with line events on, so the tests
that start a fresh interpreter add nothing.  The lines that can run are
the line numbers of every code object compiled from the package's files;
co_lines also yields numbers <= 0, which name no source line.  An allowed
line is keyed by its file and its stripped source text, with the reason it
does not run, and must match exactly one unrun line, so a second unrun
line with the same text fails too.  Exit code: pytest's when a test fails,
1 when the floor fails, 0 when it holds.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyadicbmo"
TOOL = 4  # unassigned: hypothesis takes 3 when it explains a failure

ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard runs only as a script, in a fresh interpreter",
}


def runnable(path):
    """{line: stripped source} of every line the file's code objects hold."""
    text = path.read_text()
    source = text.splitlines()
    lines, codes = {}, [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                lines[line] = source[line - 1].strip()
    return lines


def main():
    if sys.version_info < (3, 12):
        print("coverage_floor: needs Python 3.12+ (sys.monitoring)", file=sys.stderr)
        return 2
    import pytest

    mon = sys.monitoring
    ran = set()  # (file name as compiled, line); each location reports once

    def on_line(code, line):
        ran.add((code.co_filename, line))
        return mon.DISABLE

    sys.path.insert(0, str(ROOT / "src"))
    mon.use_tool_id(TOOL, "coverage_floor")
    mon.register_callback(TOOL, mon.events.LINE, on_line)
    mon.set_events(TOOL, mon.events.LINE)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "--durations=15", "-p", "no:cacheprovider",
                            str(ROOT / "tests")])
    finally:
        mon.set_events(TOOL, 0)
        mon.free_tool_id(TOOL)
    if code:
        return code
    loaded = sys.modules["dyadicbmo"].__file__
    if Path(loaded).resolve().parent != PACKAGE:
        print(f"coverage_floor: tests imported {loaded}, not {PACKAGE}",
              file=sys.stderr)
        return 1

    resolved = {name: Path(name).resolve() for name, _ in ran}
    seen = {(resolved[name], line) for name, line in ran}
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(runnable(path).items()):
            if (path, line) not in seen:
                unrun.append((path.name, line, text))
    count = Counter((name, text) for name, _, text in unrun)
    missing = [(name, line, text) for name, line, text in unrun
               if (name, text) not in ALLOWED]
    stale = [key for key in ALLOWED if not count[key]]
    doubled = [key for key in ALLOWED if count[key] > 1]
    for name, line, text in missing:
        print(f"not run by any test: src/dyadicbmo/{name}:{line}: {text}")
    for name, text in stale:
        print(f"allowed but run by a test, or gone: {name}: {text}")
    for name, text in doubled:
        at = ", ".join(str(line) for n, line, t in unrun if (n, t) == (name, text))
        print(f"allowed once but unrun at lines {at}: src/dyadicbmo/{name}: {text}")
    print(f"coverage_floor: {len(unrun)} unrun lines, {len(ALLOWED)} allowed, "
          f"{len(missing)} missing, {len(stale)} stale, {len(doubled)} doubled")
    return 1 if missing or stale or doubled else 0


if __name__ == "__main__":
    sys.exit(main())
