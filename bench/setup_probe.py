"""Time importing the dyadicbmo command line and generating one pass of inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken.  run.py starts it several times, each in a fresh
interpreter, so every import is paid in full.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import dyadicbmo.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_pass(int(sys.argv[2]), 0)
print(time.perf_counter() - start)
