"""A fixed reference computation that shows how fast the host runs Python now.

The benchmark shares a host with other machines.  Their load changes how fast
this one runs, in spells of tens of seconds to minutes, and neither wall time
nor this process's CPU time shows it: on a 2-vCPU guest the same `search` op
went from 0.76 s to 1.5 s within a minute while CPU time tracked wall time.
A small exact-rational kernel like this one slowed down in step with it: the
ratio of the op's time to the kernel's stayed near 18 while both doubled.
So run.py runs this kernel between the pieces of work it times and reports
each piece in reference seconds:

    reference seconds = measured seconds * NOMINAL_S / kernel seconds

that is, the seconds the work would take on a host that runs the kernel in
NOMINAL_S.  The kernel uses only the standard library, in the program's mix
of exact rational arithmetic, sorting, dicts and small function calls, and
it never changes: a change to it changes the unit of every time reported.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NOMINAL_S = 0.08    # about the kernel's time on a 2-vCPU guest, so reference
                    # seconds read close to measured seconds there


def _values():
    rng = random.Random(20141016)
    return tuple(Fraction(rng.randint(-255, 255), 1 << k % 7) for k in range(120))


_VALUES = _values()


def _mean_oscillations(values):
    """Largest |v - mean| over each prefix of `values`."""
    best = []
    for j in range(len(values)):
        window = sorted(values[: j + 1])
        mean = sum(window, Fraction(0)) / len(window)
        best.append(max(abs(v - mean) for v in window))
    return best


def kernel():
    """The fixed work; returns a value that depends on all of it."""
    best = _mean_oscillations(_VALUES)
    tally = {}
    for k, b in enumerate(best):
        key = b.denominator
        tally[key] = tally.get(key, Fraction(0)) + b * k
    return sum(tally.values(), Fraction(0)) + len(tally)


_EXPECTED = kernel()


def seconds():
    """Time one run of the kernel."""
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError("reference kernel result changed")
    return elapsed
