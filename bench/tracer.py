"""Per-layer spans for the traced run, recorded from outside the program.

`installed(tracer)` replaces each traced public function of a layer module
with a wrapper, in every dyadicbmo module namespace that bound it (a
``from .x import y`` copies the binding, so ``verify.interval_bmo_norm`` and
``search.interval_bmo_norm`` are patched as well as
``interval_bmo.interval_bmo_norm``), and restores the originals on exit.

A wrapper records a span: calls and self time, which is the span's wall time
minus the time of the spans nested in it.  Some wrappers name the span after
what they see in the arguments (the first call of `bmo_argmax` on a function
object builds the kernel; `interval_bmo_norm` takes the monotone or the
general path) and count input-derived work (cells, cubes, pieces, regions).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.exceptions = 0
        self.active = []        # names of the open spans, outermost first
        self._nested = []       # time of spans nested in each open span
        self._seen = {}         # (kind, id) -> object, for first-call spans
        self._last_exc = None

    def new_op(self):
        """Forget which function objects were seen: the next op parses afresh."""
        self._seen.clear()
        self._last_exc = None

    def first_call(self, kind, obj):
        key = (kind, id(obj))
        if key in self._seen:
            return False
        self._seen[key] = obj   # keeps obj alive, so its id is not reused
        return True

    def span(self, name, fn, args, kwargs):
        self.active.append(name)
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if exc is not self._last_exc:   # count it once, where it starts
                self._last_exc = exc
                self.exceptions += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            self.active.pop()
            nested = self._nested.pop()
            self.calls[name] += 1
            self.self_s[name] += elapsed - nested
            if self._nested:
                self._nested[-1] += elapsed


# -- span namers: (tracer, args) -> span name ------------------------------

def _fixed(name):
    return lambda tracer, args: name


def _bmo_argmax(tracer, args):
    f = args[0]
    if not tracer.first_call("bmo_argmax", f):
        return "dyadic.bmo_argmax.repeat"
    tracer.counts["dyadic.cells"] += len(f.cells)
    tracer.counts["dyadic.cubes"] += sum(1 << (f.dim * k) for k in range(f.depth + 1))
    return "dyadic.bmo_argmax.first"


def _gr_profile(tracer, args):
    first = tracer.first_call("gr_profile", args[0])
    return "gurov.gr_profile." + ("first" if first else "repeat")


def merged_values(values):
    """Piece values with equal neighbours merged."""
    out = []
    for v in values:
        if not out or out[-1] != v:
            out.append(v)
    return out


def band_regions(values):
    """Piece pairs (i < j) times the mean bands between the distinct values
    of pieces i..j: the polygons the general interval-BMO path visits."""
    total = 0
    for i in range(len(values)):
        seen = {values[i]}
        for v in values[i + 1:]:
            seen.add(v)
            total += len(seen) - 1
    return total


def _interval_bmo(tracer, args):
    values = merged_values(args[0].values)
    pairs = list(zip(values, values[1:]))
    monotone = all(u >= v for u, v in pairs) or all(u <= v for u, v in pairs)
    name = "interval_bmo." + ("monotone" if monotone else "general")
    tracer.counts[name + ".pieces"] += len(values)
    if not monotone:
        tracer.counts[name + ".regions"] += band_regions(values)
    if "search.search" in tracer.active:
        tracer.counts["search.evals"] += 1
    return name


def _stopping_cubes(tracer, result, args):
    """Cubes the stopping-family tree visits: those with no stopping cube
    strictly above them, counted from the returned family."""
    f = args[0]
    levels = [q.level for q in result.stopping_cubes]
    n = f.dim
    tracer.counts["stopping.stopping_family.cubes"] += sum(
        (1 << (n * k)) - sum(1 << (n * (k - lv)) for lv in levels if lv < k)
        for k in range(f.depth + 1))


_PLAIN = {
    "dyadic": ("mean_oscillation", "one_sided_oscillation", "cube_average",
               "dyadic_maximal_function", "distribution_above"),
    "stopping": ("stopping_family", "verify_stopping", "maximal_level_set"),
    "gurov": ("theorem3_check", "theorem4_bound", "theorem5_check",
              "lq_tail_bound", "solve_p"),
    "johnnirenberg": ("jn_check", "jn_abs_check", "logbound_check"),
    "rearrangement": ("rearrange_signed", "rearrange_abs",
                      "interval_mean_oscillation", "hardy_average",
                      "hardy_gap_check"),
    "search": ("search",),
    "verify": ("verify_all",),
    "cli": ("main",),
    "generators": ("generate",),
}
_GROUPS = {
    "formats.parse": ("formats", ("parse_rational", "function_from_obj",
                                  "step_from_obj", "load_json")),
    "formats.dump": ("formats", ("format_rational", "format_float",
                                 "function_to_obj", "step_to_obj",
                                 "canonical_json", "dump_json", "write_csv")),
    "highprec": ("highprec", ("iv_from_fraction", "iv_max", "iv_min", "iv_pow",
                              "upper_float", "lower_float", "midpoint_float")),
}
_AFTER = {("stopping", "stopping_family"): _stopping_cubes}

# (module, function, span namer, hook called with the result)
TRACED = [(mod, fn, _fixed(f"{mod}.{fn}"), _AFTER.get((mod, fn)))
          for mod, fns in _PLAIN.items() for fn in fns]
TRACED += [(mod, fn, _fixed(group), None)
           for group, (mod, fns) in _GROUPS.items() for fn in fns]
TRACED += [
    ("dyadic", "bmo_argmax", _bmo_argmax, None),
    ("gurov", "gr_profile", _gr_profile, None),
    ("interval_bmo", "interval_bmo_norm", _interval_bmo, None),
]


def _wrapper(tracer, fn, namer, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.span(namer(tracer, args), fn, args, kwargs)
        if after is not None:
            after(tracer, result, args)
        return result
    return traced


@contextmanager
def installed(tracer):
    """Patch every binding of every traced function; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "dyadicbmo" or name.startswith("dyadicbmo.")]
    patches = []
    for mod, fn_name, namer, after in TRACED:
        original = getattr(sys.modules["dyadicbmo." + mod], fn_name)
        wrapper = _wrapper(tracer, original, namer, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
