"""Exact dyadic BMO and rearrangement functionals on [0,1]^n.

Piecewise-constant functions on the dyadic grid with exact rational
arithmetic: mean oscillations and the dyadic BMO norm, signed/absolute
nonincreasing rearrangements with certified interval-BMO bounds,
Calderon-Zygmund stopping families, exponential distribution bounds, the
oscillation-to-mean modulus with its integrability consequences, and a
derivative-free search probing the sharp rearrangement constant.

Importing the package loads only the mpmath-free core: dyadic, rearrangement,
interval_bmo, stopping, generators, search, formats and errors.  The names
of gurov (the modulus profile and its exponent bounds), johnnirenberg (the
exponential distribution bounds) and verify (the suites) are resolved on
first access (PEP 562), which imports that module and mpmath with it; each
is the same object as ``dyadicbmo.<module>.<name>``, and ``dir()`` and
``from dyadicbmo import *`` list them.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .dyadic import (DyadicCubeId, DyadicFunction, OscillationReport, Rational,
                     bmo_argmax, bmo_dyadic_norm, cube_average,
                     distribution_above, dyadic_maximal_function, every_cube,
                     mean_oscillation, one_sided_oscillation)
from .errors import GenerationError, InputError, PreconditionError
from .generators import KINDS, GeneratorSpec, generate
from .interval_bmo import IntervalBMOBound, interval_bmo_norm
from .rearrangement import (StepFunction1D, hardy_average, hardy_gap_check,
                            interval_mean_oscillation, rearrange_abs,
                            rearrange_signed, supinf_formula,
                            value_mass_distribution)
from .search import (OBJECTIVES, SearchConfig, SearchResult, ratio_objective,
                     search)
from .stopping import (CZDecomposition, StoppingReport, maximal_level_set,
                       stopping_family, verify_stopping)

# names of the mpmath-backed modules, bound on first access
_LAZY = {name: module for module, names in (
    ("gurov", ("ExponentSolution", "GRProfile", "Theorem4Result", "gr_membership",
               "gr_modulus", "gr_profile", "lq_tail_bound", "sigma_level_for",
               "solve_p", "theorem3_check", "theorem4_bound", "theorem5_check")),
    ("johnnirenberg", ("JNConstants", "jn_abs_check", "jn_check", "logbound_check")),
    ("verify", ("SUITES", "SuiteResult", "VerificationReport", "verify_all")),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "CZDecomposition", "DyadicCubeId", "DyadicFunction", "ExponentSolution",
    "GRProfile", "GenerationError", "GeneratorSpec", "InputError",
    "IntervalBMOBound", "JNConstants", "KINDS", "OBJECTIVES",
    "OscillationReport", "PreconditionError", "Rational", "SUITES",
    "SearchConfig", "SearchResult", "StepFunction1D", "StoppingReport",
    "SuiteResult", "Theorem4Result", "VerificationReport", "bmo_argmax",
    "bmo_dyadic_norm", "cube_average", "distribution_above",
    "dyadic_maximal_function", "every_cube", "generate", "gr_membership",
    "gr_modulus", "gr_profile", "hardy_average", "hardy_gap_check",
    "interval_bmo_norm", "interval_mean_oscillation", "jn_abs_check",
    "jn_check", "logbound_check", "lq_tail_bound", "maximal_level_set",
    "mean_oscillation", "one_sided_oscillation", "ratio_objective",
    "rearrange_abs", "rearrange_signed", "search", "sigma_level_for",
    "solve_p", "stopping_family", "supinf_formula", "theorem3_check",
    "theorem4_bound", "theorem5_check", "value_mass_distribution",
    "verify_all", "verify_stopping",
]
