"""Derivative-free search for functions with a large rearrangement-norm ratio.

The objective is the certified lower bound of the interval BMO norm of the
signed rearrangement divided by the exact dyadic BMO norm; by the 2^n
rearrangement inequality it can never exceed 2^n, and the search treats any
apparent violation as an implementation bug, not a discovery.  Multistart
simulated annealing on a lattice of integer cell numerators over
2^denom_bits, kept from the random draw to the scored function (only the
best function's cells become Fractions); fully deterministic for a fixed
seed, with one RNG stream per restart so restarts may run in any order (or
in parallel processes) without changing the result.

A trial is scored from integers: the dyadic norm is the level and the
oscillation numerator _bmo_level picks, with no witness cube or average,
and the ratio is the integer pair lower.numerator * (den << 2n(L-k)) over
lower.denominator * top.  Its float num / den is correctly rounded, as
float(Fraction) is, so every annealing decision is the one the Fraction
would make, and the 2^n cap test cross-multiplies.  The one Fraction
ratio, the public bmo_dyadic_norm with its witness cube, and the check
that the reported ratio is the certificate's lower bound over that norm
are made once, for the reported best.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (DyadicFunction, _bmo_level, _morton_order,
                     bmo_dyadic_norm, check_grid_size, distribution_above)
from .errors import InputError, PreconditionError
from .interval_bmo import interval_bmo_norm
from .rearrangement import rearrange_signed

OBJECTIVES = ("ratio_thm1", "jn_B_probe")
# Thresholds of the jn_B_probe lambda grid: each trial reads one measure
# (distribution_above) per point, and the probe's exponential is a float.
PROBE_POINTS = 32
# Most work a search may ask for, in trial cells: restarts x (iterations + 1)
# x cells, times JN_PROBE_WEIGHT for jn_B_probe, whose trial cell costs
# about that many ratio_thm1 trial cells (README).  Checked before any
# trial, so an oversized search is refused instead of running for days; at
# the bound the slowest search of either objective, on the smallest grid,
# takes about as long as `check` on a 2^20-cell grid.
MAX_SEARCH_WORK = 1 << 19
JN_PROBE_WEIGHT = 8


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 1
    depth: int = 3
    restarts: int = 16
    iterations: int = 2000
    seed: int = 0
    objective: str = "ratio_thm1"
    denom_bits: int = 12
    temp_initial: float = 0.5
    temp_final: float = 1e-3
    step_initial_bits: int = 2   # first moves alter cells by ~2^-2
    tol: float = 1e-9
    threads: int = 1

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise InputError("restarts and iterations must be >= 1")
        if self.objective not in OBJECTIVES:
            raise InputError(f"unknown objective {self.objective!r}; "
                             f"choose from {', '.join(OBJECTIVES)}")
        if self.dim < 1 or self.depth < 0 or self.denom_bits < 0:
            raise InputError("need dim >= 1, depth >= 0 and denom_bits >= 0")
        check_grid_size(self.dim, self.depth)
        if not (self.temp_initial > 0 and self.temp_final > 0):
            raise InputError("temp_initial and temp_final must be > 0")
        if not 0 < self.tol < math.inf:
            raise InputError("tolerance must be positive and finite, "
                             f"got {self.tol}")
        work = self.restarts * (self.iterations + 1) << self.dim * self.depth
        if self.objective == "jn_B_probe":
            work *= JN_PROBE_WEIGHT
        if work > MAX_SEARCH_WORK:
            raise InputError(
                f"a search of restarts x (iterations + 1) x cells"
                f"{f' x {JN_PROBE_WEIGHT}' if self.objective == 'jn_B_probe' else ''} "
                f"= {work} trial cells is too large; at most "
                f"{MAX_SEARCH_WORK} are supported")


@dataclass(frozen=True)
class SearchResult:
    """For ratio_thm1, best_score_exact is the certified ratio and
    certificate its interval bound.  For jn_B_probe, best_score_exact is
    the float probe score written as a Fraction and certificate is None;
    only the final jn_check of the best function is certified."""

    best_function: DyadicFunction
    best_score: float
    best_score_exact: Fraction
    certificate: object
    trace: tuple
    objective: str
    hard_cap: float


def _ratio(f, tol):
    """((num, den), bound): the certified lower bound of ||f_d||_* over the
    dyadic norm of f, num / den, and the interval bound it came from; None
    for a constant f.  The norm is top / (den_f * 4^(n(L-k))) from
    _bmo_level, so no witness cube, average or Fraction is built."""
    k, top = _bmo_level(f)
    if not top:
        return None
    bound = interval_bmo_norm(rearrange_signed(f), tol)
    lower = bound.lower
    num = lower.numerator * (f._den << 2 * f.dim * (f.depth - k))
    den = lower.denominator * top
    if num > den << f.dim:
        raise AssertionError(
            f"ratio {Fraction(num, den)} exceeds the proven cap {1 << f.dim}; "
            f"this indicates a bug in the norm computation")
    return (num, den), bound


def ratio_objective(f, tol=1e-9):
    """Certified lower bound of ||f_d||_* divided by the dyadic norm of f."""
    scored = _ratio(f, tol)
    if scored is None:
        raise PreconditionError("the ratio is undefined for constant functions")
    num, den = scored[0]
    return num / den


def _jn_probe_score(f):
    """Largest measure / exp(-lam/(2^(n-1) e ||f||)) over a lambda grid.

    A lower estimate of the smallest admissible leading constant for this f;
    provably at most e.
    """
    from .johnnirenberg import JNConstants, _lambda_grid
    grid = _lambda_grid(f, PROBE_POINTS)
    if not grid:
        return None
    norm = bmo_dyadic_norm(f)
    best = 0.0
    b = float(Fraction(1, 1 << (f.dim - 1))) / JNConstants(f.dim).B
    for lam in grid:
        measure = distribution_above(f, lam, f.mean)
        if measure == 0:
            continue
        implied = float(measure) * math.exp(float(lam) / float(norm) * b)
        best = max(best, implied)
    return best if best > 0 else None


def _score(f, cfg):
    """(float score, exact score, certificate) of f; all None for a constant f.

    The exact score is _ratio's integer pair for the ratio, whose
    certificate is the interval bound behind it, and the float's Fraction
    for the probe, with no certificate."""
    if cfg.objective == "ratio_thm1":
        scored = _ratio(f, cfg.tol)
        if scored is None:
            return None, None, None
        (num, den), bound = scored
        return num / den, (num, den), bound
    s = _jn_probe_score(f)
    if s is None:
        return None, None, None
    return s, Fraction(s), None


def _normalize(nums, bits):
    """The 2^m cells k_i / 2^bits shifted to zero mean, scaled by a power of
    two to max |v| in (1/2, 1] and rounded to 2^-bits, ties to even: with
    d_i = (k_i << m) - sum(k), that is d_i / 2^s rounded to an integer,
    s = bit_length(max |d_i| - 1) - bits."""
    m = len(nums).bit_length() - 1
    total = sum(nums)
    d = [(k << m) - total for k in nums]
    top = max(map(abs, d))
    if top == 0:
        return d
    s = (top - 1).bit_length() - bits
    if s <= 0:
        return [x << -s for x in d]
    half = 1 << (s - 1)
    return [(x + half - 1 + ((x >> s) & 1)) >> s for x in d]


def _function(cfg, nums):
    """The function whose public-order cells are nums / 2^denom_bits."""
    return DyadicFunction._from_nums(
        cfg.dim, cfg.depth, 1 << cfg.denom_bits,
        [nums[p] for p in _morton_order(cfg.dim, cfg.depth)])


def _run_restart(cfg, restart_index):
    rng = random.Random(cfg.seed * 1_000_003 + restart_index)
    count = 1 << (cfg.dim * cfg.depth)
    den = 1 << cfg.denom_bits

    for _ in range(65):  # a start and up to 64 retries past constant ones
        cells = _normalize([rng.randrange(-den, den + 1) for _ in range(count)],
                           cfg.denom_bits)
        score, exact, cert = _score(_function(cfg, cells), cfg)
        if score is not None:
            break
    else:
        return None
    best_cells, best_score, best_exact, best_cert = cells, score, exact, cert
    trace = [(restart_index, 0, best_score)]

    cooling = (cfg.temp_final / cfg.temp_initial) ** (1.0 / max(cfg.iterations - 1, 1))
    temp = cfg.temp_initial
    step_num = 1 << max(cfg.denom_bits - cfg.step_initial_bits, 0)
    for it in range(1, cfg.iterations + 1):
        trial = list(cells)
        for _ in range(1 + rng.randrange(2)):
            c = rng.randrange(count)
            mag = max(1, int(step_num * temp / cfg.temp_initial))
            trial[c] += rng.choice((-1, 1)) * rng.randrange(1, mag + 1)
        trial = _normalize(trial, cfg.denom_bits)
        new_score, new_exact, new_cert = _score(_function(cfg, trial), cfg)
        if new_score is not None:
            delta = new_score - score
            if delta >= 0 or rng.random() < math.exp(delta / temp):
                cells, score, exact, cert = trial, new_score, new_exact, new_cert
            if score > best_score:
                best_cells, best_score, best_exact, best_cert = cells, score, exact, cert
                trace.append((restart_index, it, best_score))
        temp *= cooling
    return best_cells, best_score, best_exact, best_cert, trace


def search(cfg):
    """Multistart annealing; the best evaluation is reported with the
    certificate it was scored with."""
    workers = min(cfg.threads, cfg.restarts, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_restart, cfg, r)
                       for r in range(cfg.restarts)]
            results = [fut.result() for fut in futures]
    else:
        results = [_run_restart(cfg, r) for r in range(cfg.restarts)]

    best = None
    trace = []
    for res in results:  # ascending restart index: ties keep the earliest
        if res is None:
            continue
        trace.extend(res[4])
        if best is None or res[1] > best[1]:
            best = res
    if best is None:
        raise PreconditionError("no valid (non-constant) candidate was found")

    best_cells, score, exact, cert, _ = best
    f = _function(cfg, best_cells)
    if cfg.objective == "ratio_thm1":
        cap = float(1 << cfg.dim)
        exact = Fraction(*exact)
        if exact != cert.lower / bmo_dyadic_norm(f):
            raise AssertionError(
                f"the best score {exact} is not its certificate's lower "
                f"bound over the dyadic norm")
    else:
        from .highprec import IV_E, upper_float
        from .johnnirenberg import _lambda_grid, jn_check
        cap = upper_float(IV_E)
        # implied <= e at every lambda is the certified distribution bound
        for lam in _lambda_grid(f, PROBE_POINTS):
            measure, bound = jn_check(f, lam)
            if measure > bound:
                raise AssertionError(
                    f"the best probe breaks the certified bound at "
                    f"lambda={lam}: measure {measure} > {bound}")
    return SearchResult(best_function=f, best_score=score,
                        best_score_exact=exact, certificate=cert,
                        trace=tuple(trace), objective=cfg.objective,
                        hard_cap=cap)
