"""Aggregated per-function verification suites for every inequality checker.

Each suite re-validates one statement on the given function over
deterministic internal grids and reports pass/fail with failure witnesses.
Suites whose hypotheses the function does not meet (e.g. the power-decay
bounds when the modulus is out of range) report a vacuous pass with a note.

Every inequality is decided by one rule, with no slack: the checkers return
an lhs that is exact (a Fraction) or rounded down and an rhs that is exact or
rounded up, and a check fails iff lhs > rhs.  Python compares a Fraction with
a float exactly, so a reported violation is a real one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, repeat
from math import gcd

from .dyadic import (DyadicCubeId, _decode, bmo_dyadic_norm,
                     mean_oscillation, one_sided_oscillation)
from .errors import InputError
from .gurov import (_solve_p_exact, gr_membership, gr_profile, lq_tail_bound,
                    solve_p, theorem3_check, theorem4_bound, theorem5_check)
from .highprec import lower_float
from .interval_bmo import interval_bmo_norm
from .johnnirenberg import (_lambda_grid, _log_bound, jn_abs_check, jn_check,
                            logbound_check)
from .rearrangement import (_window_ints, hardy_average, hardy_gap_check,
                            interval_mean_oscillation, rearrange_abs,
                            rearrange_signed)
from .stopping import (_crossing_measure, _stopping_measure, maximal_level_set,
                       stopping_family, verify_stopping)

SUITES = ("lemma21", "lemma22", "lemma23", "thm1", "thm2", "thm31",
          "remark31", "thm3", "thm4", "thm5", "cor1", "cz")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    skipped: bool = False
    note: str = ""
    failures: tuple = ()


@dataclass(frozen=True)
class VerificationReport:
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def to_obj(self):
        return {"passed": self.passed,
                "suites": [{"name": r.name, "passed": r.passed,
                            "checks": r.checks, "skipped": r.skipped,
                            "note": r.note, "failures": list(r.failures)}
                           for r in self.results]}


def _result(name, checks, failures, skipped=False, note=""):
    return SuiteResult(name=name, passed=not failures, checks=checks,
                       skipped=skipped, note=note,
                       failures=tuple(failures[:8]))


class _Tally:
    """A suite's count of checks and its failures, in order."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def decide(self, lhs, rhs, what, *args):
        """One check under the rule: it fails iff lhs > rhs.  The failure
        names its place by what.format(*args), formatted only then."""
        self.checks += 1
        if lhs > rhs:
            self.failures.append(f"{what.format(*args)}: {lhs} > {rhs}")


def _sampled_cubes(f, cap=512):
    """every_cube(f)[::step], step 1 up to cap cubes and else one more than
    cubes // cap, picked level by level without listing every cube.  The
    cubes are in range by construction, so none is re-checked."""
    n, sizes = f.dim, [1 << (f.dim * k) for k in range(f.depth + 1)]
    step = 1 if sum(sizes) <= cap else sum(sizes) // cap + 1
    cubes = []
    for k, size in enumerate(sizes):  # the next pick: cube len(cubes) * step
        picks = range(len(cubes) * step - sum(sizes[:k]), size, step)
        cubes.extend(map(DyadicCubeId._exact, repeat(k),
                         map(_decode, picks, repeat(k), repeat(n))))
    return cubes


def _suite_lemma21(f):
    failures = []
    checks = 0
    for q in _sampled_cubes(f):
        rep = mean_oscillation(f, q)
        above = one_sided_oscillation(f, q, "above")
        below = one_sided_oscillation(f, q, "below")
        checks += 1
        if not (above == below == rep.oscillation):
            failures.append(f"one-sided forms differ on {q}: "
                            f"{above} vs {below} vs {rep.oscillation}")
    return _result("lemma21", checks, failures)


def _mean_defect(g, mu):
    """D[i] = P_i - mu t_i at each breakpoint t_i of g (P the prefix
    integral), as integers in units 1/(td * vd * mu.denominator)."""
    w = mu.numerator * g._vd
    return [q * mu.denominator - w * b for q, b in zip(g._prefix(), g._B)]


def _matched_endpoints(g, anchors, d, mu, defect):
    """(x, end) for each anchor position x of anchors, in increasing order:
    end is the least b > a with the mean of g over (a,b] equal to mu, or
    None.

    Positions are integers over td times a positive integer: the anchor is
    a = x / (td * d), and the endpoint is returned as (y, e) with
    b = y / (td * e), e a multiple of d.  g must be nonincreasing and merged
    (no two adjacent pieces share a value), as rearrange_signed returns it,
    so that a flat stretch at the mean is one piece; defect is
    _mean_defect(g, mu).  The defect D(t) = int_0^t g - mu t is concave, so
    the window mean equals mu exactly where D returns to D(a).  From the
    first piece ending after a: if its value is mu, the flat stretch at the
    mean extends to its right end; if below mu, D only falls and no b
    exists; if above, the first breakpoint past it with D <= D(a) closes
    the piece where D crosses D(a), and that piece's linear equation gives
    b.  In integers: with mu = w / (vd * md), D(a) is X / (td * vd * md * d),
    linear in a on its piece.  While a rises through the pieces above the
    mean, D(a) rises, so that breakpoint only moves left: one pointer walks
    the pieces for a and one walks that breakpoint leftwards, O(pieces +
    anchors) in all.
    """
    B, V = g._B, g._V
    md = mu.denominator
    w = mu.numerator * g._vd
    i, lo, top = 1, len(B), len(B)
    for x in anchors:
        while i < top and B[i] * d <= x:  # the piece (t_{i-1}, t_i] with t_i > a
            i += 1
        excess = V[i - 1] * md - w  # the sign of v - mu
        if excess == 0:
            yield x, (B[i] * d, d)
            continue
        if excess < 0:
            yield x, None
            continue
        X = defect[i - 1] * d + excess * (x - B[i - 1] * d)
        # the first k > i with defect[k] <= D(a): defect[i] > D(a), and past
        # i the defect rises, then falls below D(a) for good
        Xd = X // d
        while lo - 1 > i and defect[lo - 1] <= Xd:
            lo -= 1
        if lo == top:
            yield x, None
            continue
        W = w - V[lo - 1] * md  # (mu - v) * vd * md > 0
        yield x, ((B[lo - 1] * W + defect[lo - 1]) * d - X, d * W)


def _suite_lemma22(f):
    """Each anchor a (the eighths and the breakpoints of g, as positions over
    D = lcm(td, 8)) with a matched-mean endpoint b: the window mean, read
    from the integral of g apart from the defect the endpoint was solved
    on, must be mu, and the window's oscillation at most the full one."""
    g = rearrange_signed(f)
    mu = g.integral
    defect = _mean_defect(g, mu)
    base = interval_mean_oscillation(g, 0, 1)
    B, V, td, vd = g._B, g._V, g._td, g._vd
    bn, bd = base.numerator * vd, base.denominator
    md, w = mu.denominator, mu.numerator * vd
    d = 8 // gcd(td, 8)  # D = td * d
    # an anchor in a piece below the mean has no endpoint: stop at the first
    k = bisect_left(V, True, key=lambda v: v * md < w)
    anchors = [t * d for t in B[:k]]
    for x in range(0, B[k] * d, td * d // 8):  # merge in the eighths
        j = bisect_left(anchors, x)
        if j == len(anchors) or anchors[j] != x:
            anchors.insert(j, x)
    failures = []
    checks = 0
    for x, end in _matched_endpoints(g, anchors, d, mu, defect):
        if end is None:
            continue
        y, e = end
        xa = x * (e // d)
        if not xa < y <= td * e:
            continue
        J, L, num = _window_ints(g, xa, y, e)
        if J * md != w * L:
            failures.append(f"endpoint solve failed at a={Fraction(x, td * d)}: "
                            f"mean {Fraction(J, vd * L)} != {mu}")
            continue
        checks += 1
        if num * bd > bn * L * L:
            failures.append(f"oscillation on [{Fraction(x, td * d)},"
                            f"{Fraction(y, td * e)}] exceeds the full interval's")
    if checks == 0:
        return _result("lemma22", 0, failures, skipped=True,
                       note="no matched-mean subinterval available")
    return _result("lemma22", checks, failures)


def _suite_lemma23(f):
    g = rearrange_signed(f)
    tally = _Tally()
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        for gamma in (Fraction(3, 2), Fraction(2), Fraction(3)):
            tally.decide(*hardy_gap_check(g, t, gamma),
                         "gap bound fails at t={}, gamma={}", t, gamma)
    return _result("lemma23", tally.checks, tally.failures)


def _suite_thm1(f):
    norm = bmo_dyadic_norm(f)
    bound = interval_bmo_norm(rearrange_signed(f))
    cap = (1 << f.dim) * norm
    failures = []
    if bound.lower > cap:
        failures.append(f"certified lower bound {bound.lower} exceeds 2^n norm {cap}")
    if bound.upper < bound.lower:
        failures.append(f"certified upper bound {bound.upper} rounded below "
                        f"the lower bound {bound.lower}")
    return _result("thm1", 2, failures)


def _suite_thm2(f):
    tally = _Tally()
    grid = _lambda_grid(f)
    prev_measure = None
    for lam in grid:
        measure, bnd = jn_check(f, lam)
        tally.decide(measure, bnd, "distribution bound fails at lambda={}", lam)
        if prev_measure is not None and measure > prev_measure:
            tally.failures.append(f"measure increased along the lambda grid at {lam}")
        prev_measure = measure
    if not grid:
        return _result("thm2", 0, [], skipped=True, note="constant function")
    return _result("thm2", tally.checks, tally.failures)


def _suite_thm31(f):
    """logbound_check at every breakpoint t of the rearrangement gd of
    g = f - mean, decided a run of breakpoints at a time.  gd(t) is
    nonincreasing and the rhs is decreasing, so a run t_a < ... < t_b whose
    first value gd(t_a) is at most the lower end of the rhs at t_b passes
    the per-t rule everywhere (lower <= rhs <= upper).  A run failing that
    test is halved, down to single breakpoints, which logbound_check
    decides; an accepted run's right end goes through it as well."""
    norm = bmo_dyadic_norm(f)  # before the shift, so g reads it too
    g = f.shifted(-f.mean)
    gd = rearrange_signed(g)
    B, V, td, vd = gd._B, gd._V, gd._td, gd._vd
    tally = _Tally()
    runs = [(1, len(B) - 1)]  # breakpoint indices, the leftmost run on top
    while runs:
        a, b = runs.pop()
        # a < b needs two pieces, so g is not constant and norm > 0
        if a < b and Fraction(V[a - 1], vd) > lower_float(
                _log_bound(g, norm, Fraction(B[b], td))):
            mid = (a + b) // 2
            runs += [(mid + 1, b), (a, mid)]
            continue
        t = Fraction(B[b], td)
        tally.decide(*logbound_check(g, t), "log bound fails at t={}", t)
    return _result("thm31", len(B) - 1, tally.failures)


def _suite_remark31(f):
    h = f.abs()
    note = "" if f.is_nonnegative else "applied to |f|"
    tally = _Tally()
    # h* against h's own numerators, read without the sorted list: the same
    # integral, and h's max and min as its first and last values
    g = rearrange_abs(h)
    if (g.integral != h.mean or g._V[0] * h._den != max(h._nums) * g._vd
            or g._V[-1] * h._den != min(h._nums) * g._vd):
        tally.failures.append("rearrangement of h misses h's integral, max or min")
    for lam in _lambda_grid(h, points=8):
        tally.decide(*jn_abs_check(h, lam), "two-sided bound fails at lambda={}", lam)
    return _result("remark31", 1 + tally.checks, tally.failures, note=note)


def _cell_aligned_grid(f, cap=48):
    total = len(f._nums)
    step = max(1, total // cap)
    return [Fraction(k, total) for k in range(step, total + 1, step)]


def _suite_thm3(f):
    h = f.abs()
    note = "" if f.is_nonnegative else "applied to |f|"
    if not any(h._nums):
        return _result("thm3", 0, [], skipped=True, note="identically zero")
    profile = gr_profile(h)
    tally = _Tally()
    for t in _cell_aligned_grid(h):
        tally.decide(*theorem3_check(h, t, profile=profile),
                     "rearrangement-modulus bound fails at t={}", t)
    return _result("thm3", tally.checks, tally.failures, note=note)


def _suite_thm4(f):
    h = f.abs()
    note = "" if f.is_nonnegative else "applied to |f|"
    if not any(h._nums):
        return _result("thm4", 0, [], skipped=True, note="identically zero")
    profile = gr_profile(h)
    tally = _Tally()
    top = Fraction(1, 8 * (1 << h.dim))  # below the validity threshold 1/(2^n e^2)
    for j in range(1, 9):
        t = top * Fraction(j, 8)
        res = theorem4_bound(h, t, profile=profile)
        tally.decide(res.lhs, res.rhs, "exponential bound fails at t={}", t)
    return _result("thm4", tally.checks, tally.failures, note=note)


def _power_skip(name, h):
    """The skipped thm5 or cor1 result where the power bound does not apply
    to h: a modulus not below 2^(1-n), or a root so near 1 that p is 1.0,
    where the factor p/(p-1) is infinite.  None where it applies."""
    eps = gr_membership(h)
    if eps >= Fraction(1, 1 << (h.dim - 1)):
        note = "modulus not below 2^(1-n)"
    elif eps > 0 and _solve_p_exact(eps, h.dim).p == 1.0:
        note = "p = 1.0: the exponent root lies below 1 + 2^-52"
    else:
        return None
    return _result(name, 0, [], skipped=True, note=note)


def _suite_thm5(f):
    h = f.abs()
    skipped = _power_skip("thm5", h)
    if skipped is not None:
        return skipped
    tally = _Tally()
    for t in _cell_aligned_grid(h, cap=16):
        tally.decide(*theorem5_check(h, t), "power bound fails at t={}", t)
    return _result("thm5", tally.checks, tally.failures)


def _suite_cor1(f):
    h = f.abs()
    skipped = _power_skip("cor1", h)
    if skipped is not None:
        return skipped
    eps = gr_membership(h)
    qs = [1]
    if eps > 0:
        qs.append(1 + (solve_p(eps, h.dim).p - 1) / 2)
    tally = _Tally()
    for q in qs:
        tally.decide(*lq_tail_bound(h, q), "L^q tail bound fails at q={}", q)
    return _result("cor1", tally.checks, tally.failures)


def _cz_alphas(f):
    """The mean, then the distinct cell values and the midpoints between
    consecutive ones, above and below the mean (at most 8 each, smallest
    first), compared as integer numerators over 2 den."""
    cells, total = len(f._nums), 2 * sum(f._nums)  # mean = total / (2 den cells)
    values = [v for v, _ in groupby(f._sorted_nums())]
    points = sorted([2 * v for v in values] + [a + b for a, b in zip(values, values[1:])])
    above = [p for p in points if p * cells > total][:7]
    below = [p for p in points if p * cells < total][:8]
    scale = 2 * f._den
    return ([f.mean] + [Fraction(p, scale) for p in above],
            [Fraction(p, scale) for p in below])


def _suite_cz(f):
    failures = []
    checks = 0
    above, below = _cz_alphas(f)
    gd = rearrange_signed(f)
    matched = [(t, hardy_average(gd, t))
               for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))]
    # one pass of the running max per direction decides all of this
    # suite's thresholds of f; the calls that follow read its memo
    f._stopping(above + [alpha for _, alpha in matched], True)
    f._stopping(below, False)
    prev = None
    for alpha in above:
        d = stopping_family(f, alpha, "above")
        rep = verify_stopping(d, f)
        checks += 1
        if not rep.passed:
            failures.append(f"structure checks fail at alpha={alpha}: "
                            f"{rep.failures[:2]}")
        if prev is not None and d.measure_E > prev:
            failures.append(f"|E| increased as alpha grew, at alpha={alpha}")
        prev = d.measure_E
    # the maximal operator averages |f|, so {M f > alpha} is the union E of
    # the stopping cubes of |f| above alpha: the maximal side reads the
    # running max R of |f|, the crossing side only the sum pyramid
    h = f.abs()
    for alpha in _cz_alphas(h)[0]:
        checks += 1
        if maximal_level_set(h, alpha) != _crossing_measure(h, alpha):
            failures.append(f"maximal-function level set disagrees at alpha={alpha}")
    for alpha in below:
        d = stopping_family(f, alpha, "below")
        rep = verify_stopping(d, f)
        checks += 1
        if not rep.passed:
            failures.append(f"below-direction checks fail at alpha={alpha}: "
                            f"{rep.failures[:2]}")
    for t, alpha in matched:
        measure = _stopping_measure(f, alpha)
        checks += 1
        if measure > t:
            failures.append(f"|E| = {measure} exceeds t = {t} at the "
                            f"matched threshold")
    return _result("cz", checks, failures)


_RUNNERS = {
    "lemma21": _suite_lemma21,
    "lemma22": _suite_lemma22,
    "lemma23": _suite_lemma23,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm31": _suite_thm31,
    "remark31": _suite_remark31,
    "thm3": _suite_thm3,
    "thm4": _suite_thm4,
    "thm5": _suite_thm5,
    "cor1": _suite_cor1,
    "cz": _suite_cz,
}


def verify_all(f, suites=None):
    """Run the named suites (default: all) on one function."""
    if suites is None:
        suites = list(SUITES)
    unknown = [s for s in suites if s not in _RUNNERS]
    if unknown:
        raise InputError(f"unknown suite names: {', '.join(unknown)}; "
                         f"known: {', '.join(SUITES)}")
    results = [_RUNNERS[s](f) for s in suites]
    return VerificationReport(results=tuple(results))
