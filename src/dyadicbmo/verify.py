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
                     distribution_above, mean_oscillation,
                     one_sided_oscillation)
from .errors import InputError
from .gurov import (_lq_moment_bound, _lq_rhs, _power_exponent,
                    _solve_p_exact, _theorem4_rhs, _theorem5_rhs,
                    gr_membership, gr_profile, lq_tail_bound, solve_p,
                    theorem3_check, theorem4_bound, theorem5_check)
from .highprec import lower_float, upper_float
from .interval_bmo import interval_bmo_norm
from .johnnirenberg import (_exp_iv, _lambda_grid, _log_bound,
                            _two_sided_measure, jn_abs_check, jn_check,
                            logbound_check)
from .rearrangement import (hardy_average, hardy_gap_check,
                            interval_mean_oscillation, rearrange_abs,
                            rearrange_signed)
from .stopping import (_crossing_measures, _stopping_measure,
                       maximal_level_set, stopping_family, verify_stopping)


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


def _decide_runs(tally, at, lo, hi, run_max, rhs_iv, check, what):
    """Decide check(at(i)) -> (lhs, rhs) under the rule for the grid points
    i = lo..hi-1, a run of points at a time, into tally: the same checks and
    failures, in grid order, as one decision per point.

    The grid is one whose exact lhs is checked against an rhs that is
    nonincreasing in i, rhs_iv(at(i)) an interval enclosing it and check's
    rhs the upper end of that interval, rounded up.  A run a..b whose
    largest lhs, run_max(a, b), is at most lower_float of rhs_iv(at(b))
    passes at every point, as lhs_i <= rhs(at(b)) <= rhs(at(i)) <= check's
    rhs at i; its right end still goes through check, and if check fails
    there the run is decided point by point.  A run failing the test is
    halved, the left half first, down to single points, which check
    decides.
    """
    runs = [(lo, hi - 1)] if lo < hi else []
    while runs:
        a, b = runs.pop()
        if a < b and run_max(a, b) > lower_float(rhs_iv(at(b))):
            mid = (a + b) // 2
            runs += [(mid + 1, b), (a, mid)]
            continue
        lhs, rhs = check(at(b))
        if lhs > rhs:
            for i in range(a, b):
                tally.decide(*check(at(i)), what, at(i))
        else:
            tally.checks += b - a
        tally.decide(lhs, rhs, what, at(b))


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
    a = x / (td * d) in [0, 1), and the endpoint is returned as (y, e) with
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

    That breakpoint always exists.  A piece above the mean is not the last
    (g is nonincreasing with mean mu, so the last piece lies at or below
    it), and D(0) = D(1) = 0 with D concave, so D(a) >= 0 = D(1): at the
    first anchor above the mean the pointer, still at 1, passes the test
    at t = 1 and moves left of the end, and it never moves right.  The
    endpoint then lies on the piece (t_{lo-1}, t_lo] where D falls from
    above D(a) to at most D(a), so a < t_i <= t_{lo-1} < b <= t_lo <= 1.
    """
    B, V = g._B, g._V
    md = mu.denominator
    w = mu.numerator * g._vd
    i, lo = 1, len(B)
    for x in anchors:
        while B[i] * d <= x:  # the piece (t_{i-1}, t_i] with t_i > a
            i += 1
        excess = V[i - 1] * md - w  # the sign of v - mu
        if excess == 0:
            yield x, (B[i] * d, d)
            continue
        if excess < 0:
            yield x, None
            continue
        X = defect[i - 1] * d + excess * (x - B[i - 1] * d)
        # the first k > i with defect[k] <= D(a): defect[i] > D(a) stops
        # the walk, and past i the defect rises, then falls below D(a)
        Xd = X // d
        while defect[lo - 1] <= Xd:
            lo -= 1
        W = w - V[lo - 1] * md  # (mu - v) * vd * md > 0
        yield x, ((B[lo - 1] * W + defect[lo - 1]) * d - X, d * W)


def _matched_windows(g, anchors, d, mu):
    """(x, y, e, J, L, num) for each anchor position x of anchors over
    td * d, increasing and each in a piece of g at or above the mean mu:
    the endpoint b = y / (td * e) that _matched_endpoints solves for, and
    the window's (J, L, num) as _window_ints(g, x * (e // d), y, e) gives
    them, num None where the window mean J / (vd * L) is not mu.

    Each anchor has an endpoint, with a < b <= 1 (_matched_endpoints).  J
    is read from the prefix integrals at a's piece and b's, not from the
    defect the endpoint was solved on, each piece found by a pointer of its
    own: a's moves right as the anchors rise, and b's moves left as the
    endpoints fall.  Where the mean is mu, g > mu exactly on the pieces
    before t_s, s the count of pieces above the mean, so num, twice the
    excess of g over mu on (a, min(b, t_s)], needs no bisection.
    O(pieces + anchors) in all.
    """
    B, V, Q = g._B, g._V, g._prefix()
    md, w = mu.denominator, mu.numerator * g._vd
    s = bisect_left(V, True, key=lambda v: v * md <= w)
    i, j = 1, len(B) - 1  # t_{i-1} <= a < t_i and t_{j-1} < b <= t_j
    defect = _mean_defect(g, mu)
    for x, (y, e) in _matched_endpoints(g, anchors, d, mu, defect):
        while B[i] * d <= x:
            i += 1
        while B[j - 1] * e >= y:
            j -= 1
        while B[j] * e < y:  # never for solved endpoints, which fall;
            j += 1             # J stays exact at any b the solver gives
        c = e // d
        xa = x * c
        ia = (Q[i - 1] * d + V[i - 1] * (x - B[i - 1] * d)) * c
        J = Q[j - 1] * e + V[j - 1] * (y - B[j - 1] * e) - ia
        L = y - xa
        if J * md != w * L:
            yield x, y, e, J, L, None
            continue
        ts = B[s] * e
        yield x, y, e, J, L, (2 * ((Q[s] * e - ia) * L - J * (ts - xa))
                              if xa < ts < y else 0)


def _suite_lemma22(f):
    """Each anchor a (the eighths and the breakpoints of g, as positions over
    D = lcm(td, 8)) in a piece at or above the mean: the mean of the window
    up to its matched-mean endpoint b, read from the integral of g apart
    from the defect b was solved on, must be mu, and the window's
    oscillation at most the full one (_matched_windows)."""
    g = rearrange_signed(f)
    mu = g.integral
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
    for x, y, e, J, L, num in _matched_windows(g, anchors, d, mu):
        if num is None:
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
    """The certified lower bound of the rearrangement's interval norm is at
    most 2^n times the dyadic norm, and the bound's upper end is not below
    its lower end.  The second check cannot fail as the bound is built:
    upper is the float after float(lower), so only a monkeypatched bound
    makes it fail (the tests do), until upper is established on its own."""
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
    """jn_check at each lambda of the grid, decided a run at a time
    (_decide_runs): the rhs e exp(-lambda / (2^(n-1) e ||f||)) falls as
    lambda rises.  The measure of {f - mean > lambda} must not rise along the
    grid either; a rise is reported after the bound at its lambda."""
    grid = _lambda_grid(f)
    if not grid:
        return _result("thm2", 0, [], skipped=True, note="constant function")
    measures = [distribution_above(f, lam, f.mean) for lam in grid]
    norm = bmo_dyadic_norm(f)  # > 0, as f is not constant
    tally = _Tally()

    def decide(lo, hi):
        _decide_runs(tally, grid.__getitem__, lo, hi,
                     lambda a, b: max(measures[a:b + 1]),
                     lambda lam: _exp_iv(f, lam, norm),
                     lambda lam: jn_check(f, lam),
                     "distribution bound fails at lambda={}")
    start = 0
    for i in range(1, len(grid)):
        if measures[i] > measures[i - 1]:
            decide(start, i + 1)
            tally.failures.append(f"measure increased along the lambda grid at {grid[i]}")
            start = i + 1
    decide(start, len(grid))
    return _result("thm2", tally.checks, tally.failures)


def _suite_thm31(f):
    """logbound_check at every breakpoint t of the rearrangement gd of
    g = f - mean, decided a run of breakpoints at a time (_decide_runs):
    the rhs 2^(n-1) e ||g|| ln(e/t) falls as t rises, and gd is
    nonincreasing, so a run's largest value is its first."""
    norm = bmo_dyadic_norm(f)  # before the shift, so g reads it too
    g = f.shifted(-f.mean)
    gd = rearrange_signed(g)
    B, V, td, vd = gd._B, gd._V, gd._td, gd._vd
    tally = _Tally()
    # a run of two breakpoints or more needs two pieces, so g is not
    # constant and norm > 0
    _decide_runs(tally, lambda i: Fraction(B[i], td), 1, len(B),
                 lambda a, b: Fraction(V[a - 1], vd),
                 lambda t: _log_bound(g, norm, t),
                 lambda t: logbound_check(g, t), "log bound fails at t={}")
    return _result("thm31", tally.checks, tally.failures)


def _suite_remark31(f):
    """h* against h = |f|'s integral, max and min, then jn_abs_check at each
    lambda of the grid, decided a run at a time (_decide_runs): the rhs
    e exp(-lambda / (2^(n-1) e ||h||)) falls as lambda rises."""
    h = f.abs()
    note = "" if f.is_nonnegative else "applied to |f|"
    tally = _Tally()
    # h* against h's own numerators, read without the sorted list: the same
    # integral, and h's max and min as its first and last values
    g = rearrange_abs(h)
    if (g.integral != h.mean or g._V[0] * h._den != max(h._nums) * g._vd
            or g._V[-1] * h._den != min(h._nums) * g._vd):
        tally.failures.append("rearrangement of h misses h's integral, max or min")
    grid = _lambda_grid(h, points=8)
    if grid:  # h is not constant, so ||h|| > 0
        measures = [_two_sided_measure(h, lam) for lam in grid]
        norm = bmo_dyadic_norm(h)
        _decide_runs(tally, grid.__getitem__, 0, len(grid),
                     lambda a, b: max(measures[a:b + 1]),
                     lambda lam: _exp_iv(h, lam, norm),
                     lambda lam: jn_abs_check(h, lam),
                     "two-sided bound fails at lambda={}")
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
    """theorem4_bound at eight t up to 1/(2^(n+3)), decided a run at a time
    (_decide_runs): in the rhs c1 mean exp(c2 int_{c3 t^(1/n)}^1 v dsigma /
    sigma) the lower limit c3 t^(1/n) rises with t and v >= 0, so the rhs
    does not rise."""
    h = f.abs()
    note = "" if f.is_nonnegative else "applied to |f|"
    if not any(h._nums):
        return _result("thm4", 0, [], skipped=True, note="identically zero")
    profile = gr_profile(h)
    top = Fraction(1, 8 * (1 << h.dim))  # below the validity threshold 1/(2^n e^2)
    grid = [top * Fraction(j, 8) for j in range(1, 9)]
    g = rearrange_abs(h)
    lhs = [hardy_average(g, t) for t in grid]

    def check(t):
        res = theorem4_bound(h, t, profile=profile)
        return res.lhs, res.rhs
    tally = _Tally()
    _decide_runs(tally, grid.__getitem__, 0, len(grid),
                 lambda a, b: max(lhs[a:b + 1]),
                 lambda t: _theorem4_rhs(h, t, profile), check,
                 "exponential bound fails at t={}")
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
    """theorem5_check at the cell-aligned t, decided a run at a time
    (_decide_runs): the rhs (p/(p-1)) mean t^(-1/p) falls as t rises."""
    h = f.abs()
    skipped = _power_skip("thm5", h)
    if skipped is not None:
        return skipped
    grid = _cell_aligned_grid(h, cap=16)
    g = rearrange_abs(h)
    lhs = [hardy_average(g, t) for t in grid]
    p = _power_exponent(h).p
    tally = _Tally()
    _decide_runs(tally, grid.__getitem__, 0, len(grid),
                 lambda a, b: max(lhs[a:b + 1]),
                 lambda t: _theorem5_rhs(h, t, p),
                 lambda t: theorem5_check(h, t), "power bound fails at t={}")
    return _result("thm5", tally.checks, tally.failures)


def _suite_cor1(f):
    """lq_tail_bound at q = 1 and, where eps > 0, at q = 1 + (p-1)/2.

    The fractional q is decided moment-first: where the upper end of
    _lq_moment_bound, which bounds int |f|^q from above by exact integer
    moments, is at most the lower end of the rhs interval, the check passes,
    as lq_tail_bound's integral (rounded down) lies below it and its rhs
    (rounded up) above.  Elsewhere, and where the moments would be too wide
    to build, lq_tail_bound decides it with its 160-bit sum: the same checks
    and failures as calling it at both q.
    """
    h = f.abs()
    skipped = _power_skip("cor1", h)
    if skipped is not None:
        return skipped
    eps = gr_membership(h)
    tally = _Tally()
    what = "L^q tail bound fails at q={}"
    tally.decide(*lq_tail_bound(h, 1), what, 1)
    if eps > 0:
        p = solve_p(eps, h.dim).p
        q = 1 + (p - 1) / 2
        bound = _lq_moment_bound(h, q)
        if bound is not None and upper_float(bound) <= lower_float(_lq_rhs(h, q, p)):
            tally.checks += 1
        else:
            tally.decide(*lq_tail_bound(h, q), what, q)
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
    alphas = _cz_alphas(h)[0]
    for alpha, crossing in zip(alphas, _crossing_measures(h, alphas)):
        checks += 1
        if maximal_level_set(h, alpha) != crossing:
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
SUITES = tuple(_RUNNERS)


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
