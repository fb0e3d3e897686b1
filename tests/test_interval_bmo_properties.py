"""Property tests: the integer interval-BMO paths against their oracles.

Derandomized, so the examples are the same on every run.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dyadicbmo import StepFunction1D, interval_bmo, interval_mean_oscillation
from dyadicbmo.interval_bmo import _general_norm, _monotone_norm
from conftest import general_norm_oracle, monotone_norm_oracle

rationals = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from((1, 2, 3, 4, 16)))


@st.composite
def step_functions(draw):
    """Step functions of 3-8 pieces, breakpoints k/48 (mixed reduced
    denominators), values drawn from a pool small enough to tie often;
    the general path must also agree on the few monotone draws."""
    cuts = draw(st.sets(st.builds(Fraction, st.integers(1, 47), st.just(48)),
                        min_size=2, max_size=7))
    pool = draw(st.lists(rationals, min_size=2, max_size=4, unique=True))
    vals = draw(st.lists(st.sampled_from(pool), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], vals)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(step_functions())
def test_general_path_matches_oracle(g):
    g = g.merged()
    if len(g.values) < 2:
        return
    assert _general_norm(g) == general_norm_oracle(g)


cut_points = st.sampled_from((2, 3, 5, 7, 8, 12, 64)).flatmap(
    lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d)))


@st.composite
def monotone_step_functions(draw):
    """Monotone step functions of 2-24 unequal pieces, breakpoints over mixed
    denominators, in either direction, left unmerged: 1-6 distinct values,
    each a run of 1-4 pieces, the first and last runs at least 2 long, so
    both window families start on a prefix where the function is constant."""
    distinct = sorted(draw(st.sets(rationals, min_size=1, max_size=6)),
                      reverse=draw(st.booleans()))
    runs = draw(st.lists(st.integers(1, 4), min_size=len(distinct),
                         max_size=len(distinct)))
    runs[0], runs[-1] = max(runs[0], 2), max(runs[-1], 2)
    vals = [v for v, r in zip(distinct, runs) for _ in range(r)]
    cuts = draw(st.sets(cut_points, min_size=len(vals) - 1,
                        max_size=len(vals) - 1))
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], vals)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(monotone_step_functions())
def test_monotone_path_matches_oracle(g):
    # the unmerged g has a constant prefix in both families (c = 0 there)
    vals = g.values
    assert vals[0] == vals[1] and vals[-2] == vals[-1]
    for h in (g, g.merged()):
        dec = h if h.is_nonincreasing else h.negated()
        assert _monotone_norm(h) == monotone_norm_oracle(dec)


# -- the general path's band form ------------------------------------------------

@st.composite
def bands(draw):
    """(vi, vj, w_hi, middle): end values, the band's upper value w_hi and
    the middle pieces as (value, length), with exactly one end in
    S = {g >= w_hi}; w_hi is one of the window's values."""
    values = st.integers(-9, 9)
    middle = draw(st.lists(st.tuples(values, st.integers(1, 6)), max_size=6))
    vi, vj = draw(values), draw(values)
    w_hi = draw(st.sampled_from(sorted({vi, vj, *(v for v, _ in middle)})))
    assume((vi >= w_hi) != (vj >= w_hi))
    return vi, vj, w_hi, middle


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bands())
def test_band_form_is_never_definite_on_the_line_at_infinity(band):
    # F's coefficients as _general_norm computes them; where the ends lie on
    # both sides of w_hi (F11 > 0), the discriminant of F on T = 0 is a
    # square, so an interior critical point is never a max
    vi, vj, w_hi, middle = band
    M = sum(w for _, w in middle)
    MI = sum(v * w for v, w in middle)
    HL = sum(w for v, w in middle if v >= w_hi)
    HI = sum(v * w for v, w in middle if v >= w_hi)
    ib = 1 if vi >= w_hi else 0
    jb = 1 if vj >= w_hi else 0
    F11 = (vi - vj) * (ib - jb)
    F10 = HI - vi * HL + ib * (vi * M - MI)
    F01 = HI - vj * HL + jb * (vj * M - MI)
    F00 = HI * M - MI * HL
    assert F11 > 0 and F10 >= 0 and F01 >= 0 and F00 >= 0
    v_S, v_o = (vi, vj) if ib else (vj, vi)
    a = Fraction(HI, HL) if HL else 0             # mean of the middle in S
    b = Fraction(MI - HI, M - HL) if M > HL else 0  # and out of it
    P, R = HL * (v_S - a), (M - HL) * (b - v_o)
    assert 4 * F11 * F00 - 4 * F10 * F01 + (F11 * M - F10 - F01) ** 2 == (P - R) ** 2


# -- sub-segment ends of the monotone path ---------------------------------------

def split_at(g, x):
    """g with a breakpoint added at x, the piece there split into two of
    equal value (the same function, unmerged)."""
    bps, vals = list(g.breakpoints), list(g.values)
    i = bisect_left(bps, x)
    if bps[i] != x:
        bps.insert(i, x)
        vals.insert(i - 1, vals[i - 1])
    return StepFunction1D(bps, vals)


@st.composite
def monotone_sups_at_sub_segment_ends(draw):
    """(g, window, sup): a monotone g whose sup sits at a sub-segment end,
    and a window attaining it.  The oscillation's kinks at a breakpoint
    between distinct values or at a mean crossing are convex, so inside
    (0,1) a sup sits at a stationary point.  So:

    * join: the sup's interior stationary point is made a breakpoint that
      splits a piece, so a rising sub-segment ends there and a falling one
      starts there;
    * crossing: the mean over the first r pieces is the value of an earlier
      piece, an empty sub-segment at that breakpoint, with the sup at
      t = 1; for r = m the mean crosses that value exactly at t = 1;
    * end: the sup at t = 1.

    The base is nonincreasing with the sup's window in the [0,t] family
    or the [1-t,1] one; mirrored (g(1-t) negated) it moves to the other
    family, and negated it is nondecreasing."""
    m = draw(st.integers(3, 6))
    vals = sorted(draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m,
                                unique=True)), reverse=True)
    weights = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    where = draw(st.sampled_from(("join", "crossing", "end")))
    if where == "crossing":
        r = draw(st.integers(3, m))
        k = draw(st.integers(1, r - 2))
        # weigh the pieces above vals[k] and those below it to one balance
        above = sum((v - vals[k]) * w for v, w in zip(vals[:k], weights))
        below = sum((vals[k] - v) * w
                    for v, w in zip(vals[k + 1:r], weights[k + 1:r]))
        weights = ([w * below for w in weights[:k]] + [weights[k]]
                   + [w * above for w in weights[k + 1:r]] + weights[r:])
    total = sum(weights)
    g = StepFunction1D([Fraction(c, total)
                        for c in accumulate(weights, initial=0)], vals)
    sup, window = monotone_norm_oracle(g)
    if where == "join":
        assume(window != (0, 1))
        g = split_at(g, window[1] if window[0] == 0 else window[0])
    else:
        assume(window == (0, 1))
    if draw(st.booleans()):
        g = g.reflected().negated()
        window = (1 - window[1], 1 - window[0])
    if draw(st.booleans()):
        g = g.negated()
    return g, window, sup


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(monotone_sups_at_sub_segment_ends())
def test_monotone_path_keeps_sups_at_sub_segment_ends(case):
    # a rising sub-segment's end is a candidate only at t = 1: short of it
    # the next sub-segment starts there and holds a candidate at least as
    # large, so the sup and the first window attaining it stay the same
    g, window, sup = case
    assert interval_mean_oscillation(g, *window) == sup
    dec = g if g.is_nonincreasing else g.negated()
    assert _monotone_norm(g) == monotone_norm_oracle(dec)


# -- the row break of the general path -----------------------------------------

@st.composite
def early_sup_step_functions(draw):
    """A head of 1-3 pieces, then a tail of 5-10 pieces whose values span
    little: either a narrow range under a wide head, or the same two
    values as the head, so that the tail's range is exactly twice the
    sup and the break fires on equality.  Breakpoints k/96."""
    head = draw(st.integers(1, 3))
    m = head + draw(st.integers(5, 10))
    cuts = draw(st.sets(st.integers(1, 95), min_size=m - 1, max_size=m - 1))
    if draw(st.booleans()):
        wide = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2)))
        low = draw(st.integers(-2, 2))
        narrow = st.builds(Fraction, st.integers(low, low + 2),
                           st.sampled_from((1, 3)))
        vals = draw(st.lists(wide, min_size=head, max_size=head))
        vals += draw(st.lists(narrow, min_size=m - head, max_size=m - head))
    else:
        pool = draw(st.lists(rationals, min_size=2, max_size=2, unique=True))
        vals = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return StepFunction1D([Fraction(c, 96) for c in (0, *sorted(cuts), 96)],
                          vals).merged()


def rows_before_break(g, sup, witness):
    """The rows (i, 1-based) the general path visits: it stops at the first
    row after the witness's whose pieces i..m span less than the largest
    jump or at most twice the sup.  The witness's row is the first whose
    box holds it, x = t_i - a from 0 to the length of piece i."""
    vals, bps = g.values, g.breakpoints
    m = len(vals)
    row = next(k for k in range(1, m + 1) if witness[0] <= bps[k])
    jump = max(abs(a - b) for a, b in zip(vals, vals[1:]))
    for i in range(row + 1, m + 1):
        span = max(vals[i - 1:]) - min(vals[i - 1:])
        if span < jump or span <= 2 * sup:
            return i - 1
    return m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(early_sup_step_functions())
def test_general_path_stops_at_the_first_row_that_cannot_win(g):
    # bisect_left runs once per pair (i, j) the general path enters, so
    # the count shows where the row loop stopped
    if len(g.values) < 2 or g.is_nonincreasing or g.is_nondecreasing:
        return
    pairs = []

    def counted(*args, **kwargs):
        pairs.append(None)
        return bisect_left(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval_bmo, "bisect_left", counted)
        got = _general_norm(g)
    assert got == general_norm_oracle(g)
    m = len(g.values)
    rows = rows_before_break(g, *got)
    assert len(pairs) == sum(m - i for i in range(1, rows + 1))
    assert rows < m
