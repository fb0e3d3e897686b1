"""Certified two-sided bounds for the BMO norm of a step function on (0,1].

The supremum of the interval mean oscillation of a step function is an
algebraic optimization problem, not a breakpoint enumeration: for a two-piece
function with jump d the sup is d/2, attained on balanced windows around the
jump, with both endpoints strictly inside pieces.  This module computes the
sup exactly:

* monotone input: every interval is dominated by an end-anchored window
  [0,t] or [1-t,1] with the same mean (running means of a monotone function
  are monotone, so the matching window exists; enlarging an interval of a
  monotone function while keeping the mean cannot decrease the oscillation).
  Along each family, on each sub-segment where t stays in one piece and the
  pieces above the window mean stay fixed, the oscillation 2*(a*t - C)/t^2
  (C > 0) is strictly unimodal, so one rational argmax per sub-segment
  (the stationary point 2C/a, or an end) attains the sup.  The oscillation
  is continuous in t along a family: at a mean crossing the piece the mean
  passes adds 0, and at a breakpoint both the integral and the mean are
  continuous.  So the end of a sub-segment that rises throughout is where
  the next one starts, and the next one's argmax is larger or that same
  point; such an end is a candidate only at the family's last end, t = 1.
  The path runs on the step function's own integers: breakpoints over
  TD, values over VD, prefix integrals over TD*VD, each candidate t and its
  oscillation an integer (numerator, denominator) pair compared by
  cross-multiplying; only the best value and its witness become Fractions.

* general input: endpoints (a,b) range over a piece pair (i,j), the box
  [0, L_i] x [0, L_j] of partial piece lengths x = t_i - a, y = b - t_{j-1}.
  As int |g - mu| = 2 max over S of int_S (g - mu), attained on S = {g > mu}
  (Korenovskii 2007), the band between consecutive distinct window values
  w_lo < w_hi gives with S = {g >= w_hi} a form 2F/T^2 (F bilinear in x, y
  with no x^2 or y^2 terms, T = b - a) that is at most the oscillation on
  the whole box and equal to it where the window mean lies in the band.
  The mean is linear-fractional, so the corner means span its range over
  the box (Boyd & Vandenberghe, Convex Optimization, 3.4), and the sup over
  the box is the largest box max of the bands that range meets.  A box max
  sits at a corner or at an edge stationary point, a linear equation's
  root, so every candidate is rational.  An interior critical point is
  never the only max.  With v_S the value of the end piece in S, v_o the
  other end's, a and b the means of the middle pieces in and out of S,
  and HL the length in S, a band with F11 > 0 has

      4 F11 F00 - 4 F10 F01 + (F11 M - F10 - F01)^2 = (P - R)^2 >= 0,
      P = HL (v_S - a),  R = (M - HL)(b - v_o),

  and with F11 = 0 the left side is (F10 - F01)^2.  It is the
  discriminant of F on T = 0, the binary form -F11 s^2 + (F10 - F01 -
  F11 M) s W + (F00 - F01 M) W^2 at (X, Y) = (s, -s - M W), which is
  thus not definite.  That form is F's quadratic part on the plane T = 1,
  where each critical point of 2F/T^2 with T > 0 is one of F: an
  isolated one is a saddle, and a line of them has one value up to the
  box's boundary.  One with T <= 0 lies outside the box.
  One rule skips work without changing the result (_general_norm): rows,
  pairs or bands whose exact upper bound is below max|jump|/2, which a
  balanced window attains, or no more than the best value so far hold no
  candidate that is the first to reach the sup.  The bounds are half the
  range of the values, 2(H-mu)(mu-Lo)/(H-Lo) at the centre clamped to a
  pair's corner-mean range, and 2F(L_i, L_j)/M^2 for a band.
  The path runs in the same scaled integers: candidates are homogeneous
  integer triples (X, Y, W), W > 0, and 2F/T^2 is homogeneous of degree
  0, so candidates compare by cross-multiplying, unreduced; the witness
  is built as Fractions, which reduce it.

The reported lower bound is attained at the rational witness; the upper bound
is the same exact value rounded one float ulp upward.  tol changes no
computation: tol_met only labels whether that gap is within tol relative to
the size of the value (gap <= tol * max(1, |lower|)), since a float ulp grows
with the value.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InputError
from .rearrangement import StepFunction1D

# Most pieces the general path accepts after merging: it costs O(m^2 d) for
# m pieces and d distinct window values.  The monotone path has no cap.
MAX_GENERAL_PIECES = 1024


@dataclass(frozen=True)
class IntervalBMOBound:
    lower: Fraction
    upper: float
    witness: tuple
    gap: float
    tol: float
    tol_met: bool


# ---------------------------------------------------------------------------
# monotone path: end-anchored windows, rational candidates in scaled integers
# ---------------------------------------------------------------------------

def _monotone_norm(g):
    """Exact sup of interval oscillation for monotone g, with witness: the
    integer core _monotone_ints on g's arrays, a nondecreasing g negated
    first, and its best value and argmax as Fractions."""
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    if not g.is_nonincreasing:
        V, Q = [-v for v in V], [-q for q in Q]
    bn, bd, arg = _monotone_ints(TD, B, V, Q)
    if arg is None:
        return Fraction(0), (Fraction(0), Fraction(1))
    side, tn, td = arg
    td *= TD
    return (Fraction(bn, bd * VD),
            (Fraction(0), Fraction(tn, td)) if side == 0
            else (Fraction(td - tn, td), Fraction(1)))


def _monotone_ints(TD, B, V, Q):
    """(bn, bd, arg): the sup of interval oscillation of the nonincreasing
    step function with breakpoints B over TD, values V over VD and prefix
    integrals Q over TD*VD is bn / (bd * VD), attained at t = tn / (td * TD)
    of the window [0,t] (side 0) or [1-t,1] (side 1) for arg = (side, tn,
    td); arg is None where the sup is 0.

    Windows [0,t] read the function g the arrays hold, windows [1-t,1] its
    mirror -g(1-t), built from the same arrays.  The window mean only
    falls, so kappa, the count of pieces above it, is carried forward: the
    sub-segment loop steps it past each value the mean crosses (an empty
    sub-segment where that is at a breakpoint), so it is right at each
    breakpoint.  Each sub-segment (t in piece j, kappa fixed) gives the argmax of
    2*(a*t - C)/(VD*t^2), C = c*t_kappa: t* = 2C/a if strictly inside,
    else the end it rises towards.  Ties keep the first argmax (the [0,t]
    family in order, then [1-t,1]); a sub-segment's other points are
    strictly smaller, so the witness is that of the full candidate set.
    A rising sub-segment's end short of t = 1 is left out: the next
    non-empty sub-segment starts there, and its argmax is strictly larger
    or, falling throughout, the same point with the same value, which
    takes its place in the order, so the sup and the witness stay.
    """
    mirrored = ([TD - b for b in reversed(B)], [-v for v in reversed(V)],
                [q - Q[-1] for q in reversed(Q)])
    bn, bd, arg = 0, 1, None
    for side, (B, V, Q) in enumerate(((B, V, Q), mirrored)):
        kappa = 0
        for j in range(2, len(V) + 1):
            t0, t1 = B[j - 1], B[j]
            vj, P = V[j - 1], Q[j - 1]
            # integral of (g - vj) over the prefix: > 0 on merged input, 0 on
            # a run at vj, whose sub-segment then oscillates 0 throughout
            c = P - vj * t0
            cn, cd = t0, 1  # sub-segment start
            while True:
                if kappa < j - 1 and V[kappa] > vj:
                    # mean crosses V[kappa] at t_x = c / (V[kappa] - vj)
                    hn, hd = c, V[kappa] - vj
                    if hn > t1 * hd:
                        hn, hd = t1, 1
                else:
                    hn, hd = t1, 1
                if hn * cd > cn * hd:  # a non-empty sub-segment
                    t_k = B[kappa]
                    a = Q[kappa] - vj * t_k
                    ct = c * t_k
                    sn = 2 * ct  # t* = sn / a
                    if a <= 0 or sn * hd >= hn * a:
                        # rising throughout.  Short of t = 1 the next
                        # sub-segment starts at this end, and its candidate
                        # is larger or this same point: none here (tn = 0;
                        # every candidate has t > 0)
                        tn, td = (hn, hd) if hn >= TD * hd else (0, 1)
                    elif sn * cd <= cn * a:
                        tn, td = cn, cd  # falling throughout
                    else:
                        tn, td = sn, a
                    if tn:
                        wn, wd = 2 * (a * tn - ct * td) * td, tn * tn
                        if wn * bd > bn * wd:
                            bn, bd, arg = wn, wd, (side, tn, td)
                if hn >= t1 * hd:
                    break
                # the pieces at V[kappa] are now strictly above the mean
                cn, cd = hn, hd
                kappa += 1
    return bn, bd, arg


# ---------------------------------------------------------------------------
# general path: piece-pair boxes, one bilinear form per mean band
# ---------------------------------------------------------------------------

def _box_candidates(fq, M, Li, Lj):
    """Homogeneous points (X, Y, W), W > 0, where the max of 2F/T^2 over
    [0,Li] x [0,Lj] can sit.

    F = F11 XY + F10 XW + F01 YW + F00 W^2 and T = X + Y + M*W.  The
    candidates are the corners, then the stationary point strictly inside
    each edge; an interior critical point is never the only max (module
    docstring).  On an edge one coordinate is fixed at c and F = p*s + q in
    the other one, p >= 0 as F's coefficients are (_general_norm), so
    (F/T^2)' = 0 is p*(s + c + M) = 2F, at s = (p*(c + M) - 2q)/p.
    """
    F11, F10, F01, F00 = fq
    pts = [(0, 0, 1), (Li, 0, 1), (Li, Lj, 1), (0, Lj, 1)]
    # the edges in corner order: y = 0, x = Li, y = Lj, x = 0
    for c, L, p, q, x_fixed in ((0, Li, F10, F00, False),
                                (Li, Lj, F11 * Li + F01, F10 * Li + F00, True),
                                (Lj, Li, F11 * Lj + F10, F01 * Lj + F00, False),
                                (0, Lj, F01, F00, True)):
        s = p * (c + M) - 2 * q  # the root is s / p
        if 0 < s < L * p:
            pts.append((c * p, s, p) if x_fixed else (s, c * p, p))
    return pts


def _mean_range(M, MI, vi, Li, vj, Lj):
    """The window means of a piece-pair box span [ln/ld, hn/hd].

    A window with x of piece i, y of piece j and the M-long middle of
    integral MI has mean (MI + vi x + vj y)/(M + x + y), linear-fractional
    with a positive denominator, so its extremes over the box sit at the
    corners.  Adjacent pieces (M = 0) have no window at (0, 0); their
    means fill [min, max] of vi, vj.  Returns (ln, ld, hn, hd), ld, hd > 0.
    """
    if not M:
        return (vi, 1, vj, 1) if vi <= vj else (vj, 1, vi, 1)
    hn, hd = ln, ld = MI, M
    for n, d in ((MI + vi * Li, M + Li), (MI + vj * Lj, M + Lj),
                 (MI + vi * Li + vj * Lj, M + Li + Lj)):
        if n * hd > hn * d:
            hn, hd = n, d
        elif n * ld < ln * d:
            ln, ld = n, d
    return ln, ld, hn, hd


def _general_norm(g):
    """Exact sup of interval oscillation for an arbitrary step function.

    Breakpoints over TD and values over VD, as in the monotone path.  Pair
    (i, j) holds the windows with a in piece i and b in piece j, the box of
    x = t_i - a and y = b - t_{j-1} in units 1/TD.  Each band's 2F/T^2 is VD
    times a lower bound of the oscillation on the whole box, exact where the
    window mean lies in the band, and every window mean lies in some band
    between the extreme corner means (_mean_range).  So skipping the bands
    wholly above or below that range keeps the sup; and a candidate's value
    is at most the oscillation at its point, itself at most the sup, so the
    first candidate to reach the sup is a witness.

    Pruning keeps the sup and the witness too, by one rule: the balanced
    window around the largest jump attains seed = max|jump|/2, so windows
    whose bound is < seed, or <= best (ties keep the first candidate),
    hold no candidate that is the first to attain the final sup.
    pruned(n, d) tests a bound n/(d VD) exactly, for four skips:

    * values in [Lo, H] with mean mu oscillate at most
      2(H-mu)(mu-Lo)/(H-Lo), concave in mu, at most (H-Lo)/2 over all
      means.  With H and Lo the max and min over pieces i..m that is the
      row break: pieces i..j lie among them, and their range only shrinks
      as i grows while best only grows, so the first row it prunes, and
      every later row, holds no pair that passes it.  Over pieces i..j it
      is the pair span, and at (H+Lo)/2 clamped to the box's mean range
      the clamped pair bound.
    * F is bilinear, so its max over the box sits at a corner, and that
      corner is (L_i, L_j): F10 = int over the middle of (g - vi) on S if
      vi < w_hi, of (vi - g) off S if not, so F10 >= 0, as are F01 and
      F11 = (vi - vj)(ib - jb), and F00 >= 0.  T >= M > 0 on the box when
      the pieces are not adjacent, so each band's 2F/T^2 is at most
      2F(L_i, L_j)/M^2: the box bound, tested before the candidates.

    The band sums accumulate once down the distinct values of each pair.
    Cost: O(m^2 d) for m pieces and at most d <= m distinct values in a
    window, with O(1) integer work per kept band.

    g must be merged and not constant, as interval_bmo_norm passes it; then
    some candidate is positive, so a witness is always found.  While bn
    is 0 the rule prunes only bounds below the seed or at 0, so the
    adjacent pair (i, i + 1) with the largest jump is reached if no
    earlier candidate is positive: every row up to i spans at least
    jump > 0.  That pair has span = jump and M = 0, so its mean range is
    [low, top], the pair bound is not clamped, there is no box bound, and
    its one band [low, top] is neither above nor below that range.
    Exactly one of ib, jb is 1, so F11 = |v_i - v_(i+1)| = jump and
    F10 = F01 = F00 = 0, and the corner (L_i, L_(i+1)) gives
    2 * jump * L_i * L_(i+1) > 0.
    """
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    m = len(V)
    jump = max(abs(a - b) for a, b in zip(V, V[1:]))  # 2 * seed * VD
    # the largest and smallest value of pieces i..m, at index i - 1
    highs = list(accumulate(reversed(V), max))[::-1]
    lows = list(accumulate(reversed(V), min))[::-1]
    bn, bd, arg = 0, 1, None

    def pruned(n, d):  # n/d, d > 0, is below the seed jump/2 or <= bn/bd
        return 2 * n < jump * d or n * bd <= bn * d

    for i in range(1, m + 1):
        if pruned(highs[i - 1] - lows[i - 1], 2):
            break  # every later row too
        vi = V[i - 1]
        Li = B[i] - B[i - 1]
        asc = [vi]  # distinct values of pieces i..j, ascending
        mid = {}    # value -> (length, integral) of the pieces strictly between
        for j in range(i + 1, m + 1):
            vj = V[j - 1]
            if j > i + 1:
                v, w = V[j - 2], B[j - 1] - B[j - 2]
                hl, hs = mid.get(v, (0, 0))
                mid[v] = (hl + w, hs + v * w)
            r = bisect_left(asc, vj)
            if r == len(asc) or asc[r] != vj:
                asc.insert(r, vj)
            top, low = asc[-1], asc[0]
            span = top - low
            if pruned(span, 2):
                continue
            Lj = B[j] - B[j - 1]
            M = B[j - 1] - B[i]
            MI = Q[j - 1] - Q[i]
            ln, ld, hn, hd = _mean_range(M, MI, vi, Li, vj, Lj)
            # the pair bound at mu = pn/pd, (top+low)/2 clamped to the range;
            # unclamped it is span/2, tested above
            if (top + low) * ld < 2 * ln:
                pn, pd = ln, ld
            elif (top + low) * hd > 2 * hn:
                pn, pd = hn, hd
            else:
                pd = 0
            if pd and pruned(2 * (top * pd - pn) * (pn - low * pd),
                             span * pd * pd):
                continue
            HL = HI = 0  # length and integral of the middle pieces >= w_hi
            for r in range(len(asc) - 1, 0, -1):
                w_hi, w_lo = asc[r], asc[r - 1]
                hl, hs = mid.get(w_hi, (0, 0))
                HL += hl
                HI += hs
                if w_lo * hd > hn:
                    continue  # above every window mean of the box
                if w_hi * ld < ln:
                    break  # below them, as is every later band
                ib = 1 if vi >= w_hi else 0
                jb = 1 if vj >= w_hi else 0
                # F = S1*T - N*L1 expanded in (x, y): bilinear, no x^2 or y^2
                F11 = (vi - vj) * (ib - jb)
                F10 = HI - vi * HL + ib * (vi * M - MI)
                F01 = HI - vj * HL + jb * (vj * M - MI)
                F00 = HI * M - MI * HL
                # F at (Li, Lj) over min T = M bounds 2F/T^2 on the box
                if M and pruned(2 * (F00 + F10 * Li + F01 * Lj + F11 * Li * Lj),
                                M * M):
                    continue
                for X, Y, W in _box_candidates((F11, F10, F01, F00), M, Li, Lj):
                    T = X + Y + M * W
                    if T <= 0:
                        continue
                    n = 2 * (F11 * X * Y + (F10 * X + F01 * Y + F00 * W) * W)
                    d = T * T
                    if n * bd > bn * d:
                        bn, bd, arg = n, d, (i, j, X, Y, W)
    i, j, X, Y, W = arg
    return (Fraction(bn, bd * VD),
            (Fraction(B[i] * W - X, W * TD), Fraction(B[j - 1] * W + Y, W * TD)))


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def check_tol(tol):
    """Raise InputError unless tol is positive and finite."""
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")


def interval_bmo_norm(g, tol=1e-9):
    """Two-sided certified bound on sup over intervals [a,b] of the oscillation.

    The lower bound is exact and attained at the returned witness; the upper
    bound is the same value rounded one float ulp up.  tol only labels the
    result: tol_met reports gap <= tol * max(1, |lower|), absolute for small
    values, relative for large ones.  A non-monotone g with more than
    MAX_GENERAL_PIECES pieces after merging raises InputError.
    """
    if not isinstance(g, StepFunction1D):
        raise InputError("interval_bmo_norm expects a StepFunction1D")
    check_tol(tol)
    h = g.merged()
    if len(h._V) == 1:
        return IntervalBMOBound(lower=Fraction(0), upper=0.0,
                                witness=(Fraction(0), Fraction(1)),
                                gap=0.0, tol=tol, tol_met=True)
    if h.is_nonincreasing or h.is_nondecreasing:
        best, witness = _monotone_norm(h)
    elif len(h._V) > MAX_GENERAL_PIECES:
        raise InputError(
            f"non-monotone step function has {len(h._V)} pieces after "
            f"merging; at most {MAX_GENERAL_PIECES} are supported")
    else:
        best, witness = _general_norm(h)
    try:
        lo_float = float(best)
    except OverflowError:
        raise InputError("the interval-BMO lower bound is past the largest "
                         "float") from None
    upper = math.nextafter(lo_float, math.inf)
    gap = upper - lo_float
    return IntervalBMOBound(lower=best, upper=upper, witness=witness,
                            gap=gap, tol=tol,
                            tol_met=gap <= tol * max(1.0, abs(lo_float)))
