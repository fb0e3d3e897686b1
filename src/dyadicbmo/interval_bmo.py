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
  sits at a corner, an edge stationary point or the interior critical
  point, each a linear equation's root, so every candidate is rational.
  Two exact upper bounds skip work without changing the result: a pair's
  windows have values in [Lo, H] and means in the corner-mean range, so
  they oscillate at most 2(H-mu)(mu-Lo)/(H-Lo) at mu = (H+Lo)/2 clamped to
  that range; and F's coefficients of x, y and xy are >= 0, so with M the
  middle length each band's 2F/T^2 is at most 2F(L_i, L_j)/M^2.  A pair
  or band whose bound is below max|jump|/2 (which a balanced window
  attains) or no more than the best value so far holds no candidate that
  is the first to reach the sup, so the value and its witness stay.  The
  pair bound is at most half the range of the pieces from i on, which
  shrinks as i grows, so the pair loop stops at the first row whose range
  fails the test.
  The path runs in the same scaled integers: candidates are homogeneous
  integer triples (X, Y, W), W > 0, reduced by their gcd (equal points are
  equal tuples), and 2F/T^2 is homogeneous of degree 0, so candidates
  compare by cross-multiplying.

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
    """Exact sup of interval oscillation for monotone g, with witness.

    A nondecreasing g is negated first.  Windows [0,t] come from g itself,
    windows [1-t,1] from its mirror -g(1-t), both read from g's integer
    arrays (B over TD, V over VD, Q over TD*VD).  The window mean only
    falls, so kappa, the count of pieces above it, is carried forward.
    Each sub-segment (t in piece j, kappa fixed) gives the argmax of
    2*(a*t - C)/(VD*t^2), C = c*t_kappa: t* = 2C/a if strictly inside,
    else the end it rises towards.  Ties keep the first argmax (the [0,t]
    family in order, then [1-t,1]); a sub-segment's other points are
    strictly smaller, so the witness is that of the full candidate set.
    A rising sub-segment's end short of t = 1 is left out: the next
    non-empty sub-segment starts there, and its argmax is strictly larger
    or, falling throughout, the same point with the same value, which
    takes its place in the order, so the sup and the witness stay.
    """
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    if not g.is_nonincreasing:
        V, Q = [-v for v in V], [-q for q in Q]
    mirrored = ([TD - b for b in reversed(B)], [-v for v in reversed(V)],
                [q - Q[-1] for q in reversed(Q)])
    bn, bd, arg = 0, 1, None
    for side, (B, V, Q) in enumerate(((B, V, Q), mirrored)):
        kappa = 0
        for j in range(2, len(V) + 1):
            t0, t1 = B[j - 1], B[j]
            vj, P = V[j - 1], Q[j - 1]
            c = P - vj * t0  # integral of (g - vj) over the prefix, >= 0
            if c == 0:
                continue  # prefix constant at vj: oscillation 0 throughout
            while kappa < j - 1 and V[kappa] * t0 > P:
                kappa += 1
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
    if arg is None:
        return Fraction(0), (Fraction(0), Fraction(1))
    side, tn, td = arg
    td *= TD
    return (Fraction(bn, bd * VD),
            (Fraction(0), Fraction(tn, td)) if side == 0
            else (Fraction(td - tn, td), Fraction(1)))


# ---------------------------------------------------------------------------
# general path: piece-pair boxes, one bilinear form per mean band
# ---------------------------------------------------------------------------

def _reduced(X, Y, W):
    """The homogeneous point (X, Y, W), W > 0, divided by its gcd."""
    d = math.gcd(X, Y, W)
    return (X, Y, W) if d == 1 else (X // d, Y // d, W // d)


def _interior_candidate(fq, M):
    """The interior critical point of 2F/T^2 as a reduced triple, or None.

    F_x = F_y is the line F11 (Y - X) = F01 - F10, and on it
    G = F_x*T - 2F is linear in Y (the Y^2 terms cancel).  Where the
    critical points fill a line instead (F11 != 0 with G vanishing on it,
    or F11 = 0 with F10 = F01 != 0), the gradient vanishes along it, so
    2F/T^2 is constant on its segment in the box.  The segment ends on the
    box's boundary, at a corner or an edge stationary point (or on an edge
    where 2F/T^2 is constant), candidates that come earlier and that a
    point of equal value never displaces; so there is no interior candidate.
    """
    F11, F10, F01, F00 = fq
    if F11 == 0:
        return None
    # X = Y + (F10 - F01)/F11 and Y = -C/(F11*B)
    B = F11 * M - F10 - F01
    if B == 0:
        return None
    C = F10 * (F11 * M - F10 + F01) - 2 * F00 * F11
    W = F11 * B
    if W < 0:
        W, C, B = -W, -C, -B
    return _reduced((F10 - F01) * B - C, -C, W)


def _box_candidates(fq, M, Li, Lj):
    """Reduced triples where the max of 2F/T^2 over [0,Li] x [0,Lj] can sit.

    F = F11 XY + F10 XW + F01 YW + F00 W^2 and T = X + Y + M*W.  The
    candidates are the corners, then the stationary point strictly inside
    each edge, then the interior critical point if it lies in the box.  On
    an edge one coordinate is fixed at c and F = p*s + q in the other one,
    so (F/T^2)' = 0 is p*(s + c + M) = 2F, at s = (p*(c + M) - 2q)/p.
    """
    F11, F10, F01, F00 = fq
    pts = [(0, 0, 1), (Li, 0, 1), (Li, Lj, 1), (0, Lj, 1)]
    # the edges in corner order: y = 0, x = Li, y = Lj, x = 0
    for c, L, p, q, x_fixed in ((0, Li, F10, F00, False),
                                (Li, Lj, F11 * Li + F01, F10 * Li + F00, True),
                                (Lj, Li, F11 * Lj + F10, F01 * Lj + F00, False),
                                (0, Lj, F01, F00, True)):
        s = p * (c + M) - 2 * q  # the root is s / p
        if p < 0:
            p, s = -p, -s
        if 0 < s < L * p:
            pts.append(_reduced(c * p, s, p) if x_fixed
                       else _reduced(s, c * p, p))
    inner = _interior_candidate(fq, M)
    if inner is not None:
        X, Y, W = inner
        if 0 <= X <= Li * W and 0 <= Y <= Lj * W:
            pts.append(inner)
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

    Pruning by an upper bound keeps the sup and the witness too: the
    balanced window around the largest jump attains seed = max|jump|/2, so
    a pair or band whose bound is < seed, or <= best (ties keep the first
    candidate), holds no candidate that is the first to attain the final
    sup.  Three bounds are used, all exact integer comparisons:

    * values in [Lo, H] with mean mu oscillate at most
      2(H-mu)(mu-Lo)/(H-Lo), concave in mu; with H and Lo the max and min
      over pieces i..j, its max over a mean range is at (H+Lo)/2 clamped
      to it.  Over all means that is (H-Lo)/2, the first pair test; over
      the box's mean range, the second; over [w_lo, w_hi], the band test.
      Pieces i..j lie among pieces i..m, whose range only shrinks as i
      grows while best only grows, so the row whose range fails the first
      pair test, and every later row, holds no pair that passes it.
    * F is bilinear, so its max over the box sits at a corner, and that
      corner is (L_i, L_j): F10 = int over the middle of (g - vi) on S if
      vi < w_hi, of (vi - g) off S if not, so F10 >= 0, as are F01 and
      F11 = (vi - vj)(ib - jb), and F00 >= 0.  T >= M > 0 on the box when
      the pieces are not adjacent, so each band's 2F/T^2 is at most
      2F(L_i, L_j)/M^2, checked before its candidates are built.

    The band sums accumulate once down the distinct values of each pair.
    Cost: O(m^2 d) for m pieces and at most d <= m distinct values in a
    window, with O(1) integer work per kept band.
    """
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    m = len(V)
    jump = max(abs(a - b) for a, b in zip(V, V[1:]))  # 2 * seed * VD
    # the largest and smallest value of pieces i..m, at index i - 1
    highs = list(accumulate(reversed(V), max))[::-1]
    lows = list(accumulate(reversed(V), min))[::-1]
    bn, bd, arg = 0, 1, None
    for i in range(1, m + 1):
        span = highs[i - 1] - lows[i - 1]
        if span < jump or span * bd <= 2 * bn:
            break  # the pair test below holds for every later pair
        vi = V[i - 1]
        Li = B[i] - B[i - 1]
        top = low = vi
        asc = [vi]  # distinct values of pieces i..j, ascending
        mid = {}    # value -> (length, integral) of the pieces strictly between
        for j in range(i + 1, m + 1):
            vj = V[j - 1]
            if j > i + 1:
                v, w = V[j - 2], B[j - 1] - B[j - 2]
                hl, hs = mid.get(v, (0, 0))
                mid[v] = (hl + w, hs + v * w)
            if vj > top:
                top = vj
            elif vj < low:
                low = vj
            r = bisect_left(asc, vj)
            if r == len(asc) or asc[r] != vj:
                asc.insert(r, vj)
            span = top - low
            if span < jump or span * bd <= 2 * bn:
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
            if pd:
                # 2 * VD * pair bound = 4ab / (span * pd^2)
                ab = (top * pd - pn) * (pn - low * pd)
                if 4 * ab < jump * span * pd * pd \
                        or 2 * ab * bd <= span * bn * pd * pd:
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
                # 2 * VD * band bound = num / span, at 2*mu clamped to the band
                mu2 = min(max(top + low, 2 * w_lo), 2 * w_hi)
                num = (2 * top - mu2) * (mu2 - 2 * low)
                if num < jump * span or num * bd <= 2 * span * bn:
                    continue
                ib = 1 if vi >= w_hi else 0
                jb = 1 if vj >= w_hi else 0
                # F = S1*T - N*L1 expanded in (x, y): bilinear, no x^2 or y^2
                F11 = (vi - vj) * (ib - jb)
                F10 = HI - vi * HL + ib * (vi * M - MI)
                F01 = HI - vj * HL + jb * (vj * M - MI)
                F00 = HI * M - MI * HL
                if M:
                    # F at (Li, Lj) over min T = M bounds 2F/T^2 on the box
                    fmax = F00 + F10 * Li + F01 * Lj + F11 * Li * Lj
                    if 4 * fmax < jump * M * M or 2 * fmax * bd <= bn * M * M:
                        continue
                for X, Y, W in _box_candidates((F11, F10, F01, F00), M, Li, Lj):
                    T = X + Y + M * W
                    if T <= 0:
                        continue
                    n = 2 * (F11 * X * Y + (F10 * X + F01 * Y + F00 * W) * W)
                    d = T * T
                    if n * bd > bn * d:
                        bn, bd, arg = n, d, (i, j, X, Y, W)
    if arg is None:
        return Fraction(0), (Fraction(0), Fraction(1))
    i, j, X, Y, W = arg
    return (Fraction(bn, bd * VD),
            (Fraction(B[i] * W - X, W * TD), Fraction(B[j - 1] * W + Y, W * TD)))


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

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
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")
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
