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
  Along each family the oscillation is piecewise a ratio (linear * linear)/t^2
  in t, so all stationary points are rational and the finite candidate set
  {piece ends, mean-crossing points, stationary points} attains the sup.
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .rearrangement import StepFunction1D


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

def _left_anchored_candidates(B, V, Q):
    """(wn, wd, tn, td) candidates for the sup over windows [0,t], V nonincreasing.

    Scaled integers: breakpoints B in units 1/TD, values V in units 1/VD and
    prefix integrals Q in units 1/(TD*VD).  A candidate is t = tn/td in TD
    units with oscillation wn/(wd*VD); VD is common to all candidates, so
    they compare by cross-multiplying wn/wd.

    On the segment where t ends in piece j and the window mean mu(t) sits
    between consecutive distinct values (kappa pieces strictly above mu):
    oscillation(t) = 2*(a*t - c*t_k)/(VD*t^2), a and c constants, so the one
    stationary point t* = 2*c*t_k/a is rational.
    """
    # the negated values ascend, so counting the values above a threshold is
    # a bisection; an integer V[k] exceeds x/y (y > 0) iff it exceeds x // y
    neg = [-v for v in V]
    for j in range(2, len(V) + 1):
        t0, t1 = B[j - 1], B[j]
        vj = V[j - 1]
        c = Q[j - 1] - vj * t0  # integral of (g - vj) over the prefix, >= 0
        if c == 0:
            continue  # prefix constant at vj: oscillation 0 throughout
        kappa = bisect_left(neg, -(Q[j - 1] // t0), 0, j - 1)
        cn, cd = t0, 1  # segment start
        while True:
            if kappa < j - 1 and V[kappa] > vj:
                # mean crosses the next distinct value at t_x = c / (V - vj)
                hn, hd = c, V[kappa] - vj
                if hn > t1 * hd:
                    hn, hd = t1, 1
            else:
                hn, hd = t1, 1
            ahead = hn * cd > cn * hd
            if ahead and kappa >= 1:
                t_k = B[kappa]
                a = Q[kappa] - vj * t_k
                ct = c * t_k
                yield 2 * (a * cn - ct * cd) * cd, cn * cn, cn, cd
                yield 2 * (a * hn - ct * hd) * hd, hn * hn, hn, hd
                if a > 0:
                    sn = 2 * ct  # t* = sn / a
                    if cn * a < sn * cd and sn * hd < hn * a:
                        yield 2 * (a * sn - ct * a) * a, sn * sn, sn, a
            if hn >= t1 * hd:
                break
            if ahead:
                cn, cd = hn, hd
            # V[0..kappa] >= V[kappa], so this count exceeds kappa
            kappa = bisect_right(neg, neg[kappa], 0, j - 1)


def _monotone_norm(g):
    """Exact sup of interval oscillation for monotone g, with witness.

    A nondecreasing g is negated first.  Windows [0,t] come from g itself,
    windows [1-t,1] from its mirror -g(1-t), both read from g's integer
    arrays.  Ties keep the first candidate: the [0,t] family in order, then
    [1-t,1].
    """
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    if not g.is_nonincreasing:
        V, Q = [-v for v in V], [-q for q in Q]
    mirrored = ([TD - b for b in reversed(B)], [-v for v in reversed(V)],
                [q - Q[-1] for q in reversed(Q)])
    bn, bd, arg = 0, 1, None
    for side, family in enumerate(((B, V, Q), mirrored)):
        for wn, wd, tn, td in _left_anchored_candidates(*family):
            if wn * bd > bn * wd:
                bn, bd, arg = wn, wd, (side, tn, td)
    if arg is None:
        return Fraction(0), (Fraction(0), Fraction(1))
    side, tn, td = arg
    t = Fraction(tn, td * TD)
    return (Fraction(bn, bd * VD),
            (Fraction(0), t) if side == 0 else (1 - t, Fraction(1)))


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


def _general_norm(g):
    """Exact sup of interval oscillation for an arbitrary step function.

    Breakpoints over TD and values over VD, as in the monotone path.  Pair
    (i, j) holds the windows with a in piece i and b in piece j, the box of
    x = t_i - a and y = b - t_{j-1} in units 1/TD.  Each band's 2F/T^2 is VD
    times a lower bound of the oscillation on the whole box, exact where the
    window mean lies in the band, and every window mean lies in some band
    between the extreme corner means (for adjacent pieces, the min and max
    of v_i, v_j).  So skipping the bands wholly above or below that range
    keeps the sup; and a candidate's value is at most the oscillation at
    its point, itself at most the sup, so the first candidate to reach the
    sup is a witness.

    Pruning by value keeps the sup and the witness too: the balanced window
    around the largest jump attains seed = max|jump|/2, and with H and Lo
    the max and min over pieces i..j, a window whose mean mu lies in
    [w_lo, w_hi] oscillates at most max 2(H-mu)(mu-Lo)/(H-Lo) over that
    band.  A pair with (H-Lo)/2 < seed or <= best, and a band whose bound
    is < seed or <= best, holds no candidate that is the first to attain
    the final sup.  The band sums accumulate once down the distinct values
    of each pair.  Cost: O(m^2 d) for m pieces and at most d <= m distinct
    values in a window, with O(1) integer work per kept band.
    """
    TD, B, VD, V, Q = g._td, g._B, g._vd, g._V, g._prefix()
    m = len(V)
    jump = max(abs(a - b) for a, b in zip(V, V[1:]))  # 2 * seed * VD
    bn, bd, arg = 0, 1, None
    for i in range(1, m + 1):
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
            # the window means of the box span [ln/ld, hn/hd]
            if M:
                hn, hd = ln, ld = MI, M
                for n, d in ((MI + vi * Li, M + Li), (MI + vj * Lj, M + Lj),
                             (MI + vi * Li + vj * Lj, M + Li + Lj)):
                    if n * hd > hn * d:
                        hn, hd = n, d
                    elif n * ld < ln * d:
                        ln, ld = n, d
            else:  # adjacent pieces: the means fill [min, max] of vi, vj
                ln, hn = sorted((vi, vj))
                ld = hd = 1
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
                fq = ((vi - vj) * (ib - jb),
                      HI - vi * HL + ib * (vi * M - MI),
                      HI - vj * HL + jb * (vj * M - MI),
                      HI * M - MI * HL)
                F11, F10, F01, F00 = fq
                for X, Y, W in _box_candidates(fq, M, Li, Lj):
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
    values, relative for large ones.
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
    else:
        best, witness = _general_norm(h)
    lo_float = float(best)
    upper = math.nextafter(lo_float, math.inf)
    gap = upper - lo_float
    return IntervalBMOBound(lower=best, upper=upper, witness=witness,
                            gap=gap, tol=tol,
                            tol_met=gap <= tol * max(1.0, abs(lo_float)))
