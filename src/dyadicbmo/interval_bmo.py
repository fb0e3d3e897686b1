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
  The path runs in scaled integers: breakpoints over the lcm TD of their
  denominators, values over the lcm VD of theirs, each candidate t and its
  oscillation an integer (numerator, denominator) pair compared by
  cross-multiplying; only the best value and its witness become Fractions.

* general input: endpoints (a,b) range over a piece pair (i,j); inside the
  polygon where additionally the window mean stays between two consecutive
  distinct window values, the oscillation is 2*F(x,y)/T(x,y)^2 with F a
  bilinear polynomial (no x^2 or y^2 terms) in the partial piece lengths
  x = t_i - a, y = b - t_{j-1} and T = b - a affine.  Maxima over each closed
  polygon sit at vertices, at stationary points of edge restrictions (always
  a linear equation), or on the interior critical line (again linear after
  substitution), so every candidate is an exact rational point.

The reported lower bound is attained at the rational witness; the upper bound
is the same exact value rounded one float ulp upward.  The gap is judged
relative to the size of the value (gap <= tol * max(1, |lower|)), since a
float ulp grows with the value; if it ever failed the requested tolerance the
result would say so rather than raise.
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
    windows [1-t,1] from its mirror -g(1-t), both built as integer arrays.
    Ties keep the first candidate: the [0,t] family in order, then [1-t,1].
    """
    bps, vals = g.breakpoints, g.values
    TD = math.lcm(*(t.denominator for t in bps))
    VD = math.lcm(*(v.denominator for v in vals))
    sign = 1 if g.is_nonincreasing else -1
    B = [t.numerator * (TD // t.denominator) for t in bps]
    V = [sign * v.numerator * (VD // v.denominator) for v in vals]
    Q = [0]
    for v, lo, hi in zip(V, B, B[1:]):
        Q.append(Q[-1] + v * (hi - lo))
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
# general path: piece-pair x mean-band polygons, rational candidate points
# ---------------------------------------------------------------------------

def _affine_eval(aff, x, y):
    cx, cy, c0 = aff
    return cx * x + cy * y + c0


def _bilinear_eval(fq, x, y):
    c11, c10, c01, c00 = fq
    return c11 * x * y + c10 * x + c01 * y + c00


def _clip_polygon(poly, aff):
    """Sutherland-Hodgman clip of a convex polygon by {aff(x,y) <= 0}."""
    if not poly:
        return []
    out = []
    k = len(poly)
    for idx in range(k):
        cur, nxt = poly[idx], poly[(idx + 1) % k]
        s_cur = _affine_eval(aff, *cur)
        s_nxt = _affine_eval(aff, *nxt)
        if s_cur <= 0:
            out.append(cur)
        if (s_cur < 0 < s_nxt) or (s_nxt < 0 < s_cur):
            s = s_cur / (s_cur - s_nxt)
            out.append((cur[0] + s * (nxt[0] - cur[0]),
                        cur[1] + s * (nxt[1] - cur[1])))
    dedup = []
    for pt in out:
        if not dedup or dedup[-1] != pt:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _region_candidates(fq, mid_len, constraints, poly):
    """Rational points where the region max of 2F/T^2 can sit.

    fq = (f11, f10, f01, f00) is the bilinear F = f11 xy + f10 x + f01 y + f00
    and T = x + y + mid_len.
    """
    pts = list(poly)
    f11, f10, f01, f00 = fq

    # edge stationary points: along (x,y) = p + s*(q-p) the critical equation
    # F'(s)T(s) - 2F(s)T'(s) = 0 is linear in s.
    k = len(poly)
    for idx in range(k if k > 2 else k - 1 if k == 2 else 0):
        (x0, y0), (x1, y1) = poly[idx], poly[(idx + 1) % k]
        dx, dy = x1 - x0, y1 - y0
        a2 = f11 * dx * dy
        a1 = f11 * (x0 * dy + y0 * dx) + f10 * dx + f01 * dy
        a0 = _bilinear_eval(fq, x0, y0)
        t0 = x0 + y0 + mid_len
        t1 = dx + dy
        lin = 2 * a2 * t0 - a1 * t1
        const = a1 * t0 - 2 * a0 * t1
        if lin != 0:
            s = -const / lin
            if 0 < s < 1:
                pts.append((x0 + s * dx, y0 + s * dy))

    # interior critical points: F_x = F_y is the line f11 (y - x) = f01 - f10,
    # and on it G = F_x*T - 2F is linear in y (the y^2 terms cancel).
    if f11 != 0:
        q = (f10 - f01) / f11  # the line x = y + q
        b = f11 * (mid_len - q) - 2 * f01
        c = f10 * (mid_len - q) - 2 * f00
        if b != 0:
            y = -c / b
        elif c == 0:  # G vanishes on the line: its feasible midpoint
            y = _line_midpoint(constraints, 1, q)
        else:
            y = None
        if y is not None:
            pts.append((y + q, y))
    elif f10 == f01 != 0:
        # F is affine with F_x = F_y everywhere; G vanishes on x + y = q
        q = mid_len - 2 * f00 / f10
        y = _line_midpoint(constraints, -1, q)
        if y is not None:
            pts.append((q - y, y))
    return pts


def _line_midpoint(constraints, sy, q):
    """Midpoint y of the feasible part of the line x = sy*y + q, or None."""
    lo, hi = None, None
    for cx, cy, c0 in constraints:
        a = cx * sy + cy
        b = cx * q + c0
        if a == 0:
            if b > 0:
                return None
        elif a > 0:
            bound = -b / a
            hi = bound if hi is None else min(hi, bound)
        else:
            bound = -b / a
            lo = bound if lo is None else max(lo, bound)
    if lo is None or hi is None or lo > hi:
        return None
    return (lo + hi) / 2


def _general_norm(g):
    """Exact sup of interval oscillation for an arbitrary step function.

    O(m^3)-ish in the piece count; intended for the modest piece counts this
    package produces.  Monotone inputs take the faster end-anchored path.
    """
    bps, vals = g.breakpoints, g.values
    P = g.prefix_integrals
    m = len(vals)
    best = Fraction(0)
    witness = (Fraction(0), Fraction(1))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            len_i = bps[i] - bps[i - 1]
            len_j = bps[j] - bps[j - 1]
            vi, vj = vals[i - 1], vals[j - 1]
            mid_len = bps[j - 1] - bps[i]
            mid_int = P[j - 1] - P[i]
            window = vals[i - 1:j]
            distinct = sorted(set(window), reverse=True)
            if len(distinct) == 1:
                continue
            box = [(Fraction(0), Fraction(0)), (len_i, Fraction(0)),
                   (len_i, len_j), (Fraction(0), len_j)]
            for r in range(len(distinct) - 1):
                w_hi, w_lo = distinct[r], distinct[r + 1]
                high_mid_len = Fraction(0)
                high_mid_int = Fraction(0)
                for k in range(i + 1, j):
                    if vals[k - 1] >= w_hi:
                        piece = bps[k] - bps[k - 1]
                        high_mid_len += piece
                        high_mid_int += vals[k - 1] * piece
                bi = vi >= w_hi
                bj = vj >= w_hi
                ai = vi if bi else Fraction(0)
                aj = vj if bj else Fraction(0)
                ib = Fraction(1 if bi else 0)
                jb = Fraction(1 if bj else 0)
                # F = S1*T - N*L1 expanded in (x, y): bilinear, no x^2 or y^2
                assert ai - vi * ib == aj - vj * jb == 0
                fq = (
                    (ai + aj) - (vi * jb + vj * ib),                # xy
                    ai * mid_len + high_mid_int - (vi * high_mid_len + mid_int * ib),
                    aj * mid_len + high_mid_int - (vj * high_mid_len + mid_int * jb),
                    high_mid_int * mid_len - mid_int * high_mid_len,
                )
                band_hi = (vi - w_hi, vj - w_hi, mid_int - w_hi * mid_len)
                band_lo = (w_lo - vi, w_lo - vj, w_lo * mid_len - mid_int)
                poly = _clip_polygon(_clip_polygon(box, band_hi), band_lo)
                if not poly:
                    continue
                constraints = [(Fraction(-1), Fraction(0), Fraction(0)),
                               (Fraction(1), Fraction(0), -len_i),
                               (Fraction(0), Fraction(-1), Fraction(0)),
                               (Fraction(0), Fraction(1), -len_j),
                               band_hi, band_lo]
                for x, y in _region_candidates(fq, mid_len, constraints, poly):
                    t_len = x + y + mid_len
                    if t_len <= 0:
                        continue
                    if any(_affine_eval(c, x, y) > 0 for c in constraints):
                        continue
                    val = 2 * _bilinear_eval(fq, x, y) / (t_len * t_len)
                    if val > best:
                        best = val
                        witness = (bps[i] - x, bps[j - 1] + y)
    return best, witness


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def interval_bmo_norm(g, tol=1e-9):
    """Two-sided certified bound on sup over intervals [a,b] of the oscillation.

    The lower bound is exact and attained at the returned witness; the upper
    bound is the same value rounded one float ulp up.  tol_met reports
    gap <= tol * max(1, |lower|): absolute for small values, relative for
    large ones.
    """
    if not isinstance(g, StepFunction1D):
        raise InputError("interval_bmo_norm expects a StepFunction1D")
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    h = g.merged()
    if len(h.values) == 1:
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
