"""Shared fixtures: seeded random functions and independent oracles.

Oracles recompute quantities from first principles (geometric cube
membership, explicit sums, dense grids) without touching the package's
flat-index machinery, so agreement is meaningful.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (from_float, from_int, from_rational, fzero, mpf_add,
                          mpf_div, mpf_exp, mpf_log, mpf_mul, round_floor,
                          to_float)

from dyadicbmo import (DyadicCubeId, DyadicFunction, GenerationError,
                       gr_membership, gr_profile)

# (dim, depth) palettes for random corpora; weights favor small grids with a
# deterministic sprinkle of the large desk-scale sizes.
SIZES_SMALL = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)]
SIZES_MEDIUM = [(1, 5), (1, 6), (2, 3), (3, 2)]
SIZES_LARGE = [(2, 4), (3, 3)]


def random_function(rng, dim, depth, lo=-8, hi=8, denom_bits=4):
    den = 1 << denom_bits
    cells = [Fraction(rng.randrange(lo * den, hi * den + 1), den)
             for _ in range(1 << (dim * depth))]
    return DyadicFunction(dim, depth, cells)


def random_nonneg(rng, dim, depth, hi=8, denom_bits=4):
    return random_function(rng, dim, depth, lo=0, hi=hi, denom_bits=denom_bits)


def corpus(seed, count, nonneg=False, with_large=True):
    """Deterministic list of `count` random functions, mostly small sizes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if with_large and i == 0:
            dim, depth = (1, 6)
        elif with_large and i == 1:
            dim, depth = SIZES_LARGE[seed % len(SIZES_LARGE)]
        elif with_large and i == 2:
            dim, depth = (3, 4)  # the full stated size cap
        elif i % 25 == 3:
            dim, depth = SIZES_MEDIUM[rng.randrange(len(SIZES_MEDIUM))]
        else:
            dim, depth = SIZES_SMALL[rng.randrange(len(SIZES_SMALL))]
        maker = random_nonneg if nonneg else random_function
        out.append(maker(rng, dim, depth))
    return out


def float_just_below(x):
    """The largest float strictly below the exact value x, which it misses
    by far less than 1e-12 for the checkers' values."""
    r = float(x)
    if Fraction(r) >= x:
        r = math.nextafter(r, -math.inf)
    assert 0 < x - Fraction(r) < Fraction(1, 10 ** 12)
    return r


def normalize_oracle(nums, bits):
    """One search lattice step in Fractions: cells nums / 2^bits shifted to
    exact zero mean, scaled by a power of two so max |v| is in (1/2, 1],
    rounded to multiples of 2^-bits (round(), ties to even); the new
    numerators over 2^bits."""
    den = 1 << bits
    cells = [Fraction(k, den) for k in nums]
    mean = sum(cells, Fraction(0)) / len(cells)
    out = [v - mean for v in cells]
    top = max(abs(v) for v in out)
    scale = Fraction(1)
    if top:
        while top * scale > 1:
            scale /= 2
        while top * scale <= Fraction(1, 2):
            scale *= 2
    return [round(v * scale * den) for v in out]


def random_cube(rng, f):
    level = rng.randrange(f.depth + 1)
    index = tuple(rng.randrange(1 << level) for _ in range(f.dim))
    return DyadicCubeId(level, index)


# -- independent oracles ----------------------------------------------------

@lru_cache(maxsize=None)
def _cell_flats_oracle(dim, depth):
    """Each cell's flat index by its coordinates (first coordinate fastest),
    in units of the cell side 2^-L: decoded once per grid."""
    side = 1 << depth
    flats = {}
    for flat in range(side ** dim):
        rest, coords = flat, []
        for _ in range(dim):
            coords.append(rest % side)
            rest //= side
        flats[tuple(coords)] = flat
    return flats


def cube_cells_oracle(f, q):
    """Cells inside q by geometric containment of cell corners, in units of
    the cell side 2^-L (so the comparisons are integer): along each axis the
    coordinates i with [i, i+1] inside q's side, and then every cell whose
    coordinates all pass, in flat order."""
    qside = 1 << (f.depth - q.level)
    inside = [[i for i in range(1 << f.depth)
               if j * qside <= i and i + 1 <= (j + 1) * qside] for j in q.index]
    flats = _cell_flats_oracle(f.dim, f.depth)
    return sorted(flats[c] for c in product(*inside))


def average_oracle(f, q):
    cells = cube_cells_oracle(f, q)
    return sum((f.cells[c] for c in cells), Fraction(0)) / len(cells)


def oscillation_oracle(f, q):
    cells = cube_cells_oracle(f, q)
    avg = average_oracle(f, q)
    return sum((abs(f.cells[c] - avg) for c in cells), Fraction(0)) / len(cells)


def all_cubes_oracle(f):
    for level in range(f.depth + 1):
        for index in product(range(1 << level), repeat=f.dim):
            yield DyadicCubeId(level, index)


def bmo_norm_oracle(f):
    return max(oscillation_oracle(f, q) for q in all_cubes_oracle(f))


def maximal_oracle(f):
    """Per-cell max of |f| averages over the chain of ancestors."""
    out = []
    side = Fraction(1, 1 << f.depth)
    absf = DyadicFunction(f.dim, f.depth, [abs(v) for v in f.cells])
    for flat in range(len(f.cells)):
        rest = flat
        coords = []
        for m in range(f.dim):
            coords.append(rest % (1 << f.depth))
            rest //= 1 << f.depth
        best = None
        for level in range(f.depth + 1):
            q = DyadicCubeId(level, tuple(c >> (f.depth - level) for c in coords))
            avg = average_oracle(absf, q)
            best = avg if best is None else max(best, avg)
        out.append(best)
    return out


# -- the Fraction readers of a step function, on its breakpoints and values --

def prefix_integrals_oracle(g):
    """P[i] = integral of g over (0, t_i], accumulated in Fractions."""
    acc = [Fraction(0)]
    for (a, b), v in zip(zip(g.breakpoints, g.breakpoints[1:]), g.values):
        acc.append(acc[-1] + v * (b - a))
    return tuple(acc)


def value_at_oracle(g, t):
    """g(t) for t in (0,1] by bisection on the Fraction breakpoints."""
    return g.values[bisect_left(g.breakpoints, Fraction(t)) - 1]


def integral_to_oracle(g, t):
    """Integral of g over (0, t] from the Fraction prefix integrals."""
    t = Fraction(t)
    if t == 0:
        return Fraction(0)
    i = bisect_left(g.breakpoints, t)
    return (prefix_integrals_oracle(g)[i - 1]
            + g.values[i - 1] * (t - g.breakpoints[i - 1]))


def interval_mean_oscillation_oracle(g, a, b):
    """Mean oscillation over [a,b] in Fractions: the excess above the mean
    for nonincreasing g, a piece-by-piece sum otherwise."""
    a, b = Fraction(a), Fraction(b)
    ia = integral_to_oracle(g, a)
    mu = (integral_to_oracle(g, b) - ia) / (b - a)
    if all(u >= v for u, v in zip(g.values, g.values[1:])):
        above = bisect_left(g.values, True, key=mu.__ge__)  # pieces > mu
        s = min(max(g.breakpoints[above], a), b)
        return 2 * ((integral_to_oracle(g, s) - ia) - mu * (s - a)) / (b - a)
    acc = Fraction(0)
    for lo, hi, v in zip(g.breakpoints, g.breakpoints[1:], g.values):
        olo, ohi = max(lo, a), min(hi, b)
        if olo < ohi:
            acc += abs(v - mu) * (ohi - olo)
    return acc / (b - a)


def merged_oracle(g):
    """(breakpoints, values) with equal adjacent values merged."""
    bps = [Fraction(0)]
    vals = []
    for b, v in zip(g.breakpoints[1:], g.values):
        if vals and vals[-1] == v:
            bps[-1] = b
        else:
            vals.append(v)
            bps.append(b)
    return tuple(bps), tuple(vals)


def window_oscillation_oracle(g, a, b):
    """Mean oscillation of a step function over [a,b], summed piece by piece."""
    a, b = Fraction(a), Fraction(b)
    overlaps = [(min(hi, b) - max(lo, a), v)
                for lo, hi, v in zip(g.breakpoints, g.breakpoints[1:], g.values)
                if max(lo, a) < min(hi, b)]
    mu = sum((w * v for w, v in overlaps), Fraction(0)) / (b - a)
    return sum((w * abs(v - mu) for w, v in overlaps), Fraction(0)) / (b - a)


def grid_bmo_lower_oracle(g, extra_points=24):
    """Dense-grid lower bound for the interval BMO sup of a step function."""
    pts = set(g.breakpoints)
    for k in range(extra_points + 1):
        pts.add(Fraction(k, extra_points))
    for a, b in zip(sorted(pts), sorted(pts)[1:]):
        pts_mid = (a + b) / 2
        pts.add(pts_mid)
    pts = sorted(pts)
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            best = max(best, window_oscillation_oracle(g, a, b))
    return best


def _count_leading(vals, upto, above):
    """Number of leading vals[k], k < upto, with above(vals[k]) (a prefix)."""
    lo, hi = 0, upto
    while lo < hi:
        mid = (lo + hi) // 2
        if above(vals[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _left_anchored_oracle(g):
    """(oscillation, t) candidates over windows [0,t], g nonincreasing, in
    Fraction arithmetic: the piecewise (linear * linear)/t^2 closed form,
    its segment ends and its stationary points, in order."""
    bps, vals = g.breakpoints, g.values
    P = g.prefix_integrals
    m = len(vals)
    out = []
    for j in range(2, m + 1):
        t0, t1 = bps[j - 1], bps[j]
        vj = vals[j - 1]
        c_j = P[j - 1] - vj * t0
        if c_j == 0:
            continue
        mu0 = P[j - 1] / t0
        kappa = _count_leading(vals, j - 1, lambda v: v > mu0)
        t_cur = t0
        while True:
            if kappa < j - 1 and vals[kappa] > vj:
                t_hi = min(c_j / (vals[kappa] - vj), t1)
            else:
                t_hi = t1
            if t_hi > t_cur and kappa >= 1:
                t_k, p_k = bps[kappa], P[kappa]
                a_coef = p_k - vj * t_k

                def omega(t, a_coef=a_coef, c_j=c_j, t_k=t_k):
                    return 2 * (a_coef * t - c_j * t_k) / (t * t)

                out.append((omega(t_cur), t_cur))
                out.append((omega(t_hi), t_hi))
                if a_coef > 0:
                    t_star = 2 * c_j * t_k / a_coef
                    if t_cur < t_star < t_hi:
                        out.append((omega(t_star), t_star))
            if t_hi >= t1:
                break
            t_cur = max(t_cur, t_hi)
            w = vals[kappa]
            kappa = max(_count_leading(vals, j - 1, lambda v: v >= w), kappa + 1)
    return out


def monotone_norm_oracle(g):
    """(sup, witness) of the interval oscillation of a nonincreasing step
    function in Fraction arithmetic: windows [0,t] of g, then windows
    [1-t,1] through the mirror -g(1-t); ties keep the first candidate."""
    best = Fraction(0)
    witness = (Fraction(0), Fraction(1))
    for val, t in _left_anchored_oracle(g):
        if val > best:
            best, witness = val, (Fraction(0), t)
    for val, t in _left_anchored_oracle(g.reflected().negated()):
        if val > best:
            best, witness = val, (1 - t, Fraction(1))
    return best, witness


def _affine_oracle(aff, x, y):
    cx, cy, c0 = aff
    return cx * x + cy * y + c0


def _bilinear_oracle(fq, x, y):
    c11, c10, c01, c00 = fq
    return c11 * x * y + c10 * x + c01 * y + c00


def _clip_polygon_oracle(poly, aff):
    """Sutherland-Hodgman clip of a convex polygon by {aff(x,y) <= 0}."""
    if not poly:
        return []
    out = []
    k = len(poly)
    for idx in range(k):
        cur, nxt = poly[idx], poly[(idx + 1) % k]
        s_cur = _affine_oracle(aff, *cur)
        s_nxt = _affine_oracle(aff, *nxt)
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


def _line_midpoint_oracle(constraints, sy, q):
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


def _region_candidates_oracle(fq, mid_len, constraints, poly):
    """Polygon vertices, edge stationary points and interior critical points
    of 2F/T^2, F = f11 xy + f10 x + f01 y + f00, T = x + y + mid_len."""
    pts = list(poly)
    f11, f10, f01, f00 = fq
    k = len(poly)
    for idx in range(k if k > 2 else k - 1 if k == 2 else 0):
        (x0, y0), (x1, y1) = poly[idx], poly[(idx + 1) % k]
        dx, dy = x1 - x0, y1 - y0
        a2 = f11 * dx * dy
        a1 = f11 * (x0 * dy + y0 * dx) + f10 * dx + f01 * dy
        a0 = _bilinear_oracle(fq, x0, y0)
        t0 = x0 + y0 + mid_len
        t1 = dx + dy
        lin = 2 * a2 * t0 - a1 * t1
        const = a1 * t0 - 2 * a0 * t1
        if lin != 0:
            s = -const / lin
            if 0 < s < 1:
                pts.append((x0 + s * dx, y0 + s * dy))
    if f11 != 0:
        q = (f10 - f01) / f11
        b = f11 * (mid_len - q) - 2 * f01
        c = f10 * (mid_len - q) - 2 * f00
        if b != 0:
            y = -c / b
        elif c == 0:
            y = _line_midpoint_oracle(constraints, 1, q)
        else:
            y = None
        if y is not None:
            pts.append((y + q, y))
    elif f10 == f01 != 0:
        q = mid_len - 2 * f00 / f10
        y = _line_midpoint_oracle(constraints, -1, q)
        if y is not None:
            pts.append((q - y, y))
    return pts


def general_norm_oracle(g):
    """(sup, witness) of the interval oscillation of any step function in
    Fraction arithmetic, with no pruning: every piece pair (i, j) and every
    band between consecutive distinct window values is clipped out of the
    box of partial lengths, its candidates visited in order, the band sums
    rescanned per band; ties keep the first candidate."""
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
            distinct = sorted(set(vals[i - 1:j]), reverse=True)
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
                ib = 1 if vi >= w_hi else 0
                jb = 1 if vj >= w_hi else 0
                ai, aj = vi * ib, vj * jb
                # F = S1*T - N*L1 expanded in (x, y)
                fq = (
                    (ai + aj) - (vi * jb + vj * ib),
                    ai * mid_len + high_mid_int - (vi * high_mid_len + mid_int * ib),
                    aj * mid_len + high_mid_int - (vj * high_mid_len + mid_int * jb),
                    high_mid_int * mid_len - mid_int * high_mid_len,
                )
                band_hi = (vi - w_hi, vj - w_hi, mid_int - w_hi * mid_len)
                band_lo = (w_lo - vi, w_lo - vj, w_lo * mid_len - mid_int)
                poly = _clip_polygon_oracle(_clip_polygon_oracle(box, band_hi),
                                            band_lo)
                if not poly:
                    continue
                constraints = [(Fraction(-1), Fraction(0), Fraction(0)),
                               (Fraction(1), Fraction(0), -len_i),
                               (Fraction(0), Fraction(-1), Fraction(0)),
                               (Fraction(0), Fraction(1), -len_j),
                               band_hi, band_lo]
                for x, y in _region_candidates_oracle(fq, mid_len, constraints,
                                                      poly):
                    t_len = x + y + mid_len
                    if t_len <= 0:
                        continue
                    if any(_affine_oracle(c, x, y) > 0 for c in constraints):
                        continue
                    val = 2 * _bilinear_oracle(fq, x, y) / (t_len * t_len)
                    if val > best:
                        best = val
                        witness = (bps[i] - x, bps[j - 1] + y)
    return best, witness


def matched_mean_b_oracle(g, a, mu):
    """Matched-mean endpoint by scanning every piece for the linear zero."""
    pa = g.integral_to(a)
    for lo, hi, v in g.pieces():
        if hi <= a:
            continue
        s = max(lo, a)
        defect = (g.integral_to(s) - pa) - mu * (s - a)
        if v == mu:
            if defect == 0 and hi > a:
                return hi
            continue
        b = s + defect / (mu - v)
        if a < b and s <= b <= hi:
            return b
    return None


def stopping_oracle(f, alpha, direction):
    """Maximal crossing cubes by explicit enumeration of the whole tree."""
    crossing = []
    for q in all_cubes_oracle(f):
        avg = average_oracle(f, q)
        if (avg > alpha) if direction == "above" else (avg <= alpha):
            crossing.append(q)
    return [q for q in crossing
            if not any(o != q and o.contains(q) for o in crossing)]


def cascade_oracle(spec, refused=0):
    """generate(spec) for a cascade-gr spec, one Fraction per tree node:
    each child of a cube, in the order of DyadicCubeId.children(), is its
    father's value times a factor drawn from the spec's multipliers, or
    1 + spread k / 2^denom_bits with k uniform in -2^b..2^b; the spread
    starts at min(1/8, target / 4) and halves at each retry until the
    function's modulus meets the target.  The first `refused` attempts are
    retried whatever their modulus."""
    rng = random.Random(spec.seed)
    bits = spec.denom_bits
    spread = min(Fraction(1, 8), spec.target_eps / 4)
    for attempt in range(spec.cascade_retries):
        level = {DyadicCubeId.root(spec.dim): Fraction(1)}
        for _ in range(spec.depth):
            children = {}
            for q, v in level.items():
                for child in q.children():
                    if spec.multipliers:
                        factor = rng.choice(spec.multipliers)
                    else:
                        factor = 1 + spread * Fraction(
                            rng.randrange(-(1 << bits), (1 << bits) + 1), 1 << bits)
                    children[child] = v * factor
            level = children
        cells = [None] * len(level)
        for q, v in level.items():
            cells[q.flat()] = v
        f = DyadicFunction(spec.dim, spec.depth, cells)
        if attempt >= refused and gr_membership(f) <= spec.target_eps:
            return f
        spread /= 2
    raise GenerationError(
        f"could not reach modulus target {spec.target_eps} within "
        f"{spec.cascade_retries} attempts")


def running_max_oracle(f, sign):
    """The whole running-max pyramid, every level kept: R[k][z] is the
    largest of sign * (cube sum << nk) over the level-k cube at Morton
    address z and its ancestors, each cube sum added from f's Morton-order
    numerators."""
    n, L, nums = f.dim, f.depth, f._nums
    pyramid = []
    for k in range(L + 1):
        cnt = 1 << n * (L - k)
        level = [sign * sum(nums[z * cnt:(z + 1) * cnt]) << n * k
                 for z in range(1 << n * k)]
        if pyramid:
            level = [max(v, pyramid[-1][z >> n]) for z, v in enumerate(level)]
        pyramid.append(level)
    return pyramid


def first_crossings_oracle(pyramid, a, n):
    """(level, Morton address), in that order, of every cube of a running-max
    pyramid whose value exceeds a while its father's does not (the root
    counts as having a father at a): one scan of the whole pyramid."""
    out = []
    fathers = [a]
    for k, level in enumerate(pyramid):
        out.extend((k, z) for z, v in enumerate(level) if v > a >= fathers[z >> n])
        fathers = level
    return out


def parent_cover_oracle(stopping):
    """Fathers of the stopping cubes that no other father contains."""
    fathers = {q.father() for q in stopping}
    return [p for p in fathers
            if not any(o != p and o.contains(p) for o in fathers)]


# -- interval bounds ----------------------------------------------------------
# The bounds evaluated operation for operation on mpmath's interval context,
# a test-local one at the package's 160 bits: the package's raw-tuple
# evaluation must give the same floats, bit for bit.  Exact inputs (norm,
# modulus profile, mean, p) come from the package; only the interval
# evaluation is under test.

iv = MPIntervalContext()
iv.prec = 160
IV_ONE = iv.mpf(1)
IV_E = iv.exp(IV_ONE)


def iv_fraction_oracle(x):
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def upper_oracle(x):
    return math.nextafter(float(x.b), math.inf)


def exp_bound_oracle(n, lam, norm):
    """Upper endpoint of e * exp(-lam / (2^(n-1) e norm))."""
    expo = -iv_fraction_oracle(lam) / (iv.mpf(1 << (n - 1)) * IV_E
                                       * iv_fraction_oracle(norm))
    return upper_oracle(IV_E * iv.exp(expo))


def logbound_oracle(n, norm, t):
    """Upper endpoint of 2^(n-1) e norm ln(e/t)."""
    scale = iv.mpf(1 << (n - 1)) * IV_E * iv_fraction_oracle(norm)
    return upper_oracle(scale * (iv.mpf(1) - iv.log(iv_fraction_oracle(t))))


def _iv_max_oracle(a, b):
    lo = a.a if a.a > b.a else b.a
    hi = a.b if a.b > b.b else b.b
    return iv.mpf([lo, hi])


def _iv_pow_oracle(base, expo):
    return iv.exp(iv.log(base) * expo)


def theorem4_oracle(f, t):
    """(rhs, c1, c2, c3, c4) upper floats, or None past the validity threshold."""
    n = f.dim
    two_n = iv.mpf(1 << n)
    c1 = two_n * iv.exp(two_n * IV_E + IV_ONE)
    c2 = iv.mpf(1 << (n - 1)) * IV_E * iv.mpf(n)
    c3 = iv.mpf(2) * iv.exp(IV_ONE / iv.mpf(n))
    c4 = two_n * IV_E * IV_E
    t_iv = iv_fraction_oracle(t)
    if t_iv.a * c4.a > 1:
        return None
    profile = gr_profile(f)
    lower_limit = c3 * _iv_pow_oracle(t_iv, IV_ONE / iv.mpf(n))
    integral = iv.mpf(0)
    for k in range(1, f.depth + 1):
        seg_lo = iv_fraction_oracle(Fraction(1, 1 << k))
        seg_hi = iv_fraction_oracle(Fraction(1, 1 << (k - 1)))
        v_k = profile.value_at_level(k)
        if v_k == 0:
            continue
        eff_lo = _iv_max_oracle(seg_lo, lower_limit)
        if eff_lo.a >= seg_hi.b:
            continue
        contrib = iv.log(seg_hi) - iv.log(eff_lo)
        contrib = _iv_max_oracle(contrib, iv.mpf(0))
        integral += iv_fraction_oracle(v_k) * contrib
    rhs = c1 * iv_fraction_oracle(f.mean) * iv.exp(c2 * integral)
    return tuple(map(upper_oracle, (rhs, c1, c2, c3, c4)))


def theorem5_oracle(p, mean, t):
    """Upper endpoint of (p/(p-1)) mean t^(-1/p) at a float p."""
    p = iv.mpf(p)
    factor = p / (p - IV_ONE)
    return upper_oracle(factor * iv_fraction_oracle(mean)
                        * _iv_pow_oracle(iv_fraction_oracle(t), -IV_ONE / p))


def lq_oracle(f, q, p):
    """(integral, bound) of lq_tail_bound at a float or integer q < p: the
    integral exact for an integral q, else summed rounded down from the float
    q over the package's Morton-order numerators (a rounded sum depends on
    its order); the bound (p/(p-1))^q mean^q p/(p-q) rounded up."""
    q_iv = iv.mpf(q)
    if float(q).is_integer():
        qi = int(q)
        lq = Fraction(sum(v ** qi for v in f.cells), len(f.cells))
    else:
        prec, qm, den = iv.prec, from_float(q), f._den
        acc = fzero
        for a in f._nums:
            if a:
                x = mpf_log(from_rational(a, den, prec, round_floor), prec, round_floor)
                x = mpf_exp(mpf_mul(x, qm, prec, round_floor), prec, round_floor)
                acc = mpf_add(acc, x, prec, round_floor)
        acc = mpf_div(acc, from_int(len(f.cells)), prec, round_floor)
        lq = math.nextafter(to_float(acc, rnd=round_floor), -math.inf)
    p = iv.mpf(p)
    factor = _iv_pow_oracle(p / (p - IV_ONE), q_iv)
    if f.mean == 0:
        bound = iv.mpf(0)
    else:
        mean_q = _iv_pow_oracle(iv_fraction_oracle(f.mean), q_iv)
        bound = factor * mean_q * p / (p - q_iv)
    return lq, upper_oracle(bound)


def count_above_oracle(f, thr):
    """Measure of {f > thr}, one comparison per public cell."""
    return Fraction(sum(1 for v in f.cells if v > thr), len(f.cells))


@pytest.fixture
def rng():
    return random.Random(20260809)
