"""Shared fixtures: seeded random functions and independent oracles.

Oracles recompute quantities from first principles (geometric cube
membership, explicit sums, dense grids) without touching the package's
flat-index machinery, so agreement is meaningful.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from dyadicbmo import DyadicCubeId, DyadicFunction

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


def random_cube(rng, f):
    level = rng.randrange(f.depth + 1)
    index = tuple(rng.randrange(1 << level) for _ in range(f.dim))
    return DyadicCubeId(level, index)


# -- independent oracles ----------------------------------------------------

def cube_cells_oracle(f, q):
    """Cells inside q by geometric containment of cell corners, in units of
    the cell side 2^-L (so the comparisons are integer)."""
    qside = 1 << (f.depth - q.level)
    out = []
    for flat in range(len(f.cells)):
        rest = flat
        inside = True
        for m in range(f.dim):
            i = rest % (1 << f.depth)
            rest //= 1 << f.depth
            qlo, qhi = q.index[m] * qside, (q.index[m] + 1) * qside
            if not (qlo <= i and i + 1 <= qhi):
                inside = False
                break
        if inside:
            out.append(flat)
    return out


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


def parent_cover_oracle(stopping):
    """Fathers of the stopping cubes that no other father contains."""
    fathers = {q.father() for q in stopping}
    return [p for p in fathers
            if not any(o != p and o.contains(p) for o in fathers)]


@pytest.fixture
def rng():
    return random.Random(20260809)
