"""Exact piecewise-constant functions on the dyadic grid of [0,1]^n.

A function is stored as its cell values on the level-L grid, every cell a
half-open box prod_m (i_m 2^-L, (i_m+1) 2^-L].  All derived quantities
(averages, mean oscillations, the dyadic sup norm, maximal-function values,
level-set measures) are computed in exact rational arithmetic; no floating
point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import InputError

Rational = Fraction


def _encode(index, level):
    """Flat cell index: first coordinate fastest (little-endian)."""
    return sum(index[m] << (m * level) for m in range(len(index)))


def _decode(flat, level, dim):
    mask = (1 << level) - 1
    return tuple((flat >> (m * level)) & mask for m in range(dim))


@dataclass(frozen=True)
class DyadicCubeId:
    """Address of one dyadic cube: level k and an n-tuple of indices in [0, 2^k)."""

    level: int
    index: tuple

    def __post_init__(self):
        if self.level < 0:
            raise InputError(f"cube level must be >= 0, got {self.level}")
        if not self.index:
            raise InputError("cube index must have at least one coordinate")
        top = 1 << self.level
        for i in self.index:
            if not 0 <= i < top:
                raise InputError(
                    f"cube index {self.index} out of range for level {self.level}")
        object.__setattr__(self, "index", tuple(self.index))

    @property
    def dim(self):
        return len(self.index)

    @property
    def side(self):
        return Fraction(1, 1 << self.level)

    @property
    def measure(self):
        return Fraction(1, 1 << (self.dim * self.level))

    def flat(self):
        return _encode(self.index, self.level)

    @classmethod
    def from_flat(cls, level, flat, dim):
        return cls(level, _decode(flat, level, dim))

    @classmethod
    def root(cls, dim):
        return cls(0, (0,) * dim)

    def father(self):
        if self.level == 0:
            raise InputError("the root cube has no father")
        return DyadicCubeId(self.level - 1, tuple(i >> 1 for i in self.index))

    def children(self):
        for delta in product((0, 1), repeat=self.dim):
            yield DyadicCubeId(self.level + 1,
                               tuple(2 * i + d for i, d in zip(self.index, delta)))

    def contains(self, other):
        if other.dim != self.dim or other.level < self.level:
            return False
        shift = other.level - self.level
        return all(o >> shift == s for o, s in zip(other.index, self.index))

    def support(self):
        """Closed coordinate ranges [lo, hi] of the cube, for display."""
        s = self.side
        return tuple((i * s, (i + 1) * s) for i in self.index)


@dataclass(frozen=True)
class OscillationReport:
    cube: DyadicCubeId
    average: Fraction
    oscillation: Fraction


class DyadicFunction:
    """Immutable level-L piecewise-constant function on [0,1]^n.

    cells[flat] with flat = i_1 + i_2*2^L + ... + i_n*2^((n-1)L).  Treated as
    immutable: internal integer kernels (common-denominator numerators, level
    sum pyramids, ancestor tables) are cached lazily.
    """

    def __init__(self, dim, depth, cells):
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        if depth < 0:
            raise InputError(f"depth must be >= 0, got {depth}")
        cells = tuple(Fraction(v) for v in cells)
        if len(cells) != 1 << (dim * depth):
            raise InputError(
                f"expected {1 << (dim * depth)} cells for n={dim}, L={depth}, "
                f"got {len(cells)}")
        self.dim = dim
        self.depth = depth
        self.cells = cells
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, DyadicFunction)
                and self.dim == other.dim
                and self.depth == other.depth
                and self.cells == other.cells)

    def __hash__(self):
        return hash((self.dim, self.depth, self.cells))

    def __repr__(self):
        return f"DyadicFunction(n={self.dim}, L={self.depth}, cells={len(self.cells)})"

    # -- integer kernel -----------------------------------------------------

    @property
    def _den(self):
        if "den" not in self._cache:
            self._cache["den"] = lcm(*(v.denominator for v in self.cells))
        return self._cache["den"]

    @property
    def _nums(self):
        if "nums" not in self._cache:
            d = self._den
            self._cache["nums"] = [int(v * d) for v in self.cells]
        return self._cache["nums"]

    def _sums(self, absolute=False):
        """Per-level lists of cell-value numerator sums (over self._den)."""
        key = "asums" if absolute else "sums"
        if key not in self._cache:
            n, L = self.dim, self.depth
            level = [abs(a) for a in self._nums] if absolute else list(self._nums)
            pyramid = [level]
            for k in range(L - 1, -1, -1):
                prev = pyramid[0]
                cur = [0] * (1 << (n * k))
                for j in range(len(cur)):
                    idx = _decode(j, k, n)
                    for delta in product((0, 1), repeat=n):
                        child = tuple(2 * i + d for i, d in zip(idx, delta))
                        cur[j] += prev[_encode(child, k + 1)]
                pyramid.insert(0, cur)
            self._cache[key] = pyramid
        return self._cache[key]

    def _ancestors(self):
        """anc[k][cell_flat] = flat index of the cell's level-k ancestor."""
        if "anc" not in self._cache:
            n, L = self.dim, self.depth
            anc = []
            for k in range(L + 1):
                shift = L - k
                anc.append([
                    _encode(tuple(i >> shift for i in _decode(c, L, n)), k)
                    for c in range(len(self.cells))
                ])
            self._cache["anc"] = anc
        return self._cache["anc"]

    # -- basic quantities ---------------------------------------------------

    @property
    def mean(self):
        """Average over the whole of [0,1]^n (equals the total integral)."""
        return Fraction(sum(self._nums), self._den * len(self.cells))

    def _check_cube(self, q):
        if q.dim != self.dim:
            raise InputError(f"cube dimension {q.dim} != function dimension {self.dim}")
        if q.level > self.depth:
            raise InputError(
                f"cube level {q.level} exceeds function depth {self.depth}")

    def cell_indices(self, q):
        """Flat indices of the level-L cells inside cube q."""
        self._check_cube(q)
        shift = self.depth - q.level
        ranges = [range(i << shift, (i + 1) << shift) for i in q.index]
        for idx in product(*ranges):
            yield _encode(idx, self.depth)

    def scaled(self, c):
        return DyadicFunction(self.dim, self.depth,
                              [Fraction(c) * v for v in self.cells])

    def shifted(self, c):
        return DyadicFunction(self.dim, self.depth,
                              [v + Fraction(c) for v in self.cells])

    def abs(self):
        """|f|, built once per function so its own caches are shared."""
        if "abs" not in self._cache:
            self._cache["abs"] = DyadicFunction(self.dim, self.depth,
                                                [abs(v) for v in self.cells])
        return self._cache["abs"]

    @property
    def is_nonnegative(self):
        if "nonneg" not in self._cache:
            self._cache["nonneg"] = all(v >= 0 for v in self.cells)
        return self._cache["nonneg"]

    @property
    def is_constant(self):
        if "constant" not in self._cache:
            self._cache["constant"] = all(v == self.cells[0] for v in self.cells)
        return self._cache["constant"]


def cube_average(f, q):
    """Exact mean of f over the dyadic cube q."""
    f._check_cube(q)
    cnt = 1 << (f.dim * (f.depth - q.level))
    s = f._sums()[q.level][q.flat()]
    return Fraction(s, f._den * cnt)


def mean_oscillation(f, q):
    """Average of |f - f_Q| over q, with the average f_Q, all exact."""
    f._check_cube(q)
    cnt = 1 << (f.dim * (f.depth - q.level))
    s = f._sums()[q.level][q.flat()]
    nums = f._nums
    osc_num = sum(abs(nums[c] * cnt - s) for c in f.cell_indices(q))
    return OscillationReport(
        cube=q,
        average=Fraction(s, f._den * cnt),
        oscillation=Fraction(osc_num, f._den * cnt * cnt),
    )


def one_sided_oscillation(f, q, side):
    """(2/|Q|) * integral of (f - f_Q)^+ or (f_Q - f)^-, per the chosen side.

    Both sides equal the full mean oscillation exactly (the positive and
    negative parts of f - f_Q have equal integrals).
    """
    if side not in ("above", "below"):
        raise InputError(f"side must be 'above' or 'below', got {side!r}")
    f._check_cube(q)
    cnt = 1 << (f.dim * (f.depth - q.level))
    s = f._sums()[q.level][q.flat()]
    nums = f._nums
    if side == "above":
        num = sum(nums[c] * cnt - s for c in f.cell_indices(q) if nums[c] * cnt > s)
    else:
        num = sum(s - nums[c] * cnt for c in f.cell_indices(q) if nums[c] * cnt < s)
    return Fraction(2 * num, f._den * cnt * cnt)


def every_cube(f, max_level=None):
    """All dyadic cubes of level 0..min(L, max_level), shallowest first."""
    top = f.depth if max_level is None else min(max_level, f.depth)
    for k in range(top + 1):
        for j in range(1 << (f.dim * k)):
            yield DyadicCubeId.from_flat(k, j, f.dim)


def bmo_argmax(f):
    """Maximal mean oscillation over all dyadic cubes, with its witness cube.

    Cubes strictly below cell resolution carry zero oscillation and are
    excluded; ties resolve to the lowest (level, flat index).
    """
    if "bmo" in f._cache:
        return f._cache["bmo"]
    n, L, den = f.dim, f.depth, f._den
    sums = f._sums()
    anc = f._ancestors()
    nums = f._nums
    best = Fraction(0)
    best_cube = DyadicCubeId.root(n)
    for k in range(L):  # level-L cubes are single cells: oscillation 0
        cnt = 1 << (n * (L - k))
        s_k = sums[k]
        anc_k = anc[k]
        osc = [0] * (1 << (n * k))
        for c, a in enumerate(nums):
            j = anc_k[c]
            osc[j] += abs(a * cnt - s_k[j])
        d = den * cnt * cnt
        for j, num in enumerate(osc):
            val = Fraction(num, d)
            if val > best:
                best = val
                best_cube = DyadicCubeId.from_flat(k, j, n)
    report = OscillationReport(cube=best_cube,
                               average=cube_average(f, best_cube),
                               oscillation=best)
    f._cache["bmo"] = report
    return report


def bmo_dyadic_norm(f):
    """sup of the mean oscillation over all dyadic cubes (a finite exact max)."""
    return bmo_argmax(f).oscillation


def dyadic_maximal_function(f):
    """Pointwise max over dyadic cubes containing x of the average of |f|."""
    n, L, den = f.dim, f.depth, f._den
    asums = f._sums(absolute=True)
    anc = f._ancestors()
    scale = den << (n * L)
    out = []
    for c in range(len(f.cells)):
        best = 0
        for k in range(L + 1):
            t = asums[k][anc[k][c]] << (n * k)
            if t > best:
                best = t
        out.append(Fraction(best, scale))
    return DyadicFunction(n, L, out)


def distribution_above(f, lam, center):
    """Exact measure of the set where f(x) - center > lam."""
    thr = Fraction(center) + Fraction(lam)
    den = f._den
    p, q = thr.numerator, thr.denominator
    count = sum(1 for a in f._nums if a * q > p * den)
    return Fraction(count, len(f.cells))
