"""Exact piecewise-constant functions on the dyadic grid of [0,1]^n.

A function is stored as its cell values on the level-L grid, every cell a
half-open box prod_m (i_m 2^-L, (i_m+1) 2^-L], as integer numerators over
their least common denominator.  All derived quantities are exact
rationals computed on those integers; no floating point enters this module.

Every cell and cube is addressed in Morton (Z-) order: a level-k
cube's address z is its path of child digits from the root, each digit the
child's position in product((0, 1), repeat=n) (the order of
DyadicCubeId.children()).  A cube is then the contiguous slice
[z << n(L-k), (z+1) << n(L-k)) of the level-L cells, its children are
(z << n) + d and a cell's level-k ancestor is z >> n(L-k).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, product
from math import gcd, lcm
from operator import gt

from .errors import InputError

Rational = Fraction

# Largest dim * depth accepted anywhere: grids have at most 2^20 cells.
MAX_GRID_BITS = 20


def _encode(index, level):
    """Flat cell index: first coordinate fastest (little-endian)."""
    return sum(index[m] << (m * level) for m in range(len(index)))


def _decode(flat, level, dim):
    mask = (1 << level) - 1
    return tuple([(flat >> (m * level)) & mask for m in range(dim)])


@lru_cache(maxsize=16)
def _morton_order(dim, depth):
    """Public flat index of the level-`depth` cell at each Morton address,
    the map between a grid's cell layouts.  The level-k digit of an address
    holds bit depth-k of every coordinate index.
    """
    order = [0]
    for k in range(1, depth + 1):
        offsets = [sum(b << (m * depth + depth - k) for m, b in enumerate(delta))
                   for delta in product((0, 1), repeat=dim)]
        order = [p + o for p in order for o in offsets]
    return tuple(order)


@lru_cache(maxsize=8)
def _spread(dim):
    """Each byte b < 256 with its bit j moved to bit j * dim: the places
    one coordinate's bits take in a Morton address of dimension dim."""
    return tuple(sum(((b >> j) & 1) << (j * dim) for j in range(8)) for b in range(256))


def check_grid_size(dim, depth):
    """InputError unless an n=dim, L=depth grid has at most 2^MAX_GRID_BITS
    cells and n <= MAX_GRID_BITS (a cube has 2^n children)."""
    if dim > MAX_GRID_BITS:
        raise InputError(
            f"dimension n={dim} is not supported; at most n={MAX_GRID_BITS} is")
    if dim * depth > MAX_GRID_BITS:
        raise InputError(
            f"grid of n={dim}, L={depth} has 2^{dim * depth} cells; "
            f"at most 2^{MAX_GRID_BITS} are supported")


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

    @classmethod
    def _exact(cls, level, index):
        """Unchecked: the cube at level and index tuple, for cubes derived
        from a function's grid, whose range the kernel guarantees."""
        q = object.__new__(cls)
        object.__setattr__(q, "level", level)
        object.__setattr__(q, "index", index)
        return q

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

    def morton(self):
        """Morton address: one n-bit digit per level from the root, the bit
        of coordinate 0 highest in each digit.  For n = 1 it is the index;
        otherwise each coordinate is spread a byte at a time by table, then
        shifted to its place in the digits, once per cube."""
        if len(self.index) == 1:
            return self.index[0]
        z = self.__dict__.get("_morton")
        if z is not None:
            return z
        spread, step = _spread(len(self.index)), 8 * len(self.index)
        z = 0
        for i in self.index:
            s = spread[i & 255]
            shift = step
            i >>= 8
            while i:
                s |= spread[i & 255] << shift
                i >>= 8
                shift += step
            z = (z << 1) | s
        object.__setattr__(self, "_morton", z)
        return z

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


# -- the per-level kernel, on bare Morton-order numerators -------------------

def _sum_pyramid(nums, dim, depth):
    """Per-level lists of cube numerator sums, level 0 first and nums
    itself last, Morton order: each sum adds a block of 2^n consecutive
    neighbours one level down."""
    block = 1 << dim
    level, pyramid = nums, [nums]
    for _ in range(depth):
        level = list(map(sum, zip(*[iter(level)] * block)))
        pyramid.append(level)
    pyramid.reverse()
    return pyramid


def _osc_level(nums, pyramid, dim, k):
    """Level k < L of the oscillation numerators of the numerators nums
    with sum pyramid pyramid: osc[z] = sum of |cnt * num - sums[k][z]| over
    the cells of cube z, cnt = 2^(n(L-k)), its mean oscillation times
    den * cnt^2."""
    cnt = 1 << (dim * (len(pyramid) - 1 - k))
    return [sum([abs(a * cnt - s) for a in nums[z * cnt:(z + 1) * cnt]])
            for z, s in enumerate(pyramid[k])]


def _level_pass(nums, pyramid, dim, nonneg):
    """(tops, ratios, firsts) from the levels _osc_level builds on the
    numerators nums with sum pyramid pyramid: per level k < L, tops[k] the
    largest oscillation numerator, firsts[k] the Morton address of the
    first cube attaining it, or None where for n >= 2 another cube ties
    it, and, for nonneg (f >= 0) only, ratios[k] the (o, s) of the largest
    ratio o / s of a cube's oscillation numerator to its sum (the first of
    ties; (0, 1) where every o is 0).  Builds each level once and keeps
    none; level L is skipped, its cubes single cells with oscillation 0."""
    tops, ratios, firsts = [], [], []
    for k, sums in enumerate(pyramid[:-1]):
        level = _osc_level(nums, pyramid, dim, k)
        top = max(level)
        tops.append(top)
        # Morton order is flat order for n = 1 only
        firsts.append(level.index(top)
                      if dim == 1 or level.count(top) == 1 else None)
        if nonneg:  # s = 0 means f vanishes on the cube, o = 0
            bo, bs = 0, 1
            for o, s in zip(level, sums):
                if o * bs > bo * s:
                    bo, bs = o, s
            ratios.append((bo, bs))
    return tops, ratios, firsts


def _norm_level(tops, dim):
    """(k, top): the first level k whose largest mean oscillation is the
    norm, and that largest oscillation numerator tops[k] (tops as
    _level_pass gives them), so the norm is top / (den * 4^(n(L-k)));
    (0, 0) for a constant function.  Level k's best oscillation is
    tops[k] / (den * 4^(n(L-k))), so the levels compare on the integers
    tops[k] << 2nk."""
    keys = [top << 2 * dim * k for k, top in enumerate(tops)]
    if not any(keys):
        return 0, 0
    k = keys.index(max(keys))
    return k, tops[k]


class DyadicFunction:
    """Immutable level-L piecewise-constant function on [0,1]^n.

    The state is dim, depth, _nums (the cell numerators in Morton order)
    and _den (their least common denominator, so the pair is canonical and
    equality reads it).  cells[flat], flat = i_1 + i_2*2^L + ... +
    i_n*2^((n-1)L), is a view built on first read.  Cached: the pyramid of
    cube sums (the one per-cube structure kept), each level's best
    oscillation (_level_bests), and the stopping pairs of each threshold
    met, per direction.
    """

    def __init__(self, dim, depth, cells):
        self._build(dim, depth, cells)

    @classmethod
    def _from_ratios(cls, dim, depth, nums, dens):
        """The function whose cell flat has value nums[flat] / dens[flat],
        each ratio in lowest terms with a positive denominator; checked as
        DyadicFunction(dim, depth, cells) is."""
        f = cls.__new__(cls)
        f._build(dim, depth, nums, dens)
        return f

    def _build(self, dim, depth, nums, dens=None):
        """Check the shape, then store the cells nums[flat] / dens[flat] as
        Morton-order numerators over their least common denominator.  With
        dens None, nums are cell values of any type Fraction takes, read
        after the shape checks."""
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        if depth < 0:
            raise InputError(f"depth must be >= 0, got {depth}")
        check_grid_size(dim, depth)
        if dens is None:
            cells = [Fraction(v) for v in nums]
            nums = [v.numerator for v in cells]
            dens = [v.denominator for v in cells]
        if len(nums) != 1 << (dim * depth):
            raise InputError(
                f"expected {1 << (dim * depth)} cells for n={dim}, L={depth}, "
                f"got {len(nums)}")
        distinct = set(dens)
        den = lcm(*distinct)
        order = _morton_order(dim, depth)
        if den == 1:
            self._nums = tuple(map(nums.__getitem__, order))
        else:
            scale = {q: den // q for q in distinct}
            self._nums = tuple(nums[i] * scale[dens[i]] for i in order)
        self.dim = dim
        self.depth = depth
        self._den = den
        self._cache = {}

    @classmethod
    def _from_nums(cls, dim, depth, den, nums):
        """Unchecked: the function with Morton-order numerators nums over
        den > 0, reduced to lowest terms."""
        g = gcd(den, *nums)
        f = cls.__new__(cls)
        f.dim = dim
        f.depth = depth
        f._den = den // g
        f._nums = tuple(nums) if g == 1 else tuple(a // g for a in nums)
        f._cache = {}
        return f

    @property
    def cells(self):
        """Cell values in public order (first coordinate fastest)."""
        if "cells" not in self._cache:
            den = self._den
            self._cache["cells"] = tuple(self._public(lambda a: Fraction(a, den)))
        return self._cache["cells"]

    def _public(self, convert):
        """[convert(a) for each cell numerator a] in public order, convert
        called once per distinct numerator."""
        out = [None] * len(self._nums)
        memo = {}
        for p, a in zip(_morton_order(self.dim, self.depth), self._nums):
            v = memo.get(a)
            if v is None:
                v = memo[a] = convert(a)
            out[p] = v
        return out

    def __eq__(self, other):
        return (isinstance(other, DyadicFunction)
                and (self.dim, self.depth, self._den, self._nums)
                == (other.dim, other.depth, other._den, other._nums))

    def __hash__(self):
        return hash((self.dim, self.depth, self._den, self._nums))

    def __repr__(self):
        return f"DyadicFunction(n={self.dim}, L={self.depth}, cells={len(self._nums)})"

    # -- integer kernel -----------------------------------------------------

    def _sums(self):
        """The sum pyramid of the cells (_sum_pyramid), over self._den."""
        if "sums" not in self._cache:
            self._cache["sums"] = _sum_pyramid(self._nums, self.dim, self.depth)
        return self._cache["sums"]

    def _level_bests(self):
        """(tops, ratios, firsts) of _level_pass on the cells, made once
        per function, so the norm, its witness and the modulus share it."""
        if "level_bests" not in self._cache:
            self._cache["level_bests"] = _level_pass(
                self._nums, self._sums(), self.dim, self.is_nonnegative)
        return self._cache["level_bests"]

    def _running_max(self, sign):
        """Yield (fathers, R[k]) for k = 0..L, one level at a time; no level
        outlives the pass.  R[k][z] is the largest scaled average A =
        sign * sums[j][z >> n(k-j)] << nj (cube average times
        sign * den * 2^(nL)) over cube z and its ancestors, and fathers[z]
        is R[k-1][z >> n]; the root is its own father.  Each level of A is
        fed lazily from the sum pyramid."""
        n, up = self.dim, None
        for k, sums in enumerate(self._sums()):
            level = (sign * s << n * k for s in sums)
            if up is None:
                level = fathers = list(level)
            else:
                fathers = list(chain.from_iterable(zip(*[up] * (1 << n))))
                level = [v if v > p else p for p, v in zip(fathers, level)]
            yield fathers, level
            up = level

    def _stopping(self, alphas, above):
        """The stopping cubes at each alpha as (level, Morton address) pairs
        in that order: with a = floor(alpha den 2^(nL)), above is A > a and
        below is -A > -a - 1, and a cube stops iff R[father] <= a < R[cube].
        One pass of R serves every threshold not yet memoized: each cube
        where R rises goes to the thresholds in [R[father], R[cube]), found
        by two bisections.  Memoized per direction by scaled threshold.  For
        f >= 0, f is |f|, so the leaf of a pass above is kept as the
        maximal function's, and dyadic_maximal_function walks R no more."""
        shift = self.dim * self.depth
        scaled = [(x.numerator * self._den << shift) // x.denominator for x in alphas]
        if not above:
            scaled = [-a - 1 for a in scaled]
        memo = self._cache.setdefault(("stopping", above), {})
        todo = sorted(set(scaled).difference(memo))
        if todo:
            found = [[] for _ in todo]
            for k, (fathers, level) in enumerate(self._running_max(1 if above else -1)):
                for z in compress(count(), map(gt, level, fathers)):
                    for i in range(bisect_left(todo, fathers[z]),
                                   bisect_left(todo, level[z])):
                        found[i].append((k, z))
            memo.update(zip(todo, found))
            if above and self.is_nonnegative and "maximal" not in self._cache:
                self._cache["maximal_leaf"] = level
        return [memo[a] for a in scaled]

    def _block(self, q):
        """(z, cnt): q's Morton address and cell count; its cells are the
        slice [z * cnt, (z + 1) * cnt) of self._nums."""
        n, k = len(q.index), q.level
        if n != self.dim:
            raise InputError(f"cube dimension {n} != function dimension {self.dim}")
        if k > self.depth:
            raise InputError(f"cube level {k} exceeds function depth {self.depth}")
        return q.morton(), 1 << (n * (self.depth - k))

    def _cubes(self, pairs):
        """The cubes at (level, Morton address) pairs, sorted by (level, flat
        index).  Each is named by its first cell's public index p: a level-k
        cube's first cell has the cube's index shifted left by L - k, so p
        orders the cubes of a level as their flat indices do."""
        n, L = self.dim, self.depth
        order = _morton_order(n, L)
        firsts = sorted((k, order[z << n * (L - k)]) for k, z in pairs)
        return tuple(DyadicCubeId._exact(k, tuple([i >> (L - k)
                                                   for i in _decode(p, L, n)]))
                     for k, p in firsts)

    # -- basic quantities ---------------------------------------------------

    @property
    def mean(self):
        """Average over the whole of [0,1]^n (equals the total integral)."""
        if "mean" not in self._cache:
            self._cache["mean"] = Fraction(sum(self._nums), self._den * len(self._nums))
        return self._cache["mean"]

    def _sorted_nums(self):
        """The numerators in increasing order, sorted once per function."""
        if "sorted" not in self._cache:
            self._cache["sorted"] = sorted(self._nums)
        return self._cache["sorted"]

    def cell_indices(self, q):
        """Flat indices of the level-L cells inside cube q, in Morton order."""
        z, cnt = self._block(q)
        return _morton_order(self.dim, self.depth)[z * cnt:(z + 1) * cnt]

    def scaled(self, c):
        c = Fraction(c)
        return DyadicFunction._from_nums(self.dim, self.depth,
                                         self._den * c.denominator,
                                         [a * c.numerator for a in self._nums])

    def shifted(self, c):
        """f + c.  A BMO argmax already found carries over, its average moved
        by c: a constant changes no oscillation.  So does a signed
        rearrangement, its piece values moved by c."""
        c = Fraction(c)
        q, b = c.denominator, c.numerator * self._den
        g = DyadicFunction._from_nums(self.dim, self.depth, self._den * q,
                                      [a * q + b for a in self._nums])
        if "rearr_signed" in self._cache:
            g._cache["rearr_signed"] = self._cache["rearr_signed"].shifted(c)
        if "bmo" in self._cache:
            r = self._cache["bmo"]
            g._cache["bmo"] = OscillationReport(cube=r.cube, average=r.average + c,
                                                oscillation=r.oscillation)
        return g

    def abs(self):
        """|f|: f itself when f >= 0, else built once per function, so the
        caches of |f| are shared."""
        if self.is_nonnegative:
            return self
        if "abs" not in self._cache:
            self._cache["abs"] = DyadicFunction._from_nums(
                self.dim, self.depth, self._den, [abs(a) for a in self._nums])
        return self._cache["abs"]

    @property
    def is_nonnegative(self):
        if "nonneg" not in self._cache:
            self._cache["nonneg"] = min(self._nums) >= 0
        return self._cache["nonneg"]

    @property
    def is_constant(self):
        if "constant" not in self._cache:
            self._cache["constant"] = min(self._nums) == max(self._nums)
        return self._cache["constant"]


def cube_average(f, q):
    """Exact mean of f over the dyadic cube q."""
    z, cnt = f._block(q)
    return Fraction(f._sums()[q.level][z], f._den * cnt)


def mean_oscillation(f, q):
    """Average of |f - f_Q| over q, with the average f_Q, all exact."""
    z, cnt = f._block(q)
    s = f._sums()[q.level][z]
    osc_num = sum([abs(a * cnt - s) for a in f._nums[z * cnt:(z + 1) * cnt]])
    den = f._den * cnt
    return OscillationReport(q, Fraction(s, den), Fraction(osc_num, den * cnt))


def one_sided_oscillation(f, q, side):
    """(2/|Q|) * integral of (f - f_Q)^+ or (f_Q - f)^-, per the chosen side.

    Both sides equal the full mean oscillation exactly (the positive and
    negative parts of f - f_Q have equal integrals).
    """
    if side not in ("above", "below"):
        raise InputError(f"side must be 'above' or 'below', got {side!r}")
    z, cnt = f._block(q)
    s = f._sums()[q.level][z]
    block = f._nums[z * cnt:(z + 1) * cnt]
    # the cells above (below) the mean: a * cnt > s iff a > floor(s / cnt),
    # a * cnt < s iff a < ceil(s / cnt)
    if side == "above":
        t = s // cnt
        part = [a for a in block if a > t]
        num = cnt * sum(part) - s * len(part)
    else:
        t = -(-s // cnt)
        part = [a for a in block if a < t]
        num = s * len(part) - cnt * sum(part)
    return Fraction(2 * num, f._den * cnt * cnt)


def every_cube(f, max_level=None):
    """All dyadic cubes of level 0..min(L, max_level), shallowest first."""
    top = f.depth if max_level is None else min(max_level, f.depth)
    for k in range(top + 1):
        for j in range(1 << (f.dim * k)):
            yield DyadicCubeId.from_flat(k, j, f.dim)


def _level_ratios(f):
    """Per level k < L of f >= 0, the largest ratio of a level-k cube's
    mean oscillation to its average, exact, from the level pass: with o
    the cube's oscillation numerator, s its sum and cnt = 2^(n(L-k)) its
    cell count, the ratio is o / (s cnt) (0 where every o is 0).  The
    modulus profile is their running max from the deepest level up."""
    n, L = f.dim, f.depth
    return [Fraction(o, s << n * (L - k))
            for k, (o, s) in enumerate(f._level_bests()[1])]


def bmo_argmax(f):
    """Maximal mean oscillation over all dyadic cubes, with its witness cube.

    Cubes strictly below cell resolution carry zero oscillation and are
    excluded; ties resolve to the lowest (level, flat index).  The norm and
    its witness are built once, for the first level that attains the
    largest (_norm_level).  The pass that found it names the witness, but
    for n >= 2 the first of tied cubes in Morton order need not be the
    first by flat index: only then are that level's oscillations rebuilt.
    """
    if "bmo" in f._cache:
        return f._cache["bmo"]
    k, top = _norm_level(f._level_bests()[0], f.dim)
    if not top:
        best, best_cube = Fraction(0), DyadicCubeId.root(f.dim)
    else:
        best = Fraction(top, f._den << 2 * f.dim * (f.depth - k))
        first = f._level_bests()[2][k]
        if first is None:  # tied for n >= 2: the first by flat index
            level = _osc_level(f._nums, f._sums(), f.dim, k)
            best_cube = f._cubes((k, z) for z, o in enumerate(level)
                                 if o == top)[0]
        else:
            best_cube = f._cubes([(k, first)])[0]
    report = OscillationReport(cube=best_cube,
                               average=cube_average(f, best_cube),
                               oscillation=best)
    f._cache["bmo"] = report
    return report


def bmo_dyadic_norm(f):
    """sup of the mean oscillation over all dyadic cubes (a finite exact max)."""
    return bmo_argmax(f).oscillation


def dyadic_maximal_function(f):
    """Pointwise max over dyadic cubes containing x of the average of |f|.

    The leaf level of the running max R of |f| (the one stopping families
    of |f| above a threshold read) over den * 2^(nL); no other level is
    kept.  Cached per function.
    """
    h = f.abs()  # M f = M |f|, cached on |f|
    if "maximal" not in h._cache:
        leaf = h._cache.pop("maximal_leaf", None)  # kept by a pass of _stopping
        if leaf is None:
            for _, leaf in h._running_max(1):
                pass
        n, L = h.dim, h.depth
        h._cache["maximal"] = DyadicFunction._from_nums(n, L, h._den << (n * L), leaf)
    return h._cache["maximal"]


def distribution_above(f, lam, center):
    """Exact measure of the set where f(x) - center > lam.

    The numerators a > thr * den are those above its floor, counted by
    bisection of the sorted numerators.
    """
    thr = Fraction(center) + Fraction(lam)
    nums = f._sorted_nums()
    count = len(nums) - bisect_right(nums, thr.numerator * f._den // thr.denominator)
    return Fraction(count, len(nums))
