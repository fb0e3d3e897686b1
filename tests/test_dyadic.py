"""Core grid operations against first-principles oracles."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadicbmo.dyadic as dyadic_mod
from dyadicbmo import (DyadicCubeId, DyadicFunction, InputError, bmo_argmax,
                       bmo_dyadic_norm, cube_average, distribution_above,
                       dyadic_maximal_function, every_cube, mean_oscillation,
                       one_sided_oscillation)
from dyadicbmo.dyadic import MAX_GRID_BITS, _norm_level
from conftest import (all_cubes_oracle, average_oracle, bmo_norm_oracle,
                      cube_cells_oracle, maximal_oracle, oscillation_oracle,
                      random_cube, random_function)

Q0_1D = DyadicCubeId.root(1)


class TestCubeAverage:
    def test_full_cube(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert average_oracle(f, Q0_1D) == 1
        assert cube_average(f, Q0_1D) == 1

    def test_single_cell_identity(self):
        f = DyadicFunction(1, 2, [Fraction(3, 7), 2, -1, Fraction(1, 3)])
        q = DyadicCubeId(2, (3,))
        assert cube_average(f, q) == Fraction(1, 3)

    def test_2d(self):
        f = DyadicFunction(2, 1, [1, 1, 1, 0])
        q = DyadicCubeId.root(2)
        assert average_oracle(f, q) == Fraction(3, 4)
        assert cube_average(f, q) == Fraction(3, 4)

    def test_rejects_deep_cube(self):
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            cube_average(f, DyadicCubeId(2, (0,)))

    def test_rejects_bad_index(self):
        with pytest.raises(InputError):
            DyadicCubeId(1, (2,))
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            cube_average(f, DyadicCubeId(1, (0, 0)))

    def test_unchecked_cube_equals_validated(self):
        # the kernel's unchecked cubes compare, hash and behave like
        # validated ones; only the public constructor checks the range
        q = DyadicCubeId._exact(2, (3, 1))
        assert q == DyadicCubeId(2, (3, 1))
        assert hash(q) == hash(DyadicCubeId(2, (3, 1)))
        assert q.father() == DyadicCubeId(1, (1, 0))
        assert q.morton() == DyadicCubeId(2, (3, 1)).morton()
        with pytest.raises(InputError):
            DyadicCubeId(2, (4, 1))

    def test_matches_oracle_randomized(self, rng):
        for _ in range(200):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            q = random_cube(rng, f)
            assert cube_average(f, q) == average_oracle(f, q)


class TestMeanOscillation:
    def test_two_cells(self):
        f = DyadicFunction(1, 1, [1, 0])
        rep = mean_oscillation(f, Q0_1D)
        assert rep.oscillation == Fraction(1, 2)
        assert rep.average == Fraction(1, 2)

    def test_constant_is_zero(self):
        f = DyadicFunction(2, 2, [Fraction(5, 3)] * 16)
        for q in every_cube(f):
            assert mean_oscillation(f, q).oscillation == 0

    def test_2d(self):
        f = DyadicFunction(2, 1, [1, 1, 1, 0])
        assert mean_oscillation(f, DyadicCubeId.root(2)).oscillation == Fraction(3, 8)

    def test_zero_iff_constant_on_cube(self, rng):
        for _ in range(100):
            f = random_function(rng, 1, 3, denom_bits=1)
            for q in every_cube(f):
                rep = mean_oscillation(f, q)
                cells = [f.cells[c] for c in f.cell_indices(q)]
                assert (rep.oscillation == 0) == (len(set(cells)) == 1)


class TestOneSided:
    def test_above_equals_oscillation(self):
        f = DyadicFunction(1, 1, [1, 0])
        assert one_sided_oscillation(f, Q0_1D, "above") == Fraction(1, 2)

    def test_below_example(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert one_sided_oscillation(f, Q0_1D, "below") == Fraction(3, 2)

    def test_constant_zero_both(self):
        f = DyadicFunction(1, 1, [3, 3])
        assert one_sided_oscillation(f, Q0_1D, "above") == 0
        assert one_sided_oscillation(f, Q0_1D, "below") == 0

    def test_identity_randomized(self):
        # both one-sided forms equal the mean oscillation, exactly
        rng = random.Random(1)
        checks = 0
        while checks < 1000:
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            q = random_cube(rng, f)
            rep = mean_oscillation(f, q)
            assert one_sided_oscillation(f, q, "above") == rep.oscillation
            assert one_sided_oscillation(f, q, "below") == rep.oscillation
            checks += 1

    def test_rejects_bad_side(self):
        f = DyadicFunction(1, 1, [1, 0])
        with pytest.raises(InputError):
            one_sided_oscillation(f, Q0_1D, "sideways")


class TestBMONorm:
    def test_two_cells(self):
        assert bmo_dyadic_norm(DyadicFunction(1, 1, [1, 0])) == Fraction(1, 2)

    def test_constant(self):
        assert bmo_dyadic_norm(DyadicFunction(1, 2, [7] * 4)) == 0

    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        rep = bmo_argmax(f)
        assert rep.oscillation == 2
        assert rep.cube == DyadicCubeId(1, (0,))

    def test_tie_across_levels_keeps_earliest(self):
        # oscillation 1 on the right half (level 1) and on both of its
        # children (level 2); the whole interval has 1/2
        f = DyadicFunction(1, 3, [1, 1, 1, 1, 0, 2, 0, 2])
        assert [mean_oscillation(f, DyadicCubeId(k, (i,))).oscillation
                for k, i in ((0, 0), (1, 1), (2, 2), (2, 3))] == [
                    Fraction(1, 2), 1, 1, 1]
        rep = bmo_argmax(f)
        assert rep.oscillation == 1
        assert rep.cube == DyadicCubeId(1, (1,))
        assert rep.average == 1

    def test_matches_enumeration_oracle(self, rng):
        # 0/1-valued functions tie on many cubes: the witness is the lowest
        # (level, flat index) cube attaining the norm
        zero_one = [DyadicFunction(n, depth, [rng.randrange(2)
                                              for _ in range(1 << (n * depth))])
                    for n, depth in [(1, 4), (2, 2), (3, 1), (3, 2)] * 10]
        randoms = [random_function(rng, rng.choice([1, 2]), rng.randrange(3))
                   for _ in range(120)]
        for f in zero_one + randoms:
            norm = bmo_norm_oracle(f)
            rep = bmo_argmax(f)
            assert rep.oscillation == norm
            assert rep.cube == min(
                (q for q in all_cubes_oracle(f) if oscillation_oracle(f, q) == norm),
                key=lambda q: (q.level, q.flat()))
            assert rep.average == average_oracle(f, rep.cube)

    def test_shift_invariance_and_scaling(self, rng):
        for _ in range(60):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            c = Fraction(rng.randrange(-20, 20), 7)
            assert bmo_dyadic_norm(f.shifted(c)) == bmo_dyadic_norm(f)
            s = Fraction(rng.randrange(1, 12), 5)
            assert bmo_dyadic_norm(f.scaled(s)) == s * bmo_dyadic_norm(f)

    def test_shift_carries_the_argmax(self, rng):
        for _ in range(60):
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            c = Fraction(rng.randrange(-20, 20), rng.choice([1, 3, 7]))
            bmo_argmax(f)
            carried = bmo_argmax(f.shifted(c))
            fresh = bmo_argmax(DyadicFunction(f.dim, f.depth, [v + c for v in f.cells]))
            assert carried == fresh

    def test_bounded_by_twice_max(self, rng):
        for _ in range(60):
            f = random_function(rng, 1, 3)
            assert bmo_dyadic_norm(f) <= 2 * max(abs(v) for v in f.cells)


class TestMaximalFunction:
    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert dyadic_maximal_function(f).cells == (4, 2, 1, 1)

    def test_two_cells(self):
        f = DyadicFunction(1, 1, [1, 0])
        assert dyadic_maximal_function(f).cells == (1, Fraction(1, 2))

    def test_constant(self):
        f = DyadicFunction(2, 1, [3, 3, 3, 3])
        assert dyadic_maximal_function(f).cells == (3, 3, 3, 3)

    def test_matches_ancestor_oracle(self, rng):
        for _ in range(100):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            assert list(dyadic_maximal_function(f).cells) == maximal_oracle(f)

    def test_dominates_abs_pointwise(self, rng):
        # the deepest cube containing a point is its own cell
        for _ in range(60):
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            m = dyadic_maximal_function(f)
            assert all(mv >= abs(v) for mv, v in zip(m.cells, f.cells))


class TestDistribution:
    def test_spike(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert distribution_above(f, 2, 1) == Fraction(1, 4)

    def test_empty(self):
        f = DyadicFunction(1, 2, [4, 0, 0, 0])
        assert distribution_above(f, 3, 1) == 0
        assert distribution_above(f, 100, 0) == 0

    def test_half(self):
        f = DyadicFunction(1, 1, [1, 0])
        assert distribution_above(f, Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)

    def test_counting_oracle(self, rng):
        for _ in range(100):
            f = random_function(rng, rng.choice([1, 2]), rng.randrange(3))
            lam = Fraction(rng.randrange(1, 30), 4)
            center = Fraction(rng.randrange(-8, 8), 3)
            expect = Fraction(sum(1 for v in f.cells if v - center > lam),
                              len(f.cells))
            assert distribution_above(f, lam, center) == expect


class TestCubeIds:
    def test_father_child_roundtrip(self):
        q = DyadicCubeId(3, (5, 2))
        assert all(c.father() == q for c in q.children())

    def test_morton_addresses(self):
        # children of the cube at Morton address z are (z << n) + d, d in the
        # order children() yields them, and each level's addresses are 0..2^(nk)-1
        for n, depth in [(1, 4), (2, 3), (3, 2)]:
            f = DyadicFunction(n, depth, [0] * (1 << (n * depth)))
            for k in range(depth + 1):
                cubes = [q for q in every_cube(f) if q.level == k]
                assert sorted(q.morton() for q in cubes) == list(range(len(cubes)))
                for q in cubes:
                    z = q.morton()
                    assert f._cubes([(k, z)]) == (q,)
                    if k < depth:
                        assert [c.morton() for c in q.children()] == \
                            [(z << n) + d for d in range(1 << n)]

    def test_cubes_in_public_order(self, rng):
        # (level, Morton address) pairs in any order come back as the cubes
        # they address, sorted by (level, flat index)
        for n, depth in [(1, 5), (2, 3), (3, 2)]:
            f = DyadicFunction(n, depth, [0] * (1 << (n * depth)))
            by_address = {(q.level, q.morton()): q for q in every_cube(f)}
            pairs = list(by_address)
            for size in (0, 1, 7, len(pairs) // 2, len(pairs)):
                picked = rng.sample(pairs, size)
                assert f._cubes(picked) == tuple(sorted(
                    (by_address[p] for p in picked),
                    key=lambda q: (q.level, q.flat())))

    def test_root_has_no_father(self):
        with pytest.raises(InputError):
            DyadicCubeId.root(2).father()

    def test_containment(self):
        top = DyadicCubeId(1, (1,))
        assert top.contains(DyadicCubeId(2, (2,)))
        assert top.contains(DyadicCubeId(2, (3,)))
        assert not top.contains(DyadicCubeId(2, (1,)))
        assert not top.contains(DyadicCubeId(0, (0,)))

    def test_measure_and_side(self):
        q = DyadicCubeId(2, (1, 3))
        assert q.side == Fraction(1, 4)
        assert q.measure == Fraction(1, 16)

    def test_support(self):
        assert DyadicCubeId(2, (1, 3)).support() == (
            (Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1)))
        assert Q0_1D.support() == ((0, 1),)

    def test_function_repr(self):
        assert repr(DyadicFunction(2, 1, [1, 2, 3, 4])) == \
            "DyadicFunction(n=2, L=1, cells=4)"

    def test_cell_count_per_level(self):
        for n, depth in [(1, 4), (2, 3), (3, 2)]:
            f = DyadicFunction(n, depth, list(range(1 << (n * depth))))
            for q in every_cube(f):
                cells = list(f.cell_indices(q))
                assert len(cells) == 1 << (n * (depth - q.level))
                assert set(cells) == set(cube_cells_oracle(f, q))

    def test_bad_cell_count_rejected(self):
        with pytest.raises(InputError):
            DyadicFunction(2, 1, [1, 2, 3])
        # over the 2^20-cell cap: rejected before the grid size is computed
        with pytest.raises(InputError, match="at most 2"):
            DyadicFunction(3, 7, [])


class TestAbs:
    def test_abs_built_once_and_shared(self):
        from dyadicbmo import gr_profile, verify_all
        f = DyadicFunction(1, 2, [-1, 2, 0, -3])
        h = f.abs()
        assert h is f.abs()
        assert h.cells == (1, 2, 0, 3)
        assert h.is_nonnegative and not f.is_nonnegative
        # the |f| suites all read one modulus profile
        verify_all(f, ["remark31", "thm3", "thm4"])
        assert h._cache["gr_profile"] is gr_profile(f.abs())


class TestFromNums:
    """Functions built from Morton numerators equal (and hash as) the same
    function built from public-order Fractions."""

    @staticmethod
    def assert_same(f, cells):
        g = DyadicFunction(f.dim, f.depth, cells)
        assert f == g and hash(f) == hash(g)
        assert (f._den, f._nums) == (g._den, g._nums)
        assert f.cells == tuple(cells)

    def test_non_reduced_numerators(self):
        # n=2, L=1: Morton addresses 0, 1, 2, 3 are public cells 0, 2, 1, 3
        f = DyadicFunction._from_nums(2, 1, 12, [6, -4, 0, 18])
        assert f._den == 6 and f._nums == (3, -2, 0, 9)
        self.assert_same(f, [Fraction(1, 2), 0, Fraction(-1, 3), Fraction(3, 2)])
        self.assert_same(DyadicFunction._from_nums(1, 1, 4, [0, 0]), [0, 0])

    def test_derived_functions(self, rng):
        for _ in range(60):
            f = random_function(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            self.assert_same(f.abs(), [abs(v) for v in f.cells])
            self.assert_same(f.shifted(c), [v + c for v in f.cells])
            self.assert_same(f.scaled(c), [c * v for v in f.cells])
            self.assert_same(f.scaled(0), [0] * len(f.cells))
            self.assert_same(dyadic_maximal_function(f), maximal_oracle(f))


# -- Morton addresses by table ---------------------------------------------------

def morton_loop_oracle(q):
    """One bit at a time: level digits from the root, coordinate 0 highest."""
    z = 0
    for b in range(q.level - 1, -1, -1):
        for i in q.index:
            z = (z << 1) | ((i >> b) & 1)
    return z


@st.composite
def grid_cubes(draw):
    """A cube of dimension 1..4 at any level a grid may have, its indices
    often at the ends of their range (all-zero, all-one bits)."""
    n = draw(st.integers(1, 4))
    level = draw(st.integers(0, MAX_GRID_BITS // n))
    top = (1 << level) - 1
    coord = st.one_of(st.integers(0, top), st.sampled_from((0, top, top >> 1)))
    return DyadicCubeId(level, tuple(draw(coord) for _ in range(n)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(grid_cubes())
def test_morton_table_matches_bit_loop(q):
    z = q.morton()
    assert z == morton_loop_oracle(q)
    assert 0 <= z < 1 << (q.dim * q.level)


@lru_cache(maxsize=None)
def zero_function(n, depth):
    return DyadicFunction(n, depth, [0] * (1 << (n * depth)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_unmorton_round_trips_addresses(data):
    # a cube's Morton address names it back through the function's cell
    # table, on grids of up to 2^12 cells
    n = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(0, 12 // n))
    level = data.draw(st.integers(0, depth))
    top = (1 << level) - 1
    coord = st.one_of(st.integers(0, top), st.sampled_from((0, top, top >> 1)))
    q = DyadicCubeId(level, tuple(data.draw(coord) for _ in range(n)))
    assert zero_function(n, depth)._cubes([(level, q.morton())]) == (q,)


@lru_cache(maxsize=None)
def cubes_by_address(n, depth):
    """Every cube of the grid, built from its flat index, keyed by (level,
    bit-loop Morton address)."""
    return {(k, morton_loop_oracle(q)): q for k in range(depth + 1)
            for q in (DyadicCubeId.from_flat(k, j, n) for j in range(1 << (n * k)))}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_cubes_match_from_flat_ordering(data):
    n = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(0, {1: 8, 2: 4, 3: 3, 4: 2}[n]))
    f = DyadicFunction(n, depth, [0] * (1 << (n * depth)))
    levels = st.integers(0, depth)
    pairs = data.draw(st.lists(levels.flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, (1 << (n * k)) - 1))),
        unique=True, max_size=12))
    by_address = cubes_by_address(n, depth)
    expected = sorted((by_address[p] for p in pairs), key=lambda q: (q.level, q.flat()))
    assert f._cubes(pairs) == tuple(expected)
    assert f._cubes(iter(pairs)) == tuple(expected)


# -- the per-level oscillation kernel ------------------------------------------

def level_pyramids(f):
    """The cache keys of f whose value is a pyramid of per-cube levels: a
    list whose level-k item holds 2^(nk) entries."""
    return sorted(key for key, v in f._cache.items()
                  if isinstance(v, list) and v
                  and all(isinstance(x, (list, tuple)) and len(x) == 1 << (f.dim * k)
                          for k, x in enumerate(v)))


KERNEL_CASES = [(1, 4, [3, -1, 0, 2, 5, 5, -2, 1, 0, 0, 7, -3, 1, 1, 2, 4]),
                (2, 2, [Fraction(k % 5, 3) - 1 for k in range(16)]),
                (3, 2, [(7 * k) % 11 for k in range(64)]),
                (1, 3, [1, 1, 1, 1, 0, 2, 0, 2])]


@pytest.mark.parametrize("n, depth, cells", KERNEL_CASES)
def test_only_the_sum_pyramid_is_kept(n, depth, cells):
    from dyadicbmo import gr_profile, verify_all
    f = DyadicFunction(n, depth, cells)
    bmo_argmax(f)
    gr_profile(f.abs())
    verify_all(f)
    for g in (f, f.abs()):
        assert "osc" not in g._cache
        assert level_pyramids(g) == ["sums"]


@pytest.mark.parametrize("n, depth, cells", KERNEL_CASES)
@pytest.mark.parametrize("profile_first", [False, True])
def test_norm_and_modulus_share_one_pass(monkeypatch, n, depth, cells, profile_first):
    """f >= 0 (|f| for a signed f) builds each oscillation level once for
    the norm and the modulus together, and the witness level once more only
    where n >= 2 and cubes tie for the norm."""
    from dyadicbmo import gr_profile
    built = []
    osc = dyadic_mod._osc_level

    def counted(nums, pyramid, dim, k):
        built.append((nums, k))
        return osc(nums, pyramid, dim, k)

    monkeypatch.setattr(dyadic_mod, "_osc_level", counted)
    h = DyadicFunction(n, depth, cells).abs()
    readers = [bmo_argmax, gr_profile]
    for read in readers[::-1] if profile_first else readers:
        read(h)
    witness, top = _norm_level(h._level_bests()[0], h.dim)
    tied = osc(h._nums, h._sums(), n, witness).count(top) > 1
    rebuilt = [witness] if n >= 2 and tied else []
    assert all(nums is h._nums for nums, _ in built)
    assert sorted(k for _, k in built) == sorted([*range(depth), *rebuilt])


@st.composite
def kernel_functions(draw):
    """n = 1..3, depth 0..3: signed, nonnegative, constant or 0/1 cells,
    the last with many cubes tied for the norm."""
    n, depth = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    size = 1 << (n * depth)
    kind = draw(st.sampled_from(("signed", "nonneg", "constant", "tied")))
    value = st.fractions(-4, 4, max_denominator=6)
    if kind == "constant":
        cells = [draw(value)] * size
    else:
        pool = st.integers(0, 1) if kind == "tied" else value
        cells = draw(st.lists(pool, min_size=size, max_size=size))
        if kind == "nonneg":
            cells = [abs(v) for v in cells]
    return DyadicFunction(n, depth, cells)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kernel_functions(), st.booleans())
def test_level_kernel_matches_oracles(f, profile_first):
    from dyadicbmo import gr_profile
    h = f.abs()
    if profile_first:
        gr_profile(h)
    cubes = sorted(all_cubes_oracle(f), key=lambda q: (q.level, q.flat()))
    norm = bmo_norm_oracle(f)
    witness = next(q for q in cubes if oscillation_oracle(f, q) == norm)
    assert bmo_dyadic_norm(f) == norm
    assert bmo_argmax(f).cube == witness
    assert bmo_argmax(f).average == average_oracle(f, witness)
    k = witness.level
    top = norm * f._den * (1 << 2 * f.dim * (f.depth - k))
    assert _norm_level(f._level_bests()[0], f.dim) == ((k, top) if norm else (0, 0))
    ratios = [(q.level, oscillation_oracle(h, q) / average_oracle(h, q))
              for q in all_cubes_oracle(h) if average_oracle(h, q)]
    profile = gr_profile(h)
    for k in range(h.depth + 1):
        assert profile.value_at_level(k) == max(
            [r for level, r in ratios if level >= k], default=0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_functions())
def test_witness_rebuilds_a_level_only_for_ties_in_two_or_more_dimensions(f):
    """After the pass, bmo_argmax builds no level for n = 1 (Morton order is
    flat order there) or a unique top, and one where n >= 2 and cubes tie
    for the norm; the witness is the oracle's first tied cube either way."""
    from unittest import mock
    k, top = _norm_level(f._level_bests()[0], f.dim)
    osc = dyadic_mod._osc_level
    tied = top and f.dim >= 2 and osc(f._nums, f._sums(), f.dim, k).count(top) > 1
    with mock.patch.object(dyadic_mod, "_osc_level", side_effect=osc) as built:
        report = bmo_argmax(f)
    assert [c.args[3] for c in built.call_args_list] == ([k] if tied else [])
    norm = bmo_norm_oracle(f)
    cubes = sorted(all_cubes_oracle(f), key=lambda q: (q.level, q.flat()))
    assert report.cube == next(q for q in cubes if oscillation_oracle(f, q) == norm)
    assert report.oscillation == norm
