"""Modulus profile, exponent equation, and the power/exponential decay bounds."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from dyadicbmo import (DyadicFunction, GeneratorSpec,
                       PreconditionError, generate, gr_membership, gr_modulus,
                       gr_profile, hardy_average, lq_tail_bound, rearrange_abs,
                       sigma_level_for, solve_p, theorem3_check,
                       theorem4_bound, theorem5_check)
from conftest import all_cubes_oracle, average_oracle, oscillation_oracle, random_nonneg

SPIKE = DyadicFunction(1, 2, [4, 0, 0, 0])

# an oracle context independent of the package's, at twice its precision
mp = MPContext()
mp.prec = 320


def modulus_oracle(f, sigma):
    """Enumerate all cubes with side <= sigma; exact ratio max."""
    best = Fraction(0)
    for q in all_cubes_oracle(f):
        if Fraction(1, 1 << q.level) > sigma:
            continue
        avg = average_oracle(f, q)
        if avg == 0:
            continue
        best = max(best, oscillation_oracle(f, q) / avg)
    return best


def bisect_oracle_p(target, lo=1.0 + 1e-9, hi=4.0, steps=200):
    """Float bisection on p ln p - (p-1) ln(p-1) = ln(target)."""
    goal = math.log(target)

    def val(p):
        return p * math.log(p) - (p - 1) * math.log(max(p - 1, 1e-300))

    while val(hi) < goal:
        hi *= 2
    for _ in range(steps):
        mid = (lo + hi) / 2
        if val(mid) < goal:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _oracle_log_target(eps, n):
    return -mp.log(mp.mpf(1 << (n - 1)) * eps.numerator / eps.denominator)


def _oracle_val(p):
    """p ln p - (p-1) ln(p-1) in the 320-bit oracle context, for a float p > 1."""
    p = mp.mpf(p)
    return p * mp.log(p) - (p - 1) * mp.log(p - 1)


class TestModulus:
    def test_spike_profile(self):
        assert gr_modulus(SPIKE, 1) == Fraction(3, 2)
        assert gr_modulus(SPIKE, Fraction(1, 2)) == 1
        assert gr_modulus(SPIKE, Fraction(1, 4)) == 0
        assert gr_modulus(SPIKE, Fraction(1, 8)) == 0

    def test_constant_zero(self):
        f = DyadicFunction(2, 1, [5, 5, 5, 5])
        for sigma in (1, Fraction(1, 2), Fraction(1, 4)):
            assert gr_modulus(f, sigma) == 0

    def test_two_cells(self):
        assert gr_modulus(DyadicFunction(1, 1, [1, 0]), 1) == 1

    def test_membership_examples(self):
        assert gr_membership(SPIKE) == Fraction(3, 2)
        assert gr_membership(DyadicFunction(2, 1, [1, 1, 1, 0])) == Fraction(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            gr_membership(DyadicFunction(1, 1, [1, -1]))

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(100):
            f = random_nonneg(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            prof = gr_profile(f)
            for k in range(f.depth + 2):
                sigma = Fraction(1, 1 << k)
                expect = modulus_oracle(f, sigma)
                assert gr_modulus(f, sigma) == expect
                assert prof.value_at_level(k) == expect

    def test_profile_monotone_and_capped(self, rng):
        for _ in range(120):
            f = random_nonneg(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            prof = gr_profile(f)
            assert all(a <= b for a, b in zip(prof.values, prof.values[1:]))
            assert prof.epsilon_global <= 2
            assert prof.values[0] == 0  # cells are constant

    def test_scale_invariance(self, rng):
        for _ in range(60):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(3))
            c = Fraction(rng.randrange(1, 30), 7)
            for k in range(f.depth + 1):
                sigma = Fraction(1, 1 << k)
                assert gr_modulus(f.scaled(c), sigma) == gr_modulus(f, sigma)

    def test_lookup_at_irrational_side(self, rng):
        # profile lookup at sigma_t equals the direct modulus at the largest
        # dyadic side below min(2 t^(1/n), 1)
        for _ in range(80):
            f = random_nonneg(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            total = len(f.cells)
            t = Fraction(rng.randrange(1, total + 1), total)
            k = sigma_level_for(t, f.dim)
            # verify k against the defining inequality in floats
            side = 0.5 ** k
            sigma_t = min(2 * float(t) ** (1 / f.dim), 1.0)
            assert side <= sigma_t * (1 + 1e-12)
            if k > 0:
                assert 0.5 ** (k - 1) > sigma_t * (1 - 1e-12)
            assert gr_profile(f).value_at_level(k) == gr_modulus(
                f, Fraction(1, 1 << k))


class TestTheorem3:
    def test_spike_values(self):
        assert theorem3_check(SPIKE, Fraction(1, 4)) == (0, 8)
        assert theorem3_check(SPIKE, Fraction(1, 2)) == (2, 6)

    def test_constant(self):
        f = DyadicFunction(1, 1, [3, 3])
        lhs, rhs = theorem3_check(f, Fraction(1, 2))
        assert lhs == 0
        assert rhs == 0

    def test_rejects_zero_function(self):
        with pytest.raises(PreconditionError):
            theorem3_check(DyadicFunction(1, 1, [0, 0]), Fraction(1, 2))

    def test_inequality_all_aligned_t(self, rng):
        for _ in range(150):
            f = random_nonneg(rng, rng.choice([1, 2, 3]), rng.randrange(3))
            if f.is_constant and f.cells[0] == 0:
                continue
            total = len(f.cells)
            for k in range(1, total + 1):
                lhs, rhs = theorem3_check(f, Fraction(k, total))
                assert lhs <= rhs


class TestSolveP:
    def test_checkpoint_p2(self):
        sol = solve_p(Fraction(1, 4), 1)
        assert abs(sol.p - 2) < 1e-12
        assert sol.residual <= 1e-12

    def test_checkpoint_p3(self):
        sol = solve_p(Fraction(4, 27), 1)
        assert abs(sol.p - 3) < 1e-12
        assert sol.residual <= 1e-12

    def test_checkpoint_n2(self):
        sol = solve_p(Fraction(1, 8), 2)
        assert abs(sol.p - 2) < 1e-12

    def test_bracket_example(self):
        sol = solve_p(Fraction(1, 10), 1)
        assert 4.1 < sol.p < 4.3
        assert abs(sol.p - bisect_oracle_p(10.0)) < 1e-9

    def test_matches_float_bisection(self, rng):
        for _ in range(25):
            n = rng.choice([1, 2, 3])
            den = rng.randrange(2 ** n, 200)
            eps = Fraction(1, den)
            if not eps < Fraction(1, 1 << (n - 1)):
                continue
            target = 1 / (2 ** (n - 1) * float(eps))
            sol = solve_p(eps, n)
            assert abs(sol.p - bisect_oracle_p(target)) < 1e-7 * sol.p
            assert sol.residual <= 1e-12

    def test_p_bracketed_from_below(self):
        # at 160 bits, val(p) <= ln(target) for val(p) = p ln p - (p-1) ln(p-1):
        # the float p never exceeds the root, and the next float up reaches it
        for n, eps in ((1, Fraction(1, 4)), (1, Fraction(4, 27)),
                       (2, Fraction(1, 8)), (1, Fraction(1, 10)),
                       (3, Fraction(1, 7)), (2, Fraction(3, 1000)),
                       (1, Fraction(1, 3)), (2, Fraction(49, 100))):
            target_log = mp.log(mp.mpf(1) / (mp.mpf(1 << (n - 1))
                                              * mp.mpf(eps.numerator)
                                              / eps.denominator))

            def val(p):
                p = mp.mpf(p)
                return p * mp.log(p) - (p - 1) * mp.log(p - 1)

            p = solve_p(eps, n).p
            assert val(p) <= target_log
            assert val(math.nextafter(p, math.inf)) >= target_log

    def test_exact_float_roots_give_the_float_below(self):
        # val(root) meets ln(target) exactly, which no interval certifies as
        # below, so p is the float just under the root
        for n, eps, root in ((1, Fraction(1, 4), 2.0), (1, Fraction(4, 27), 3.0),
                             (2, Fraction(1, 8), 2.0)):
            sol = solve_p(eps, n)
            assert sol.p == math.nextafter(root, -math.inf)
            assert not sol.capped

    def test_root_just_below_the_cap(self):
        # roots in (2^19, 1e6) are solved, not capped
        for n, eps in ((1, Fraction(1, 1900000)), (2, Fraction(1, 3000000)),
                       (3, Fraction(1, 10000000))):
            sol = solve_p(eps, n)
            assert 2 ** 19 < sol.p < 1e6
            assert not sol.capped
            log_target = _oracle_log_target(eps, n)
            assert _oracle_val(sol.p) < log_target
            assert _oracle_val(math.nextafter(sol.p, math.inf)) >= log_target

    def test_capped_and_p_one(self):
        sol = solve_p(Fraction(1, 10 ** 12), 1)
        assert sol.p == 1e6 and sol.capped
        eps = 1 - Fraction(1, 10 ** 16)
        sol = solve_p(eps, 1)
        assert sol.p == 1.0 and not sol.capped
        assert sol.residual >= 1 / eps - 1

    def test_monotone_in_eps(self):
        ps = [solve_p(Fraction(1, d), 1).p for d in (3, 5, 9, 17, 33)]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            solve_p(Fraction(1, 2), 2)  # not < 2^(1-n) = 1/2
        with pytest.raises(PreconditionError):
            solve_p(0, 1)
        with pytest.raises(PreconditionError):
            solve_p(Fraction(2), 1)


def _fractions_below_one():
    """x in (0, 1): random ones, and ones near 0 and near 1."""
    return st.one_of(
        st.fractions(0, 1, max_denominator=10 ** 9).filter(lambda x: 0 < x < 1),
        st.integers(1, 40).map(lambda k: Fraction(1, 10 ** k)),
        st.integers(1, 40).map(lambda k: 1 - Fraction(1, 10 ** k)),
        st.tuples(st.integers(1, 10 ** 6), st.integers(0, 12)).map(
            lambda ab: Fraction(ab[0], 10 ** 6 * 10 ** ab[1])))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 4), x=_fractions_below_one())
def test_p_certified_against_oracle(n, x):
    eps = x / (1 << (n - 1))
    sol = solve_p(eps, n)
    log_target = _oracle_log_target(eps, n)
    target = mp.exp(log_target)
    # p lies below the root and the next float up does not, but for the
    # oracle's own rounding (under 2^-290 here) where it meets the root
    if sol.p != 1.0:
        assert _oracle_val(sol.p) < log_target
    if not sol.capped:
        assert 1 <= sol.p < 1e6
        assert _oracle_val(math.nextafter(sol.p, math.inf)) >= log_target - mp.mpf(2) ** -200
    value = 1 if sol.p == 1.0 else mp.exp(_oracle_val(sol.p))
    assert sol.residual >= abs(value - target)
    assert sol.capped == (_oracle_val(1e6) < log_target)


class TestTheorem5:
    def test_constant_limit_case(self):
        f = DyadicFunction(1, 2, [3, 3, 3, 3])
        for t in (Fraction(1, 4), Fraction(1, 2), 1):
            lhs, rhs = theorem5_check(f, t)
            assert lhs == 3
            assert lhs <= rhs

    def test_rejects_large_modulus(self):
        with pytest.raises(PreconditionError):
            theorem5_check(DyadicFunction(1, 1, [1, 0]), Fraction(1, 2))

    def test_cascade_bound(self):
        for seed in range(6):
            f = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2,
                                       seed=seed, target_eps=Fraction(1, 8)))
            total = len(f.cells)
            for k in range(1, total + 1, 3):
                lhs, rhs = theorem5_check(f, Fraction(k, total))
                assert lhs <= rhs


class TestTheorem4:
    def test_spike(self):
        res = theorem4_bound(SPIKE, Fraction(1, 16))
        assert res.lhs == 4
        assert res.rhs > res.c1 > 4
        assert res.c4 == pytest.approx(2 * math.e ** 2, rel=1e-12)
        assert res.c3 == pytest.approx(2 * math.e, rel=1e-12)
        assert res.c2 == pytest.approx(math.e, rel=1e-12)
        assert res.c1 == pytest.approx(2 * math.exp(2 * math.e + 1), rel=1e-12)

    def test_constant(self):
        f = DyadicFunction(2, 1, [2, 2, 2, 2])
        res = theorem4_bound(f, Fraction(1, 64))
        assert res.lhs == 2
        assert res.rhs == pytest.approx(float(res.c1) * 2, rel=1e-9)

    def test_rejects_t_above_threshold(self):
        with pytest.raises(PreconditionError):
            theorem4_bound(SPIKE, Fraction(1, 2))

    def test_inequality_on_grid(self, rng):
        for _ in range(60):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(3))
            if f.is_constant and f.cells[0] == 0:
                continue
            top = Fraction(1, 8 * (1 << f.dim))
            for j in range(1, 9):
                res = theorem4_bound(f, top * Fraction(j, 8))
                assert res.lhs <= res.rhs


class TestLqTail:
    def test_q1_is_mean(self):
        f = DyadicFunction(1, 2, [3, 3, 3, 3])
        lq, bound = lq_tail_bound(f, 1.0)
        assert lq == 3
        assert lq <= bound

    def test_cascade_fractional_q(self):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2, seed=1,
                                   target_eps=Fraction(1, 8)))
        lq, bound = lq_tail_bound(f, 1.5)
        assert lq <= bound

    def test_integer_q_exact(self):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=1, seed=2,
                                   target_eps=Fraction(1, 8)))
        lq, bound = lq_tail_bound(f, 1)
        assert isinstance(lq, Fraction)
        assert lq == f.mean
        assert lq <= bound

    def test_fractional_q_is_a_lower_bound(self):
        # the float lhs must not exceed the sum taken in an independent
        # 300-bit context, and must be within a few ulps of it
        ctx = MPContext()
        ctx.prec = 300
        kinds = set()
        for seed in range(40):
            f = generate(GeneratorSpec(kind="cascade-gr", dim=1 + seed % 2,
                                       depth=4 - seed % 2, seed=seed,
                                       target_eps=Fraction(1, 8)))
            p = solve_p(gr_membership(f), f.dim).p
            for q in (1.5, 1 + (p - 1) / 2):
                lq, _ = lq_tail_bound(f, q)
                exact = ctx.fsum(ctx.power(ctx.mpf(v.numerator) / v.denominator, q)
                                 for v in f.cells) / len(f.cells)
                assert ctx.mpf(lq) <= exact
                assert exact - ctx.mpf(lq) <= exact * 1e-15
                kinds.add(type(lq))
        assert kinds == {float}

    def test_rejects_q_at_p(self):
        f = generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2, seed=3,
                                   target_eps=Fraction(1, 8)))
        p = solve_p(gr_membership(f), 2).p
        with pytest.raises(PreconditionError):
            lq_tail_bound(f, p)

    def test_fstar_below_hardy(self, rng):
        # the rearrangement never exceeds its own running average
        for _ in range(60):
            f = random_nonneg(rng, rng.choice([1, 2]), rng.randrange(3))
            g = rearrange_abs(f)
            for k in range(1, len(f.cells) + 1):
                t = Fraction(k, len(f.cells))
                assert g.value_at(t) <= hardy_average(g, t)


def test_import_leaves_mpmath_precision_alone():
    import dyadicbmo
    src = os.path.dirname(os.path.dirname(dyadicbmo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import mpmath, dyadicbmo; "
            "print(mpmath.mp.prec, mpmath.iv.prec)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["53", "53"]
