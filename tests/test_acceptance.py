"""Acceptance criteria at desk scale.

Each test exercises one criterion over >= 1000 random functions (sizes
n in {1,2,3}, depth up to 6 for n=1 and up to 4 for n=3) and prints one
PASS line; tolerances are pinned in the assertions, exact comparisons carry
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

import pytest

from dyadicbmo import (DyadicFunction, GeneratorSpec, SearchConfig,
                       bmo_dyadic_norm, distribution_above, generate,
                       gr_membership, gr_profile, hardy_average,
                       hardy_gap_check, interval_bmo_norm,
                       interval_mean_oscillation, jn_abs_check, jn_check,
                       logbound_check, lq_tail_bound, maximal_level_set,
                       mean_oscillation, one_sided_oscillation, ratio_objective,
                       rearrange_abs, rearrange_signed, search, solve_p,
                       stopping_family, supinf_formula, theorem3_check,
                       theorem4_bound, theorem5_check, value_mass_distribution,
                       verify_stopping)
from conftest import corpus, matched_mean_b_oracle, random_cube

TOL_LOOSE = Fraction(1, 10 ** 9)

COUNT = 1000


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def signed_corpus():
    return corpus(101, COUNT)


@pytest.fixture(scope="session")
def nonneg_corpus():
    return corpus(202, COUNT, nonneg=True)


@pytest.fixture(scope="session")
def centered_corpus(signed_corpus):
    return [f.shifted(-f.mean) for f in signed_corpus]


@pytest.fixture(scope="session")
def cascade_corpus():
    return [generate(GeneratorSpec(kind="cascade-gr", dim=2, depth=2,
                                   seed=s, target_eps=Fraction(1, 8)))
            for s in range(40)]


def test_criterion_01_oscillation_identity(signed_corpus):
    rng = random.Random(11)
    pairs = 0
    for f in signed_corpus:
        q = random_cube(rng, f)
        rep = mean_oscillation(f, q)
        assert one_sided_oscillation(f, q, "above") == rep.oscillation
        assert one_sided_oscillation(f, q, "below") == rep.oscillation
        pairs += 1
    # densify with every cube of the small functions
    for f in signed_corpus[:120]:
        if len(f.cells) > 64:
            continue
        from dyadicbmo import every_cube
        for q in every_cube(f):
            rep = mean_oscillation(f, q)
            assert one_sided_oscillation(f, q, "above") == rep.oscillation
            assert one_sided_oscillation(f, q, "below") == rep.oscillation
            pairs += 1
    assert pairs >= 1000
    _report(1, "two-sided oscillation identity, exact", f"{pairs} (f,Q) pairs")


def test_criterion_02_rearrangement_norm_bound(signed_corpus):
    for f in signed_corpus:
        bound = interval_bmo_norm(rearrange_signed(f), tol=1e-9)
        cap = (1 << f.dim) * bmo_dyadic_norm(f)
        assert bound.lower <= cap                       # exact
        assert Fraction(bound.upper) <= cap + TOL_LOOSE
    _report(2, "rearrangement norm within 2^n of the dyadic norm",
            f"{len(signed_corpus)} functions, certified two-sided")


def test_criterion_03_exponential_distribution(signed_corpus, nonneg_corpus):
    checked = 0
    for f in signed_corpus:
        spread = max(f.cells) - min(f.cells)
        if spread == 0:
            assert distribution_above(f, 1, f.mean) == 0
            continue
        for i in range(1, 33):
            lam = 2 * spread * Fraction(i, 32)
            measure, bound = jn_check(f, lam)
            assert Fraction(measure) <= Fraction(bound)
            checked += 1
    for f in nonneg_corpus[:250]:
        spread = max(f.cells) - min(f.cells)
        if spread == 0:
            continue
        for i in range(1, 33, 2):
            lam = 2 * spread * Fraction(i, 32)
            measure, bound = jn_abs_check(f, lam)
            assert Fraction(measure) <= Fraction(bound)
            checked += 1
    _report(3, "exponential distribution bound on 32-point grids",
            f"{checked} (f,lambda) checks incl. two-sided variant")


def test_criterion_04_log_rearrangement_bound(centered_corpus):
    checked = 0
    for f in centered_corpus:
        assert f.mean == 0
        gd = rearrange_signed(f)
        for t in gd.breakpoints[1:]:
            lhs, rhs = logbound_check(f, t)
            assert Fraction(lhs) <= Fraction(rhs)
            checked += 1
    _report(4, "logarithmic bound at every rearrangement breakpoint",
            f"{checked} (f,t) checks, mean-centered")


def test_criterion_05_stopping_invariants(signed_corpus):
    rng = random.Random(55)
    families = 0
    for f in signed_corpus:
        span = max(f.cells) - min(f.cells)
        alphas_above = [f.mean + span * Fraction(j, 4) for j in range(3)]
        for alpha in alphas_above:
            d = stopping_family(f, alpha, "above")
            rep = verify_stopping(d, f)
            assert rep.passed, rep.failures
            for i, a in enumerate(d.stopping_cubes):
                for b in d.stopping_cubes[i + 1:]:
                    assert not a.contains(b) and not b.contains(a)
            assert d.measure_E_star <= (1 << f.dim) * d.measure_E
            families += 1
        if span > 0:
            beta = f.mean - span * Fraction(rng.randrange(1, 5), 4)
            d = stopping_family(f, beta, "below")
            assert verify_stopping(d, f).passed
            families += 1
        # |E| <= t at the matched threshold, and level-set agreement
        g = rearrange_signed(f)
        t = Fraction(rng.randrange(1, 9), 8)
        d = stopping_family(f, hardy_average(g, t), "above")
        assert d.measure_E <= t
        h = f if f.is_nonnegative else f.abs()
        alpha = h.mean + (max(h.cells) - h.mean) * Fraction(rng.randrange(3), 2)
        assert maximal_level_set(h, alpha) \
            == stopping_family(h, alpha, "above").measure_E
    _report(5, "stopping-family structure, cover measure, level sets, exact",
            f"{families} decompositions across {len(signed_corpus)} functions")


def test_criterion_06_rearrangement_modulus_bound(nonneg_corpus):
    checked = 0
    for f in nonneg_corpus:
        if f.is_constant and f.cells[0] == 0:
            continue
        profile = gr_profile(f)
        total = len(f.cells)
        for k in range(1, total + 1):
            lhs, rhs = theorem3_check(f, Fraction(k, total), profile=profile)
            assert lhs <= rhs                            # exact vs exact
            checked += 1
    _report(6, "modulus bound at every cell-aligned t, exact",
            f"{checked} (f,t) checks")


def test_criterion_07_exponential_hardy_bound(nonneg_corpus):
    checked = 0
    for f in nonneg_corpus:
        if f.is_constant and f.cells[0] == 0:
            continue
        profile = gr_profile(f)
        top = Fraction(1, 8 * (1 << f.dim))   # inside (0, 1/(2^n e^2)]
        for j in (1, 3, 5, 8):
            res = theorem4_bound(f, top * Fraction(j, 8), profile=profile)
            assert Fraction(res.lhs) <= Fraction(res.rhs)
            checked += 1
    _report(7, "exponential integral bound on the validity range",
            f"{checked} (f,t) checks, upward-rounded transcendentals")


def test_criterion_08_power_decay_and_tail(cascade_corpus):
    sol = solve_p(Fraction(1, 4), 1)
    assert abs(sol.p - 2) < 1e-12 and sol.residual <= 1e-12
    sol = solve_p(Fraction(4, 27), 1)
    assert abs(sol.p - 3) < 1e-12 and sol.residual <= 1e-12
    checked = 0
    for f in cascade_corpus:
        eps = gr_membership(f)
        assert eps <= Fraction(1, 8)
        total = len(f.cells)
        for k in range(1, total + 1, 2):
            lhs, rhs = theorem5_check(f, Fraction(k, total))
            assert Fraction(lhs) <= Fraction(rhs)
            checked += 1
        for q in (1.0, 1.5):
            lq, bound = lq_tail_bound(f, q)
            assert Fraction(lq) <= Fraction(bound)
            checked += 1
    _report(8, "exponent equation checkpoints, power decay, L^q tails",
            f"p=2 and p=3 exact; {checked} bound checks on cascades")


def test_criterion_09_rearrangement_oracles(signed_corpus):
    checked = 0
    for f in signed_corpus:
        g = rearrange_signed(f)
        assert value_mass_distribution(f) == value_mass_distribution(g)
        assert g.is_nonincreasing
        assert g.integral == f.mean
        h = rearrange_abs(f)
        assert value_mass_distribution(f.abs()) == value_mass_distribution(h)
        total = len(f.cells)
        step = max(1, total // 64)
        for k in range(step, total + 1, step):
            t = Fraction(k, total)
            assert supinf_formula(f, t) == h.value_at(t)
            checked += 1
        if f.is_nonnegative:
            assert g == h
    _report(9, "equimeasurability, sup-inf agreement, nonneg identity, exact",
            f"{len(signed_corpus)} functions, {checked} sup-inf points")


def test_criterion_10_monotone_window_lemmas(signed_corpus):
    gap_checks = 0
    rng = random.Random(77)
    for f in signed_corpus:
        g = rearrange_signed(f)
        t = Fraction(rng.randrange(1, 17), 16)
        gamma = 1 + Fraction(rng.randrange(1, 25), 8)
        lhs, rhs = hardy_gap_check(g, t, gamma)
        assert lhs <= rhs
        gap_checks += 1
    assert gap_checks >= 1000

    window_checks = 0
    for f in signed_corpus:
        g = rearrange_signed(f)
        mu = g.integral
        base = interval_mean_oscillation(g, 0, 1)
        for a in (Fraction(1, 16), Fraction(1, 5), Fraction(1, 3),
                  Fraction(1, 2)):
            b = matched_mean_b_oracle(g, a, mu)
            if b is None:
                continue
            assert (g.integral_to(b) - g.integral_to(a)) == mu * (b - a)
            assert interval_mean_oscillation(g, a, b) <= base
            window_checks += 1
    assert window_checks >= 1000
    _report(10, "monotone window lemmas, exact",
            f"{gap_checks} gap instances, {window_checks} matched-mean windows")


def test_criterion_11_search_contract():
    cfg = SearchConfig(dim=1, depth=2, restarts=2, iterations=60, seed=21)
    first, second = search(cfg), search(cfg)
    assert first.best_function == second.best_function
    assert first.trace == second.trace
    assert first.best_score <= 2.0

    ratios = []
    for cells in ((0, 1), (1, 0)):
        ratios.append(ratio_objective(DyadicFunction(1, 1, cells)))
    assert ratios == [1.0, 1.0]
    exhaustive = search(SearchConfig(dim=1, depth=1, restarts=2, iterations=40,
                                     seed=2, denom_bits=1))
    assert exhaustive.best_score_exact == 1
    _report(11, "search determinism, hard cap, exhaustive binary case",
            "identical traces; ratio == 1 at n=1, L=1")
