"""Interval bounds on raw mpmath tuples against the interval-context oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_lt, to_rational

from dyadicbmo import (DyadicFunction, GeneratorSpec, PreconditionError,
                       bmo_dyadic_norm, generate, gr_membership, jn_abs_check,
                       jn_check, logbound_check, lq_tail_bound, solve_p,
                       theorem4_bound, theorem5_check)
from dyadicbmo.gurov import P_CAP
from dyadicbmo.highprec import (IV_E, iv_from_fraction, iv_int, iv_max, iv_min,
                                lower_float, midpoint_float, upper_float)
from conftest import (IV_E as ORACLE_E, exp_bound_oracle, iv, iv_fraction_oracle,
                      logbound_oracle, lq_oracle, theorem4_oracle, theorem5_oracle)

WIDE = [2 ** 160 + 1, 2 ** 200 + 3, 3 ** 150, -(3 ** 150), 7 ** 85 + 1]


class TestTuples:
    def test_e_matches_context(self):
        assert IV_E == ORACLE_E._mpi_
        assert upper_float(IV_E) == math.nextafter(float(ORACLE_E.b), math.inf)
        assert lower_float(IV_E) == math.nextafter(float(ORACLE_E.a), -math.inf)
        assert midpoint_float(IV_E) == float(ORACLE_E.mid)

    def test_small_integers_are_exact_points(self):
        for k in (0, 1, -1, 2 ** 159, -(2 ** 160) + 1):
            lo, hi = iv_int(k)
            assert lo == hi == from_int(k)

    @pytest.mark.parametrize("k", WIDE)
    def test_wide_integers_round_outward(self, k):
        lo, hi = iv_int(k)
        assert (lo, hi) == iv.mpf(k)._mpi_
        exact = from_int(k)
        assert mpf_lt(lo, exact) and mpf_lt(exact, hi)

    @pytest.mark.parametrize("k", WIDE)
    def test_wide_fractions_match_context(self, k):
        for x in (Fraction(k, 7 ** 40), Fraction(7 ** 40, k), Fraction(k, 3)):
            assert iv_from_fraction(x) == iv_fraction_oracle(x)._mpi_

    def test_max_min_by_endpoint_value(self):
        a, b = iv_from_fraction(Fraction(-1, 3)), iv_from_fraction(Fraction(1, 7))
        assert iv_max(a, b) == b and iv_max(b, a) == b
        assert iv_min(a, b) == a and iv_min(b, a) == a


# -- the bounds, bit for bit against the interval context ----------------------

MAX_DEPTH = {1: 6, 2: 3, 3: 2, 4: 1}
# numerators and denominators past the 160 bits of the intervals
SCALES = [Fraction(1), Fraction(3 ** 120 + 1, 7 ** 85), Fraction(1, 3 ** 110)]


@st.composite
def functions(draw):
    """Generator grids of n = 1..4, and two-valued grids whose modulus runs
    from 0 (p at the cap) to near its limit (p near 1); some scaled so that
    norms and means have numerators wider than 160 bits."""
    kind = draw(st.sampled_from(["uniform-cells", "cascade-gr", "monotone-1d",
                                 "two-valued"]))
    n = 1 if kind == "monotone-1d" else draw(st.integers(1, 4))
    if kind == "two-valued":
        top = draw(st.integers(1, 10 ** draw(st.integers(0, 18))))
        f = DyadicFunction(n, 1, [1] * ((1 << n) - 1) + [top])
    else:
        depth = draw(st.integers(1, MAX_DEPTH[n]))
        kw = {}
        if kind == "cascade-gr":
            kw["target_eps"] = draw(st.sampled_from(
                [Fraction(1, 64), Fraction(1, 8), Fraction(1, 3)])) / (1 << (n - 1))
        f = generate(GeneratorSpec(kind=kind, dim=n, depth=depth,
                                   seed=draw(st.integers(0, 2 ** 16)), **kw))
    return f.scaled(draw(st.sampled_from(SCALES)))


def _thm4_edge(n):
    """1/c4 = 1/(2^n e^2), the end of thm4's range, at 160 bits."""
    c4 = iv.mpf(1 << n) * ORACLE_E * ORACLE_E
    return 1 / Fraction(*to_rational(c4.a._mpi_[0]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f=functions(), data=st.data())
def test_bounds_match_interval_context(f, data):
    n, cells = f.dim, len(f.cells)
    norm = bmo_dyadic_norm(f)
    edge = _thm4_edge(n)
    unit = st.fractions(0, 1, max_denominator=10 ** 6).filter(lambda x: x > 0)
    t = data.draw(st.one_of(
        st.integers(1, cells).map(lambda k: Fraction(k, cells)),
        st.integers(-2, 2).map(lambda j: edge + Fraction(j, 2 ** 170)),
        unit.map(lambda u: u * edge), unit), label="t")
    spread = sorted({abs(v - f.mean) for v in f.cells} - {0}) or [Fraction(1)]
    lam = data.draw(st.one_of(st.sampled_from(spread),
                              st.fractions(0, 4 * spread[-1]).filter(lambda x: x > 0)),
                    label="lam")

    if norm:
        assert jn_check(f, lam)[1] == exp_bound_oracle(n, lam, norm)
        assert logbound_check(f.shifted(-f.mean), t)[1] == logbound_oracle(n, norm, t)

    h = f.abs()
    if bmo_dyadic_norm(h):
        assert jn_abs_check(h, lam)[1] == exp_bound_oracle(n, lam, bmo_dyadic_norm(h))
    if any(h.cells):
        expected = theorem4_oracle(h, t)
        if expected is None:
            with pytest.raises(PreconditionError):
                theorem4_bound(h, t)
        else:
            res = theorem4_bound(h, t)
            assert (res.rhs, res.c1, res.c2, res.c3, res.c4) == expected

    eps = gr_membership(h)
    if eps >= Fraction(1, 1 << (n - 1)):
        return
    p = P_CAP if eps == 0 else solve_p(eps, n).p
    assert theorem5_check(h, t)[1] == theorem5_oracle(p, h.mean, t)
    qs = [1, 2, 1.5, 1.0625, 2.75, 1 + (p - 1) / 2, math.nextafter(p, 0)]
    for q in qs:
        if 1 <= q < p:
            assert lq_tail_bound(h, q) == lq_oracle(h, q, p)
