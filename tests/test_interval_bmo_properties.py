"""Property tests: the integer interval-BMO paths against their oracles.

Derandomized, so the examples are the same on every run.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbmo import StepFunction1D
from dyadicbmo.interval_bmo import _general_norm, _monotone_norm
from conftest import general_norm_oracle, monotone_norm_oracle

rationals = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from((1, 2, 3, 4, 16)))


@st.composite
def step_functions(draw):
    """Step functions of 3-8 pieces, breakpoints k/48 (mixed reduced
    denominators), values drawn from a pool small enough to tie often;
    the general path must also agree on the few monotone draws."""
    cuts = draw(st.sets(st.builds(Fraction, st.integers(1, 47), st.just(48)),
                        min_size=2, max_size=7))
    pool = draw(st.lists(rationals, min_size=2, max_size=4, unique=True))
    vals = draw(st.lists(st.sampled_from(pool), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], vals)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(step_functions())
def test_general_path_matches_oracle(g):
    g = g.merged()
    if len(g.values) < 2:
        return
    assert _general_norm(g) == general_norm_oracle(g)


cut_points = st.sampled_from((2, 3, 5, 7, 8, 12, 64)).flatmap(
    lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d)))


@st.composite
def monotone_step_functions(draw):
    """Monotone step functions of 2-24 unequal pieces, breakpoints over mixed
    denominators, values from a pool small enough to leave unmerged runs of
    ties, in either direction."""
    cuts = draw(st.sets(cut_points, min_size=1, max_size=23))
    pool = draw(st.lists(rationals, min_size=1, max_size=len(cuts) + 1))
    vals = draw(st.lists(st.sampled_from(pool), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    vals.sort(reverse=draw(st.booleans()))
    return StepFunction1D([Fraction(0), *sorted(cuts), Fraction(1)], vals)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(monotone_step_functions())
def test_monotone_path_matches_oracle(g):
    for h in (g, g.merged()):
        dec = h if h.is_nonincreasing else h.negated()
        assert _monotone_norm(h) == monotone_norm_oracle(dec)
