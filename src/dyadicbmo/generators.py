"""Seeded random dyadic-function generators for tests, search and the CLI.

Three kinds: independent uniform cell values on a dyadic lattice, sorted
nonincreasing 1-d profiles, and multiplicative cascades targeting a requested
oscillation-to-mean modulus (verified exactly before the function is emitted,
with retries at shrinking spread).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dyadic import DyadicFunction, _morton_order, check_grid_size
from .errors import GenerationError, InputError
from .gurov import gr_membership

KINDS = ("uniform-cells", "monotone-1d", "cascade-gr")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    dim: int
    depth: int
    seed: int = 0
    low: Fraction = Fraction(-8)
    high: Fraction = Fraction(8)
    denom_bits: int = 6
    target_eps: Fraction = Fraction(1, 8)
    multipliers: tuple = ()   # cascade factor set; empty = adaptive spread
    cascade_retries: int = 64

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}; "
                             f"choose from {', '.join(KINDS)}")
        if self.dim < 1 or self.depth < 0 or self.denom_bits < 0:
            raise InputError("need dim >= 1, depth >= 0 and denom_bits >= 0")
        check_grid_size(self.dim, self.depth)
        if self.kind == "monotone-1d" and self.dim != 1:
            raise InputError("monotone-1d generates one-dimensional functions")
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        object.__setattr__(self, "target_eps", Fraction(self.target_eps))
        object.__setattr__(self, "multipliers",
                           tuple(Fraction(m) for m in self.multipliers))
        if self.low > self.high:
            raise InputError("value range is empty")
        if self.kind == "cascade-gr":
            if not 0 < self.target_eps < 2:
                raise InputError("cascade target eps must lie in (0, 2)")
            if any(m <= 0 for m in self.multipliers):
                raise InputError("cascade multipliers must be positive")


def _uniform_nums(rng, count, low, high, bits):
    """count values low + (high - low) k / 2^bits, k uniform in 0..2^bits,
    as integer numerators a + b k over one denominator: (nums, den)."""
    steps = 1 << bits
    span = high - low
    den = low.denominator * span.denominator * steps
    a = low.numerator * span.denominator * steps
    b = span.numerator * low.denominator
    return [a + b * rng.randrange(steps + 1) for _ in range(count)], den


def _cascade(rng, dim, depth, spread_bits, spread, multipliers):
    """Multiplicative cascade: each child value = parent * factor near 1."""

    def draw_factor():
        if multipliers:
            return rng.choice(multipliers)
        return 1 + spread * Fraction(
            rng.randrange(-(1 << spread_bits), (1 << spread_bits) + 1),
            1 << spread_bits)

    # children are drawn in Morton order, so the leaves come out in it
    level = [Fraction(1)]
    digits = range(1 << dim)
    for _ in range(depth):
        level = [parent * draw_factor() for parent in level for _ in digits]
    den = lcm(*(v.denominator for v in level))
    return DyadicFunction._from_nums(
        dim, depth, den, [v.numerator * (den // v.denominator) for v in level])


def generate(spec):
    """Deterministic function for the given spec; exact post-verification
    of the cascade target."""
    rng = random.Random(spec.seed)
    count = 1 << (spec.dim * spec.depth)
    if spec.kind == "uniform-cells":
        nums, den = _uniform_nums(rng, count, spec.low, spec.high, spec.denom_bits)
        order = _morton_order(spec.dim, spec.depth)
        return DyadicFunction._from_nums(spec.dim, spec.depth, den,
                                         list(map(nums.__getitem__, order)))
    if spec.kind == "monotone-1d":
        nums, den = _uniform_nums(rng, count, spec.low, spec.high, spec.denom_bits)
        return DyadicFunction._from_nums(1, spec.depth, den, sorted(nums, reverse=True))
    # cascade-gr
    spread = min(Fraction(1, 8), spec.target_eps / 4)
    for _ in range(spec.cascade_retries):
        f = _cascade(rng, spec.dim, spec.depth, spec.denom_bits, spread,
                     spec.multipliers)
        if gr_membership(f) <= spec.target_eps:
            return f
        spread /= 2
    raise GenerationError(
        f"could not reach modulus target {spec.target_eps} within "
        f"{spec.cascade_retries} attempts")
