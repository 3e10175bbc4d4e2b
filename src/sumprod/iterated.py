"""Witnesses for iterated sums of products: h >= 2 terms, term i a product of
k_i congruence classes, with k_1 <= ... <= k_h.

Two shapes are decidable here: k_1 = 1 (the lone class absorbs the whole
residue) and k_1 = k_2 = 2 with the leading coefficients coprime to m jointly
(handled by the pair solver, trailing terms frozen at their base values).
Everything else is refused with an explicit unsupported-shape outcome; the
general question is open.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

from .witness import _plan, _solve

__all__ = [
    "IteratedSpec",
    "IteratedWitness",
    "IteratedResult",
    "solve_iterated",
    "verify_iterated",
]

WITNESS = "witness"
NOT_MEMBER = "not-member"
UNSUPPORTED_SHAPE = "unsupported-shape"


@dataclass(frozen=True)
class IteratedSpec:
    """Shape and coefficients of one iterated sum-of-products problem."""

    m: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # operator.index, not int: a float or a string is refused, not truncated.
        if operator.index(self.m) < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        terms = tuple(tuple(operator.index(x) for x in t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if len(terms) < 2:
            raise ValueError("need at least two terms")
        lengths = [len(t) for t in terms]
        if any(k < 1 for k in lengths):
            raise ValueError("every term needs at least one coefficient")
        if lengths != sorted(lengths):
            raise ValueError("terms must be sorted by nondecreasing length")

    def shape(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)

    def base_value(self) -> int:
        return sum(math.prod(t) for t in self.terms)


@dataclass(frozen=True)
class IteratedWitness:
    """Coefficient values, mirroring the problem's term structure, summing
    exactly to N."""

    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IteratedResult:
    """Outcome of solve_iterated on one target.

    status is "witness" (witness holds a decomposition), "not-member" (N is
    not in the sum of product classes; witness is None) or
    "unsupported-shape" (a shape, or a pair-led spec with
    gcd(a11, a12, a21, a22, m) > 1, that solve_iterated does not decide;
    witness is None and no verdict is given).
    """

    status: str  # WITNESS | NOT_MEMBER | UNSUPPORTED_SHAPE
    witness: Optional[IteratedWitness]


def solve_iterated(spec: IteratedSpec, N: int) -> IteratedResult:
    """Decide and witness N ∈ Σ_i Π_j R_m(a_ij) for the supported shapes.

    k1 = 1: absorb the residue into term 1, trailing terms at base values
    (the h > 2 case is the same by induction, all residue in front).
    k1 = k2 = 2 with gcd(a11, a12, a21, a22, m) = 1: pair-solve the first two
    terms against N minus the frozen tail; the pair solve's own residue test
    mod m is the verdict, and gcd is read off the pair's cached plan.
    Anything else: unsupported-shape, never a guess.
    """
    # Lengths and base sum are read inline, not through shape() and
    # base_value(): a method call each is a large share of one solve.
    terms, m = spec.terms, spec.m
    operator.index(N)  # a non-integral N is refused, as at Instance
    base = sum(math.prod(t) for t in terms)
    if len(terms[0]) == 1:
        if (N - base) % m != 0:
            return IteratedResult(NOT_MEMBER, None)
        q = (N - base) // m
        values = ((terms[0][0] + q * m,),) + terms[1:]
        return IteratedResult(WITNESS, IteratedWitness(values))
    if len(terms[0]) == len(terms[1]) == 2:
        a11, a12 = terms[0]
        a21, a22 = terms[1]
        plan = _plan(a11, a12, a21, a22, m)
        if plan[0] != 1:  # delta, gcd(a11, a12, a21, a22, m)
            return IteratedResult(UNSUPPORTED_SHAPE, None)
        # The pair's target is N minus the frozen tail, base - plan[2] (plan[2]
        # is a11*a12 + a21*a22).  At delta = 1, _solve's residue test mod m
        # is the whole verdict.
        got = _solve(a11, a12, a21, a22, m, N - base + plan[2], plan, False)
        if got is None:
            return IteratedResult(NOT_MEMBER, None)
        w = got[0]
        values = (
            (w.a_prime, w.b_prime),
            (w.c_prime, w.d_prime),
        ) + terms[2:]
        return IteratedResult(WITNESS, IteratedWitness(values))
    return IteratedResult(UNSUPPORTED_SHAPE, None)


def verify_iterated(spec: IteratedSpec, wit: IteratedWitness, N: int) -> bool:
    """Certificate check: shape match, componentwise congruence, exact sum.

    A non-integral value or N raises TypeError, as at IteratedSpec: a
    float's rounded products can sum to N when the exact ones do not.
    """
    operator.index(N)
    for t in wit.values:
        for x in t:
            operator.index(x)
    if len(wit.values) != len(spec.terms):
        return False
    for got, want in zip(wit.values, spec.terms):
        if len(got) != len(want):
            return False
        if any((g - w) % spec.m != 0 for g, w in zip(got, want)):
            return False
    return sum(math.prod(t) for t in wit.values) == N
