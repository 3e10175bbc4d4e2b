"""Congruence classes, infinite arithmetic progressions, and exact membership
tests for their product sets.

A congruence class R_m(a) is {a + i*m : i in Z}; a progression P_m(a) is the
one-sided version {a + i*m : i >= 0}.  Product-set membership is decided by
divisor enumeration, which is exact because a product equal to n forces both
factors to divide n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CongruenceClass",
    "Progression",
    "product_class_contains",
    "progression_product_contains",
]


@dataclass(frozen=True)
class CongruenceClass:
    """R_m(a), stored with its canonical representative in [0, m)."""

    a: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        object.__setattr__(self, "a", self.a % self.m)

    def contains(self, n: int) -> bool:
        return (n - self.a) % self.m == 0

    def __repr__(self) -> str:
        return f"R_{self.m}({self.a})"


@dataclass(frozen=True)
class Progression:
    """P_m(a): the members of R_m(a) that are >= a.  Initial term is positive."""

    a: int
    m: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"initial term must be >= 1, got {self.a}")
        if self.m < 1:
            raise ValueError(f"difference must be >= 1, got {self.m}")

    def contains(self, n: int) -> bool:
        return n >= self.a and (n - self.a) % self.m == 0

    def __repr__(self) -> str:
        return f"P_{self.m}({self.a})"


def _positive_divisors(n: int) -> list[int]:
    # Ascending positive divisors of n >= 1.
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def product_class_contains(
    c1: CongruenceClass, c2: CongruenceClass, n: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decide n ∈ R_m(a1)·R_m(a2); on success also return one factor pair.

    Both signs of every divisor of |n| are tried, since class members range
    over all of Z.  For n = 0 the convention is: 0 is in the product set iff
    0 itself lies in one of the two classes (then 0 = 0*y for any y).
    """
    if c1.m != c2.m:
        raise ValueError("classes must share a modulus")
    m = c1.m
    if n == 0:
        if c1.a % m == 0:
            return True, (0, c2.a)
        if c2.a % m == 0:
            return True, (c1.a, 0)
        return False, None
    for dv in _positive_divisors(abs(n)):
        for x in (dv, -dv):
            if n % x != 0:
                continue
            y = n // x
            if (x - c1.a) % m == 0 and (y - c2.a) % m == 0:
                return True, (x, y)
    return False, None


def progression_product_contains(
    p1: Progression, p2: Progression, n: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decide n ∈ P_m(a1)·P_m(a2) with a witness pair.

    Only positive divisors at or above the initial terms qualify, because
    progression members are positive and bounded below.
    """
    if p1.m != p2.m:
        raise ValueError("progressions must share a difference")
    if n <= 0:
        return False, None
    for x in _positive_divisors(n):
        if x < p1.a or (x - p1.a) % p1.m != 0:
            continue
        y = n // x
        if y >= p2.a and (y - p2.a) % p2.m == 0:
            return True, (x, y)
    return False, None

