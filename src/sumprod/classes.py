"""Congruence classes and exact membership tests for their product sets.

A congruence class R_m(a) is {a + i*m : i in Z}.  Membership of n in the
product set R_m(a1)·R_m(a2) is decided by divisor enumeration, which is
exact because a product equal to n forces both factors to divide n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CongruenceClass",
    "product_class_contains",
]


@dataclass(frozen=True)
class CongruenceClass:
    """R_m(a), stored with its canonical representative in [0, m)."""

    a: int
    m: int

    def __post_init__(self) -> None:
        # operator.index refuses a float or a string with TypeError.
        if operator.index(self.m) < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        object.__setattr__(self, "a", operator.index(self.a) % self.m)

    def contains(self, n: int) -> bool:
        return (n - self.a) % self.m == 0

    def __repr__(self) -> str:
        return f"R_{self.m}({self.a})"


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
    operator.index(n)  # a non-integral n is refused, as in CongruenceClass
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

