"""Exact integer primitives: the Bezout pairs and the least-r lift the
witness pipeline is built on.  Both rest on the builtin modular inverse
pow(A, -1, C), computed natively: the lift reduces by the inverse of A
modulo C, and _bezout turns one inverse into the pair the unit solve needs.

Everything operates on plain Python ints (arbitrary precision), is fully
deterministic, and never touches floating point.
"""

from __future__ import annotations

import math
from operator import index
from typing import Optional

__all__ = [
    "sylvester_nonneg",
]


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    # For x, y >= 1: (g, s, t) with s*x + t*y = g = gcd(x, y), the pair
    # extended Euclid returns, whose s is the one in (-Y/2, Y/2] for
    # Y = y/g.  pow(., -1, 1) is 0, so Y = 1 gives (g, 0, 1).
    g = math.gcd(x, y)
    big_y = y // g
    s = pow(x // g, -1, big_y)
    if 2 * s > big_y:
        s -= big_y
    return g, s, (g - x * s) // y


def _least_r_lift(big_a: int, big_c: int, inv: int, ell: int) -> tuple[int, int]:
    # Given inv = big_a^-1 mod big_c with big_c >= 1: the solution of
    # big_a*r + big_c*s = ell with the least r >= 0, which has r in [0, big_c).
    r = inv * ell % big_c
    return r, (ell - big_a * r) // big_c


def sylvester_nonneg(
    a: int, c: int, mp: int, ell: int
) -> Optional[tuple[int, int]]:
    """Nonnegative (r, s) with a*r + c*s = ell*mp, where gcd(a, c) = mp.

    Guaranteed to succeed for ell >= (a/mp - 1)(c/mp - 1); below that bound
    the answer is still exact (a solution is returned iff one exists).  The
    returned r is the smallest admissible one, which keeps output stable.
    A non-integral argument raises TypeError.
    """
    for v in (a, c, mp, ell):
        index(v)
    if a < 1 or c < 1 or mp < 1:
        raise ValueError("a, c, mp must be positive")
    if math.gcd(a, c) != mp:
        raise ValueError(f"gcd({a}, {c}) != {mp}")
    big_a, big_c = a // mp, c // mp
    # s falls as r grows, so the least r >= 0 leaves the largest s.
    r, s = _least_r_lift(big_a, big_c, pow(big_a, -1, big_c), ell)
    return (r, s) if s >= 0 else None
