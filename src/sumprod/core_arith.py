"""Exact integer primitives: extended gcd and the least-r lift the witness
pipeline is built on.  The lift reduces by the inverse of A modulo C, which
the builtin pow(A, -1, C) computes natively; ext_gcd serves the witness
pipeline's unit solve.

Everything operates on plain Python ints (arbitrary precision), is fully
deterministic, and never touches floating point.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "ext_gcd",
    "sylvester_nonneg",
]


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*x + t*y = g = gcd(x, y) >= 0.

    ext_gcd(0, 0) = (0, 0, 0) by convention.
    """
    if x == 0 and y == 0:
        return 0, 0, 0
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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
    """
    if a < 1 or c < 1 or mp < 1:
        raise ValueError("a, c, mp must be positive")
    if math.gcd(a, c) != mp:
        raise ValueError(f"gcd({a}, {c}) != {mp}")
    big_a, big_c = a // mp, c // mp
    # s falls as r grows, so the least r >= 0 leaves the largest s.
    r, s = _least_r_lift(big_a, big_c, pow(big_a, -1, big_c), ell)
    return (r, s) if s >= 0 else None
