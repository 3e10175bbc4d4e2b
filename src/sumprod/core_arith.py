"""Exact integer primitives: extended gcd, a bounded deterministic
primality test, and the small linear Diophantine solvers the witness
pipeline is built on.

Everything operates on plain Python ints (arbitrary precision), is fully
deterministic, and never touches floating point.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "ext_gcd",
    "is_prime",
    "solve_linear3",
    "sylvester_nonneg",
]

# Miller-Rabin with the first 13 prime bases is exact below psi_13, the
# smallest strong pseudoprime to all of them.  The first 12 bases alone are
# fooled by psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*x + t*y = g = gcd(x, y) >= 0.

    ext_gcd(0, 0) = (0, 0, 0) by convention, which keeps solve_linear3 total.
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3317044064679887385961981.

    Larger n raise ValueError rather than get an unproven answer.
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is proven only below {_MR_EXACT_BELOW}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def solve_linear3(b: int, d: int, mp: int, k: int) -> Optional[tuple[int, int, int]]:
    """One integer solution of b*x + d*y + mp*z = k, or None when gcd ∤ k.

    Nested extended gcd; no attempt to minimize the solution (callers that
    need a canonical range reduce it themselves).
    """
    g1, s1, t1 = ext_gcd(b, d)
    g, s2, t2 = ext_gcd(g1, mp)
    if g == 0:
        return (0, 0, 0) if k == 0 else None
    if k % g != 0:
        return None
    q = k // g
    return (s1 * s2 * q, t1 * s2 * q, t2 * q)


def _least_r_lift(a: int, c: int, mp: int, ell: int) -> tuple[int, int]:
    """The solution of a*r + c*s = ell*mp, where gcd(a, c) = mp > 0, with the
    least r >= 0, so 0 <= r < |c|/mp.  For c = 0 the solution has s = 0.
    """
    big_a, big_c = a // mp, c // mp
    _, s, t = ext_gcd(big_a, big_c)  # the gcd is 1
    return _least_r_from_bezout(big_a, big_c, s, t, ell)


def _least_r_from_bezout(
    big_a: int, big_c: int, s: int, t: int, ell: int
) -> tuple[int, int]:
    # Given s*big_a + t*big_c = 1: the solution of big_a*r + big_c*s' = ell
    # with the least r >= 0.  For big_c = 0, r = s*ell is forced and s' = t*ell.
    r0, s0 = s * ell, t * ell
    if big_c == 0:
        return r0, s0
    # General solution (r0 + big_c*t, s0 - big_a*t); reduce r into [0, |big_c|).
    r = r0 % abs(big_c)
    return r, s0 - big_a * ((r - r0) // big_c)


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
    # s falls as r grows, so the least r >= 0 leaves the largest s.
    r, s = _least_r_lift(a, c, mp, ell)
    return (r, s) if s >= 0 else None
