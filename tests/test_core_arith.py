import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import ext_gcd, sylvester_nonneg
from sumprod.core_arith import _least_r_lift

DET = settings(max_examples=300, derandomize=True, deadline=None)


# ---------------------------------------------------------------- ext_gcd

def test_ext_gcd_examples():
    g, s, t = ext_gcd(12, 18)
    assert g == 6 and s * 12 + t * 18 == 6
    assert ext_gcd(0, 0) == (0, 0, 0)
    g, s, t = ext_gcd(3, 5)
    assert g == 1 and s * 3 + t * 5 == 1


@DET
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_ext_gcd_identity(x, y):
    g, s, t = ext_gcd(x, y)
    assert s * x + t * y == g
    assert g == math.gcd(x, y)
    assert g >= 0
    if g:
        assert x % g == 0 and y % g == 0


# ---------------------------------------------------------------- sylvester_nonneg

def test_sylvester_examples():
    assert sylvester_nonneg(3, 5, 1, 8) == (1, 1)
    assert sylvester_nonneg(3, 5, 1, 7) is None
    # the guaranteed-regime instance ell = (3-1)(5-1)
    r, s = sylvester_nonneg(3, 5, 1, 8)
    assert 3 * r + 5 * s == 8 and r >= 0 and s >= 0


def test_sylvester_with_common_factor():
    r, s = sylvester_nonneg(6, 10, 2, 11)
    assert 6 * r + 10 * s == 22 and r >= 0 and s >= 0


def test_sylvester_precondition():
    with pytest.raises(ValueError):
        sylvester_nonneg(6, 10, 1, 4)
    with pytest.raises(ValueError):
        sylvester_nonneg(0, 5, 5, 1)


def test_sylvester_negative_target():
    assert sylvester_nonneg(3, 5, 1, -2) is None
    assert sylvester_nonneg(3, 5, 1, 0) == (0, 0)


def test_sylvester_exact_and_guaranteed_above_bound():
    # a solution comes back exactly when a nonnegative one exists, with the
    # least r, and always once ell >= (A - 1)(C - 1) for A = a/mp, C = c/mp
    for a, c in itertools.product(range(1, 13), repeat=2):
        mp = math.gcd(a, c)
        big_a, big_c = a // mp, c // mp
        bound = (big_a - 1) * (big_c - 1)
        for ell in range(-3, bound + 8):
            least = next(
                (
                    (r, (ell - big_a * r) // big_c)
                    for r in range(ell // big_a + 1)
                    if (ell - big_a * r) % big_c == 0
                ),
                None,
            )
            assert sylvester_nonneg(a, c, mp, ell) == least, (a, c, ell)
            if ell >= bound:
                assert least is not None


# ---------------------------------------------------------------- the lift

def _lift_by_euclid(big_a, big_c, ell):
    # The reduction from a Bezout pair s*A + t*C = 1: the general solution of
    # A*r + C*s' = ell is (s*ell + C*j, t*ell - A*j); reduce r into [0, C).
    _, s, t = ext_gcd(big_a, big_c)
    r0, s0 = s * ell, t * ell
    r = r0 % big_c
    return r, s0 - big_a * ((r - r0) // big_c)


def _coprime_pairs():
    yield from ((1, 1), (1, 7), (7, 1), (1, 1 << 1023))
    rng = random.Random(1024)
    for bits in (2, 8, 64, 190, 512, 1024):
        done = 0
        while done < 40:
            big_a = rng.getrandbits(rng.randint(1, bits)) | 1
            big_c = rng.getrandbits(bits) | 1
            if math.gcd(big_a, big_c) == 1:
                done += 1
                yield big_a, big_c


def test_lift_by_inverse_matches_euclid():
    # the lift by pow(A, -1, C) gives the same (r, s) as the Bezout-pair
    # reduction, for A = 1, C = 1 and ell of either sign
    rng = random.Random(11)
    for big_a, big_c in _coprime_pairs():
        inv = pow(big_a, -1, big_c)
        bits = max(big_a.bit_length(), big_c.bit_length())
        for ell in (0, 1, -1, rng.getrandbits(2 * bits), -rng.getrandbits(2 * bits)):
            got = _least_r_lift(big_a, big_c, inv, ell)
            assert got == _lift_by_euclid(big_a, big_c, ell), (big_a, big_c, ell)
            r, s = got
            assert big_a * r + big_c * s == ell and 0 <= r < big_c
