import itertools
import math
import random

import pytest

from sumprod import sylvester_nonneg
from sumprod.core_arith import _bezout, _least_r_lift


# ---------------------------------------------------------------- _bezout

def _euclid(x, y):
    # The reference: extended Euclid, whose (g, s, t) _bezout must give
    # exactly, so that every unit solve and trace stays the same.
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


def _bezout_inputs():
    yield from itertools.product(range(1, 301), repeat=2)
    rng = random.Random(2024)
    for bits in (8, 64, 128, 256, 512, 1024):
        for _ in range(200):
            x = rng.getrandbits(bits) | 1
            y = rng.getrandbits(rng.randint(1, bits)) + 1
            f = rng.getrandbits(rng.randint(1, 64)) + 1
            # random, a shared factor, x | y, y | x, x == y, y/g == 2 (the tie)
            yield from ((x, y), (x * f, y * f), (x, x * f), (x * f, x), (x, x))
            yield x * f, 2 * f


def test_bezout_is_euclids_pair():
    # the same (g, s, t) as extended Euclid, whose s lies in (-Y/2, Y/2] for
    # Y = y/g, so the unit solve and every trace built on it are unchanged
    ties = 0
    for x, y in _bezout_inputs():
        got = _bezout(x, y)
        assert got == _euclid(x, y), (x, y)
        g, s, t = got
        assert g == math.gcd(x, y) and s * x + t * y == g
        ties += y // g == 2
    assert ties > 0


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
    _, s, t = _euclid(big_a, big_c)
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
