import math

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (
    ext_gcd,
    is_prime,
    solve_linear3,
    sylvester_nonneg,
)

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


# ---------------------------------------------------------------- is_prime

def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(10**4)
    for n in range(10**4 + 1):
        assert is_prime(n) == bool(flags[n])


def test_is_prime_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


def test_is_prime_strong_pseudoprime_psi12():
    # psi_12 passes Miller-Rabin for every prime base up to 37.
    assert not is_prime(318665857834031151167461)
    assert 399165290221 * 798330580441 == 318665857834031151167461


def test_is_prime_refuses_beyond_proven_bound():
    psi13 = 3317044064679887385961981
    assert is_prime(2**80 - 65)  # the largest prime below 2**80 < psi13
    with pytest.raises(ValueError):
        is_prime(psi13)
    with pytest.raises(ValueError):
        is_prime(2**127 - 1)


# ---------------------------------------------------------------- solve_linear3

def test_solve_linear3_examples():
    x, y, z = solve_linear3(5, 2, 3, 1)
    assert 5 * x + 2 * y + 3 * z == 1
    assert solve_linear3(2, 4, 6, 3) is None
    assert solve_linear3(1, 0, 0, 7) == (7, 0, 0)
    assert solve_linear3(0, 0, 0, 0) == (0, 0, 0)
    assert solve_linear3(0, 0, 0, 5) is None


def test_solve_linear3_solvability_small_grid():
    for b in range(-8, 9):
        for d in range(-8, 9):
            for mp in range(-8, 9):
                g = math.gcd(b, d, mp)
                for k in (-20, -7, -1, 0, 1, 3, 12, 20):
                    sol = solve_linear3(b, d, mp, k)
                    solvable = (k % g == 0) if g else (k == 0)
                    assert (sol is not None) == solvable
                    if sol is not None:
                        x, y, z = sol
                        assert b * x + d * y + mp * z == k


@DET
@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-200, 200),
)
def test_solve_linear3_random(b, d, mp, k):
    sol = solve_linear3(b, d, mp, k)
    g = math.gcd(b, d, mp)
    if g == 0:
        assert (sol is not None) == (k == 0)
    else:
        assert (sol is not None) == (k % g == 0)
    if sol is not None:
        x, y, z = sol
        assert b * x + d * y + mp * z == k


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
