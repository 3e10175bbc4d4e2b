import time

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import CongruenceClass, product_class_contains

DET = settings(max_examples=300, derandomize=True, deadline=None)


def test_class_contains_examples():
    assert CongruenceClass(15, 19).contains(53)
    assert CongruenceClass(3, 19).contains(3)
    assert not CongruenceClass(2, 7).contains(20)


def test_canonical_representative():
    assert CongruenceClass(-3, 19).a == 16
    assert CongruenceClass(21, 19).a == 2
    with pytest.raises(ValueError):
        CongruenceClass(1, 0)


def test_product_class_strictness_53():
    ok, pair = product_class_contains(
        CongruenceClass(3, 19), CongruenceClass(5, 19), 53
    )
    assert not ok and pair is None


def test_product_class_contains_refuses_n_over_its_budget():
    # 10**12 is the last |n| taken; 10**40 would take years of trial division
    r3, r5 = CongruenceClass(3, 19), CongruenceClass(5, 19)
    assert product_class_contains(r3, r5, -(10**12)) == (False, None)
    start = time.perf_counter()
    for n in (10**12 + 1, 10**40, -(10**40)):
        with pytest.raises(ValueError, match=r"^\|n\| must be <= 10\*\*12$"):
            product_class_contains(r3, r5, n)
    assert time.perf_counter() - start < 0.1


def test_product_class_contains_refuses_mixed_moduli():
    with pytest.raises(ValueError, match="^classes must share a modulus$"):
        product_class_contains(CongruenceClass(3, 19), CongruenceClass(5, 7), 15)

def test_product_class_examples():
    ok, pair = product_class_contains(
        CongruenceClass(3, 19), CongruenceClass(5, 19), 15
    )
    assert ok and pair == (3, 5)
    ok, pair = product_class_contains(
        CongruenceClass(3, 19), CongruenceClass(5, 19), 72
    )
    assert ok and pair == (3, 24)


def test_product_class_zero_convention():
    c0 = CongruenceClass(0, 6)
    c5 = CongruenceClass(5, 6)
    ok, pair = product_class_contains(c0, c5, 0)
    assert ok and pair[0] == 0
    ok, pair = product_class_contains(c5, c0, 0)
    assert ok and pair[1] == 0
    ok, pair = product_class_contains(c5, c5, 0)
    assert not ok


def _product_oracle(a1, a2, m, n, bound):
    # Double-loop ground truth over x, y in [-bound, bound].
    for x in range(-bound, bound + 1):
        if (x - a1) % m:
            continue
        for y in range(-bound, bound + 1):
            if (y - a2) % m == 0 and x * y == n:
                return True
    return False


def test_product_class_agrees_with_double_loop():
    for m in (1, 2, 3, 5, 7, 12):
        for a1 in range(m):
            for a2 in range(m):
                c1, c2 = CongruenceClass(a1, m), CongruenceClass(a2, m)
                for n in range(-60, 61):
                    if n == 0:
                        continue  # oracle x=0 would claim any n=0; convention tested above
                    got, pair = product_class_contains(c1, c2, n)
                    assert got == _product_oracle(a1, a2, m, n, abs(n))
                    if got:
                        x, y = pair
                        assert x * y == n
                        assert (x - a1) % m == 0 and (y - a2) % m == 0


@DET
@given(
    st.integers(1, 12),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-500, 500),
)
def test_product_subset_of_product_class(m, a1, a2, n):
    # R_m(a)R_m(b) is contained in R_m(ab); witnesses certify membership.
    c1, c2 = CongruenceClass(a1, m), CongruenceClass(a2, m)
    got, pair = product_class_contains(c1, c2, n)
    if got:
        assert CongruenceClass(a1 * a2, m).contains(n)
        x, y = pair
        assert x * y == n


def test_strictness_is_realized_below_100():
    c1, c2 = CongruenceClass(3, 19), CongruenceClass(5, 19)
    target = CongruenceClass(15, 19)
    found = [
        n
        for n in range(-100, 101)
        if target.contains(n) and not product_class_contains(c1, c2, n)[0]
    ]
    assert 53 in found
