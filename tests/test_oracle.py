import itertools
import math
import random

import pytest

import sumprod.oracle
from sumprod import (
    Instance,
    Progression,
    SearchBox,
    Witness,
    grid_verify_theorem,
    oracle_member_class,
    oracle_member_progression,
    progression_product_contains,
    strictness_demo,
)


def test_search_box():
    with pytest.raises(ValueError):
        SearchBox(3, 2)
    box = SearchBox.default_for(Instance(1, 1, 1, 1, 2, 100))
    assert box.lo == -(100 // 2 + 2) and box.hi == 100 // 2 + 2


def test_class_oracle_identity():
    inst = Instance(3, 5, 2, 2, 19, 19)
    ok, (i, j, k, l) = oracle_member_class(inst, SearchBox(-2, 2))
    assert ok
    assert (3 + 19 * i) * (5 + 19 * j) + (2 + 19 * k) * (2 + 19 * l) == 19
    # identity quadruple is the lexicographic first when the box starts at 0
    ok, quad = oracle_member_class(inst, SearchBox(0, 2))
    assert ok and quad == (0, 0, 0, 0)


def test_class_oracle_substitution():
    inst = Instance(3, 5, 2, 2, 19, 152)
    ok, (i, j, k, l) = oracle_member_class(inst, SearchBox(-40, 40))
    assert ok
    assert (3 + 19 * i) * (5 + 19 * j) + (2 + 19 * k) * (2 + 19 * l) == 152


def test_class_oracle_parity_obstruction():
    inst = Instance(1, 1, 1, 1, 2, 7)
    ok, quad = oracle_member_class(inst, SearchBox(-25, 25))
    assert not ok and quad is None


def test_class_oracle_lexicographic_first():
    inst = Instance(1, 1, 1, 1, 1, 4)
    ok, quad = oracle_member_class(inst, SearchBox(-2, 2))
    assert ok
    # recompute the lexicographic minimum by brute force
    best = None
    for i in range(-2, 3):
        for j in range(-2, 3):
            for k in range(-2, 3):
                for l in range(-2, 3):
                    if (1 + i) * (1 + j) + (1 + k) * (1 + l) == 4:
                        cand = (i, j, k, l)
                        if best is None or cand < best:
                            best = cand
    assert quad == best


def test_progression_oracle_examples():
    assert oracle_member_progression(Instance(3, 5, 2, 2, 19, 19))[1] == (0, 0, 0, 0)
    ok, quad = oracle_member_progression(Instance(1, 1, 1, 1, 2, 4))
    assert ok and quad == (0, 0, 0, 1)
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, 3))[0]
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, 0))[0]
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, -6))[0]


def test_progression_oracle_against_divisor_pair_strategy():
    # Independent second route: split N = p + q and decide each product side
    # by divisor enumeration.
    for a, b, c, d, m in ((1, 1, 1, 1, 2), (3, 5, 2, 2, 19)):
        pa, pb = Progression(a, m), Progression(b, m)
        pc, pd = Progression(c, m), Progression(d, m)
        for n_target in range(1, 501):
            got = oracle_member_progression(Instance(a, b, c, d, m, n_target))[0]
            want = False
            for p in range(a * b, n_target - c * d + 1):
                if not progression_product_contains(pa, pb, p)[0]:
                    continue
                if progression_product_contains(pc, pd, n_target - p)[0]:
                    want = True
                    break
            assert got == want, (a, b, c, d, m, n_target)


def _nonneg_rows(x0, y0, m, cap):
    # Row i holds the products (x0+i*m)(y0+j*m) <= cap for j = 0, 1, ...,
    # which form an arithmetic progression in j; rows come in order of i.
    # Positive x0, y0 keep the enumeration finite.
    x = x0
    while x * y0 <= cap:
        yield range(x * y0, cap + 1, x * m)
        x += m


def _first_quadruple_by_dict(a, b, c, d, m, n_target):
    # The reference for oracle_member_progression: a dict of every right
    # product to its first (k, l), then the left products in (i, j) order.
    if n_target < a * b + c * d:
        return False, None
    right = {}
    for k, row in enumerate(_nonneg_rows(c, d, m, n_target - a * b)):
        for l, p in enumerate(row):
            if p not in right:
                right[p] = (k, l)
    for i, row in enumerate(_nonneg_rows(a, b, m, n_target - c * d)):
        for j, p in enumerate(row):
            got = right.get(n_target - p)
            if got is not None:
                return True, (i, j, got[0], got[1])
    return False, None


def _lexicographic_cases():
    for a, b, c, d in itertools.product(range(1, 4), repeat=4):
        for m in range(1, 4):
            for n_target in range(a * b + c * d - 2 * m, 131):
                yield a, b, c, d, m, n_target
    rng = random.Random(12)
    for _ in range(200):
        a, b, c, d = (rng.randint(1, 20) for _ in range(4))
        yield a, b, c, d, rng.randint(1, 9), rng.randint(0, 1500)


def test_progression_oracle_lexicographic_first():
    # the same (bool, quadruple) as the dict reference, off-residue and
    # below-base targets included
    cases = list(_lexicographic_cases())
    assert len(cases) == 31_061
    for case in cases:
        got = oracle_member_progression(Instance(*case))
        assert got == _first_quadruple_by_dict(*case), case


def _mask_by_shifts(a, b, c, d, m, cap):
    # The direct sumset: one shifted copy of the left mask per distinct right
    # product, quadratic in cap; the reference the folded mask must equal.
    if cap < a * b + c * d:
        return 0
    left = 0
    for row in _nonneg_rows(a, b, m, cap - c * d):
        for p in row:
            left |= 1 << p
    total = 0
    for q in set().union(*_nonneg_rows(c, d, m, cap - a * b)):
        total |= left << q
    return total & ((1 << (cap + 1)) - 1)


def _sums_mask_cases():
    for a, b, c, d in itertools.product(range(1, 4), repeat=4):
        base = a * b + c * d
        for m in range(1, 5):
            for cap in (base - 1, base, base + 1, 137, 600):
                yield a, b, c, d, m, cap
    rng = random.Random(11)
    for _ in range(300):
        a, b, c, d = (rng.randint(1, 40) for _ in range(4))
        yield a, b, c, d, rng.randint(1, 12), rng.randint(0, 3000)


def test_sums_mask_matches_shift_reference():
    # bit t of the folded mask is the reference's bit ab + cd + m*t
    cases = list(_sums_mask_cases())
    assert len(cases) == 1920
    for a, b, c, d, m, cap in cases:
        want = _mask_by_shifts(a, b, c, d, m, cap)
        base = a * b + c * d
        if cap < base:
            assert want == 0, (a, b, c, d, m, cap)
            continue
        top = (cap - base) // m
        folded = sumprod.oracle._folded_sums_mask(a, b, c, d, m, top)
        got = format(folded, "b").zfill(top + 1)[::-1]
        assert got == format(want, "b").zfill(cap + 1)[::-1][base::m], (
            a, b, c, d, m, cap,
        )


@pytest.mark.parametrize("x0, y0, m", [(1, 1, 1), (2, 3, 1), (3, 2, 4), (5, 1, 7)])
def test_ap_rows_cover_the_index_set(x0, y0, m):
    # (x0+i*m)(y0+j*m) = x0*y0 + m*u: the rows hold exactly the u <= top
    for top in range(0, 121):
        rows = list(sumprod.oracle._ap_rows(x0, y0, m, top))
        assert len(rows) <= 2 * (math.isqrt(top // m) + 1)
        got = set()
        for start, step, count in rows:
            assert count >= 1 and start + (count - 1) * step <= top
            got.update(range(start, start + count * step, step))
        want = {
            x0 * j + y0 * i + m * i * j
            for i in range(top + 1)
            for j in range(top + 1)
            if x0 * j + y0 * i + m * i * j <= top
        }
        assert got == want, top


def test_grid_small_clean():
    rep = grid_verify_theorem(m_max=3, k_window=10)
    assert rep.ok and rep.instances == 98
    assert rep.values == 98 * 21


def test_grid_builds_one_table_per_m_c_d(monkeypatch):
    # one class-side table per (m, c, d): 1 + 4 + 9, not one per template
    calls = []
    build = sumprod.oracle._class_products

    def counting(*args):
        calls.append(args[:3])
        return build(*args)

    monkeypatch.setattr(sumprod.oracle, "_class_products", counting)
    rep = grid_verify_theorem(m_max=3, k_window=4)
    assert rep.ok and rep.instances == 98
    assert len(calls) == 14 and len(set(calls)) == 14


def test_grid_m1_trivial():
    rep = grid_verify_theorem(m_max=1, k_window=5)
    assert rep.ok and rep.instances == 1


def test_grid_rejects_oversize():
    with pytest.raises(ValueError):
        grid_verify_theorem(m_max=13)


@pytest.mark.parametrize(
    "m_max, k_window, message",
    [
        (12, 100000, r"sweep targets must be <= 5\*10\*\*5, got 12142060710"),
        (6, 3000, r"sweep targets must be <= 5\*10\*\*5, got 13652275"),
        (3, 1000, r"table must be <= 5\*10\*\*6 entries, got 36228361"),
    ],
    ids=["targets-12-100000", "targets-6-3000", "table-3-1000"],
)
def test_grid_refuses_over_budget(monkeypatch, m_max, k_window, message):
    # refused before the first class-side table is built
    def refused(*args):
        raise AssertionError("table built for a refused sweep")

    monkeypatch.setattr(sumprod.oracle, "_class_products", refused)
    with pytest.raises(ValueError, match=message):
        grid_verify_theorem(m_max=m_max, k_window=k_window)


@pytest.mark.parametrize("m_max, k_window", [(3, 200), (8, 20)])
def test_grid_budget_admits_the_largest_sweeps(monkeypatch, m_max, k_window):
    # perfbench's (3, 200) and the desk-scale (8, 20) get to their first table
    def first_table(*args):
        raise LookupError

    monkeypatch.setattr(sumprod.oracle, "_class_products", first_table)
    with pytest.raises(LookupError):
        grid_verify_theorem(m_max=m_max, k_window=k_window)


def test_grid_catches_injected_fault():
    # self-test of the harness: a corrupted witness must surface as a
    # discrepancy, not pass silently
    def corrupt(w: Witness) -> Witness:
        return Witness(w.a_prime, w.b_prime + 1, w.c_prime, w.d_prime)

    rep = grid_verify_theorem(m_max=1, k_window=2, corrupt=corrupt)
    assert not rep.ok
    assert all(d[6] == "verify-failed" for d in rep.discrepancies)
    assert len(rep.discrepancies) == 5


def test_grid_full_desk_scale():
    # the pair and dilation theorems, differentially, across every template
    # tuple with m <= 8
    rep = grid_verify_theorem(m_max=8, k_window=20)
    assert rep.ok, rep.discrepancies[:5]
    assert rep.instances == sum(m**4 for m in range(1, 9))


def test_strictness_demo():
    rep = strictness_demo(1000)
    assert rep.in_class and not rep.in_product
    assert rep.non_representable and rep.ok is True
    assert 53 in rep.non_representable
    assert 53 in rep.primes_found
    assert all(n % 19 == 15 for n in rep.non_representable)
    assert all(math.gcd(p, 19) == 1 for p in rep.primes_found)


def test_strictness_demo_tiny_bound():
    rep = strictness_demo(15)
    assert 15 not in rep.non_representable  # 15 = 3*5 is representable


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def test_strictness_demo_primes_match_sieve():
    rep = strictness_demo(20000)
    flags = _sieve(20000)
    assert rep.primes_found == [n for n in rep.non_representable if flags[n]]
