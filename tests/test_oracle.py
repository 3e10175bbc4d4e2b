import itertools
import math
import random
import time
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

import sumprod.oracle
from sumprod import witness
from sumprod import (
    CongruenceClass,
    Instance,
    InternalInvariantError,
    SearchBox,
    Witness,
    grid_verify_theorem,
    oracle_member_class,
    oracle_member_progression,
    product_class_contains,
    solve_dilated,
    strictness_demo,
)
from sumprod.oracle import _positive_divisors

DET = settings(max_examples=300, derandomize=True, deadline=None)


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


def _lexicographic_class_cases():
    yield Instance(1, 1, 1, 1, 1, 4), SearchBox(-2, 2)
    rng = random.Random(13)
    for _ in range(150):
        m = rng.randint(1, 4)
        a, b, c, d = (rng.randint(-m, 2 * m) for _ in range(4))
        lo = rng.randint(-4, 1)
        box = SearchBox(lo, lo + rng.randint(0, 4))
        # members at random indices, and targets that are mostly not
        i, j, k, l = (rng.randint(box.lo, box.hi) for _ in range(4))
        member = (a + i * m) * (b + j * m) + (c + k * m) * (d + l * m)
        yield Instance(a, b, c, d, m, member), box
        yield Instance(a, b, c, d, m, rng.randint(-60, 60)), box
    # the first (i, j) leaves 0 for a zero class-side factor at k = -1, and
    # every l pairs with it: l is box.lo
    yield Instance(3, 5, 2, 5, 2, -1), SearchBox(-2, 1)


def test_class_oracle_lexicographic_first():
    cases = list(_lexicographic_class_cases())
    assert len(cases) == 302
    for inst, box in cases:
        a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
        ok, quad = oracle_member_class(inst, box)
        # recompute the lexicographic minimum by brute force
        span = range(box.lo, box.hi + 1)
        best = next(
            (
                (i, j, k, l)
                for i, j, k, l in itertools.product(span, repeat=4)
                if (a + i * m) * (b + j * m) + (c + k * m) * (d + l * m) == inst.N
            ),
            None,
        )
        assert (ok, quad) == (best is not None, best), (inst, box)
    assert oracle_member_class(Instance(3, 5, 2, 5, 2, -1), SearchBox(-2, 1)) == (
        True,
        (-2, -2, -1, -2),
    )


def test_class_oracle_refuses_an_oversize_table():
    # the table would take about 2*10**10 bytes: refused before allocation
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"<= 5\*10\*\*7 bytes, got 20000000201"):
        oracle_member_class(Instance(1, 1, 1, 1, 10**6, 2), SearchBox(-100, 100))
    assert time.perf_counter() - start < 1.0


def test_class_oracle_table_hit_with_no_k_l_raises(monkeypatch):
    # 53 is no member of (3, 5, 2, 2) mod 19 in the box; a table that claims
    # the hit (0, 0) leaves 38 = 53 - 3*5, which no (2+19k)(2+19l) in the box
    # makes
    monkeypatch.setattr(sumprod.oracle, "_first_pair", lambda *args: (0, 0))
    with pytest.raises(InternalInvariantError) as err:
        oracle_member_class(Instance(3, 5, 2, 2, 19, 53), SearchBox(-2, 2))
    assert str(err.value) == (
        "table hit with no (k, l) in SearchBox(lo=-2, hi=2): "
        "Instance(a=3, b=5, c=2, d=2, m=19, N=53)"
    )


def _class_products_by_set(c: int, d: int, m: int, box: SearchBox) -> set[int]:
    # Every (c+k*m)(d+l*m) with k and l in the box: the class side of the
    # meet-in-the-middle search.
    span = range(box.lo, box.hi + 1)
    return {(c + k * m) * (d + l * m) for k in span for l in span}


def _first_pair_by_set(
    a: int, b: int, m: int, n_target: int, order: Sequence[int], products: set[int]
) -> Optional[tuple[int, int]]:
    # First (i, j) in order x order with N - (a+i*m)(b+j*m) in products.
    for i in order:
        ai = a + i * m
        for j in order:
            if n_target - ai * (b + j * m) in products:
                return i, j
    return None


def _class_table_cases():
    # (a, b, c, d, m, table box, pair box): asymmetric boxes, m = 1, zero
    # class-side factors (c = m at k = -1, c = 0 at k = 0) and pair boxes
    # that are narrower than, or stick out of, the table's box
    boxes = [SearchBox(*ends) for ends in ((-3, 1), (-1, 4), (0, 3), (2, 5), (-4, -1))]
    for m in (1, 2, 3):
        for c, d in ((m, 1), (1, m), (0, 2), (-1, m + 1), (m + 1, -m)):
            for box in boxes:
                yield 1, m, c, d, m, box, box
                yield -m, 2, c, d, m, box, SearchBox(box.lo + 1, box.hi + 1)
    rng = random.Random(14)
    for _ in range(200):
        m = rng.randint(1, 6)
        a, b, c, d = (rng.randint(-2 * m, 2 * m) for _ in range(4))
        lo, lo_pair = rng.randint(-6, 3), rng.randint(-6, 3)
        box = SearchBox(lo, lo + rng.randint(0, 7))
        yield a, b, c, d, m, box, SearchBox(lo_pair, lo_pair + rng.randint(0, 7))


def test_class_table_matches_set_reference():
    # the byte table holds exactly the set's products over exactly their
    # range, and every target, negative, off the products' residue class or
    # outside their range included,
    # gets the set search's (i, j) in the centered and the ascending order
    cases = list(_class_table_cases())
    assert len(cases) == 350
    queries = 0
    for a, b, c, d, m, box, pair_box in cases:
        pair_ends = (pair_box.lo, pair_box.hi)
        products = _class_products_by_set(c, d, m, box)
        low, buf = table = sumprod.oracle._class_products(c, d, m, box)
        assert low == min(products) and len(buf) == (max(products) - low) // m + 1
        assert set(buf) <= {0, 1}
        assert {low + m * p for p, flag in enumerate(buf) if flag} == products
        # past either end of the table by the largest pair-side product, in
        # the class N - ab = low mod m and one off it
        reach = max(
            abs((a + i * m) * (b + j * m)) for i in pair_ends for j in pair_ends
        )
        first = low + a * b - m * (reach // m + 1)
        end = low + a * b + m * len(buf) + reach
        step = m * (1 + (end - first) // (60 * m))
        targets = [n + off for n in range(first, end + 1, step) for off in (0, 1)]
        ascending = range(pair_box.lo, pair_box.hi + 1)
        for order in (sumprod.oracle._centered(pair_box), ascending):
            for n_target in targets:
                got = sumprod.oracle._first_pair(
                    a, b, m, n_target, pair_box, order, table
                )
                want = _first_pair_by_set(a, b, m, n_target, order, products)
                assert got == want, (a, b, c, d, m, box, pair_box, n_target, order)
                queries += 1
    assert queries == 68_100


def test_progression_oracle_examples():
    assert oracle_member_progression(Instance(3, 5, 2, 2, 19, 19))[1] == (0, 0, 0, 0)
    ok, quad = oracle_member_progression(Instance(1, 1, 1, 1, 2, 4))
    assert ok and quad == (0, 0, 0, 1)
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, 3))[0]
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, 0))[0]
    assert not oracle_member_progression(Instance(1, 1, 1, 1, 2, -6))[0]


@pytest.mark.parametrize("template", [(0, 1, 1, 1), (1, 1, 1, -1)])
def test_progression_oracle_refuses_non_positive_templates(template):
    with pytest.raises(ValueError, match="^progression templates must be positive$"):
        oracle_member_progression(Instance(*template, 2, 4))

def test_progression_oracle_scan_budget():
    # 10**6 member indices are scanned; one more, or a 5,000-digit target,
    # is refused before the digit table is allocated
    assert oracle_member_progression(Instance(1, 1, 1, 1, 1, 2 + 10**6 - 1))[0]
    with pytest.raises(ValueError, match=r"must be <= 10\*\*6$"):
        oracle_member_progression(Instance(1, 1, 1, 1, 1, 2 + 10**6))
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"must be <= 10\*\*6$"):
        oracle_member_progression(Instance(2, 2, 2, 2, 2, 8 + 2 * 10**4999))
    assert time.perf_counter() - started < 0.1


def _in_progression_product(x0, y0, m, n):
    # n ∈ P_m(x0)·P_m(y0) by divisor enumeration: some divisor x of n lies in
    # P_m(x0) and its cofactor n // x in P_m(y0).
    return n > 0 and any(
        x >= x0 and (x - x0) % m == 0 and n // x >= y0 and (n // x - y0) % m == 0
        for x in _positive_divisors(n)
    )


def test_progression_oracle_against_divisor_pair_strategy():
    # Independent second route: split N = p + q and decide each product side
    # by divisor enumeration.
    for a, b, c, d, m in ((1, 1, 1, 1, 2), (3, 5, 2, 2, 19)):
        for n_target in range(1, 501):
            got = oracle_member_progression(Instance(a, b, c, d, m, n_target))[0]
            want = False
            for p in range(a * b, n_target - c * d + 1):
                if not _in_progression_product(a, b, m, p):
                    continue
                if _in_progression_product(c, d, m, n_target - p):
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


def test_grid_perfbench_sweep_clean():
    # the sweep perfbench's oracle_sweep repeats, every table included
    rep = grid_verify_theorem(m_max=3, k_window=200)
    assert rep.ok, rep.discrepancies[:5]
    assert rep.instances == 98 and rep.values == 39_298


def _far_table_bytes(m_max, k_window):
    # The class-side table at c = d = m = m_max over the box the budget
    # checks, [-half, half]: one byte per m values from the smallest corner
    # product to the largest, 2*half*(half + 1)*m_max + 1.  Table size grows
    # with c, d, m and the box, and every table of the sweep has c, d <= m <=
    # m_max and a box no wider, so this is the sweep's largest.
    far = Instance(m_max, m_max, m_max, m_max, m_max, m_max**2 * (2 + k_window))
    box = SearchBox.default_for(far)
    ends = [m_max + q * m_max for q in (box.lo, box.hi)]
    corners = [x * y for x in ends for y in ends]
    return (max(corners) - min(corners)) // m_max + 1


def test_grid_builds_one_table_per_m_c_d(monkeypatch):
    # one class-side table per (m, c, d): 1 + 4 + 9, not one per template;
    # the largest is the one _far_table_bytes sizes
    calls, sizes = [], []
    build = sumprod.oracle._class_products

    def counting(*args):
        calls.append(args[:3])
        table = build(*args)
        sizes.append(len(table[1]))
        return table

    monkeypatch.setattr(sumprod.oracle, "_class_products", counting)
    rep = grid_verify_theorem(m_max=3, k_window=4)
    assert rep.ok and rep.instances == 98
    assert len(calls) == 14 and len(set(calls)) == 14
    assert max(sizes) == _far_table_bytes(3, 4) == 2773


def test_grid_scans_each_m_c_d_group_over_one_box(monkeypatch):
    # every (a, b) of a (m, c, d) group is scanned over the box of the
    # group's far target, (a, b) = (m, m) at +k_window, in the one order
    # _centered builds for that group: 14 orders for (3, 10), not 98
    k_window = 10
    group, scans, orders = [], {}, []
    build = sumprod.oracle._class_products
    scan = sumprod.oracle._first_pair
    center = sumprod.oracle._centered

    def building(c, d, m, box):
        group[:] = [(m, c, d)]
        return build(c, d, m, box)

    def centering(box):
        orders.append((box, center(box)))
        return orders[-1][1]

    def scanning(a, b, m, n_target, box, order, table):
        assert order is orders[-1][1]
        scans.setdefault(group[0], set()).add((a, b, box))
        return scan(a, b, m, n_target, box, order, table)

    monkeypatch.setattr(sumprod.oracle, "_class_products", building)
    monkeypatch.setattr(sumprod.oracle, "_centered", centering)
    monkeypatch.setattr(sumprod.oracle, "_first_pair", scanning)
    rep = grid_verify_theorem(m_max=3, k_window=k_window)
    assert rep.ok and rep.values == 98 * (2 * k_window + 1)
    far_boxes = []
    for m in (1, 2, 3):
        for c, d in itertools.product(range(1, m + 1), repeat=2):
            n_far = m * m + c * d + k_window * math.gcd(c, d, m) * m
            box = SearchBox.default_for(Instance(m, m, c, d, m, n_far))
            far_boxes.append(box)
            pairs = itertools.product(range(1, m + 1), repeat=2)
            assert scans.pop((m, c, d)) == {(a, b, box) for a, b in pairs}
    assert not scans
    assert [box for box, _ in orders] == far_boxes and len(far_boxes) == 14


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
        (5, 221, r"table must be <= 5\*10\*\*6 entries, got 5022081"),
    ],
    ids=["targets-12-100000", "targets-6-3000", "table-3-1000", "table-5-221"],
)
def test_grid_refuses_over_budget(monkeypatch, m_max, k_window, message):
    # refused before the first class-side table is built
    def refused(*args):
        raise AssertionError("table built for a refused sweep")

    monkeypatch.setattr(sumprod.oracle, "_class_products", refused)
    with pytest.raises(ValueError, match=message):
        grid_verify_theorem(m_max=m_max, k_window=k_window)


def _admitted(monkeypatch, m_max, k_window):
    # Does the budget let the sweep get to its first table?  No table is built.
    def first_table(*args):
        raise LookupError

    monkeypatch.setattr(sumprod.oracle, "_class_products", first_table)
    try:
        grid_verify_theorem(m_max=m_max, k_window=k_window)
    except LookupError:
        return True
    except ValueError:
        return False
    raise AssertionError("the sweep ended without building a table")


@pytest.mark.parametrize("m_max, k_window", [(3, 200), (8, 20), (5, 220)])
def test_grid_budget_admits_the_largest_sweeps(monkeypatch, m_max, k_window):
    # perfbench's (3, 200), the desk-scale (8, 20) and the budget's largest
    # table, (5, 220), get to their first table
    assert _admitted(monkeypatch, m_max, k_window)


def test_grid_table_bytes_within_budget(monkeypatch):
    # The widest window the budget admits for each m_max, found by bisection
    # on the budget itself, and its largest table in bytes: at most
    # 12,443,401 (11.9 MiB), at (5, 220).
    widest = {}
    for m_max in range(1, 13):
        lo, hi = 0, 10**6  # admitted, refused
        assert _admitted(monkeypatch, m_max, lo)
        assert not _admitted(monkeypatch, m_max, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _admitted(monkeypatch, m_max, mid) else (lo, mid)
        widest[m_max] = _far_table_bytes(m_max, lo), lo
    assert max(widest.values()) == (12_443_401, 220) == widest[5]


def test_grid_catches_injected_fault():
    # self-test of the harness: a corrupted witness must surface as a
    # discrepancy, not pass silently
    def corrupt(w: Witness) -> Witness:
        return Witness(w.a_prime, w.b_prime + 1, w.c_prime, w.d_prime)

    rep = grid_verify_theorem(m_max=1, k_window=2, corrupt=corrupt)
    assert not rep.ok
    assert all(d[6] == "verify-failed" for d in rep.discrepancies)
    assert len(rep.discrepancies) == 5


def _sweep_targets(m_max, k_window):
    # Every target of grid_verify_theorem(m_max, k_window), in sweep order.
    for m in range(1, m_max + 1):
        for c, d in itertools.product(range(1, m + 1), repeat=2):
            for a, b in itertools.product(range(1, m + 1), repeat=2):
                step = math.gcd(a, b, c, d, m) * m
                for t in range(-k_window, k_window + 1):
                    yield a, b, c, d, m, a * b + c * d + t * step


def test_grid_certificates_are_solve_dilated_s():
    # the sweep's per-target solve is solve_dilated's: on every target, the
    # certificate the corrupt hook sees is the one solve_dilated returns
    seen = []

    def observe(w: Witness) -> Witness:
        seen.append(w)
        return w

    rep = grid_verify_theorem(m_max=3, k_window=30, corrupt=observe)
    assert rep.ok and rep.values == 98 * 61 == len(seen)
    targets = list(_sweep_targets(3, 30))
    assert seen == [solve_dilated(Instance(*target))[0] for target in targets]


def test_grid_reads_each_plan_once_and_solves_without_solve_dilated(monkeypatch):
    # one _plan miss per template and no per-target lookups; every target
    # goes through witness._solve, with no solve_dilated and no Instance:
    # the sweep builds one only for the budget's box and each group's box
    calls, built = [], []
    real = witness._solve

    def counting(*args):
        calls.append(args[:6])
        return real(*args)

    def building(*args):
        built.append(args)
        return Instance(*args)

    def refused(*args):
        raise AssertionError("called by the sweep")

    assert sumprod.oracle._solve is witness._solve
    monkeypatch.setattr(sumprod.oracle, "_solve", counting)
    monkeypatch.setattr(sumprod.oracle, "Instance", building)
    monkeypatch.setattr(sumprod.oracle, "solve_dilated", refused, raising=False)
    monkeypatch.setattr(witness, "solve_dilated", refused)
    monkeypatch.setattr(witness, "Instance", refused)
    witness._plan.cache_clear()
    rep = grid_verify_theorem(m_max=3, k_window=5)
    assert rep.ok and rep.instances == 98
    info = witness._plan.cache_info()
    assert (info.hits, info.misses) == (0, 98)
    assert calls == list(_sweep_targets(3, 5))
    assert len(built) == 1 + 14


def test_grid_reports_a_solver_not_member(monkeypatch):
    # a target the solver calls a non-member is a discrepancy, not a skip,
    # and the sweep goes on to the next target
    real = witness._solve
    missed = (2, 1, 1, 1, 2, 2 + 1 + 3 * 2)

    def dropping(*args):
        return None if args[:6] == missed else real(*args)

    monkeypatch.setattr(sumprod.oracle, "_solve", dropping)
    rep = grid_verify_theorem(m_max=2, k_window=4)
    assert rep.discrepancies == [missed + ("solver-not-member",)]
    assert rep.values == 17 * 9


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


def _is_prime(n):
    # Trial division: n >= 2 is prime exactly when its divisors are 1 and n.
    return _positive_divisors(n) == [1, n]


def test_strictness_demo_primes_match_sieve():
    rep = strictness_demo(20000)
    assert rep.primes_found == [n for n in rep.non_representable if _is_prime(n)]


@pytest.mark.parametrize("bound", [-5, 0, 14, 15, 34, 100, 1000, 20000, 123457])
def test_strictness_demo_matches_divisor_scan(bound):
    # Independent route: decide each member of P_19(15) up to the bound by
    # divisor enumeration, and each missing one's primality by trial division.
    missing = [
        n
        for n in range(15, bound + 1, 19)
        if not _in_progression_product(3, 5, 19, n)
    ]
    rep = strictness_demo(bound)
    assert rep.non_representable == missing
    assert rep.primes_found == [n for n in missing if _is_prime(n)]


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
