"""Acceptance suite: one test per criterion, each at its stated scale and
tolerance (all checks are exact integer identities; zero failures allowed).

Run with `pytest tests/test_acceptance.py -v`; each test prints its own
PASS line (visible with -s) and shows up as a PASSED row in -v output.
"""

import itertools
import math
import random

from sumprod import (
    Instance,
    IteratedSpec,
    SearchBox,
    Witness,
    exceptional_set,
    grid_verify_theorem,
    solve_class,
    solve_dilated,
    solve_iterated,
    solve_progression,
    strictness_demo,
    subgroup_witness,
    sylvester_nonneg,
    threshold_N0,
    validate_trace,
    verify_iterated,
    verify_witness,
)
from sumprod.oracle import (
    _centered,
    _class_products,
    _first_pair,
    _iterated_finder,
)


def _report(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_pair_theorem_exhaustive():
    """Every coprime template tuple with m <= 10 and every residue-valid
    target within +-30 steps yields a verified witness with a clean trace."""
    checked = 0
    for m in range(1, 11):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            base = a * b + c * d
            for k in range(-30, 31):
                inst = Instance(a, b, c, d, m, base + k * m)
                got = solve_class(inst)
                assert got is not None, inst
                w, trace = got
                assert verify_witness(inst, w), inst
                validate_trace(trace)  # raises on any intermediate violation
                checked += 1
    assert checked == 1_478_640
    _report(f"criterion 1 (pair theorem, {checked} targets)")


def test_criterion_2_dilated_exhaustive():
    """For every tuple with delta > 1 and m <= 10, solve_dilated succeeds on
    exactly the targets congruent to ab + cd mod delta*m (set equality with
    the dilated class on a +-30*delta*m window)."""
    instances = values = 0
    for m in range(2, 11):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            delta = math.gcd(a, b, c, d, m)
            if delta <= 1:
                continue
            instances += 1
            base = a * b + c * d
            dm = delta * m
            for off in range(-30 * dm, 30 * dm + 1):
                inst = Instance(a, b, c, d, m, base + off)
                got = solve_dilated(inst)
                if off % dm == 0:
                    assert got is not None, inst
                    w, got_delta = got
                    assert got_delta == delta
                    assert verify_witness(inst, w), inst
                else:
                    assert got is None, inst
                values += 1
    assert instances == 1093
    _report(f"criterion 2 (dilated theorem, {instances} instances, {values} targets)")


SUBGROUP_TUPLES = [
    (2, 4, 6, 8, 10),
    (1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5),
    (2, 2, 2, 2, 2),
    (3, 3, 3, 3, 9),
    (2, 4, 6, 8, 12),
    (5, 10, 15, 20, 25),
    (4, 6, 8, 10, 14),
    (0, 2, 4, 6, 8),
    (-2, 4, -6, 8, 10),
    (7, 7, 7, 7, 7),
    (1, 2, 3, 4, 6),
    (9, 3, 6, 12, 15),
    (8, 12, 20, 16, 4),
    (5, 5, 5, 5, 10),
    (12, 18, 24, 30, 6),
    (2, 3, 5, 7, 11),
    (10, 20, 30, 40, 50),
    (-3, 6, 9, -12, 15),
    (14, 21, 35, 7, 7),
]


def test_criterion_3_subgroup():
    """Bounded evaluations land in delta*Z, and subgroup_witness hits every
    multiple of delta in [-50*delta, 50*delta] with a re-evaluating quadruple."""
    assert len(SUBGROUP_TUPLES) == 20
    assert (2, 4, 6, 8, 10) in SUBGROUP_TUPLES
    for a, b, c, d, m in SUBGROUP_TUPLES:
        delta = math.gcd(a, b, c, d, m)
        box = range(-6, 7)
        for w, x, y, z in itertools.product(box, repeat=4):
            val = a * w + b * x + c * y + d * z + m * (w * x + y * z)
            assert val % delta == 0, (a, b, c, d, m, (w, x, y, z))
        for t in range(-50 * delta, 50 * delta + 1, delta):
            sw = subgroup_witness(a, b, c, d, m, t)
            assert sw is not None, (a, b, c, d, m, t)
            assert sw.evaluate(a, b, c, d, m) == t
        if delta > 1:
            assert subgroup_witness(a, b, c, d, m, delta * 7 + 1) is None
    _report("criterion 3 (subgroup, 20 tuples)")


def test_criterion_4_progressions():
    """For every positive template tuple with m <= 3 and entries <= 2:
    one-sided witnesses for every progression member in [N0, N0 + 40m], and
    no exceptional member at or above N0."""
    instances = targets = 0
    for m in (1, 2, 3):
        for a, b, c, d in itertools.product((1, 2), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            instances += 1
            rep = threshold_N0(a, b, c, d, m)
            base = a * b + c * d
            start = rep.N0 + ((base - rep.N0) % m)
            for n_target in range(start, rep.N0 + 40 * m + 1, m):
                inst = Instance(a, b, c, d, m, n_target)
                res = solve_progression(inst)
                assert res.status == "witness", (inst, res.status)
                assert res.threshold == rep
                w = res.witness
                assert verify_witness(inst, w)
                assert w.a_prime >= a and w.b_prime >= b
                assert w.c_prime >= c and w.d_prime >= d
                targets += 1
            exc = exceptional_set(a, b, c, d, m, rep.N0)
            assert all(e < rep.N0 for e in exc), (a, b, c, d, m)
    assert instances == 47
    _report(f"criterion 4 (progressions, {instances} instances, {targets} targets)")


def test_criterion_5_strictness():
    """53 lies in R_19(15) but not in R_19(3)R_19(5); the bounded scan of
    P_19(15) up to 1000 exposes at least one non-representable member."""
    rep = strictness_demo(1000)
    assert rep.in_class is True
    assert rep.in_product is False
    assert len(rep.non_representable) >= 1
    assert 53 in rep.non_representable
    _report(
        f"criterion 5 (strictness; {len(rep.non_representable)} gaps <= 1000, "
        f"{len(rep.primes_found)} prime)"
    )


def _iter_check(terms, m, rng, pair_oracle_rate):
    """Differential check of one iterated configuration over its +-20m window.

    Solver side (status gate and certificate) is always fully checked.  The
    independent bounded search runs on every valid target for absorb shapes
    (cheap there) and on a seeded fraction of pair-led configurations, with
    its tables hoisted out of the target loop in both cases.
    """
    spec = IteratedSpec(m, terms)
    ks = spec.shape()
    base = spec.base_value()
    supported = ks[0] == 1 or (
        ks[0] == 2 and ks[1] == 2 and math.gcd(*terms[0], *terms[1], m) == 1
    )
    valid_targets = []
    for n_target in range(base - 20 * m, base + 20 * m + 1):
        res = solve_iterated(spec, n_target)
        if not supported:
            assert res.status == "unsupported-shape", (spec, n_target, res.status)
            continue
        if (n_target - base) % m == 0:
            assert res.status == "witness", (spec, n_target)
            assert verify_iterated(spec, res.witness, n_target), (spec, n_target)
            valid_targets.append(n_target)
        else:
            assert res.status == "not-member", (spec, n_target)
    if not supported:
        return
    if ks[0] == 1:
        bounds = (21,) + (1,) * (len(terms) - 1)
        # iterated_member_search, with one table build per configuration
        # instead of one per target
        find = _iterated_finder(terms, m, bounds)
        for n_target in valid_targets:
            qs = find(n_target)
            assert qs is not None, (spec, n_target)
            total = sum(
                math.prod(cf + q * m for cf, q in zip(t, qt))
                for t, qt in zip(terms, qs)
            )
            assert total == n_target
    elif rng.random() < pair_oracle_rate:
        # leading pair against the frozen tail, one table over the box the
        # class oracle would use at the widest target (base - tail > 0)
        (a11, a12), (a21, a22) = terms[0], terms[1]
        tail = sum(math.prod(t) for t in terms[2:])
        far = Instance(a11, a12, a21, a22, m, base - tail + 20 * m)
        box = SearchBox.default_for(far)
        products = _class_products(a21, a22, m, box)
        order = _centered(box)
        for n_target in valid_targets:
            hit = _first_pair(a11, a12, m, n_target - tail, box, order, products)
            assert hit is not None, (spec, n_target)


def test_criterion_6_iterated():
    """Iterated shapes with h <= 3 and m <= 6: solver decisions certified on
    the whole coefficient grid for small shapes (seeded samples where the
    grid is combinatorially large), bounded search agreement alongside, and
    unsupported shapes always refused."""
    rng = random.Random(0x5E7)
    configs = 0

    def coeff_grids(shape, m, cap):
        width = sum(shape)
        if m**width <= cap:
            flats = itertools.product(range(1, m + 1), repeat=width)
        else:
            flats = (
                tuple(rng.randint(1, m) for _ in range(width)) for _ in range(cap)
            )
        for flat in flats:
            terms, at = [], 0
            for k in shape:
                terms.append(tuple(flat[at : at + k]))
                at += k
            yield tuple(terms)

    supported_shapes = [
        (1, 1), (1, 2), (1, 3), (2, 2),
        (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3),
        (2, 2, 2), (2, 2, 3),
    ]
    unsupported_shapes = [(2, 3), (3, 3), (2, 3, 3), (3, 3, 3)]

    for shape in supported_shapes:
        heavy = sum(shape) >= 5
        for m in range(1, 7):
            for terms in coeff_grids(shape, m, cap=60 if heavy else 10**6):
                _iter_check(terms, m, rng, pair_oracle_rate=0.15)
                configs += 1
    for shape in unsupported_shapes:
        for m in range(1, 7):
            for terms in coeff_grids(shape, m, cap=40):
                spec = IteratedSpec(m, terms)
                base = spec.base_value()
                for n_target in (base - m, base, base + 1, base + m):
                    assert solve_iterated(spec, n_target).status == (
                        "unsupported-shape"
                    )
                configs += 1
    _report(f"criterion 6 (iterated sums, {configs} configurations)")


def test_criterion_7_sylvester_frobenius():
    """For every coprime pair 2 <= a < c <= 25: the set of unrepresentable
    targets matches an independent DP oracle exactly, its maximum is
    ac - a - c, and everything at or past (a-1)(c-1) is representable."""
    pairs = 0
    for a in range(2, 26):
        for c in range(a + 1, 26):
            if math.gcd(a, c) != 1:
                continue
            pairs += 1
            cap = a * c
            dp = bytearray(cap + 1)
            dp[0] = 1
            for v in (a, c):
                for s in range(v, cap + 1):
                    if dp[s - v]:
                        dp[s] = 1
            bad_dp = [ell for ell in range(cap + 1) if not dp[ell]]
            bad_sy = [
                ell
                for ell in range(cap + 1)
                if sylvester_nonneg(a, c, 1, ell) is None
            ]
            assert bad_dp == bad_sy, (a, c)
            assert max(bad_dp) == a * c - a - c, (a, c)
            assert all(ell < (a - 1) * (c - 1) for ell in bad_dp), (a, c)
            for ell in range((a - 1) * (c - 1), (a - 1) * (c - 1) + 40):
                r, s = sylvester_nonneg(a, c, 1, ell)
                assert r >= 0 and s >= 0 and a * r + c * s == ell
    _report(f"criterion 7 (Sylvester/Frobenius, {pairs} coprime pairs)")


def test_criterion_8_randomized_robustness():
    """10^4 randomized instances, m <= 10^3 and |k| <= 10^6 with big-integer
    templates: every witness verifies, every refusal is a genuine wrong
    residue, and no internal invariant trips."""
    rng = random.Random(20260811)
    witnesses = negatives = 0
    for _ in range(10_000):
        m = rng.randint(1, 1000)
        a, b, c, d = (rng.randint(-(10**9), 10**9) for _ in range(4))
        k = rng.randint(-(10**6), 10**6)
        delta = math.gcd(a, b, c, d, m)
        n_target = a * b + c * d + k * delta * m
        if delta * m > 1 and rng.random() < 0.5:
            n_target += rng.randint(1, delta * m - 1)
        inst = Instance(a, b, c, d, m, n_target)
        got = solve_dilated(inst)  # InternalInvariantError would fail the test
        if (n_target - (a * b + c * d)) % (delta * m) == 0:
            assert got is not None, inst
            assert verify_witness(inst, got[0]), inst
            witnesses += 1
        else:
            assert got is None, inst
            negatives += 1
    assert witnesses + negatives == 10_000
    _report(
        f"criterion 8 (robustness, {witnesses} witnesses / {negatives} negatives)"
    )
