import dataclasses
import itertools
import math
import time

import pytest

import sumprod.oracle
from sumprod import progressions, witness
from sumprod import (
    Instance,
    InternalInvariantError,
    exceptional_set,
    oracle_member_progression,
    solve_dilated,
    solve_progression,
    threshold_N0,
    verify_witness,
)


def test_threshold_examples():
    rep = threshold_N0(1, 1, 1, 1, 2)
    assert (rep.a_hi, rep.c_hi, rep.N0) == (9, 45, 864)
    rep = threshold_N0(1, 1, 1, 1, 1)
    assert (rep.a_hi, rep.c_hi, rep.N0) == (3, 6, 27)
    assert threshold_N0(1, 1, 1, 1, 1).N0 < threshold_N0(1, 1, 1, 1, 2).N0


def test_threshold_identity():
    for a, b, c, d, m in ((1, 2, 3, 4, 5), (2, 2, 2, 2, 3), (7, 1, 1, 7, 2)):
        rep = threshold_N0(a, b, c, d, m)
        assert rep.N0 == rep.a_hi * b + rep.c_hi * d + m * rep.a_hi * rep.c_hi
        assert rep.a_hi == a + (d + 1) * m * m
        assert rep.c_hi == c + (a + b + 1) * m * m + (d + 1) * m**4


def test_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        threshold_N0(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        threshold_N0(1, 1, -1, 1, 2)


def test_threshold_rejects_common_factor():
    # delta = 2: the coprime formula gives N0 = 2128, yet 2130 is a member of
    # P_2(8) with no one-sided decomposition (every product is 0 mod 4)
    assert oracle_member_progression(Instance(2, 2, 2, 2, 2, 2130)) == (False, None)
    with pytest.raises(ValueError, match="gcd"):
        threshold_N0(2, 2, 2, 2, 2)


def test_threshold_dominates_growth_inequality():
    # N0 > a'b + c'd + m(a'-m')(c'-m') across the whole (a', c') box; the
    # right side is monotone in a' and c', so corners suffice.  Templates
    # with a common factor have no N0 (test_threshold_rejects_common_factor).
    for m in range(1, 5):
        for a, b, c, d in itertools.product(range(1, 4), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            rep = threshold_N0(a, b, c, d, m)
            for a_p in (a, rep.a_hi):
                for c_p in (c, rep.c_hi):
                    for m_p in (1, m):
                        bound = a_p * b + c_p * d + m * (a_p - m_p) * (c_p - m_p)
                        assert rep.N0 > bound


def test_solve_progression_identity():
    inst = Instance(1, 1, 1, 1, 1, 2)
    res = solve_progression(inst)
    assert res.status == "witness"
    w = res.witness
    assert (w.a_prime, w.b_prime, w.c_prime, w.d_prime) == (1, 1, 1, 1)


def test_solve_progression_above_threshold():
    inst = Instance(1, 1, 1, 1, 2, 866)
    res = solve_progression(inst)
    assert res.status == "witness" and res.threshold.N0 == 864
    w = res.witness
    assert verify_witness(inst, w)
    assert min(w.a_prime, w.b_prime, w.c_prime, w.d_prime) >= 1
    ok, quad = oracle_member_progression(inst)
    assert ok and all(q >= 0 for q in quad)


def test_solve_progression_not_member():
    assert solve_progression(Instance(1, 1, 1, 1, 2, 3)).status == "not-member"
    # below the smallest member
    assert solve_progression(Instance(2, 2, 2, 2, 3, 5)).status == "not-member"


def test_solve_progression_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_progression(Instance(0, 1, 1, 1, 2, 10))
    with pytest.raises(ValueError):
        solve_progression(Instance(2, 2, 2, 2, 2, 8))


def test_template_checked_and_sized_once():
    progressions._plan.cache_clear()
    a, b, c, d, m = 1, 2, 2, 1, 3
    reports = [
        solve_progression(Instance(a, b, c, d, m, a * b + c * d + m * t)).threshold
        for t in range(200)
    ]
    info = progressions._plan.cache_info()
    assert (info.misses, info.hits) == (1, 199)
    assert all(rep is reports[0] for rep in reports)


def test_failing_template_raises_on_every_call():
    # a raise is not cached, so the checks stand on each call
    progressions._plan.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="gcd"):
            solve_progression(Instance(2, 2, 2, 2, 2, 10))


def test_threshold_report_keeps_the_callers_types():
    # True == 1 and they hash alike; the cache must not hand one's report
    # to the other
    first = solve_progression(Instance(1, 1, 1, 1, 1, 3)).threshold
    rep = solve_progression(Instance(True, 1, 1, 1, 1, 3)).threshold
    assert type(first.instance[0]) is int and rep.instance[0] is True


def test_lift_that_misses_at_or_above_N0_raises(monkeypatch):
    # (1, 1, 1, 2) mod 1 at N = 4 is a below-threshold failure under its
    # N0 = 46; with N0 lowered to 4 the same miss breaks the threshold's claim
    report, plan = progressions._plan(1, 1, 1, 2, 1)
    assert solve_progression(Instance(1, 1, 1, 2, 1, 4)).status == (
        "below-threshold-failure"
    )
    lowered = (dataclasses.replace(report, N0=4), plan)
    monkeypatch.setattr(progressions, "_plan", lambda *template: lowered)
    with pytest.raises(InternalInvariantError) as err:
        solve_progression(Instance(1, 1, 1, 2, 1, 4))
    assert str(err.value) == (
        "one-sided lift must succeed at N >= N0: "
        "Instance(a=1, b=1, c=1, d=2, m=1, N=4), N0=4"
    )


def test_one_sided_bounds_checked_on_the_witness(monkeypatch):
    # (r - C, s + A) is another lift of (b, d): a pair certificate that the
    # untraced solve accepts, with b' = b + m*(r - C) < b.  Only the one-sided
    # bounds, checked on the witness itself, refuse it.
    real = witness._least_r_lift

    def below(big_a, big_c, inv, ell):
        r, s = real(big_a, big_c, inv, ell)
        return r - big_c, s + big_a

    monkeypatch.setattr(witness, "_least_r_lift", below)
    inst = Instance(3, 5, 2, 2, 19, 152)
    w, _ = solve_dilated(inst)
    assert verify_witness(inst, w) and w.b_prime < inst.b
    with pytest.raises(InternalInvariantError) as err:
        solve_progression(inst)
    assert str(err.value) == (
        "one-sided witness below its template: "
        "Witness(a_prime=3, b_prime=-14, c_prime=2, d_prime=97) "
        "for Instance(a=3, b=5, c=2, d=2, m=19, N=152)"
    )


def test_consistency_with_oracle():
    # solver success implies oracle membership (soundness); oracle membership
    # at or above N0 implies solver success (constructive completeness)
    a, b, c, d, m = 1, 1, 1, 1, 2
    n0 = threshold_N0(a, b, c, d, m).N0
    cap = n0 + 80
    exc = set(exceptional_set(a, b, c, d, m, cap))
    for n_target in range(a * b + c * d, cap + 1, m):
        inst = Instance(a, b, c, d, m, n_target)
        res = solve_progression(inst)
        member = oracle_member_progression(inst)[0]
        assert member == (n_target not in exc)
        if res.status == "witness":
            assert member
            assert verify_witness(inst, res.witness)
        if member and n_target >= n0:
            assert res.status == "witness"
        if not member:
            assert res.status == "below-threshold-failure"


def test_exceptional_set_small():
    # (1,1,1,1,1): every n >= 2 is 1*1 + 1*(n-1)
    assert exceptional_set(1, 1, 1, 1, 1, 27) == []
    assert exceptional_set(1, 1, 1, 1, 1, 2) == []


def test_exceptional_set_members_rechecked():
    a, b, c, d, m = 1, 1, 1, 1, 3
    n0 = threshold_N0(a, b, c, d, m).N0
    exc = exceptional_set(a, b, c, d, m, n0)
    assert exc == sorted(exc)
    assert all(e < n0 for e in exc)
    base = a * b + c * d
    for e in exc[:10]:
        assert (e - base) % m == 0
        assert not oracle_member_progression(Instance(a, b, c, d, m, e))[0]
    # and everything the set omits really is representable
    omitted = [
        n for n in range(base, n0 + 1, m) if n not in set(exc)
    ]
    for n in omitted[:10] + omitted[-10:]:
        assert oracle_member_progression(Instance(a, b, c, d, m, n))[0]


@pytest.mark.parametrize("a, b, c, d, m", [(1, 1, 1, 1, 3), (2, 1, 1, 2, 3)])
def test_exceptional_set_matches_oracle(a, b, c, d, m):
    # a member is listed exactly when the oracle finds no decomposition
    cap = 600
    expected = [
        n
        for n in range(a * b + c * d, cap + 1, m)
        if not oracle_member_progression(Instance(a, b, c, d, m, n))[0]
    ]
    assert exceptional_set(a, b, c, d, m, cap) == expected


def test_exceptional_set_cap_semantics():
    a, b, c, d, m = 2, 1, 1, 2, 3
    full = exceptional_set(a, b, c, d, m, 500)
    if full:
        e = full[-1]
        assert e in exceptional_set(a, b, c, d, m, e)  # inclusive cap
    assert exceptional_set(a, b, c, d, m, a * b + c * d - 1) == []


def test_exceptional_set_scan_budget(monkeypatch):
    # 10**6 members are scanned; one more is refused before the mask is built
    calls = []

    def all_members(a, b, c, d, m, top):
        calls.append(top)
        return (1 << (top + 1)) - 1

    monkeypatch.setattr(sumprod.oracle, "_folded_sums_mask", all_members)
    base, m = 1 * 1 + 2 * 2, 3
    at_budget = base + m * (10**6 - 1)
    assert exceptional_set(1, 1, 2, 2, m, at_budget + m - 1) == []
    assert calls == [10**6 - 1]

    def refused(*args):
        raise AssertionError("mask built for a refused cap")

    monkeypatch.setattr(sumprod.oracle, "_folded_sums_mask", refused)
    with pytest.raises(ValueError, match=r"must be <= 10\*\*6$"):
        exceptional_set(1, 1, 2, 2, m, at_budget + m)


def test_exceptional_set_refuses_a_5000_digit_cap_by_its_budget_text():
    # the text holds no count, whose str() past 4300 digits would raise
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        exceptional_set(1, 1, 1, 1, 1, 10**5000)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == (
        "members to scan ((cap - ab - cd) // m + 1) must be <= 10**6"
    )
