import itertools
import math
import time

import pytest

from sumprod import oracle
from sumprod import (
    IteratedSpec,
    iterated_member_search,
    solve_iterated,
    verify_iterated,
)


def test_absorb_examples():
    spec = IteratedSpec(7, ((2,), (3, 4)))
    assert solve_iterated(spec, 21).witness.values == ((9,), (3, 4))
    assert solve_iterated(spec, 14).witness.values == ((2,), (3, 4))
    res = solve_iterated(spec, 15)
    assert res.status == "not-member" and res.witness is None


def test_absorb_validation():
    with pytest.raises(ValueError):
        IteratedSpec(7, ((2,), ()))  # empty product term
    with pytest.raises(ValueError):
        IteratedSpec(0, ((2,), (3,)))


def test_absorb_invariants_small_grid():
    # the lone class takes the whole residue; the product term is untouched
    for m in range(1, 8):
        for a0 in range(-m, m + 1):
            for f1 in range(-m, m + 1):
                for f2 in range(1, m + 1):
                    spec = IteratedSpec(m, ((a0,), (f1, f2)))
                    base = a0 + f1 * f2
                    for n_target in range(base - 3 * m, base + 3 * m + 1):
                        res = solve_iterated(spec, n_target)
                        if (n_target - base) % m == 0:
                            assert res.status == "witness"
                            (h,), fs = res.witness.values
                            assert (h - a0) % m == 0 and fs == (f1, f2)
                            assert h + f1 * f2 == n_target
                        else:
                            assert res.status == "not-member"
                            assert res.witness is None


def test_iterated_spec_validation():
    with pytest.raises(ValueError):
        IteratedSpec(7, ((1, 2),))  # h < 2
    with pytest.raises(ValueError):
        IteratedSpec(7, ((1, 2), (3,)))  # lengths decreasing
    with pytest.raises(ValueError):
        IteratedSpec(0, ((1,), (2,)))
    with pytest.raises(TypeError):
        IteratedSpec(5, ((2.7,), (1.9, 2)))  # not truncated to ((2,), (1, 2))
    with pytest.raises(TypeError):
        IteratedSpec(5, (("3",), (1, 2)))
    s = IteratedSpec(7, ((5,), (3, 4)))
    assert s.shape() == (1, 2) and s.base_value() == 17


def test_solve_iterated_identity_example():
    spec = IteratedSpec(7, ((5,), (3, 4)))
    res = solve_iterated(spec, 17)
    assert res.status == "witness"
    assert res.witness.values == ((5,), (3, 4))
    assert verify_iterated(spec, res.witness, 17)


def test_solve_iterated_pair_leading():
    spec = IteratedSpec(2, ((1, 1), (1, 1), (1, 1, 1)))
    base = spec.base_value()  # 3
    for k in range(-5, 11):
        n_target = base + 2 * k
        res = solve_iterated(spec, n_target)
        assert res.status == "witness"
        assert verify_iterated(spec, res.witness, n_target)
        # trailing term frozen at base values
        assert res.witness.values[2] == (1, 1, 1)
    assert solve_iterated(spec, base + 1).status == "not-member"


def test_solve_iterated_unsupported():
    assert solve_iterated(IteratedSpec(5, ((1, 2, 3), (2, 2, 2))), 10).status == (
        "unsupported-shape"
    )
    assert solve_iterated(IteratedSpec(5, ((1, 2), (2, 2, 2))), 10).status == (
        "unsupported-shape"
    )
    # shape (2,2) but leading coefficients share a factor with m
    res = solve_iterated(IteratedSpec(2, ((2, 2), (2, 2))), 8)
    assert res.status == "unsupported-shape"


def test_oracle_agreement_k1_shapes():
    for m in (2, 3, 5):
        for coeffs in itertools.product(range(1, m + 1), repeat=3):
            spec = IteratedSpec(m, ((coeffs[0],), (coeffs[1], coeffs[2])))
            base = spec.base_value()
            for n_target in range(base - 10 * m, base + 10 * m + 1):
                res = solve_iterated(spec, n_target)
                ok, qs = iterated_member_search(spec.terms, m, n_target, (11, 1))
                assert ok == (res.status == "witness")
                if ok:
                    total = sum(
                        math.prod(cf + q * m for cf, q in zip(t, qt))
                        for t, qt in zip(spec.terms, qs)
                    )
                    assert total == n_target


def test_oracle_positive_implies_solver_pair_shapes():
    for m in (2, 3):
        for coeffs in itertools.product(range(1, m + 1), repeat=4):
            spec = IteratedSpec(m, (coeffs[:2], coeffs[2:]))
            base = spec.base_value()
            supported = math.gcd(*coeffs, m) == 1
            for n_target in range(base - 4 * m, base + 4 * m + 1):
                ok, _ = iterated_member_search(spec.terms, m, n_target, (4, 4))
                res = solve_iterated(spec, n_target)
                if not supported:
                    assert res.status == "unsupported-shape"
                    continue
                if ok:
                    assert res.status == "witness"
                if res.status == "witness":
                    assert verify_iterated(spec, res.witness, n_target)


def test_verify_iterated_rejects():
    spec = IteratedSpec(7, ((5,), (3, 4)))
    res = solve_iterated(spec, 17 + 7)
    good = res.witness
    assert verify_iterated(spec, good, 24)
    assert not verify_iterated(spec, good, 25)  # wrong target
    from sumprod import IteratedWitness

    assert not verify_iterated(spec, IteratedWitness(((12,), (3, 5))), 24)
    assert not verify_iterated(spec, IteratedWitness(((24,),)), 24)


def test_verify_iterated_rejects_a_term_of_the_wrong_length():
    # the right sum and residues, but one term has a factor too many
    from sumprod import IteratedWitness

    spec = IteratedSpec(7, ((5,), (3, 4)))
    assert not verify_iterated(spec, IteratedWitness(((5, 1), (3, 4))), 17)
    assert not verify_iterated(spec, IteratedWitness(((5,), (3, 4, 1))), 17)


def test_iterated_member_search_refuses_one_bound_per_term_missing():
    with pytest.raises(ValueError, match="^one bound per term required$"):
        iterated_member_search(((1,), (1,)), 3, 2, (1,))

def test_iterated_member_search_refuses_wrong_residue():
    spec = IteratedSpec(7, ((5,), (3, 4)))
    ok, qs = iterated_member_search(spec.terms, 7, 18, (30, 30))
    assert not ok and qs is None


@pytest.mark.parametrize("bounds", [(-1, 2), (2, -1)])
def test_iterated_member_search_refuses_negative_bound(bounds):
    # a negative bound is an empty box, not a search that found nothing
    with pytest.raises(ValueError, match="bounds must be >= 0"):
        iterated_member_search(((1,), (1,)), 3, 2, bounds)
    assert iterated_member_search(((1,), (1,)), 3, 2, (0, 0)) == (True, ((0,), (0,)))


@pytest.mark.parametrize(
    "terms, m, n_target, bounds",
    [
        (((1,), (2, 3)), 2.5, 12, (3, 3)),
        (((1,), (2, 3)), 2, 13.0, (3, 3)),
        (((1,), (2.0, 3)), 2, 13, (3, 3)),
        (((1,), (2, 3)), 2, 12, (3, 3.5)),
    ],
    ids=["m", "n_target", "coefficient", "bound"],
)
def test_iterated_member_search_refuses_non_integral(terms, m, n_target, bounds):
    # refused before any work: not searched over residue classes mod 2.5
    # (which found a "decomposition" of 12), with a float in place of an
    # int, or answered by the residue test (12 is not 7 mod 2) with a float
    # bound; the all-integral call finds a decomposition of 13
    with pytest.raises(TypeError):
        iterated_member_search(terms, m, n_target, bounds)
    assert iterated_member_search(((1,), (2, 3)), 2, 13, (3, 3))[0]


@pytest.mark.parametrize("m", [0, -3])
def test_iterated_member_search_refuses_nonpositive_modulus(m):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        iterated_member_search(((1,), (2, 3)), m, 13, (3, 3))


@pytest.mark.parametrize(
    "terms, n_target, bounds",
    [((), 0, ()), (((),), 1, (3,))],
    ids=["no-terms", "empty-term"],
)
def test_iterated_member_search_refuses_empty_shapes(terms, n_target, bounds):
    # no terms once raised IndexError, and a term with no coefficients was
    # read as the empty product 1; both are refused before any table is built
    with pytest.raises(ValueError, match="^need at least one term, each with a"):
        iterated_member_search(terms, 1, n_target, bounds)


def test_iterated_member_search_refuses_over_budget_at_once(monkeypatch):
    # ((1,), (1, 2, 3)) at bound 1000 would tabulate 2001**3 products; it is
    # refused before the first table is built.  Bound 49 is the largest the
    # 10**6-entry cap admits for this shape: 99 + 99**3 entries in the
    # tables, and 99 more for combining all but the largest.
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^tabulated entries must be <= 10\*\*6"):
        iterated_member_search(((1,), (1, 2, 3)), 5, 7, (1000, 1000))
    assert time.perf_counter() - started < 0.1
    with pytest.raises(ValueError, match="got 1030503$"):
        iterated_member_search(((1,), (1, 2, 3)), 5, 7, (50, 50))
    assert iterated_member_search(((1,), (1, 2, 3)), 5, 7, (1, 1))[0]
    # Three pair terms at bound 4: 3 * 9**2 entries in the tables, and the
    # two smaller ones combined, 9**2 * 9**2, count too.
    monkeypatch.setattr(oracle, "_MAX_TABULATED", 6803)
    with pytest.raises(ValueError, match="got 6804$"):
        iterated_member_search(((1, 1), (1, 1), (1, 1)), 2, 3, (4, 4, 4))
    monkeypatch.setattr(oracle, "_MAX_TABULATED", 6804)
    assert iterated_member_search(((1, 1), (1, 1), (1, 1)), 2, 3, (4, 4, 4))[0]
