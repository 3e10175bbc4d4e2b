import dataclasses
import itertools
import math
import random

import pytest

from sumprod import witness
from sumprod import (
    Instance,
    InternalInvariantError,
    IteratedSpec,
    SearchBox,
    Witness,
    WitnessTrace,
    oracle_member_class,
    solve_class,
    solve_dilated,
    solve_iterated,
    solve_progression,
    subgroup_witness,
    sylvester_nonneg,
    threshold_N0,
    validate_trace,
    verify_witness,
)


# ---------------------------------------------------------------- the lift

def test_pipeline_lift_matches_sylvester():
    # solve_progression trusts one rule: the least-r lift has d' >= d exactly
    # when a nonnegative lift exists.  Checked on every criterion-4 template
    # (m <= 3, entries in {1, 2}, gcd 1) for each member past ab + cd up to
    # min(N0, 2000), where both outcomes occur.
    both = [0, 0]
    for m in (1, 2, 3):
        for a, b, c, d in itertools.product((1, 2), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            top = min(threshold_N0(a, b, c, d, m).N0, 2000)
            for n_target in range(a * b + c * d + m, top + 1, m):
                w, t = witness._solve_core(Instance(a, b, c, d, m, n_target))
                rs = sylvester_nonneg(t.a_prime, t.c_prime, t.m_prime, t.ell)
                assert (w.d_prime >= d) == (rs is not None), t
                if rs is not None:
                    assert (w.b_prime, w.d_prime) == (b + m * rs[0], d + m * rs[1])
                both[rs is not None] += 1
    assert min(both) > 0, both


# ---------------------------------------------------------------- solve_class

def test_solve_class_identity_target():
    inst = Instance(3, 5, 2, 2, 19, 19)
    w, trace = solve_class(inst)
    assert verify_witness(inst, w)
    assert trace.k == 0
    # the identity witness is itself valid for this target
    assert verify_witness(inst, Witness(3, 5, 2, 2))


def test_solve_class_shifted_target():
    inst = Instance(3, 5, 2, 2, 19, 152)
    w, trace = solve_class(inst)
    assert verify_witness(inst, w)
    validate_trace(trace)
    ok, quad = oracle_member_class(inst, SearchBox(-40, 40))
    assert ok
    i, j, k, l = quad
    assert (3 + 19 * i) * (5 + 19 * j) + (2 + 19 * k) * (2 + 19 * l) == 152


def test_solve_class_not_member():
    assert solve_class(Instance(1, 1, 1, 1, 2, 7)) is None


def test_solve_class_rejects_common_factor():
    with pytest.raises(ValueError):
        solve_class(Instance(2, 4, 6, 8, 10, 56))


def test_solve_class_negative_and_large_templates():
    # templates outside [1, m] are normalized; witness congruences stay true
    inst = Instance(-7, 23, 0, -1, 5, (-7) * 23 + 0 * (-1) + 5 * 9)
    w, trace = solve_class(inst)
    assert verify_witness(inst, w)


def test_soundness_and_completeness_small_grid():
    for m in range(1, 6):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            base = a * b + c * d
            for n_target in range(base - 3 * m, base + 3 * m + 1):
                inst = Instance(a, b, c, d, m, n_target)
                got = solve_class(inst)
                if (n_target - base) % m == 0:
                    assert got is not None
                    assert verify_witness(inst, got[0])
                else:
                    assert got is None


def test_oracle_agreement_small_grid():
    # membership decided by the pipeline == membership decided by bounded
    # search with the default box (valid and invalid residues both)
    for m in (2, 3):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            base = a * b + c * d
            for n_target in range(base - 6 * m, base + 6 * m + 1):
                inst = Instance(a, b, c, d, m, n_target)
                ok, _ = oracle_member_class(inst, SearchBox.default_for(inst))
                assert ok == (solve_class(inst) is not None)


def _violations(trace, **tampered):
    try:
        validate_trace(dataclasses.replace(trace, **tampered))
    except InternalInvariantError as e:
        return str(e)
    return ""


def test_trace_invariants_reported_on_tampering():
    _, trace = solve_class(Instance(3, 5, 2, 2, 19, 152))
    assert "'a1'" in _violations(trace, u=trace.u + 1)
    assert "'u_window'" in _violations(trace, u=-1)
    assert "'v_window'" in _violations(trace, v=trace.a1 + 1)
    assert "'v_window'" in _violations(trace, v=-1)
    # another Bezout solution: the lift still holds, only the size bound breaks
    big_a, big_c = trace.a_prime // trace.m_prime, trace.c_prime // trace.m_prime
    shifted = _violations(trace, r=trace.r + big_c, s=trace.s - big_a)
    assert "'r_window'" in shifted and "'lift'" not in shifted

    # u = 1 here: gcd(a0, c0) = 8 keeps a factor 2 of m' = 4 beyond m'
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, 8))
    assert (trace.m_prime, trace.u) == (4, 1)
    assert "'u_window'" in _violations(trace, u=trace.m_prime)
    skipped = _violations(trace, u=0, a1=trace.a0, c1=trace.c0)
    assert "'u_gcd'" in skipped and "'a1'" not in skipped


# One single-field tamper per check of validate_trace, on the trace of
# Instance(4, 2, 4, 3, 4, 8): m' = 4, u = 1, a' = 28, c' = 32 (box 68, 1140).
_TAMPERS = {
    "m_prime": lambda t: {"m_prime": 2 * t.m_prime},
    "k": lambda t: {"k": t.k + 1},
    "eq_A": lambda t: {"z": t.z + 1},
    "x_prime_window": lambda t: {"x_prime": t.m_prime},
    "y_prime_window": lambda t: {"y_prime": t.y_prime + t.m_prime},
    "eq_B_x": lambda t: {"q_x": t.q_x + 1},
    "eq_B_y": lambda t: {"q_y": t.q_y + 1},
    "a0": lambda t: {"a0": t.a0 + 1},
    "c0": lambda t: {"c0": t.c0 + 1},
    "u_window": lambda t: {"u": t.m_prime},
    "a1": lambda t: {"a1": t.a1 + 1},
    "c1": lambda t: {"c1": t.c1 + 1},
    # the u = 0 row: gcd(a0, c0) = 16 keeps a factor 2 of m' beyond m'
    "u_gcd": lambda t: {"a1": t.a0},
    "v_window": lambda t: {"v": -1},
    "a_prime": lambda t: {"a_prime": t.a_prime + 1},
    "c_prime": lambda t: {"c_prime": t.c_prime + 1},
    "gcd_final": lambda t: {"c_prime": 2 * t.a_prime},
    "congruence_mm": lambda t: {
        "instance": dataclasses.replace(t.instance, N=t.instance.N + 1)
    },
    "ineq2_a": lambda t: {"a_prime": 0},
    "ineq2_c": lambda t: {"c_prime": 0},
    "ell": lambda t: {"ell": t.ell + 1},
    "lift": lambda t: {"s": t.s + 1},
    "r_window": lambda t: {"r": -1},
}


def test_every_trace_check_has_a_tamper():
    assert len(witness._TRACE_CHECKS) == 23
    assert set(_TAMPERS) == set(witness._TRACE_CHECKS)


@pytest.mark.parametrize("name", sorted(_TAMPERS))
def test_trace_check_reported_by_name(name):
    # a failing check must be reported under its own name, which guards the
    # positional pairing of the check tuple with the name tuple
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, 8))
    validate_trace(trace)
    tampered = _TAMPERS[name](trace)
    assert len(tampered) == 1
    assert f"'{name}'" in _violations(trace, **tampered)


# ---------------------------------------------------------------- check halves

def test_row_and_target_checks_partition_the_trace_checks():
    row, target = witness._ROW_CHECKS, witness._TARGET_CHECKS
    assert len(row) == 15 and len(target) == 8
    assert not set(row) & set(target)
    assert set(row) | set(target) == set(witness._TRACE_CHECKS)


def test_failed_row_check_raises_and_is_not_cached(monkeypatch):
    real = witness._row_checks

    def u_gcd_fails(*args):
        oks = real(*args)
        at = witness._ROW_CHECKS.index("u_gcd")
        return oks[:at] + (False,) + oks[at + 1 :]

    monkeypatch.setattr(witness, "_row_checks", u_gcd_fails)
    witness._row.cache_clear()
    with pytest.raises(InternalInvariantError, match="'u_gcd'"):
        solve_class(Instance(3, 5, 2, 2, 19, 152))
    assert witness._row.cache_info().currsize == 0


def _off_window_lift(monkeypatch):
    # (r + C, s - A) is another lift of (b, d), so the certificate still
    # verifies; only the target half's r_window can catch it
    real = witness._least_r_lift

    def off_window(big_a, big_c, inv, ell):
        r, s = real(big_a, big_c, inv, ell)
        return r + big_c, s - big_a

    monkeypatch.setattr(witness, "_least_r_lift", off_window)


def test_target_checks_run_on_a_cached_row(monkeypatch):
    inst = Instance(3, 5, 2, 2, 19, 152)
    witness._row.cache_clear()
    solve_class(inst)
    _off_window_lift(monkeypatch)
    with pytest.raises(InternalInvariantError, match="'r_window'"):
        solve_class(inst)
    info = witness._row.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# The solvers that return no trace, each on the pair template (3, 5, 2, 2)
# mod 19 at N = 152.
_UNTRACED_SOLVES = {
    "solve_dilated": solve_dilated,
    "solve_progression": solve_progression,
    "solve_iterated": lambda inst: solve_iterated(
        IteratedSpec(inst.m, ((inst.a, inst.b), (inst.c, inst.d))), inst.N
    ),
}


@pytest.mark.parametrize("name", sorted(_UNTRACED_SOLVES))
def test_untraced_solves_run_the_target_checks(monkeypatch, name):
    # no trace is built, not even to name a failure, yet every target check
    # still runs on a cached row, and a failure is reported by name
    inst = Instance(3, 5, 2, 2, 19, 152)
    witness._row.cache_clear()
    solve_class(inst)

    def no_trace(*args):
        raise AssertionError("WitnessTrace built")

    monkeypatch.setattr(witness, "WitnessTrace", no_trace)
    _UNTRACED_SOLVES[name](inst)
    _off_window_lift(monkeypatch)
    with pytest.raises(InternalInvariantError, match="'r_window'"):
        _UNTRACED_SOLVES[name](inst)
    info = witness._row.cache_info()
    assert (info.hits, info.misses) == (2, 1)


@pytest.mark.parametrize(
    "inst",
    [
        Instance(3, 5, 2, 2, 19, 152),
        Instance(-4, 30, 2, 7, 5, 104),  # templates moved into [1, m]
        Instance(2, 4, 6, 8, 10, 76),  # delta = 2
    ],
)
def test_traced_solves_return_a_valid_trace(inst):
    # solve_class and the CLI's path return the full trace; solve_dilated's
    # path builds none
    if inst.delta() == 1:
        w, trace = solve_class(inst)
        assert isinstance(trace, WitnessTrace)
        validate_trace(trace)
    w, delta, trace = witness._solve(inst, True)
    assert isinstance(trace, WitnessTrace)
    validate_trace(trace)
    assert witness._solve(inst, False) == (w, delta, None)


# ---------------------------------------------------------------- Instance

def test_instance_dataclass_contract():
    inst = Instance(3, 5, 2, 2, 19, 152)
    same = Instance(a=3, b=5, c=2, d=2, m=19, N=152)
    assert inst == same and hash(inst) == hash(same)
    assert inst != Instance(3, 5, 2, 2, 19, 171)
    assert repr(inst) == "Instance(a=3, b=5, c=2, d=2, m=19, N=152)"
    assert dataclasses.asdict(inst) == {
        "a": 3, "b": 5, "c": 2, "d": 2, "m": 19, "N": 152
    }
    assert dataclasses.replace(inst, N=171) == Instance(3, 5, 2, 2, 19, 171)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.N = 171
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        Instance(1, 1, 1, 1, 0, 5)
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        dataclasses.replace(inst, m=0)


# ---------------------------------------------------------------- row cache

def test_row_cache_builds_a_template_once():
    # m' = gcd(3, 2, 19) = 1: all 61 targets share one row, so it is built
    # once
    witness._row.cache_clear()
    a, b, c, d, m = 3, 5, 2, 2, 19
    for t in range(-30, 31):
        inst = Instance(a, b, c, d, m, a * b + c * d + t * m)
        assert verify_witness(inst, solve_class(inst)[0])
    assert witness._row.cache_info().misses == 1


@pytest.mark.parametrize(
    "template, calls",
    [((3, 5, 2, 2, 19), 1), ((4, 2, 4, 3, 4), 2)],
    ids=["m_prime_1", "m_prime_4"],
)
def test_cold_row_extended_gcd_calls(monkeypatch, template, calls):
    # a new row takes the unit solve's Bezout pair of (gcd(b, d), m'), and
    # the one of (b, d) only when m' > 1; the lift's inverse takes none
    seen = []
    real = witness._bezout

    def counting(x, y):
        seen.append((x, y))
        return real(x, y)

    monkeypatch.setattr("sumprod.witness._bezout", counting)
    witness._row.cache_clear()
    a, b, c, d, m = template
    inst = Instance(a, b, c, d, m, a * b + c * d + 5 * m)
    assert verify_witness(inst, solve_class(inst)[0])
    assert witness._row.cache_info().misses == 1
    assert len(seen) == calls, seen


def _grid_outputs(instances):
    out = {}
    for inst in instances:
        w, delta, trace = witness._solve(inst, True)
        out[inst] = (dataclasses.asdict(w), delta, dataclasses.asdict(trace))
    return out


def test_row_cache_order_independent_and_bounded():
    instances = []
    for m in range(1, 5):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            step = math.gcd(a, b, c, d, m) * m
            instances.extend(
                Instance(a, b, c, d, m, a * b + c * d + t * step)
                for t in range(-10, 11)
            )
    witness._row.cache_clear()
    in_order = _grid_outputs(instances)
    shuffled = list(instances)
    random.Random(6).shuffle(shuffled)
    witness._row.cache_clear()
    assert _grid_outputs(shuffled) == in_order

    rng = random.Random(64)
    for _ in range(500):
        m = rng.getrandbits(63) | (1 << 63)
        a, b, c, d = (rng.randint(1, m) for _ in range(4))
        step = math.gcd(a, b, c, d, m) * m
        inst = Instance(a, b, c, d, m, a * b + c * d + rng.getrandbits(64) * step)
        assert verify_witness(inst, solve_dilated(inst)[0])
    info = witness._row.cache_info()
    assert info.currsize <= info.maxsize == witness._ROW_CACHE_SIZE


# ---------------------------------------------------------------- solve_dilated

def test_solve_dilated_examples():
    inst = Instance(2, 4, 6, 8, 10, 56)
    w, delta = solve_dilated(inst)
    assert delta == 2 and verify_witness(inst, w)

    inst = Instance(2, 4, 6, 8, 10, 76)
    w, delta = solve_dilated(inst)
    assert delta == 2 and verify_witness(inst, w)
    ok, _ = oracle_member_class(inst, SearchBox(-20, 20))
    assert ok

    assert solve_dilated(Instance(2, 4, 6, 8, 10, 66)) is None


def test_solve_dilated_verifies_each_certificate_once(monkeypatch):
    calls = []

    def counting(inst, w):
        calls.append(inst)
        return verify_witness(inst, w)

    monkeypatch.setattr(witness, "verify_witness", counting)
    # delta = 1: one check, on inst
    inst = Instance(3, 5, 2, 2, 19, 152)
    assert solve_dilated(inst)[1] == 1
    assert calls == [inst]
    # delta = 2: only the scaled certificate is checked, on inst.  No check
    # is lost: delta*x ≡ a (mod m) exactly when x ≡ a/delta (mod m/delta),
    # and the sum scales by delta^2.
    calls.clear()
    inst = Instance(2, 4, 6, 8, 10, 76)
    assert solve_dilated(inst)[1] == 2
    assert calls == [inst]


def test_solve_dilated_coprime_falls_through():
    inst = Instance(3, 5, 2, 2, 19, 152)
    w, delta = solve_dilated(inst)
    assert delta == 1 and verify_witness(inst, w)


def test_dilation_coherence_window():
    # success iff delta*m | N - ab - cd, over a couple of dilated instances
    for a, b, c, d, m in ((2, 4, 6, 8, 10), (3, 6, 3, 6, 9), (4, 4, 4, 4, 8)):
        delta = math.gcd(a, b, c, d, m)
        assert delta > 1
        base = a * b + c * d
        for off in range(-4 * delta * m, 4 * delta * m + 1):
            inst = Instance(a, b, c, d, m, base + off)
            got = solve_dilated(inst)
            if off % (delta * m) == 0:
                assert got is not None and verify_witness(inst, got[0])
            else:
                assert got is None


# ---------------------------------------------------------------- subgroup

def test_subgroup_examples():
    sw = subgroup_witness(2, 4, 6, 8, 10, 0)
    assert (sw.w, sw.x, sw.y, sw.z) == (0, 0, 0, 0)

    sw = subgroup_witness(2, 4, 6, 8, 10, 2)
    assert sw is not None and sw.evaluate(2, 4, 6, 8, 10) == 2

    assert subgroup_witness(2, 4, 6, 8, 10, 3) is None


def test_subgroup_bounded_set_grows_with_box():
    # values reachable with |w|,|x|,|y|,|z| <= B cover delta*Z out to a radius
    # that grows with B
    for a, b, c, d, m in ((1, 1, 1, 1, 1), (2, 4, 6, 8, 10), (1, 2, 3, 4, 5)):
        delta = math.gcd(a, b, c, d, m)
        radii = []
        for bound in (1, 2, 3):
            vals = set()
            rng = range(-bound, bound + 1)
            for w, x, y, z in itertools.product(rng, repeat=4):
                vals.add(a * w + b * x + c * y + d * z + m * (w * x + y * z))
            assert all(v % delta == 0 for v in vals)
            radius = 0
            while radius + delta in vals and -(radius + delta) in vals:
                radius += delta
            radii.append(radius)
        assert radii[0] >= delta
        assert radii[0] <= radii[1] <= radii[2]


def test_verify_witness_mutations():
    inst = Instance(3, 5, 2, 2, 19, 19)
    assert verify_witness(inst, Witness(3, 5, 2, 2))
    assert not verify_witness(inst, Witness(3, 6, 2, 2))  # sum off
    assert not verify_witness(inst, Witness(4, 5, 2, 2))  # congruence off
    # congruent but wrong sum
    assert not verify_witness(inst, Witness(3 + 19, 5, 2, 2))
