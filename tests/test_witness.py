import dataclasses
import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

import sumprod.cli
import sumprod.iterated
import sumprod.oracle
from sumprod import progressions, witness
from sumprod.classes import CongruenceClass, product_class_contains
from sumprod import (
    Instance,
    InternalInvariantError,
    IteratedSpec,
    IteratedWitness,
    SearchBox,
    SubgroupWitness,
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
    verify_iterated,
    verify_witness,
)


def _solve(inst, traced):
    # the CLI's witness path: read the template's plan, then the pair solve
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    plan = witness._plan(a, b, c, d, m)
    return witness._solve(a, b, c, d, m, inst.N, plan, traced, inst)


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
                w, _, t = witness._solve(
                    a, b, c, d, m, n_target,
                    witness._plan_as_given(a, b, c, d, m), True,
                )
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


def _check_names(checks):
    # The invariant names a check function appends, in order of first use:
    # the identifier strings among its code's constants.
    return [
        const
        for const in checks.__code__.co_consts
        if isinstance(const, str) and const.isidentifier()
    ]


_ROW_CHECKS = _check_names(witness._row_checks)
_TARGET_CHECKS = _check_names(witness._target_checks)


def test_every_trace_check_has_a_tamper():
    assert len(_ROW_CHECKS + _TARGET_CHECKS) == 23
    assert set(_TAMPERS) == set(_ROW_CHECKS + _TARGET_CHECKS)


@pytest.mark.parametrize("name", sorted(_TAMPERS))
def test_trace_check_reported_by_name(name):
    # a failing check must be reported under its own name
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, 8))
    validate_trace(trace)
    tampered = _TAMPERS[name](trace)
    assert len(tampered) == 1
    assert f"'{name}'" in _violations(trace, **tampered)


# ---------------------------------------------------------------- y' window

@pytest.mark.parametrize(
    "n_target, far", [(572, False), (576, True)], ids=["near", "far"]
)
def test_y_prime_window_is_chosen_by_target_size(n_target, far):
    # Template (4, 2, 4, 3, 4): m' = 4, and the far window starts at N =
    # m*c*(c + b*m*m) = 576.  The near window is [6, 9] and the far one
    # [8, 11], so each one-outside y' below lies in the other window, and
    # validate_trace still refuses it: it reads the window off the trace's N.
    assert witness._far_from(2, 4, 4) == 576
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, n_target))
    low = 8 if far else 6
    assert trace.m_prime == 4 and low <= trace.y_prime <= low + 3
    for y_prime in (low - 1, low + 4):
        assert "'y_prime_window'" in _violations(trace, y_prime=y_prime)


# ---------------------------------------------------------------- check halves

def test_row_and_target_checks_partition_the_trace_checks():
    assert len(_ROW_CHECKS) == 15 and len(_TARGET_CHECKS) == 8
    assert not set(_ROW_CHECKS) & set(_TARGET_CHECKS)
    # each name is written once, in the statement that checks it
    source = inspect.getsource(witness)
    for name in _ROW_CHECKS + _TARGET_CHECKS:
        assert source.count(f'"{name}"') == 1, name


def test_failed_row_check_raises_and_is_not_cached(monkeypatch):
    real = witness._row_checks
    monkeypatch.setattr(witness, "_row_checks", lambda *args: real(*args) + ["u_gcd"])
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


def test_invariant_error_texts_pinned(monkeypatch):
    # the row, target and trace texts of InternalInvariantError, byte for
    # byte: the failed names in evaluation order, then the context
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, 8))
    with pytest.raises(InternalInvariantError) as err:
        validate_trace(dataclasses.replace(trace, **_TAMPERS["m_prime"](trace)))
    assert str(err.value) == (
        "trace invariants violated: ['m_prime', 'y_prime_window', 'u_gcd', "
        "'gcd_final', 'eq_B_y', 'congruence_mm', 'ell', 'lift']; "
        "trace=WitnessTrace(instance=Instance("
        "a=4, b=2, c=4, d=3, m=4, N=8), m_prime=8, k=-3, x=3, y=-3, z=0, "
        "x_prime=3, y_prime=9, q_x=0, q_y=-3, a0=16, c0=40, u=1, a1=28, c1=32, "
        "v=0, a_prime=28, c_prime=32, ell=-9, r=1, s=-2)"
    )

    inst = Instance(3, 5, 2, 2, 19, 152)
    with monkeypatch.context() as patch:
        _off_window_lift(patch)
        with pytest.raises(InternalInvariantError) as err:
            solve_class(inst)
    assert str(err.value) == (
        "target invariants violated: ['r_window']; "
        "Instance(a=3, b=5, c=2, d=2, m=19, N=152)"
    )

    # an empty box puts every (a', c') above it
    monkeypatch.setattr(witness, "_component_box", lambda *template: (0, 0))
    witness._row.cache_clear()
    with pytest.raises(InternalInvariantError) as err:
        solve_class(inst)
    assert str(err.value) == (
        "row invariants violated: ['ineq2_a', 'ineq2_c']; "
        "(a,b,c,d,m,k mod m')=(3,5,2,2,19,0)"
    )


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
    w, delta, trace = _solve(inst, True)
    assert isinstance(trace, WitnessTrace)
    validate_trace(trace)
    assert _solve(inst, False) == (w, delta, None)


def _wrap_row(monkeypatch, change):
    # _row's rows reach the solver through `change`; the cached rows stay as
    # they were built
    real = witness._row
    monkeypatch.setattr(witness, "_row", lambda *key: change(*real(*key)))


def _wrap_lift(monkeypatch, change):
    real = witness._least_r_lift

    def changed(big_a, big_c, inv, ell):
        return change(*real(big_a, big_c, inv, ell), big_a, big_c)

    monkeypatch.setattr(witness, "_least_r_lift", changed)


def _other_unit_solution(unit, windows, steps, lift):
    # (x1 + 1, y1, z1) no longer solves b*x + d*y + m'*z = 1
    return (unit[0] + 1,) + unit[1:], windows, steps, lift


def test_eq_A_fires_by_name_on_a_warm_plan(monkeypatch):
    # at m' = 1 neither the windows nor the certificate read the unit
    # solution, so only eq_A can catch the change, and every solver must
    inst = Instance(3, 5, 2, 2, 19, 152)
    solvers = [_UNTRACED_SOLVES[name] for name in sorted(_UNTRACED_SOLVES)]
    solvers.append(solve_class)
    for solve in solvers:
        solve(inst)
    plans = witness._plan.cache_info()
    _wrap_row(monkeypatch, _other_unit_solution)
    for solve in solvers:
        with pytest.raises(InternalInvariantError, match=r"violated: \['eq_A'\];"):
            solve(inst)
    # three of the four read the warm plan; solve_progression reads none
    assert witness._plan.cache_info().hits == plans.hits + 3
    assert witness._plan.cache_info().misses == plans.misses


# One change to _solve's inputs per target check, on the template
# (4, 2, 4, 3, 4) at N = 8, where m' = 4: the target, one group of the row,
# or the lift; and the checks it breaks.  A target off its residue class
# also leaves a remainder that m*m' does not divide, and congruence_mm and
# ell read the same remainder, so those three fail together.
_A_PRIME_PLUS_1 = (
    "row",
    lambda u, w, st, lf: (u, w, st[:6] + (st[6] + 1, st[7]), lf),
    ("congruence_mm", "ell", "lift"),
)
_TARGET_CHANGES = {
    "k": ("N", 9, ("k", "congruence_mm", "ell")),
    # z1 + 1 breaks eq_A alone: the windows do not read z
    "eq_A": ("row", lambda u, w, st, lf: (u[:2] + (u[2] + 1,), w, st, lf), ("eq_A",)),
    "eq_B_x": ("row", lambda u, w, st, lf: (u, (w[0] + 1, w[1]), st, lf), ("eq_B_x",)),
    "eq_B_y": ("row", lambda u, w, st, lf: (u, (w[0], w[1] + 1), st, lf), ("eq_B_y",)),
    "congruence_mm": _A_PRIME_PLUS_1,
    "ell": _A_PRIME_PLUS_1,
    "lift": ("lift", lambda r, s, big_a, big_c: (r, s + 1), ("lift",)),
    "r_window": (
        "lift", lambda r, s, big_a, big_c: (r + big_c, s - big_a), ("r_window",)
    ),
}


def test_every_target_check_has_a_change():
    assert list(_TARGET_CHANGES) == _TARGET_CHECKS


@pytest.mark.parametrize("name", _TARGET_CHECKS)
def test_both_forms_of_a_target_check_reject_its_change(monkeypatch, name):
    # _solve evaluates the target checks as one conjunction and, only when
    # it fails, names the failures with _target_checks, which validate_trace
    # also uses.  The raise shows that the conjunction rejects the change,
    # and its list that _target_checks rejects exactly the checks the change
    # breaks.  The plan's step is 1, so every target clears the residue test
    # and reaches the target checks, an off-residue one included.
    a, b, c, d, m, n_target = 4, 2, 4, 3, 4, 8
    plan = witness._plan_as_given(a, b, c, d, m)
    plan = plan[:1] + (1,) + plan[2:]
    m_p = plan[8]
    w, _, _ = witness._solve(a, b, c, d, m, n_target, plan, False)
    assert m_p == 4 and verify_witness(Instance(a, b, c, d, m, n_target), w)
    where, change, broken = _TARGET_CHANGES[name]
    if where == "N":
        n_target = change
    elif where == "row":
        _wrap_row(monkeypatch, change)
    else:
        _wrap_lift(monkeypatch, change)
    assert name in broken
    with pytest.raises(InternalInvariantError) as err:
        witness._solve(a, b, c, d, m, n_target, plan, False)
    assert f"target invariants violated: {list(broken)};" in str(err.value)


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


R3_19, R5_19 = CongruenceClass(3, 19), CongruenceClass(5, 19)
_X, _N = 2**30 + 1, 2**60 + 2**31
_ONE_MOD_1 = Instance(1, 1, 1, 1, 1, _N)
_ONES_MOD_1 = IteratedSpec(1, ((1, 1), (1, 1)))

# Per entry point: integer calls that warm the plan, row and threshold
# caches, and non-integral calls that must raise TypeError cold and warm.
_NON_INTEGRAL = {
    "solve_dilated": (
        [lambda: solve_dilated(Instance(3, 5, 2, 2, 19, 152))],
        [
            lambda: solve_dilated(Instance(3.0, 5, 2, 2, 19, 152)),
            lambda: solve_dilated(Instance(3, 5, 2, 2, 19, 152.0)),
            lambda: solve_dilated(Instance(3, 5, 2, 2, 19, 10**20 + 0.0)),
            lambda: solve_dilated(Instance(3, 5, 2, 2, 19.0, 152)),
            lambda: solve_dilated(Instance(3, 5, 2, 2, 19, Fraction(152))),
        ],
    ),
    "solve_progression": (
        [lambda: solve_progression(Instance(1, 1, 1, 1, 2, 866))],
        [lambda: solve_progression(Instance(1, 1, 1, 1, 2, 866.0))],
    ),
    "subgroup_witness": (
        [
            lambda: subgroup_witness(1, 1, 1, 1, 2, 2),
            lambda: subgroup_witness(2, 4, 6, 8, 10, 2),
        ],
        [
            lambda: subgroup_witness(1, 1, 1, 1, 2, 2.5),
            lambda: subgroup_witness(2, 4, 6, 8, 10, 2.0),
        ],
    ),
    "IteratedSpec": (
        [lambda: solve_iterated(IteratedSpec(2, ((1,), (2, 3))), 12)],
        [lambda: IteratedSpec(2.5, ((1,), (2, 3)))],
    ),
    "solve_iterated": (
        [
            lambda: solve_iterated(IteratedSpec(7, ((2,), (3, 4))), 21),
            lambda: solve_iterated(IteratedSpec(7, ((2, 3), (4, 5))), 33),
        ],
        [
            lambda: solve_iterated(IteratedSpec(7, ((2,), (3, 4))), 21.0),
            lambda: solve_iterated(IteratedSpec(7, ((2, 3), (4, 5))), 33.0),
        ],
    ),
    "CongruenceClass": (
        [lambda: CongruenceClass(1, 2)],
        [lambda: CongruenceClass(1, 2.5), lambda: CongruenceClass(1.5, 2)],
    ),
    "product_class_contains": (
        [lambda: product_class_contains(R3_19, R5_19, 15)],
        [lambda: product_class_contains(R3_19, R5_19, 15.0)],
    ),
    # The certificate checks.  Unrefused, the first three floats pass as
    # certificates: (2**30 + 1)**2 = _N + 1, and the float product rounds it
    # to _N.  sylvester_nonneg would answer (0.0, 1.0) for 3r + 5s = 7.5.
    "verify_witness": (
        [lambda: verify_witness(_ONE_MOD_1, Witness(_X, _X, 0, 5))],
        [lambda: verify_witness(_ONE_MOD_1, Witness(float(_X), float(_X), 0.0, 5.0))],
    ),
    "verify_iterated": (
        [lambda: verify_iterated(_ONES_MOD_1, IteratedWitness(((_X, _X), (0, 5))), _N)],
        [lambda: verify_iterated(
            _ONES_MOD_1, IteratedWitness(((float(_X), float(_X)), (0.0, 5.0))), _N
        )],
    ),
    "SubgroupWitness.evaluate": (
        [lambda: SubgroupWitness(_X, _X, 0, 0, 0).evaluate(0, 0, 0, 0, 1)],
        [lambda: SubgroupWitness(float(_X), float(_X), 0, 0, 0).evaluate(0, 0, 0, 0, 1)],
    ),
    "sylvester_nonneg": (
        [lambda: sylvester_nonneg(3, 5, 1, 7)],
        [lambda: sylvester_nonneg(3, 5, 1, 7.5)],
    ),
    "CongruenceClass.contains": (
        [lambda: CongruenceClass(15, 19).contains(53)],
        [lambda: CongruenceClass(15, 19).contains(53.0)],
    ),
}


@pytest.mark.parametrize("entry", sorted(_NON_INTEGRAL))
def test_non_integral_values_refused_cold_and_warm(entry):
    # a warm cache must not answer a float that hashes like a cached int
    primes, refused = _NON_INTEGRAL[entry]
    witness._plan.cache_clear()
    witness._row.cache_clear()
    progressions._plan.cache_clear()
    for call in refused:
        with pytest.raises(TypeError):
            call()
    for call in primes:
        call()
    for call in refused:
        with pytest.raises(TypeError):
            call()


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
        w, delta, trace = _solve(inst, True)
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


# ---------------------------------------------------------------- plan cache

def _plan_sample():
    # Seeded: templates drawn from [-2m, 2m] (zero, negative and above m, so
    # they move), some dilated by 2 or 3 (delta > 1), m = 1, and random 64-,
    # 128- and 256-bit moduli; per template four members and ab + cd + 1.
    rng = random.Random(18)
    templates = [(1, 1, 1, 1, 1), (0, -3, 5, 2, 1), (6, 4, 2, 8, 2)]
    for _ in range(60):
        m = rng.randint(1, 12)
        a, b, c, d = (rng.randint(-2 * m, 2 * m) for _ in range(4))
        f = rng.choice((1, 1, 2, 3))
        templates.append((f * a, f * b, f * c, f * d, f * m))
    for bits in (64, 128, 256):
        for _ in range(4):
            m = rng.getrandbits(bits - 1) | (1 << (bits - 1))
            templates.append(tuple(rng.randint(1, m) for _ in range(4)) + (m,))
    instances = []
    for a, b, c, d, m in templates:
        base = a * b + c * d
        step = math.gcd(a, b, c, d, m) * m
        for t in (-3, 0, 2, rng.randint(-10**6, 10**6)):
            instances.append(Instance(a, b, c, d, m, base + t * step))
        instances.append(Instance(a, b, c, d, m, base + 1))
    return instances


# The sample's _solve(inst, True) results, hashed as in
# tests/test_pinned_outputs.py.  Taken from the solver before it had plans,
# and retaken when the y' window came to be chosen by target size.
_PLAN_SAMPLE_DIGEST = "7aad3baa031ecfa8ffab3a76c2f62626da3477f9009cc944e288dde07337161b"


def _solvers(inst):
    solvers = [solve_dilated, lambda inst: _solve(inst, True)]
    if inst.delta() == 1:
        solvers.append(solve_class)
    return solvers


def _cold(solve, inst):
    witness._plan.cache_clear()
    witness._row.cache_clear()
    return solve(inst)


def test_warm_plan_returns_what_a_cold_solve_returns():
    instances = _plan_sample()
    assert any(inst.delta() > 1 for inst in instances)
    assert any(min(inst.a, inst.b, inst.c, inst.d) < 1 for inst in instances)
    assert any(max(inst.a, inst.b, inst.c, inst.d) > inst.m for inst in instances)
    assert any(inst.m == 1 for inst in instances)
    assert any(inst.m.bit_length() == 256 for inst in instances)
    cold = [[_cold(solve, inst) for solve in _solvers(inst)] for inst in instances]

    witness._plan.cache_clear()
    witness._row.cache_clear()
    warm = []
    for inst in instances:
        _solve(inst, False)
        misses = witness._plan.cache_info().misses, witness._row.cache_info().misses
        warm.append([solve(inst) for solve in _solvers(inst)])
        # every call read the plan and the row the first one built
        assert (
            witness._plan.cache_info().misses, witness._row.cache_info().misses
        ) == misses
    assert warm == cold

    h = hashlib.sha256()
    for got in cold:
        w, delta, trace = got[1] or (None, None, None)
        row = w and (dataclasses.astuple(w), delta, dataclasses.astuple(trace))
        h.update(repr(row).encode() + b"\n")
    assert sum(got[1] is None for got in cold) == 72
    assert h.hexdigest() == _PLAN_SAMPLE_DIGEST


def test_plan_built_once_per_template():
    # 61 targets of one template: one plan build, 60 plan reads
    witness._plan.cache_clear()
    a, b, c, d, m = 2, 4, 6, 8, 10
    for t in range(-30, 31):
        inst = Instance(a, b, c, d, m, a * b + c * d + t * 2 * m)
        assert verify_witness(inst, solve_dilated(inst)[0])
    info = witness._plan.cache_info()
    assert (info.hits, info.misses) == (60, 1)


def test_plan_cache_is_bounded_and_caches_no_refusal():
    witness._plan.cache_clear()
    rng = random.Random(1000)
    templates = set()
    while len(templates) < 1000:
        m = rng.randint(1, 40)
        templates.add(tuple(rng.randint(1, m) for _ in range(4)) + (m,))
    for a, b, c, d, m in sorted(templates):
        inst = Instance(a, b, c, d, m, a * b + c * d + math.gcd(a, b, c, d, m) * m)
        assert verify_witness(inst, solve_dilated(inst)[0])
    info = witness._plan.cache_info()
    assert info.misses == 1000
    assert info.currsize <= info.maxsize == witness._PLAN_CACHE_SIZE == 64
    # solve_class refuses delta > 1 before it reads a plan, so a warm plan
    # does not stop the refusal
    inst = Instance(2, 4, 6, 8, 10, 56)
    assert solve_dilated(inst)[1] == 2
    for _ in range(3):
        with pytest.raises(ValueError, match="solve_dilated"):
            solve_class(inst)


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


def test_every_pair_solver_calls_the_one_solve(monkeypatch):
    # solve_dilated, solve_class, the CLI's witness, solve_iterated's
    # pair-led branch and the grid sweep (tests/test_oracle.py) share one
    # per-target solve, witness._solve, and each target is one call
    for module in (sumprod.cli, sumprod.iterated, sumprod.oracle):
        assert module._solve is witness._solve
    calls = []
    real = witness._solve

    def counting(*args):
        calls.append(args[:6])
        return real(*args)

    monkeypatch.setattr(witness, "_solve", counting)
    inst = Instance(3, 5, 2, 2, 19, 152)
    assert solve_dilated(inst)[0] == solve_class(inst)[0]
    assert calls == [dataclasses.astuple(inst)] * 2


def test_solve_dilated_verifies_each_certificate_once(monkeypatch):
    calls = []
    real = witness._certificate_ok

    def counting(*args):
        calls.append(args[:6])
        return real(*args)

    monkeypatch.setattr(witness, "_certificate_ok", counting)
    # delta = 1: one check, on inst's values
    inst = Instance(3, 5, 2, 2, 19, 152)
    assert solve_dilated(inst)[1] == 1
    assert calls == [dataclasses.astuple(inst)]
    # delta = 2: only the scaled certificate is checked, on inst's values.
    # No check is lost: delta*x ≡ a (mod m) exactly when x ≡ a/delta
    # (mod m/delta), and the sum scales by delta^2.
    calls.clear()
    inst = Instance(2, 4, 6, 8, 10, 76)
    assert solve_dilated(inst)[1] == 2
    assert calls == [dataclasses.astuple(inst)]


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
