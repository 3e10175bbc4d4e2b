import collections
import dataclasses
import hashlib
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import sumprod.cli
import sumprod.iterated
import sumprod.oracle
from sumprod import progressions, witness
from sumprod.oracle import CongruenceClass, product_class_contains
from sumprod.witness import _bezout, _least_r_lift
from sumprod import (
    Instance,
    InternalInvariantError,
    IteratedSpec,
    IteratedWitness,
    SearchBox,
    SubgroupWitness,
    Witness,
    WitnessTrace,
    exceptional_set,
    oracle_member_class,
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


def _solve(inst, traced):
    # the CLI's witness path: read the template's plan, then the pair solve
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    plan = witness._plan(a, b, c, d, m)
    return witness._solve(a, b, c, d, m, inst.N, plan, traced)


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
# Instance(4, 2, 4, 3, 4, 8): m' = 4, u = 1, a' = 28, c' = 16 (box 68, 1140).
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
    # gcd(a0, c1) = 16 keeps a factor 2 of m' beyond m'
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
    "n_target, far", [(568, False), (576, True)], ids=["near", "far"]
)
def test_y_prime_window_is_chosen_by_target_size(n_target, far):
    # Template (4, 2, 4, 3, 4): m' = 4, and the far window starts at N =
    # m*c*(c + b*m*m) = 576.  At both targets the u-step takes u = 1, so the
    # near window is [b*u, b*u + 3] = [2, 5] and the far one [b*m, b*m + 3]
    # = [8, 11].  validate_trace reads the window off the trace's N and u,
    # and refuses a y' one outside either end of it, or the y' of the same
    # class in the other window.
    assert witness._far_from(2, 4, 4) == 576
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, n_target))
    low, other = (8, 2) if far else (2, 8)
    assert (trace.m_prime, trace.u) == (4, 1)
    assert low <= trace.y_prime <= low + 3
    for y_prime in (low - 1, low + 4, other + (trace.y_prime - other) % 4):
        assert "'y_prime_window'" in _violations(trace, y_prime=y_prime)


# ---------------------------------------------------------------- check halves

def test_row_and_target_checks_partition_the_trace_checks():
    assert len(_ROW_CHECKS) == 15 and len(_TARGET_CHECKS) == 8
    assert not set(_ROW_CHECKS) & set(_TARGET_CHECKS)
    # each name is written once, in the statement that checks it
    source = inspect.getsource(witness)
    for name in _ROW_CHECKS + _TARGET_CHECKS:
        assert source.count(f'"{name}"') == 1, name


def test_failed_row_check_is_named_by_a_traced_solve(monkeypatch):
    # An untraced solve runs no row check, so it caches a row whose check
    # fails and answers on its certificate; a traced solve on that row names
    # the failure.
    real = witness._row_checks
    monkeypatch.setattr(witness, "_row_checks", lambda *args: real(*args) + ["u_gcd"])
    witness._row.cache_clear()
    inst = Instance(3, 5, 2, 2, 19, 152)
    assert verify_witness(inst, solve_dilated(inst)[0])
    assert witness._row.cache_info().currsize == 1
    with pytest.raises(InternalInvariantError, match="'u_gcd'"):
        solve_class(inst)
    info = witness._row.cache_info()
    assert (info.hits, info.misses) == (1, 1)


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
    # the trace text of InternalInvariantError, byte for byte, as
    # validate_trace raises it on a trace and on a traced solve: the failed
    # names in evaluation order, then the trace
    _, trace = solve_class(Instance(4, 2, 4, 3, 4, 8))
    with pytest.raises(InternalInvariantError) as err:
        validate_trace(dataclasses.replace(trace, **_TAMPERS["m_prime"](trace)))
    assert str(err.value) == (
        "trace invariants violated: ['m_prime', 'u_gcd', 'gcd_final', "
        "'eq_B_y', 'ell', 'lift', 'r_window']; "
        "trace=WitnessTrace(instance=Instance("
        "a=4, b=2, c=4, d=3, m=4, N=8), m_prime=8, k=-3, x=3, y=-3, z=0, "
        "x_prime=3, y_prime=5, q_x=0, q_y=-2, a0=16, c0=24, u=1, a1=28, c1=16, "
        "v=0, a_prime=28, c_prime=16, ell=-6, r=2, s=-5)"
    )

    inst = Instance(3, 5, 2, 2, 19, 152)
    with monkeypatch.context() as patch:
        _off_window_lift(patch)
        with pytest.raises(InternalInvariantError) as err:
            solve_class(inst)
    assert str(err.value) == (
        "trace invariants violated: ['r_window']; "
        "trace=WitnessTrace(instance=Instance("
        "a=3, b=5, c=2, d=2, m=19, N=152), m_prime=1, k=7, x=0, y=0, z=7, "
        "x_prime=0, y_prime=0, q_x=0, q_y=0, a0=3, c0=2, u=0, a1=3, c1=2, "
        "v=0, a_prime=3, c_prime=2, ell=7, r=3, s=-1)"
    )

    # an empty box puts every (a', c') above it
    monkeypatch.setattr(witness, "_component_box", lambda *template: (0, 0))
    witness._row.cache_clear()
    with pytest.raises(InternalInvariantError) as err:
        solve_class(inst)
    assert str(err.value) == (
        "trace invariants violated: ['ineq2_a', 'ineq2_c']; "
        "trace=WitnessTrace(instance=Instance("
        "a=3, b=5, c=2, d=2, m=19, N=152), m_prime=1, k=7, x=0, y=0, z=7, "
        "x_prime=0, y_prime=0, q_x=0, q_y=0, a0=3, c0=2, u=0, a1=3, c1=2, "
        "v=0, a_prime=3, c_prime=2, ell=7, r=1, s=2)"
    )



def test_solve_error_texts_pinned(monkeypatch):
    # _solve's two raises that no honest plan or certificate reaches, byte
    # for byte: the delta^2 one, by a plan whose step is m instead of
    # delta*m, so that N = 10 passes the residue test with delta = 2; and the
    # certificate one, by a certificate check that fails every witness
    plan = witness._plan(2, 2, 2, 2, 2)
    crafted = (plan[0], 2, *plan[2:])
    with pytest.raises(InternalInvariantError) as err:
        witness._solve(2, 2, 2, 2, 2, 10, crafted, False)
    assert str(err.value) == (
        "N not divisible by delta^2 for Instance(a=2, b=2, c=2, d=2, m=2, N=10)"
    )

    monkeypatch.setattr(witness, "_certificate_ok", lambda *args: False)
    with pytest.raises(InternalInvariantError) as err:
        solve_dilated(Instance(6, 10, 4, 4, 38, 608))
    assert str(err.value) == (
        "witness failed verification: "
        "Witness(a_prime=6, b_prime=48, c_prime=4, d_prime=80) "
        "for Instance(a=6, b=10, c=4, d=4, m=38, N=608)"
    )


def test_invariant_texts_show_ints_past_the_str_digit_limit(monkeypatch):
    # str() of an int past the interpreter's int-to-str limit raises
    # ValueError; an InternalInvariantError text shows such an int as its
    # bit length, and every other value as its repr.  On (3, 5, 2, 2) mod
    # M = 10**2500 + 7, N has 5001 digits and M 2501.
    big_m = 10**2500 + 7
    inst = Instance(3, 5, 2, 2, big_m, 19 + big_m * 10**2500)
    n_bits = f"N=<{inst.N.bit_length()}-bit int>"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        _, trace = solve_class(inst)
        broken = dataclasses.replace(trace, s=trace.s + 1)
        with pytest.raises(InternalInvariantError) as err:
            validate_trace(broken)
        text = str(err.value)
        assert text.startswith(
            "trace invariants violated: ['lift']; trace=WitnessTrace("
            f"instance=Instance(a=3, b=5, c=2, d=2, m={big_m!r}, {n_bits}), "
        )
        assert text.endswith(f", r={trace.r}, s={trace.s + 1})")

        # _row's guard, handed m' = 2 for the template's m' = 1
        with pytest.raises(InternalInvariantError) as err:
            witness._row(3, 5, 2, 2, inst.N, 2, 0, False)
        assert str(err.value).startswith("row invariants violated: ['m_prime'")
        assert str(err.value).endswith(
            f"(a,b,c,d,m,k mod m')=(3,5,2,2,<{inst.N.bit_length()}-bit int>,0)"
        )

        with monkeypatch.context() as patch:
            patch.setattr(witness, "_certificate_ok", lambda *args: False)
            with pytest.raises(InternalInvariantError) as err:
                solve_dilated(inst)
        b_p, d_p = 5 + big_m * trace.r, 2 + big_m * trace.s
        assert str(err.value) == (
            f"witness failed verification: Witness(a_prime=3, b_prime={b_p!r}, "
            f"c_prime=2, d_prime=<{d_p.bit_length()}-bit int>) "
            f"for Instance(a=3, b=5, c=2, d=2, m={big_m!r}, {n_bits})"
        )
        assert witness._show(-inst.N) == f"<{inst.N.bit_length()}-bit int>"
        box = SearchBox(0, inst.N)
        assert witness._show(box) == (
            f"SearchBox(lo=0, hi=<{inst.N.bit_length()}-bit int>)"
        )
    finally:
        sys.set_int_max_str_digits(limit)
    # under the limit, every text is the repr it was
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(InternalInvariantError) as err:
            validate_trace(broken)
        assert str(err.value) == (
            f"trace invariants violated: ['lift']; trace={broken!r}"
        )
        assert witness._show(box) == repr(box)
    finally:
        sys.set_int_max_str_digits(limit)


def _search_tries_only(monkeypatch, n, tried):
    # witness's loops over range(n) try only the values in `tried`
    monkeypatch.setattr(
        witness, "range", lambda k: tried if k == n else range(k), raising=False
    )


def test_u_step_that_runs_out_fails_u_gcd(monkeypatch):
    # On (4, 2, 4, 3, 4) at N = 24 (m' = 4, k mod m' = 1) the u-step stops at
    # u = 1.  Tried on u = 0 alone it runs out, the row checks fail u_gcd by
    # name (and gcd_final, which no v repairs), and no row is cached.
    witness._row.cache_clear()
    _search_tries_only(monkeypatch, 4, [0])
    with pytest.raises(InternalInvariantError) as err:
        solve_dilated(Instance(4, 2, 4, 3, 4, 24))
    assert str(err.value) == (
        "row invariants violated: ['u_gcd', 'gcd_final']; "
        "(a,b,c,d,m,k mod m')=(4,2,4,3,4,1)"
    )
    assert witness._row.cache_info().currsize == 0


def test_v_step_that_runs_out_fails_gcd_final(monkeypatch):
    # On (2, 1, 2, 1, 3) at N = 7 (m' = 1, a1 = 2) the v-step stops at v = 1.
    # Tried on v = 0 alone it runs out, the row checks fail gcd_final by
    # name, and no row is cached.
    witness._row.cache_clear()
    _search_tries_only(monkeypatch, 3, [0])
    with pytest.raises(InternalInvariantError) as err:
        solve_dilated(Instance(2, 1, 2, 1, 3, 7))
    assert str(err.value) == (
        "row invariants violated: ['gcd_final']; "
        "(a,b,c,d,m,k mod m')=(2,1,2,1,3,0)"
    )
    assert witness._row.cache_info().currsize == 0


def test_row_refuses_a_template_with_a_common_factor():
    # every solver divides by delta first, so only a direct call reaches it
    witness._row.cache_clear()
    with pytest.raises(InternalInvariantError) as err:
        witness._row(2, 2, 2, 2, 2, 2, 0, False)
    assert str(err.value) == "gcd(b, d, m') = 2, not 1: (a,b,c,d,m)=(2,2,2,2,2)"
    assert witness._row.cache_info().currsize == 0


def test_subgroup_witness_refuses_a_pair_witness_that_mis_evaluates(monkeypatch):
    # the templates themselves decompose ab + cd, not ab + cd + m*t
    def templates(inst):
        return Witness(inst.a, inst.b, inst.c, inst.d), 1

    monkeypatch.setattr(witness, "solve_dilated", templates)
    with pytest.raises(InternalInvariantError) as err:
        subgroup_witness(3, 5, 2, 2, 19, 7)
    assert str(err.value) == (
        "subgroup witness mis-evaluates: SubgroupWitness(w=0, x=0, y=0, z=0, t=7)"
    )


def test_plan_as_given_is_the_pair_plan_on_templates_in_range():
    # On a coprime template with entries in [1, m] the pair plan moves
    # nothing, so the one-sided path runs the pair construction unchanged.
    count = 0
    for m in range(1, 7):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            if math.gcd(a, b, c, d, m) == 1:
                assert witness._plan(a, b, c, d, m) == witness._plan_as_given(
                    a, b, c, d, m
                ), (a, b, c, d, m)
                count += 1
    assert count > 1000


# The solvers that return no trace, each on the pair template (3, 5, 2, 2)
# mod 19 at N = 152.
_UNTRACED_SOLVES = {
    "solve_dilated": solve_dilated,
    "solve_progression": solve_progression,
    "solve_iterated": lambda inst: solve_iterated(
        IteratedSpec(inst.m, ((inst.a, inst.b), (inst.c, inst.d))), inst.N
    ),
}


def _certified_witnesses(monkeypatch):
    # The witnesses _solve's certificate check passes, with the instance it
    # checked them on, in call order: what an untraced solver's answer is
    # built from, whatever form the answer takes.
    real, passed = witness._certificate_ok, []

    def check(a, b, c, d, m, n_target, w):
        ok = real(a, b, c, d, m, n_target, w)
        if ok:
            passed.append((Instance(a, b, c, d, m, n_target), w))
        return ok

    monkeypatch.setattr(witness, "_certificate_ok", check)
    return passed


def _sum_broken_lift(monkeypatch):
    # s + 1 breaks a'b' + c'd' = N, so the certificate check fails
    _wrap_lift(monkeypatch, lambda r, s, big_a, big_c: (r, s + 1))


@pytest.mark.parametrize("name", sorted(_UNTRACED_SOLVES))
def test_untraced_solves_run_the_target_checks(monkeypatch, name):
    # No trace is built and no target check runs on a passing untraced
    # solve: it rests on its certificate check.  The off-window lift leaves
    # the certificate valid, so only the traced solve names it; the
    # untraced solve answers from a witness verify_witness accepts.  A
    # change that breaks the sum fails the certificate check, and the
    # untraced solve, solving again traced, names it, and the off-window
    # change with it.  Every solve reads the one cached row.
    inst = Instance(3, 5, 2, 2, 19, 152)
    witness._row.cache_clear()
    solve_class(inst)

    def no_trace(*args):
        raise AssertionError("WitnessTrace built")

    monkeypatch.setattr(witness, "WitnessTrace", no_trace)
    monkeypatch.setattr(witness, "_target_checks", no_trace)
    _UNTRACED_SOLVES[name](inst)
    monkeypatch.undo()
    _off_window_lift(monkeypatch)
    with pytest.raises(InternalInvariantError) as err:
        solve_class(inst)
    assert str(err.value) == (
        "trace invariants violated: ['r_window']; "
        "trace=WitnessTrace(instance=Instance("
        "a=3, b=5, c=2, d=2, m=19, N=152), m_prime=1, k=7, x=0, y=0, z=7, "
        "x_prime=0, y_prime=0, q_x=0, q_y=0, a0=3, c0=2, u=0, a1=3, c1=2, "
        "v=0, a_prime=3, c_prime=2, ell=7, r=3, s=-1)"
    )
    with monkeypatch.context() as patch:
        passed = _certified_witnesses(patch)
        if name == "solve_progression":
            # d' < d, but from an r that is not the least: no
            # below-threshold-failure is answered on it
            with pytest.raises(InternalInvariantError) as err:
                _UNTRACED_SOLVES[name](inst)
            assert str(err.value) == (
                "lift with d' < d does not take the least r: "
                "Witness(a_prime=3, b_prime=62, c_prime=2, d_prime=-17) "
                "for Instance(a=3, b=5, c=2, d=2, m=19, N=152)"
            )
        else:
            _UNTRACED_SOLVES[name](inst)
    [(checked, w)] = passed
    assert checked == inst and verify_witness(inst, w)
    _sum_broken_lift(monkeypatch)
    with pytest.raises(InternalInvariantError) as err:
        _UNTRACED_SOLVES[name](inst)
    assert str(err.value) == (
        "trace invariants violated: ['lift', 'r_window']; "
        "trace=WitnessTrace(instance=Instance("
        "a=3, b=5, c=2, d=2, m=19, N=152), m_prime=1, k=7, x=0, y=0, z=7, "
        "x_prime=0, y_prime=0, q_x=0, q_y=0, a0=3, c0=2, u=0, a1=3, c1=2, "
        "v=0, a_prime=3, c_prime=2, ell=7, r=3, s=0)"
    )
    info = witness._row.cache_info()
    assert (info.hits, info.misses) == (5, 1)


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


# One m' = 1 row and one m' > 1 row: (3, 5, 2, 2) mod 19 at N = 152, and
# (4, 2, 4, 3) mod 4 at N = 24, where m' = 4 and k mod m' = 1; each with
# its trace.
_COLD_ROWS = {
    Instance(3, 5, 2, 2, 19, 152): (
        "WitnessTrace(instance=Instance("
        "a=3, b=5, c=2, d=2, m=19, N=152), m_prime=1, k=7, x=0, y=0, z=7, "
        "x_prime=0, y_prime=0, q_x=0, q_y=0, a0=3, c0=2, u=0, a1=3, c1=2, "
        "v=0, a_prime=3, c_prime=2, ell=7, r=1, s=2)"
    ),
    Instance(4, 2, 4, 3, 4, 24): (
        "WitnessTrace(instance=Instance("
        "a=4, b=2, c=4, d=3, m=4, N=24), m_prime=4, k=1, x=-1, y=1, z=0, "
        "x_prime=3, y_prime=5, q_x=-1, q_y=-1, a0=16, c0=24, u=1, a1=28, "
        "c1=16, v=0, a_prime=28, c_prime=16, ell=-5, r=1, s=-3)"
    ),
}


@pytest.mark.parametrize("name", sorted(_UNTRACED_SOLVES))
def test_untraced_cold_solves_run_no_row_check(monkeypatch, name):
    # An untraced solve that builds a row runs no row check: it answers on
    # its certificate, and the row is cached.  A traced solve runs the row
    # checks once, on a cached row or a fresh one, and names a failure on
    # the cached row that an untraced solve does not.
    real, calls = witness._row_checks, []

    def no_check(*args):
        raise AssertionError("_row_checks called")

    def counted(*args):
        calls.append(args)
        return real(*args)

    def failing(*args):
        return counted(*args) + ["u_gcd"]

    for inst, trace in _COLD_ROWS.items():
        a, b, c, d, m = dataclasses.astuple(inst)[:5]
        assert witness._plan(a, b, c, d, m)[8] == (1 if m == 19 else 4)
        witness._row.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(witness, "_row_checks", no_check)
            passed = _certified_witnesses(patch)
            _UNTRACED_SOLVES[name](inst)
        [(checked, w)] = passed
        assert checked == inst and verify_witness(inst, w)
        assert witness._row.cache_info().currsize == 1
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(witness, "_row_checks", failing)
            with pytest.raises(InternalInvariantError) as err:
                solve_class(inst)
            assert str(err.value) == (
                f"trace invariants violated: ['u_gcd']; trace={trace}"
            )
            assert verify_witness(inst, solve_dilated(inst)[0])
        assert len(calls) == 1
        info = witness._row.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        witness._row.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(witness, "_row_checks", counted)
            solve_class(inst)
        assert len(calls) == 2


def test_traced_and_untraced_solves_agree_on_the_m_le_6_grid():
    # Every template in [1, m]^4 with m <= 6, delta = 1 and delta > 1, at 6
    # steps either side of ab + cd.  Untraced solves run no target check, so
    # the traced solve's trace must pass validate_trace and its (w, delta)
    # must be the untraced solve's.
    count = 0
    for m in range(1, 7):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            plan = witness._plan(a, b, c, d, m)
            for t in range(-6, 7):
                n_target = a * b + c * d + t * plan[1]
                w, delta, trace = witness._solve(a, b, c, d, m, n_target, plan, True)
                validate_trace(trace)
                assert witness._solve(a, b, c, d, m, n_target, plan, False) == (
                    w, delta, None
                ), (a, b, c, d, m, n_target)
                count += 1
    assert count == 13 * sum(m**4 for m in range(1, 7))


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
    # At m' = 1 neither the windows nor the certificate read the unit
    # solution, so only eq_A can catch the change: the traced solve names
    # it, and the untraced solvers answer from a witness verify_witness
    # accepts.  Once a change breaks the sum as well, every untraced solver
    # names both.
    inst = Instance(3, 5, 2, 2, 19, 152)
    untraced = [_UNTRACED_SOLVES[name] for name in sorted(_UNTRACED_SOLVES)]
    for solve in untraced + [solve_class]:
        solve(inst)
    plans = witness._plan.cache_info()
    _wrap_row(monkeypatch, _other_unit_solution)
    with pytest.raises(InternalInvariantError, match=r"violated: \['eq_A'\];"):
        solve_class(inst)
    with monkeypatch.context() as patch:
        passed = _certified_witnesses(patch)
        for solve in untraced:
            solve(inst)
    assert len(passed) == len(untraced)
    assert all(checked == inst and verify_witness(inst, w) for checked, w in passed)
    _sum_broken_lift(monkeypatch)
    for solve in untraced:
        with pytest.raises(
            InternalInvariantError, match=r"violated: \['eq_A', 'lift'\];"
        ):
            solve(inst)
    # solve_class and two of the untraced solvers, twice, read the warm
    # plan; solve_progression reads none, and a traced retry reuses the plan
    # it was handed
    assert witness._plan.cache_info().hits == plans.hits + 5
    assert witness._plan.cache_info().misses == plans.misses


# One change to _solve's inputs per target check, on the template
# (4, 2, 4, 3, 4) at N = 8, where m' = 4: the target, one group of the row,
# or the lift; and the checks it breaks, row checks first, as
# validate_trace names them.  A target off its residue class also leaves a
# remainder that m*m' does not divide, and congruence_mm and ell read the
# same remainder, so those three fail together.  A change to the windows or
# to a' also breaks the row checks that read them.
_A_PRIME_PLUS_1 = (
    "row",
    lambda u, w, st, lf: (u, w, st[:6] + (st[6] + 1, st[7]), lf),
    ("a_prime", "gcd_final", "congruence_mm", "ell", "lift"),
)
_TARGET_CHANGES = {
    "k": ("N", 9, ("k", "congruence_mm", "ell")),
    # z1 + 1 breaks eq_A alone: the windows do not read z
    "eq_A": ("row", lambda u, w, st, lf: (u[:2] + (u[2] + 1,), w, st, lf), ("eq_A",)),
    "eq_B_x": (
        "row",
        lambda u, w, st, lf: (u, (w[0] + 1, w[1]), st, lf),
        ("x_prime_window", "a0", "eq_B_x"),
    ),
    "eq_B_y": (
        "row",
        lambda u, w, st, lf: (u, (w[0], w[1] + 1), st, lf),
        ("y_prime_window", "c0", "eq_B_y"),
    ),
    "congruence_mm": _A_PRIME_PLUS_1,
    "ell": _A_PRIME_PLUS_1,
    "lift": ("lift", lambda r, s, big_a, big_c: (r, s + 1), ("lift",)),
    "r_window": (
        "lift", lambda r, s, big_a, big_c: (r + big_c, s - big_a), ("r_window",)
    ),
}


def test_every_target_check_has_a_change():
    assert list(_TARGET_CHANGES) == _TARGET_CHECKS


# The changes that leave the certificate valid: only a traced solve names
# them, and an untraced one returns the certified witness.
_CERTIFIED_CHANGES = ("eq_A", "eq_B_x", "eq_B_y", "r_window")


@pytest.mark.parametrize("name", _TARGET_CHECKS)
def test_both_forms_of_a_target_check_reject_its_change(monkeypatch, name):
    # The two forms of a solve.  A traced _solve runs validate_trace on its
    # trace, and names exactly the checks the change breaks.
    # An untraced _solve rests on its certificate check: on a change that
    # breaks the certificate it solves again, traced, and raises the same
    # names; on one that leaves the certificate valid it returns that
    # witness, and a change that also breaks the sum (s + 1) is named along
    # with it.  The plan's step is 1, so every target clears the residue
    # test and reaches the target checks, an off-residue one included.
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
        witness._solve(a, b, c, d, m, n_target, plan, True)
    assert f"trace invariants violated: {list(broken)};" in str(err.value)
    if name in _CERTIFIED_CHANGES:
        w, _, _ = witness._solve(a, b, c, d, m, n_target, plan, False)
        assert verify_witness(Instance(a, b, c, d, m, n_target), w)
        _sum_broken_lift(monkeypatch)
        broken = [
            check for check in _ROW_CHECKS + _TARGET_CHECKS
            if check in broken + ("lift",)
        ]
    with pytest.raises(InternalInvariantError) as err:
        witness._solve(a, b, c, d, m, n_target, plan, False)
    assert f"trace invariants violated: {list(broken)};" in str(err.value)


def test_validate_trace_is_the_one_check_a_solve_runs(monkeypatch, capsys):
    # Every traced solve checks its proof steps by one call of
    # validate_trace on its trace: solve_class, the CLI's witness --trace,
    # and an untraced solve's traced retry after a failed certificate.  A
    # passing untraced solve, and the grid sweep, make none.
    real, calls = witness.validate_trace, []

    def counted(trace):
        calls.append(trace)
        return real(trace)

    monkeypatch.setattr(witness, "validate_trace", counted)
    insts = [Instance(3, 5, 2, 2, 19, 152), Instance(4, 2, 4, 3, 4, 24)]
    for inst in insts:
        _, trace = solve_class(inst)
        assert calls == [trace]
        calls.clear()
        argv = ["witness", *map(str, dataclasses.astuple(inst))]
        for extra in (["--trace"], ["--trace", "--json"]):
            assert sumprod.cli.run(argv + extra) == 0
            assert len(calls) == 1 and calls[0].instance == inst
            calls.clear()
        for name in sorted(_UNTRACED_SOLVES):
            _UNTRACED_SOLVES[name](inst)
        assert sumprod.cli.run(argv) == 0
    capsys.readouterr()
    assert sumprod.oracle.grid_verify_theorem(2, 3).discrepancies == []
    assert calls == []
    monkeypatch.setattr(witness, "_certificate_ok", lambda *args: False)
    for name in sorted(_UNTRACED_SOLVES):
        with pytest.raises(InternalInvariantError, match="^witness failed"):
            _UNTRACED_SOLVES[name](insts[0])
        assert len(calls) == 1 and calls[0].instance == insts[0], name
        calls.clear()


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
    # Unrefused, a float cap below ab + cd answers [], a Fraction cap scans,
    # and a float scan_bound below 0 answers a report.
    "exceptional_set": (
        [
            lambda: exceptional_set(5, 5, 5, 5, 6, 284),
            lambda: exceptional_set(2, 2, 2, 2, 3, 60),
        ],
        [
            lambda: exceptional_set(5, 5, 5, 5, 6, 3.0),
            lambda: exceptional_set(2, 2, 2, 2, 3, Fraction(60)),
            lambda: exceptional_set(2.0, 2, 2, 2, 3, 60),
        ],
    ),
    "strictness_demo": (
        [lambda: strictness_demo(100), lambda: strictness_demo(-5)],
        [lambda: strictness_demo(-5.0), lambda: strictness_demo(100.0)],
    ),
    "threshold_N0": (
        [lambda: threshold_N0(1, 1, 1, 1, 2)],
        [
            lambda: threshold_N0(1.0, 1, 1, 1, 2),
            lambda: threshold_N0(1, 1, 1, 1, Fraction(2)),
        ],
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


# A 64-bit template with m' = 6, whose b and d exceed m'
_M_PRIME_6_64_BIT = (
    6 * 1234567890123456789, 12345678901234567891,
    6 * 987654321987654321, 9876543210987654323, 6 * (2**61 - 1),
)


@pytest.mark.parametrize(
    "template, calls",
    [((3, 5, 2, 2, 19), 0), ((4, 2, 4, 3, 4), 2), (_M_PRIME_6_64_BIT, 2)],
    ids=["m_prime_1", "m_prime_4", "m_prime_6_64_bit"],
)
def test_cold_row_extended_gcd_calls(monkeypatch, template, calls):
    # a new row with m' = 1 takes no Bezout pair, its unit solution being
    # (0, 0, 1); one with m' > 1 takes the pairs of (gcd(b_r, d_r), m') and
    # (b_r, d_r), for b_r, d_r the residues of b, d mod m', so no argument
    # exceeds m'; the lift's inverse takes none
    seen = []
    real = witness._bezout

    def counting(x, y):
        seen.append((x, y))
        return real(x, y)

    monkeypatch.setattr("sumprod.witness._bezout", counting)
    witness._row.cache_clear()
    a, b, c, d, m = template
    inst = Instance(a, b, c, d, m, a * b + c * d + 5 * m)
    w, trace = solve_class(inst)
    assert verify_witness(inst, w)
    assert witness._row.cache_info().misses == 1
    assert len(seen) == calls, seen
    assert all(max(pair) <= trace.m_prime for pair in seen), seen


def _grid_templates(top):
    # every coprime template with m <= top and entries in [1, m]
    for m in range(1, top + 1):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            if math.gcd(a, b, c, d, m) == 1:
                yield a, b, c, d, m


def _large_m_prime_templates():
    # Seeded 64- to 512-bit templates with m' > 1: a, c and m share a factor,
    # and every third b, and every third d, is a multiple of m'.
    rng = random.Random(28)
    for bits in (64, 128, 256, 512):
        for i in range(30):
            f = rng.randint(2, 1 << 16)
            m = f * (rng.getrandbits(bits - 1) | (1 << (bits - 1)))
            a, c = f * rng.randint(1, m // f), f * rng.randint(1, m // f)
            m_p = math.gcd(a, c, m)
            while True:
                b, d = rng.randint(1, m), rng.randint(1, m)
                if i % 3 == 1:
                    b = m_p * rng.randint(1, m // m_p)
                elif i % 3 == 2:
                    d = m_p * rng.randint(1, m // m_p)
                if math.gcd(b, d, m_p) == 1:
                    break
            yield a, b, c, d, m


def test_unit_solution_solves_the_unit_equation():
    # (x1, y1, z1) solves b*x + d*y + m'*z = 1 on every row of the m <= 6
    # grid, and on large templates with m' > 1, b ≡ 0 and d ≡ 0 mod m' among
    # them
    for a, b, c, d, m in _grid_templates(6):
        m_p = math.gcd(a, c, m)
        for k_res, far in itertools.product(range(m_p), (False, True)):
            x1, y1, z1 = witness._row(a, b, c, d, m, m_p, k_res, far)[0]
            assert b * x1 + d * y1 + m_p * z1 == 1, (a, b, c, d, m, k_res, far)
    rng = random.Random(6)
    zero_b = zero_d = 0
    for a, b, c, d, m in _large_m_prime_templates():
        m_p = math.gcd(a, c, m)
        assert m_p > 1 and max(b, d) > m_p
        zero_b += b % m_p == 0
        zero_d += d % m_p == 0
        row = witness._row(a, b, c, d, m, m_p, rng.randrange(m_p), rng.random() < 0.5)
        x1, y1, z1 = row[0]
        assert b * x1 + d * y1 + m_p * z1 == 1, (a, b, c, d, m)
    assert zero_b > 0 and zero_d > 0


def _u_step(a0, c0, b, d, m, m_p):
    # the u-step on its own, with u_gcd's test: the least u in [0, m') that
    # leaves gcd(a1, c1) with m'-part exactly m'
    return next(
        u for u in range(m_p)
        if math.gcd(math.gcd(a0 + d * m * u, c0 - b * m * u) // m_p, m_p) == 1
    )


def _m_prime_rows():
    # (template, m', k mod m', far, row) for every m' > 1 row of the m <= 6
    # grid, in both windows, and one row per window of each seeded large
    # template
    for a, b, c, d, m in _grid_templates(6):
        m_p = math.gcd(a, c, m)
        if m_p > 1:
            for k_res, far in itertools.product(range(m_p), (False, True)):
                yield (a, b, c, d, m), m_p, k_res, far, witness._row(
                    a, b, c, d, m, m_p, k_res, far
                )
    rng = random.Random(30)
    for a, b, c, d, m in _large_m_prime_templates():
        m_p = math.gcd(a, c, m)
        k_res = rng.randrange(m_p)
        for far in (False, True):
            yield (a, b, c, d, m), m_p, k_res, far, witness._row(
                a, b, c, d, m, m_p, k_res, far
            )


def test_near_window_is_placed_by_the_u_the_u_step_takes():
    # The u-step's test reads y' only mod m': moving y' by m'*t moves c1/m'
    # by m*t, and every prime of m' divides m.  So the u-step runs first, and
    # the near window puts y' at the least value >= b*u of its class
    # k*y1 mod m'.
    near = large = 0
    for (a, b, c, d, m), m_p, k_res, far, row in _m_prime_rows():
        y1, y_p, (a0, _, u) = row[0][1], row[1][1], row[2][:3]
        key = (a, b, c, d, m, m_p, k_res, far)
        assert (y_p - k_res * y1) % m_p == 0, key
        if not far:
            assert b * u <= y_p < b * u + m_p, key
            near += 1
        for t in range(-2, 3):
            assert _u_step(a0, c + m * (y_p + m_p * t), b, d, m, m_p) == u, key
        large += m.bit_length() >= 64
    assert near > 1000 and large == 240


def test_row_refuses_a_wrong_m_prime():
    # handed 2*m' in place of the plan's m', a row fails its m_prime check,
    # or the unit solve's gcd, and is not cached
    witness._row.cache_clear()
    names = set()
    for a, b, c, d, m in _grid_templates(4):
        m_p = 2 * math.gcd(a, c, m)
        with pytest.raises(InternalInvariantError) as err:
            witness._row(a, b, c, d, m, m_p, 0, False)
        text = str(err.value)
        if text.startswith("gcd(b, d, m') = "):
            names.add("gcd")
        else:
            assert text.startswith("row invariants violated: ['m_prime'"), text
            names.add("m_prime")
    assert names == {"gcd", "m_prime"}
    assert witness._row.cache_info().currsize == 0


class _GcdBudget:
    # Stands in for witness's math module: math itself, except that gcd
    # fails the test once it has been called `calls` times, so a search
    # that would not stop fails in place of hanging.
    def __init__(self, calls):
        self.left = calls

    def gcd(self, *args):
        self.left -= 1
        assert self.left >= 0, "gcd call budget spent"
        return math.gcd(*args)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.mark.parametrize("m_p", [1, 2, 3, 5, 7])
def test_row_refuses_a_wrong_m_prime_on_a_64_bit_template(monkeypatch, m_p):
    # The template's m' is 6.  Handed m_p = 1, 2 or 3, every gcd(a', c') is
    # a multiple of 6, so no v gives m_p and the v-step could run about 2**63
    # times; so could m_p = 5 or 7 where it does not divide a1.  The search
    # stops after v = 0, and the row checks name m_prime.  Each call gets
    # 1,000 gcds; nothing is cached.
    a, b, c, d, m = _M_PRIME_6_64_BIT
    assert math.gcd(a, c, m) == 6
    witness._row.cache_clear()
    for far in (False, True):
        monkeypatch.setattr(witness, "math", _GcdBudget(1000))
        with pytest.raises(InternalInvariantError) as err:
            witness._row(a, b, c, d, m, m_p, 0, far)
        assert str(err.value).startswith("row invariants violated: ['m_prime'"), err
    assert witness._row.cache_info().currsize == 0


def test_a_bool_template_leaves_plain_ints_in_the_row():
    # The one-sided plan holds the caller's values, True among them, and
    # _row's cache does not tell True from 1, so a pair solve of the same
    # template can read the row a bool template built.  Its trace holds
    # plain ints.
    for m in (1, 2, 3):
        witness._row.cache_clear()
        n_target = 2 + 40 * m
        solve_progression(Instance(True, 1, True, 1, m, n_target))
        trace = solve_class(Instance(1, 1, 1, 1, m, n_target))[1]
        assert [type(v) for v in dataclasses.astuple(trace)[1:]] == [int] * 20


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
# and retaken when the y' window came to be chosen by target size and when
# the unit solve moved to b and d mod m', and when the near window came to
# start at b*u.
_PLAN_SAMPLE_DIGEST = "cf119ec6de665778bb0f64faa12b4b68a62288ff5e7515d93b4ce42d7544b342"


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


def test_plan_m_prime_is_the_reduced_templates_gcd():
    # The plan takes m' as gcd(a, c, m)/delta; it is gcd(ra, rc, rm) of the
    # representatives it holds, and delta is gcd(a, b, c, d, m).
    templates = [
        (a, b, c, d, m)
        for m in range(1, 7)
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4)
    ]
    rng = random.Random(29)
    for _ in range(600):
        m = rng.randint(1, 12)
        templates.append(tuple(
            rng.choice((0, -rng.randint(1, 3 * m), m * rng.randint(-3, 3),
                        rng.randint(1, m)))
            for _ in range(4)
        ) + (m,))
    for bits in (64, 128, 256, 512):
        for _ in range(40):
            f, g = rng.choice((1, 2, 6, rng.randint(2, 1 << 16))), rng.choice((1, 3, 10))
            m = f * g * (rng.getrandbits(bits - 1) | (1 << (bits - 1)))
            a, c = (f * g * rng.randint(-m, m) for _ in range(2))
            b, d = (f * rng.randint(-m, m) for _ in range(2))
            templates.append((a, b, c, d, m))
    seen = collections.Counter()
    for a, b, c, d, m in templates:
        plan = witness._plan(a, b, c, d, m)
        delta, ra, rc, rm, m_p = plan[0], plan[3], plan[5], plan[7], plan[8]
        assert delta == math.gcd(a, b, c, d, m), (a, b, c, d, m)
        assert m_p == math.gcd(ra, rc, rm), (a, b, c, d, m)
        seen.update(
            dilated=delta > 1, m_prime_and_delta=delta > 1 and m_p > 1,
            zero=0 in (a, b, c, d), negative=min(a, b, c, d) < 0,
            multiple_of_m=m > 1 and any(v and v % m == 0 for v in (a, b, c, d)),
        )
    kinds = ("dilated", "m_prime_and_delta", "zero", "negative", "multiple_of_m")
    assert min(seen[kind] for kind in kinds) > 100, seen


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
