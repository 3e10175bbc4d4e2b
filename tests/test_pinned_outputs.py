"""Exact outputs pinned by digest.

Each family below is hashed from the canonical `repr` of every result, in a
fixed order.  A refactor must leave every digest unchanged; a deliberate
change to a witness or a trace is a contract change, and must update the
digest here and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import itertools
import math
import random

from sumprod import Instance, solve_progression
from sumprod import witness

DILATED_DIGEST = "f8d06eea71ba21f197502640d0e4329f94f910942e52b84624b05910fdcf331f"
PROGRESSION_DIGEST = "419ac7d0a0407659b5a4c4083904a54dc1676b87c412c9af07518051e873bc26"
LARGE_MODULI_DIGEST = "fa7e3951ef5df59ff2e9bb8e378a7bf381ca7604e66cc9de1a86d10f1c69fb8d"
M_PRIME_1_DIGEST = "222026dc8ab2e707a35f29fd69c9a1ee4b4884845a686f80d079a4c7f822e252"


def _digest(rows):
    h = hashlib.sha256()
    count = 0
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def _solve(inst, traced):
    # the CLI's witness path: read the template's plan, then the pair solve
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    plan = witness._plan(a, b, c, d, m)
    return witness._solve(a, b, c, d, m, inst.N, plan, traced)


def _dilated_instances():
    # Every template with m <= 5 at 6 steps either side of ab + cd, then 200
    # seeded instances with 64-bit moduli.
    for m in range(1, 6):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            step = math.gcd(a, b, c, d, m) * m
            for t in range(-6, 7):
                yield Instance(a, b, c, d, m, a * b + c * d + t * step)
    rng = random.Random(2007)
    for _ in range(200):
        m = rng.getrandbits(63) | (1 << 63)
        a, b, c, d = (rng.randint(1, m) for _ in range(4))
        step = math.gcd(a, b, c, d, m) * m
        yield Instance(a, b, c, d, m, a * b + c * d + rng.getrandbits(64) * step)


def _dilated_rows():
    for inst in _dilated_instances():
        w, delta, trace = _solve(inst, True)
        yield dataclasses.astuple(w), delta, dataclasses.astuple(trace)


def _large_moduli_instances():
    # 200 seeded instances each with 128-, 256- and 512-bit moduli.  Every
    # second one multiplies a, c and m by a shared factor, so m' > 1 and the
    # unit solve takes both of its Bezout pairs, (gcd(b_r, d_r), m') and
    # (b_r, d_r), on the residues of b and d mod m'.
    rng = random.Random(2026)
    for bits in (128, 256, 512):
        for i in range(200):
            m = rng.getrandbits(bits - 1) | (1 << (bits - 1))
            a, b, c, d = (rng.randint(1, m) for _ in range(4))
            if i % 2:
                f = rng.randint(2, 1 << 16)
                a, c, m = f * a, f * c, f * m
            step = math.gcd(a, b, c, d, m) * m
            yield Instance(a, b, c, d, m, a * b + c * d + rng.getrandbits(bits) * step)


def _m_prime_1_rows():
    # The outputs whose row has m' = 1, where the unit solution is (0, 0, 1)
    # whatever b and d are: every template with m <= 6 at 7 targets, then
    # 100 seeded templates each with 64-, 128-, 256- and 512-bit moduli.
    instances = []
    for m in range(1, 7):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            step = math.gcd(a, b, c, d, m) * m
            instances.extend(
                Instance(a, b, c, d, m, a * b + c * d + t * step) for t in range(-3, 4)
            )
    rng = random.Random(28)
    for bits in (64, 128, 256, 512):
        for _ in range(100):
            m = rng.getrandbits(bits - 1) | (1 << (bits - 1))
            a, b, c, d = (rng.randint(1, m) for _ in range(4))
            step = math.gcd(a, b, c, d, m) * m
            instances.append(
                Instance(a, b, c, d, m, a * b + c * d + rng.getrandbits(bits) * step)
            )
    for inst in instances:
        w, delta, trace = _solve(inst, True)
        if trace.m_prime == 1:
            yield dataclasses.astuple(w), delta, dataclasses.astuple(trace)


def _progression_rows():
    # Every N from ab + cd - m to 600 on the criterion-4 templates (m <= 3,
    # entries in {1, 2}, gcd 1): members, non-members and both outcomes of
    # the one-sided lift.
    for m in (1, 2, 3):
        for a, b, c, d in itertools.product((1, 2), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            for n_target in range(a * b + c * d - m, 601):
                res = solve_progression(Instance(a, b, c, d, m, n_target))
                w = res.witness
                yield n_target, res.status, w and dataclasses.astuple(w)


def test_dilated_outputs_pinned():
    assert _digest(_dilated_rows()) == (12_727 + 200, DILATED_DIGEST)


def test_large_moduli_outputs_pinned():
    m_prime_above_1 = 0
    rows = []
    for inst in _large_moduli_instances():
        w, delta, trace = _solve(inst, True)
        assert _solve(inst, False) == (w, delta, None), inst
        m_prime_above_1 += trace.m_prime > 1
        rows.append((dataclasses.astuple(w), delta, dataclasses.astuple(trace)))
    assert m_prime_above_1 == 338
    assert _digest(rows) == (600, LARGE_MODULI_DIGEST)


def test_untraced_first_solves_of_large_moduli_agree_with_traced():
    # Each instance solved untraced on a row it builds, which runs no row
    # check, then traced on the row that solve cached: the trace, row half
    # included, must pass validate_trace, and its (w, delta) must be the
    # untraced solve's.
    m_prime_above_1 = 0
    witness._row.cache_clear()
    for inst in _large_moduli_instances():
        info = witness._row.cache_info()
        untraced = _solve(inst, False)
        w, delta, trace = _solve(inst, True)
        after = witness._row.cache_info()
        assert (after.misses, after.hits) == (info.misses + 1, info.hits + 1), inst
        witness.validate_trace(trace)
        assert untraced == (w, delta, None), inst
        m_prime_above_1 += trace.m_prime > 1
    assert m_prime_above_1 == 338


def test_m_prime_1_outputs_pinned():
    # Only rows with m' > 1 read b and d past their residues mod m', so the
    # m' = 1 outputs stay as they were when the unit solve moved to residues.
    assert _digest(_m_prime_1_rows()) == (13_234, M_PRIME_1_DIGEST)


def test_progression_outputs_pinned():
    assert _digest(_progression_rows()) == (28_133, PROGRESSION_DIGEST)
