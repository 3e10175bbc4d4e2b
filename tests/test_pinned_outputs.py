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

DILATED_DIGEST = "e954f27e67a15506b6c2310fc80d0c6c97799fe507ef79fb6fd5b9a957899e78"
PROGRESSION_DIGEST = "3faaaeead05971895229c87d643175d20ef9a10ef2b26fecc2b319a357b6d1dd"
LARGE_MODULI_DIGEST = "fc857a852919eb8948eb6eee28b3fd173bce09be3c67cd649a6b3c9f807572c0"


def _digest(rows):
    h = hashlib.sha256()
    count = 0
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


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
        w, delta, trace = witness._solve(inst, True)
        yield dataclasses.astuple(w), delta, dataclasses.astuple(trace)


def _large_moduli_instances():
    # 200 seeded instances each with 128-, 256- and 512-bit moduli.  Every
    # second one multiplies a, c and m by a shared factor, so m' > 1 and the
    # unit solve takes both of its Bezout pairs, (gcd(b, d), m') and (b, d).
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
        w, delta, trace = witness._solve(inst, True)
        m_prime_above_1 += trace.m_prime > 1
        rows.append((dataclasses.astuple(w), delta, dataclasses.astuple(trace)))
    assert m_prime_above_1 == 338
    assert _digest(rows) == (600, LARGE_MODULI_DIGEST)


def test_progression_outputs_pinned():
    assert _digest(_progression_rows()) == (28_133, PROGRESSION_DIGEST)
