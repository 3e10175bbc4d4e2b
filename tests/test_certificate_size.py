"""Certificate sizes: how long the pair pipeline's witnesses are.

The y' window is chosen per target: the far window [b*m, b*m + m' - 1] when
N >= m*c*(c + b*m*m), else the near window [b*u, b*u + m' - 1] of the u the
u-step takes.
These tests bound the certificates that rule gives on large random moduli,
and hold every small target set's median at or below its value before the
rule, when the far window was used for every target.
"""

import itertools
import math
import random
import statistics

from sumprod import (
    Instance,
    grid_verify_theorem,
    solve_dilated,
    solve_progression,
    threshold_N0,
)
from sumprod import witness


def cert_bits(w):
    # the bit length of the certificate's largest component, as perfbench
    # counts it
    return max(
        abs(w.a_prime).bit_length(),
        abs(w.b_prime).bit_length(),
        abs(w.c_prime).bit_length(),
        abs(w.d_prime).bit_length(),
    )


def test_random_certificates_about_the_size_of_n():
    # Generated like perfbench's random_bits: a modulus of exactly `bits`
    # bits, templates in [1, m], and N = ab + cd + t*delta*m with t of
    # `bits` bits.  At m' = 1 the certificate is at most 4 bits longer than
    # N.  At m' > 1 the bound grows by the bits of m/delta and of m', a
    # margin for the u- and v-steps, which move c' above c.
    rng = random.Random(7)
    rows = {1: 0, 2: 0}
    for bits in (64, 128, 256, 512):
        for _ in range(500):
            m = rng.getrandbits(bits - 1) | (1 << (bits - 1))
            a, b, c, d = (rng.randint(1, m) for _ in range(4))
            t = rng.getrandbits(bits)
            delta = math.gcd(a, b, c, d, m)
            n_target = a * b + c * d + t * delta * m
            w, got_delta = solve_dilated(Instance(a, b, c, d, m, n_target))
            assert got_delta == delta
            m_p = witness._plan(a, b, c, d, m)[8]
            bound = n_target.bit_length()
            if m_p == 1:
                bound += 4
            else:
                bound += (m // delta).bit_length() + m_p.bit_length()
            assert cert_bits(w) <= bound, (a, b, c, d, m, n_target)
            rows[min(m_p, 2)] += 1
    assert rows[1] > 0 and rows[2] > 0, rows


def test_small_certificates_do_not_grow():
    # Medians before the window rule: 7 bits on the grid, 6 on the sweep
    # and 9 on the one-sided members.  Each is pinned at or below that.
    grid = []
    for m in range(1, 6):
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            base = a * b + c * d
            step = math.gcd(a, b, c, d, m) * m
            for t in range(-30, 31):
                w, _ = solve_dilated(Instance(a, b, c, d, m, base + t * step))
                grid.append(cert_bits(w))
    assert statistics.median(grid) <= 7

    sweep = []

    def observe(w):
        sweep.append(cert_bits(w))
        return w

    assert grid_verify_theorem(3, 200, corrupt=observe).ok
    assert len(sweep) == 39_298 and statistics.median(sweep) <= 6

    # Every member from ab + cd to N0 of the criterion-4 templates (m <= 3,
    # entries in {1, 2}, gcd 1).  Below N0 the one-sided lift may fail; the
    # count of those failures is pinned too (258 before the rule).
    one_sided, failures = [], 0
    for m in (1, 2, 3):
        for a, b, c, d in itertools.product((1, 2), repeat=4):
            if math.gcd(a, b, c, d, m) != 1:
                continue
            n0 = threshold_N0(a, b, c, d, m).N0
            for n_target in range(a * b + c * d, n0 + 1, m):
                res = solve_progression(Instance(a, b, c, d, m, n_target))
                if res.witness is None:
                    failures += 1
                else:
                    one_sided.append(cert_bits(res.witness))
    assert statistics.median(one_sided) <= 9
    assert failures == 77


def test_m_prime_above_1_certificates_about_the_size_of_n():
    # 600 random_bits-style instances with m' > 1: 64-bit moduli, templates
    # in [1, m] and t of 64 bits, so N is about m^2 and the near window is
    # taken.  y' needs room only for the u the u-step takes, so c1 exceeds
    # c by at most m*(m' - 1), c' stays about c, and the certificate is
    # about as long as N's 128 bits.
    rng = random.Random(30)
    sizes = []
    while len(sizes) < 600:
        m = rng.getrandbits(63) | (1 << 63)
        a, b, c, d = (rng.randint(1, m) for _ in range(4))
        t = rng.getrandbits(64)
        if witness._plan(a, b, c, d, m)[8] == 1:
            continue
        n_target = a * b + c * d + t * math.gcd(a, b, c, d, m) * m
        w, _ = solve_dilated(Instance(a, b, c, d, m, n_target))
        sizes.append(cert_bits(w))
    assert statistics.median(sizes) <= 130
