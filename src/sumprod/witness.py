"""Constructive decompositions N = a'b' + c'd' with each component congruent
to its template modulo m.

The pipeline follows the underlying existence proof step by step and records
every intermediate in a WitnessTrace: solve b*x + d*y + m'*z = k, reduce x, y
into windows of m' values, shift (a0, c0) by the smallest multiple of m that
leaves gcd(a1, c1) with m'-part exactly m', shift c1 by the smallest multiple
of m*m' that clears the remaining prime interference, and finish with the
least-r lift of (b, d) by the inverse of a'/m' modulo c'/m'.  The first
step's Bezout pairs and that inverse come from math.gcd and pow(., -1, .).
x' lies in [0, m' - 1].  y' lies in the far window [b*m, b*m + m' - 1]
when N >= m*c*(c + b*m*m), and else in the near window
[b*(m' - 1), b*(m' - 1) + m' - 1].  Both keep c1 >= c; the near window
makes c', and so the certificate, smaller on targets below that size.
Every step before the lift, and that inverse, depends on the target only
through k mod m' and the window, so it is built once per (template,
k mod m', window) row and cached.
Every trace field has an invariant that is a theorem.  The row's invariants
are checked once, when the row is built; those that involve the target, and
the certificate itself, are checked on every solve.  A violation is a bug,
never an input condition, and raises InternalInvariantError naming the check.

Every pair solve takes one path, _solve, on the caller's plain ints: divide
a, b, c, d and m by delta = gcd(a, b, c, d, m), run the pipeline on the
templates' representatives in [1, m/delta] and N/delta^2, multiply the
witness by delta, and check that one certificate against the caller's
values.  What depends on the template alone (delta and delta*m, ab + cd, the
representatives and m/delta, m', whether the instance moves and the far
window's threshold) is the template's plan, built once and kept for the last
64 templates; rows are kept for the last 64 rows.  The caller reads the plan
and hands it to _solve, so the grid sweep reads it once for all of a
template's targets.  A target whose plan and row are cached costs the plan
lookup, the row lookup, the residue test, the lift, the 8 target checks and
one certificate check.  Only solve_class and the CLI's witness --trace
return the trace, so only they build one, and an Instance is built only for
a returned trace or an error message.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import index
from typing import Optional

from .core_arith import _bezout, _least_r_lift

__all__ = [
    "Instance",
    "Witness",
    "WitnessTrace",
    "SubgroupWitness",
    "InternalInvariantError",
    "solve_class",
    "solve_dilated",
    "subgroup_witness",
    "verify_witness",
    "validate_trace",
]


class InternalInvariantError(RuntimeError):
    """A proof-level invariant failed at runtime.  Always a bug in this
    package (or a falsified theorem), never a caller error."""


@dataclass(frozen=True)
class Instance:
    """One problem instance: templates a, b, c, d, modulus m >= 1, target N."""

    a: int
    b: int
    c: int
    d: int
    m: int
    N: int

    # operator.index only checks the values: a float, a string or a Fraction
    # raises TypeError, and the caller's own objects are stored.  One dict
    # update in place of the frozen dataclass's six object.__setattr__
    # calls; every other dataclass method is generated.  Storing the six
    # items one at a time builds an Instance faster on CPython 3.11, but its
    # attribute reads are about twice as slow, and a warm solve_dilated of
    # a new Instance got slower overall.
    def __init__(self, a: int, b: int, c: int, d: int, m: int, N: int) -> None:
        index(a)
        index(b)
        index(c)
        index(d)
        index(N)
        if index(m) < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        self.__dict__.update(a=a, b=b, c=c, d=d, m=m, N=N)

    def delta(self) -> int:
        return math.gcd(self.a, self.b, self.c, self.d, self.m)


@dataclass(slots=True)
class Witness:
    """Certificate a'b' + c'd' = N with componentwise congruence mod m."""

    a_prime: int
    b_prime: int
    c_prime: int
    d_prime: int


@dataclass(slots=True)
class SubgroupWitness:
    """Quadruple with a*w + b*x + c*y + d*z + m*(w*x + y*z) = t."""

    w: int
    x: int
    y: int
    z: int
    t: int

    def evaluate(self, a: int, b: int, c: int, d: int, m: int) -> int:
        return (
            a * self.w
            + b * self.x
            + c * self.y
            + d * self.z
            + m * (self.w * self.x + self.y * self.z)
        )


@dataclass(slots=True)
class WitnessTrace:
    """Every intermediate of the constructive pipeline, for auditing.

    `instance` is the (positive-representative) instance the pipeline
    actually ran on; all invariants are stated relative to it.
    """

    instance: Instance
    m_prime: int
    k: int
    x: int
    y: int
    z: int
    x_prime: int
    y_prime: int
    q_x: int
    q_y: int
    a0: int
    c0: int
    u: int
    a1: int
    c1: int
    v: int
    a_prime: int
    c_prime: int
    ell: int
    r: int
    s: int


def _certificate_ok(a: int, b: int, c: int, d: int, m: int, N: int, w: Witness) -> bool:
    # a'b' + c'd' = N with each component congruent to its template mod m.
    return (
        (w.a_prime - a) % m == 0
        and (w.b_prime - b) % m == 0
        and (w.c_prime - c) % m == 0
        and (w.d_prime - d) % m == 0
        and w.a_prime * w.b_prime + w.c_prime * w.d_prime == N
    )


def verify_witness(inst: Instance, w: Witness) -> bool:
    """Pure-arithmetic certificate check: four congruences plus the exact sum."""
    return _certificate_ok(inst.a, inst.b, inst.c, inst.d, inst.m, inst.N, w)


def _component_box(a: int, b: int, c: int, d: int, m: int) -> tuple[int, int]:
    # The proof's bounds a' <= a_hi and c' <= c_hi on the pipeline's (a', c').
    mm = m * m
    return a + (d + 1) * mm, c + (a + b + 1) * mm + (d + 1) * mm * mm


def _far_from(b: int, c: int, m: int) -> int:
    # The least target N whose rows put y' in the far window.  The lift
    # gives b' up to about m*c' and d' about N/c', and c' is about
    # c + b*m*m in the far window and about c in the near one, so the near
    # window makes the smaller certificate about when N/c < m*(c + b*m*m).
    return m * c * (c + b * m * m)


def _y_low(b: int, m: int, mp: int, far: bool) -> int:
    # The low end of y''s window of m' values, far or near.  Either keeps
    # c1 = c0 - b*m*u >= c for every u <= m' - 1, and keeps c' inside
    # _component_box.
    return b * m if far else b * (mp - 1)


def _row_checks(
    a: int, b: int, c: int, d: int, m: int, mp: int, far: bool,
    x_p: int, y_p: int, a0: int, c0: int, u: int,
    a1: int, c1: int, v: int, a_p: int, c_p: int,
) -> list[str]:
    # The names of the failed invariants that depend on the template, k mod
    # m' and the window alone, in evaluation order.
    a_hi, c_hi = _component_box(a, b, c, d, m)
    y_lo = _y_low(b, m, mp, far)
    failed = []
    if not mp == math.gcd(a, c, m):
        failed.append("m_prime")
    if not 0 <= x_p <= mp - 1:
        failed.append("x_prime_window")
    if not y_lo <= y_p <= y_lo + mp - 1:
        failed.append("y_prime_window")
    if not a0 == a + m * x_p:
        failed.append("a0")
    if not c0 == c + m * y_p:
        failed.append("c0")
    if not 0 <= u < mp:
        failed.append("u_window")
    if not a1 == a0 + d * m * u:
        failed.append("a1")
    if not c1 == c0 - b * m * u:
        failed.append("c1")
    if not math.gcd(math.gcd(a1, c1) // mp, mp) == 1:
        failed.append("u_gcd")
    if not 0 <= v <= a1:
        failed.append("v_window")
    if not a_p == a1:
        failed.append("a_prime")
    if not c_p == c1 + m * mp * v:
        failed.append("c_prime")
    if not math.gcd(a_p, c_p) == mp:
        failed.append("gcd_final")
    if not a <= a_p <= a_hi:
        failed.append("ineq2_a")
    if not c <= c_p <= c_hi:
        failed.append("ineq2_c")
    return failed


def _target_checks(
    a: int, b: int, c: int, d: int, m: int, N: int, mp: int,
    k: int, x: int, y: int, z: int, x_p: int, y_p: int, q_x: int, q_y: int,
    a_p: int, c_p: int, ell: int, r: int, s: int,
) -> list[str]:
    # The names of the failed invariants that involve the target, in
    # evaluation order.  _solve_core writes the same checks out as one
    # conjunction and calls this only to name a failure.
    mmp = m * mp
    rem = N - (a_p * b + c_p * d)
    failed = []
    if not N == a * b + c * d + k * m:
        failed.append("k")
    if not b * x + d * y + mp * z == k:
        failed.append("eq_A")
    if not x == q_x * mp + x_p:
        failed.append("eq_B_x")
    if not y == q_y * mp + y_p:
        failed.append("eq_B_y")
    if not rem % mmp == 0:
        failed.append("congruence_mm")
    if not ell * mmp == rem:
        failed.append("ell")
    if not a_p * r + c_p * s == ell * mp:
        failed.append("lift")
    if not 0 <= r < c_p // mp:
        failed.append("r_window")
    return failed


def validate_trace(trace: WitnessTrace) -> None:
    """Check every trace invariant; raise InternalInvariantError on failure.

    These are the intermediate claims of the existence proof.  A solve checks
    the row half once, when it builds the row, and the target half on every
    solve; this runs both halves on any trace.
    """
    t = trace
    i = t.instance
    failed = _row_checks(
        i.a, i.b, i.c, i.d, i.m, t.m_prime, i.N >= _far_from(i.b, i.c, i.m),
        t.x_prime, t.y_prime,
        t.a0, t.c0, t.u, t.a1, t.c1, t.v, t.a_prime, t.c_prime,
    ) + _target_checks(
        i.a, i.b, i.c, i.d, i.m, i.N, t.m_prime, t.k, t.x, t.y, t.z,
        t.x_prime, t.y_prime, t.q_x, t.q_y, t.a_prime, t.c_prime, t.ell, t.r, t.s,
    )
    if failed:
        raise InternalInvariantError(
            f"trace invariants violated: {failed}; trace={t!r}"
        )


# Rows _row keeps at once.  A template has at most m' <= m rows, and callers
# visit a template's targets back to back, so a small cache is reused.
_ROW_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _row(
    a: int, b: int, c: int, d: int, m: int, k_res: int, far: bool
) -> tuple[tuple[int, ...], ...]:
    # The pipeline up to (a', c'), which depends on the target only through
    # k_res = k mod m' and the y' window its size picks (far is N >=
    # _far_from(b, c, m)), as one group per proof stage in WitnessTrace
    # order: the unit solution, the windows, the u- and v-steps, and the
    # lift's data (a'/m', c'/m', inverse of a'/m' mod c'/m').  (x1, y1, z1)
    # solves b*x + d*y + m'*z = 1 from the Bezout pairs of (gcd(b, d), m')
    # and (b, d), which gcd(b, d, m') = gcd(a, b, c, d, m) = 1 allows; so
    # k*(x1, y1, z1) solves it for k, and x', y' are read off k_res*(x1, y1)
    # into [0, m' - 1] and the y' window.  At m' = 1 the near window is {0},
    # so c0 = c; and s2 = 0, so (b, d)'s pair (s1, t1) drops out, uncomputed.
    m_p = math.gcd(a, c, m)
    g, s2, t2 = _bezout(math.gcd(b, d), m_p)
    if g != 1:
        raise InternalInvariantError(
            f"gcd(b, d, m') = {g}, not 1: (a,b,c,d,m)=({a},{b},{c},{d},{m})"
        )
    s1, t1 = _bezout(b, d)[1:] if s2 else (0, 0)
    x1, y1, z1 = s1 * s2, t1 * s2, t2
    x_p = k_res * x1 % m_p
    y_lo = _y_low(b, m, m_p, far)
    y_p = y_lo + (k_res * y1 - y_lo) % m_p
    a0 = a + m * x_p
    c0 = c + m * y_p

    # u-step: the smallest u leaving gcd(a1, c1) with m'-part exactly m'.  The
    # proof's CRT choice (u ≡ 0 or 1 mod each prime of m') is below rad(m'),
    # so the search stops below m'.
    for u in range(m_p):
        a1 = a0 + d * m * u
        c1 = c0 - b * m * u
        if math.gcd(math.gcd(a1, c1) // m_p, m_p) == 1:
            break
    else:
        raise InternalInvariantError(f"no u-shift below m'={m_p} for {a0}, {c0}")

    # v-step: the smallest v with gcd(a1, c1 + m*m'*v) = m'.  The proof's CRT
    # choice (c' ≡ 1 mod each prime of a1 outside m) is below the product of
    # those primes, so the search stops by v = a1.
    a_p = a1
    for v in range(a1 + 1):
        c_p = c1 + m * m_p * v
        if math.gcd(a_p, c_p) == m_p:
            break
    else:
        raise InternalInvariantError(f"no v-shift up to a1={a1} for c1={c1}")

    failed = _row_checks(
        a, b, c, d, m, m_p, far, x_p, y_p, a0, c0, u, a1, c1, v, a_p, c_p
    )
    if failed:
        # Raised, so the row is never cached.
        raise InternalInvariantError(
            f"row invariants violated: {failed}; "
            f"(a,b,c,d,m,k mod m')=({a},{b},{c},{d},{m},{k_res})"
        )
    big_a, big_c = a_p // m_p, c_p // m_p
    return (
        (x1, y1, z1),
        (x_p, y_p),
        (a0, c0, u, a1, c1, v, a_p, c_p),
        (big_a, big_c, pow(big_a, -1, big_c)),  # the v-step made them coprime
    )


def _solve_core(
    a: int, b: int, c: int, d: int, m: int, N: int, m_p: int, far_from: int,
    traced: bool, inst: Optional[Instance],
) -> tuple[Witness, Optional[WitnessTrace]]:
    # Pre: a, b, c, d >= 1, gcd(a, b, c, d, m) = 1, N ≡ ab + cd (mod m),
    # m_p = gcd(a, c, m) and far_from = _far_from(b, c, m).  inst is
    # Instance(a, b, c, d, m, N) when the caller holds one, else None; it is
    # built only for a returned trace or an error.  The witness is integral;
    # the one-sided caller checks d' >= d itself.
    base = a * b + c * d
    k = (N - base) // m
    (x1, y1, z1), (x_p, y_p), steps, (big_a, big_c, inv) = _row(
        a, b, c, d, m, k % m_p, N >= far_from
    )
    x, y, z = k * x1, k * y1, k * z1
    q_x, q_y = (x - x_p) // m_p, (y - y_p) // m_p
    a_p, c_p = steps[6], steps[7]
    # The lift of (b, d): b' = b + m*r, d' = d + m*s with the least r >= 0,
    # which leaves the largest s.
    mmp = m * m_p
    rem = N - (a_p * b + c_p * d)
    ell = rem // mmp
    r, s = _least_r_lift(big_a, big_c, inv, ell)
    # _row checked the row half.  The target half runs on every solve: the
    # checks of _target_checks, in order, written out so that a passing
    # solve makes no call.  The tests pin the two copies to each other.
    if not (
        N == base + k * m
        and b * x + d * y + m_p * z == k
        and x == q_x * m_p + x_p
        and y == q_y * m_p + y_p
        and rem % mmp == 0
        and ell * mmp == rem
        and a_p * r + c_p * s == ell * m_p
        and 0 <= r < c_p // m_p
    ):
        failed = _target_checks(
            a, b, c, d, m, N, m_p, k, x, y, z, x_p, y_p, q_x, q_y, a_p, c_p, ell, r, s
        )
        raise InternalInvariantError(
            f"target invariants violated: {failed}; "
            f"{inst if inst is not None else Instance(a, b, c, d, m, N)!r}"
        )
    trace = None
    if traced:
        trace = WitnessTrace(
            inst if inst is not None else Instance(a, b, c, d, m, N),
            m_p, k, x, y, z, x_p, y_p, q_x, q_y, *steps, ell, r, s,
        )
    return Witness(a_p, b + m * r, c_p, d + m * s), trace


# Templates _plan keeps at once.  Callers visit a template's targets back to
# back, so a small cache is reused.
_PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(
    a: int, b: int, c: int, d: int, m: int
) -> tuple[int, int, int, int, int, int, int, int, int, bool, int]:
    # Everything _solve needs of the caller's template alone: delta and
    # delta*m, ab + cd, the reduced templates' representatives in
    # [1, m/delta] (the construction needs them positive) and m/delta, m' of
    # the reduced template, whether the reduced instance differs from the
    # caller's, and the reduced template's far-window threshold, so that a
    # target picks its window with one comparison.  m' = gcd(a, c, m) =
    # gcd(a mod m, c mod m, m), so moving to the representatives leaves it
    # as it is.
    delta = math.gcd(a, b, c, d, m)
    ra, rb, rc, rd, rm = a // delta, b // delta, c // delta, d // delta, m // delta
    ra, rb, rc, rd = ra % rm or rm, rb % rm or rm, rc % rm or rm, rd % rm or rm
    moved = delta != 1 or (ra, rb, rc, rd) != (a, b, c, d)
    return (
        delta, delta * m, a * b + c * d, ra, rb, rc, rd, rm, math.gcd(ra, rc, rm),
        moved, _far_from(rb, rc, rm),
    )


def _solve(
    a: int, b: int, c: int, d: int, m: int, N: int,
    plan: tuple[int, int, int, int, int, int, int, int, int, bool, int],
    traced: bool, inst: Optional[Instance] = None,
) -> Optional[tuple[Witness, int, Optional[WitnessTrace]]]:
    # The dilated theorem in one move, for every pair solve: divide a, b, c,
    # d, m by delta, solve the coprime instance on the templates'
    # representatives, and scale the witness back.  plan is _plan(a, b, c,
    # d, m), read by the caller, so a caller with many targets of one
    # template reads it once.  inst is Instance(a, b, c, d, m, N) when the
    # caller holds one, else None; it is built only for a returned trace or
    # an error message.
    delta, dm, base, ra, rb, rc, rd, rm, m_p, moved, far_from = plan
    if (N - base) % dm != 0:
        return None
    rN = N
    if delta != 1:
        # N = ab + cd + t*delta*m = delta^2 * (AB + CD + t*M): divisibility
        # is forced.
        if N % (delta * delta) != 0:
            if inst is None:
                inst = Instance(a, b, c, d, m, N)
            raise InternalInvariantError(f"N not divisible by delta^2 for {inst!r}")
        rN //= delta * delta
    w, trace = _solve_core(
        ra, rb, rc, rd, rm, rN, m_p, far_from, traced, None if moved else inst
    )
    if delta != 1:
        w = Witness(
            delta * w.a_prime, delta * w.b_prime, delta * w.c_prime, delta * w.d_prime
        )
    # x ≡ a/delta (mod m/delta) exactly when delta*x ≡ a (mod m), and the sum
    # scales by delta^2, so this one check on the caller's values covers the
    # reduced solve.
    if not _certificate_ok(a, b, c, d, m, N, w):
        if inst is None:
            inst = Instance(a, b, c, d, m, N)
        raise InternalInvariantError(f"witness failed verification: {w!r} for {inst!r}")
    return w, delta, trace


def solve_class(inst: Instance) -> Optional[tuple[Witness, WitnessTrace]]:
    """Witness for N in the coprime case gcd(a, b, c, d, m) = 1.

    Returns None exactly when N !≡ ab + cd (mod m); otherwise a verified
    Witness together with its full WitnessTrace.  Templates are first moved
    to their representatives in [1, m], which the positivity arguments of
    the construction require (congruences are unaffected).
    """
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    if math.gcd(a, b, c, d, m) != 1:
        raise ValueError(
            "gcd(a, b, c, d, m) != 1: use solve_dilated for the general case"
        )
    got = _solve(a, b, c, d, m, inst.N, _plan(a, b, c, d, m), True, inst)
    return None if got is None else (got[0], got[2])


def solve_dilated(inst: Instance) -> Optional[tuple[Witness, int]]:
    """Witness for arbitrary gcd: divide through by delta = gcd(a, b, c, d, m),
    solve the coprime instance, and scale the witness back up.

    Returns None exactly when N !≡ ab + cd (mod delta*m); otherwise the
    witness and delta.  The witness satisfies the congruences for the
    original modulus m and is verified once, against inst itself.

    The template's own work (delta, the reduced representatives, m', the
    far window's threshold) is done once per template and kept for the last
    64 templates, and the pipeline up to the lift once per (template,
    k mod m', y' window) row, kept for the last 64 rows.  A target of a
    cached template and row then pays the residue test, the lift, the 8
    target checks and one certificate check.
    """
    got = _solve(
        inst.a, inst.b, inst.c, inst.d, inst.m, inst.N,
        _plan(inst.a, inst.b, inst.c, inst.d, inst.m), False, inst,
    )
    return None if got is None else got[:2]


def subgroup_witness(
    a: int, b: int, c: int, d: int, m: int, t: int
) -> Optional[SubgroupWitness]:
    """Quadruple (w, x, y, z) with a*w + b*x + c*y + d*z + m*(w*x + y*z) = t.

    Exists iff delta = gcd(a, b, c, d, m) divides t.  Obtained by solving the
    pair decomposition for N = ab + cd + m*t and unraveling
    (a + m*x)(b + m*w) + (c + m*z)(d + m*y) = ab + cd + m*(aw + bx + cy + dz
    + m*(wx + yz)).
    """
    # Instance refuses a non-integral value, t included, and m < 1.
    inst = Instance(a, b, c, d, m, a * b + c * d + m * t)
    if t % inst.delta() != 0:
        return None
    if t == 0:
        return SubgroupWitness(0, 0, 0, 0, 0)
    got = solve_dilated(inst)
    if got is None:
        raise InternalInvariantError(f"subgroup target unreachable: t={t}, {inst!r}")
    wit, _ = got
    sw = SubgroupWitness(
        w=(wit.b_prime - b) // m,
        x=(wit.a_prime - a) // m,
        y=(wit.d_prime - d) // m,
        z=(wit.c_prime - c) // m,
        t=t,
    )
    if sw.evaluate(a, b, c, d, m) != t:
        raise InternalInvariantError(f"subgroup witness mis-evaluates: {sw!r}")
    return sw
