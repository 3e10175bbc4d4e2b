"""Constructive decompositions N = a'b' + c'd' with each component congruent
to its template modulo m.

The pipeline follows the underlying existence proof step by step and records
every intermediate in a WitnessTrace: solve b*x + d*y + m'*z = k, reduce x, y
into windows of m' values, shift (a0, c0) by the smallest multiple of m that
leaves gcd(a1, c1) with m'-part exactly m', shift c1 by the smallest multiple
of m*m' that clears the remaining prime interference, and finish with the
least-r lift of (b, d) by the inverse of a'/m' modulo c'/m'.  At m' = 1
every congruence mod m' holds, so the steps before the v-step have a closed
form: (x, y, z) = (0, 0, k), x' = 0, y' the low end of its window, u = 0.
For m' > 1 only x and y mod m' reach the row, so the first step takes its
Bezout pairs (_bezout) of b and d mod m', numbers no larger than m', and
solves for z exactly.  m' itself comes from the plan, as gcd(a, c, m)/delta
of the caller's template.  The Bezout pairs and the inverse come from
math.gcd and pow(., -1, .); _least_r_lift is the lift.  sylvester_nonneg is
that lift on its own: the nonnegative (r, s) with a*r + c*s =
ell*gcd(a, c), the two-coin (Sylvester/Frobenius) problem.  All of it is
exact arithmetic on plain ints, with no floating point.
x' lies in [0, m' - 1].  y' lies in the far window [b*m, b*m + m' - 1]
when N >= m*c*(c + b*m*m), and else in the near window
[b*u, b*u + m' - 1] of the u the u-step takes.  The u-step runs first: its
test reads y' only mod m', since moving y' by m' moves c1/m' by m and every
prime of m' divides m.  Both windows keep c1 >= c; the near window makes
c', and so the certificate, smaller on targets below that size.
Every step before the lift, and that inverse, depends on the target only
through k mod m' and the window, so it is built once per (template,
k mod m', window) row and cached.
Every trace field has an invariant that is a theorem, and each is written
once.  validate_trace checks all 23, the row's 15 and the 8 that involve
the target, and reports every failed one in one text.  It is the one check
a traced solve runs: a traced solve builds its trace and calls it, so a
broken step reads the same from solve_class, the CLI's witness --trace and
an untraced solve's retry.  The row's 15 also run when _row's one guard
fires, before the lift's inverse, on a gcd(a', c') that is not m' or an m'
that does not divide m (a search that ran out, or a wrong m').  An
untraced solve runs none of them and rests on the certificate check on the
caller's values, which is what makes its answer right; when that check
fails, it solves again, traced, so that the broken step is named.  So a row
that fails a check can be cached, and only a traced solve or a failed
certificate reads it by step.  A violation is a bug, never an input
condition, and raises InternalInvariantError naming the check; its text
shows an int too long for str() as its bit length.

Every solve, of the pair theorem and of the one-sided one, is one function,
_solve, on the caller's plain ints: the residue test mod delta*m, N/delta^2,
k, the row, the lift (and, traced, the trace and validate_trace), one
witness scaled by delta, and one certificate check against the caller's
values.  It runs on a plan, what depends on the template alone (delta and
delta*m, ab + cd, the template the pipeline runs on and its modulus, m', and
the far window's threshold).  The pair theorem's plan, _plan, divides by
delta = gcd(a, b, c, d, m) and moves to the representatives in [1, m/delta];
it is built once and kept for the last 64 templates.  The one-sided
theorem's plan, _plan_as_given, keeps the template as given, which a
one-sided decomposition cannot move; on a coprime template with entries in
[1, m] the two plans are equal.  progressions keeps it with the template's
threshold.  Rows are kept for the last 64 rows.  The caller reads the plan
and hands it to _solve, so the grid sweep reads it once for all of a
template's targets.  An untraced target whose plan and row are cached costs
the plan lookup, the row lookup, the residue test, the lift and one
certificate check.  Only solve_class and the CLI's witness --trace return
the trace, so only they build one, and an Instance is built only for a
returned trace or an error message.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from operator import index
from typing import Optional

__all__ = [
    "Instance",
    "Witness",
    "WitnessTrace",
    "SubgroupWitness",
    "InternalInvariantError",
    "solve_class",
    "solve_dilated",
    "subgroup_witness",
    "sylvester_nonneg",
    "verify_witness",
    "validate_trace",
]


class InternalInvariantError(RuntimeError):
    """A proof-level invariant failed at runtime.  Always a bug in this
    package (or a falsified theorem), never a caller error."""


def _show(x: object) -> str:
    # repr(x) for an InternalInvariantError text.  str() of an int past
    # sys.get_int_max_str_digits() raises ValueError, which would replace
    # the error being reported, so such an int shows as its bit length, in
    # x itself or in a dataclass field of it, at any depth.
    try:
        return repr(x)
    except ValueError:
        pass
    if isinstance(x, int):
        return f"<{x.bit_length()}-bit int>"
    shown = (f"{f.name}={_show(getattr(x, f.name))}" for f in fields(x))
    return f"{type(x).__qualname__}({', '.join(shown)})"


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
        # operator.index refuses a float, whose rounded sum can hit t.
        w, x, y, z = index(self.w), index(self.x), index(self.y), index(self.z)
        return (
            index(a) * w
            + index(b) * x
            + index(c) * y
            + index(d) * z
            + index(m) * (w * x + y * z)
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
    """Pure-arithmetic certificate check: four congruences plus the exact sum.

    A non-integral component raises TypeError, as Instance does: a float's
    rounded products can sum to N when the exact ones do not.
    """
    for v in (w.a_prime, w.b_prime, w.c_prime, w.d_prime):
        index(v)
    return _certificate_ok(inst.a, inst.b, inst.c, inst.d, inst.m, inst.N, w)


def _component_box(a: int, b: int, c: int, d: int, m: int) -> tuple[int, int]:
    # The proof's bounds a' <= a_hi and c' <= c_hi on the pipeline's (a', c'):
    # a + (d + 1)*m^2 and c + (a + b + 1)*m^2 + (d + 1)*m^4, in three
    # products.
    mm = m * m
    dmm = (d + 1) * mm
    return a + dmm, c + (a + b + 1 + dmm) * mm


def _far_from(b: int, c: int, m: int) -> int:
    # The least target N whose rows put y' in the far window.  The lift
    # gives b' up to about m*c' and d' about N/c', and c' is about
    # c + b*m*m in the far window and about c in the near one, so the near
    # window makes the smaller certificate about when N/c < m*(c + b*m*m).
    return m * c * (c + b * m * m)


def _y_low(b: int, m: int, u: int, far: bool) -> int:
    # The low end of y''s window of m' values, far or near, for the u the
    # u-step took.  Either keeps c1 = c0 - b*m*u = c + m*(y' - b*u) >= c
    # (the far one because u < m' <= m), and keeps c' inside _component_box.
    return b * m if far else b * u


def _row_checks(
    a: int, b: int, c: int, d: int, m: int, mp: int, far: bool,
    x_p: int, y_p: int, a0: int, c0: int, u: int,
    a1: int, c1: int, v: int, a_p: int, c_p: int,
) -> list[str]:
    # The names of the failed invariants that depend on the template, k mod
    # m' and the window alone, in evaluation order.
    a_hi, c_hi = _component_box(a, b, c, d, m)
    y_lo = _y_low(b, m, u, far)
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
    g1 = math.gcd(a1, c1)
    if not math.gcd(g1 // mp, mp) == 1:
        failed.append("u_gcd")
    if not 0 <= v <= a1:
        failed.append("v_window")
    if not a_p == a1:
        failed.append("a_prime")
    if not c_p == c1 + m * mp * v:
        failed.append("c_prime")
    # At v = 0, (a', c') is (a1, c1), whose gcd u_gcd took.
    if not (g1 if (a_p, c_p) == (a1, c1) else math.gcd(a_p, c_p)) == mp:
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
    # evaluation order.  Only traced solves and validate_trace run them: an
    # untraced solve rests on its certificate check, and when that fails it
    # solves again traced, so that these name the broken step.
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

    These are the intermediate claims of the existence proof: the row's
    15, then the 8 that involve the target, all reported in one text.  A
    traced solve runs this on the trace it builds, and no other check; an
    untraced solve builds no trace, runs none, and rests on its certificate
    check, so a row it built and cached is unchecked.  This checks any
    trace, one whose row an untraced solve cached included.
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
            f"trace invariants violated: {failed}; trace={_show(t)}"
        )


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    # For x, y >= 1: (g, s, t) with s*x + t*y = g = gcd(x, y), the pair
    # extended Euclid returns, whose s is the one in (-Y/2, Y/2] for
    # Y = y/g.  pow(., -1, 1) is 0, so Y = 1 gives (g, 0, 1).
    g = math.gcd(x, y)
    big_y = y // g
    s = pow(x // g, -1, big_y)
    if 2 * s > big_y:
        s -= big_y
    return g, s, (g - x * s) // y


def _least_r_lift(big_a: int, big_c: int, inv: int, ell: int) -> tuple[int, int]:
    # Given inv = big_a^-1 mod big_c with big_c >= 1: the solution of
    # big_a*r + big_c*s = ell with the least r >= 0, which has r in [0, big_c).
    r = inv * ell % big_c
    return r, (ell - big_a * r) // big_c


def sylvester_nonneg(
    a: int, c: int, mp: int, ell: int
) -> Optional[tuple[int, int]]:
    """Nonnegative (r, s) with a*r + c*s = ell*mp, where gcd(a, c) = mp.

    Guaranteed to succeed for ell >= (a/mp - 1)(c/mp - 1); below that bound
    the answer is still exact (a solution is returned iff one exists).  The
    returned r is the smallest admissible one, which keeps output stable.
    A non-integral argument raises TypeError.
    """
    for v in (a, c, mp, ell):
        index(v)
    if a < 1 or c < 1 or mp < 1:
        raise ValueError("a, c, mp must be positive")
    if math.gcd(a, c) != mp:
        raise ValueError(f"gcd({a}, {c}) != {mp}")
    big_a, big_c = a // mp, c // mp
    # s falls as r grows, so the least r >= 0 leaves the largest s.
    r, s = _least_r_lift(big_a, big_c, pow(big_a, -1, big_c), ell)
    return (r, s) if s >= 0 else None


# Rows _row keeps at once.  A template has at most m' <= m rows, and callers
# visit a template's targets back to back, so a small cache is reused.
_ROW_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _row(
    a: int, b: int, c: int, d: int, m: int, m_p: int, k_res: int, far: bool
) -> tuple[tuple[int, ...], ...]:
    # The pipeline up to (a', c'), which depends on the target only through
    # k_res = k mod m' and the y' window its size picks (far is N >=
    # _far_from(b, c, m)), as one group per proof stage in WitnessTrace
    # order: the unit solution, the windows, the u- and v-steps, and the
    # lift's data (a'/m', c'/m', inverse of a'/m' mod c'/m').  m_p is the
    # plan's m' = gcd(a, c, m).  No row check runs here unless the guard
    # after the v-step fires: a traced solve checks the row it reads through
    # validate_trace, and an untraced one rests on its certificate, so a row
    # that fails a check can be cached.
    # At m' = 1 every congruence mod m' holds, so the steps before the v-step
    # have their closed form: the unit solution (0, 0, 1), x' = 0, u = 0 and
    # y' the low end of its window.  Otherwise only x and y mod m' reach the
    # row, so (x1, y1) comes from the Bezout pairs of (gcd(b_r, d_r), m') and
    # (b_r, d_r), for b_r, d_r the residues of b, d in [1, m'], which
    # gcd(b_r, d_r, m') = gcd(b, d, m') = 1 allows; then
    # b*x1 + d*y1 ≡ 1 (mod m'), and z1 makes it exact.  So k*(x1, y1, z1)
    # solves b*x + d*y + m'*z = k, x' is read off k_res*x1 into [0, m' - 1],
    # the u-step runs on y' ≡ k_res*y1 (mod m'), and y' goes into the window
    # of the u it took.
    if m_p == 1:
        x1, y1, z1 = 0, 0, 1
        x_p, u = 0, 0
        y_p = _y_low(b, m, u, far)
        # a + 0, not a: a one-sided caller's True enters the row as 1
        a0, c0 = a + 0, c + m * y_p
        a1, c1 = a0, c0
    else:
        b_r, d_r = b % m_p or m_p, d % m_p or m_p
        g, s2 = _bezout(math.gcd(b_r, d_r), m_p)[:2]
        if g != 1:
            raise InternalInvariantError(
                f"gcd(b, d, m') = {_show(g)}, not 1: "
                f"(a,b,c,d,m)=({','.join(map(_show, (a, b, c, d, m)))})"
            )
        s1, t1 = _bezout(b_r, d_r)[1:] if s2 else (0, 0)
        x1, y1 = s1 * s2, t1 * s2
        z1 = (1 - b * x1 - d * y1) // m_p
        x_p, y_r = k_res * x1 % m_p, k_res * y1 % m_p
        a0 = a + m * x_p
        c_r = c + m * y_r

        # u-step, for m' > 1 only: the smallest u leaving gcd(a1, c1) with
        # m'-part exactly m'.  The proof's CRT choice (u ≡ 0 or 1 mod each
        # prime of m') is below rad(m'), so the search stops below m'; one
        # that ran out would leave a prime of m' in a1/m' and c1/m', which
        # no v-step removes, so the guard names u_gcd (and gcd_final).  m'
        # divides a1 and c1, so gcd(m', a1/m', c1/m') is u_gcd's
        # gcd(gcd(a1, c1)/m', m'), with the small operand first.  The check
        # keeps its own form, which stays right on a trace whose m' does not
        # divide a1 and c1.  The search runs on y' = y_r: moving y' by m'*t
        # moves c1/m' by m*t, and every prime of m' divides m, so every y' of
        # the class gives the same u.
        for u in range(m_p):
            a1 = a0 + d * m * u
            if math.gcd(m_p, a1 // m_p, (c_r - b * m * u) // m_p) == 1:
                break
        y_lo = _y_low(b, m, u, far)
        y_p = y_lo + (y_r - y_lo) % m_p
        c0 = c + m * y_p
        c1 = c0 - b * m * u

    # v-step: the smallest v with gcd(a1, c1 + m*m'*v) = m'.  The proof's CRT
    # choice (c' ≡ 1 mod each prime of a1 outside m) is below the product of
    # those primes, so the search stops by v = a1; one that ran out would
    # leave v = a1 with gcd(a', c') != m'.  A wrong m' can leave no v to
    # find (m' not dividing a1, say), so on a miss at v = 0 the search stops
    # unless m' is gcd(a, c, m).  That gcd is gcd(gcd(a1, c1), m), on a
    # small first operand: a1 ≡ a and c1 ≡ c (mod m).
    a_p = a1
    mmp = m * m_p
    for v in range(a1 + 1):
        c_p = c1 + mmp * v
        g = math.gcd(a_p, c_p)
        if g == m_p or (v == 0 and m_p != math.gcd(g, m)):
            break

    # The guard, the one test an untraced solve's row meets, before the
    # inverse, which needs gcd(a', c') = m': a search that ran out leaves
    # another gcd.  When gcd(a', c') = m', gcd(a, c, m) = gcd(a', c', m) =
    # gcd(m', m), since a' ≡ a and c' ≡ c (mod m), so m' is right exactly
    # when it divides m.  A row that fails either fails gcd_final or
    # m_prime, so the names the guard raises are never empty; its text gives
    # the row's key, since no trace exists yet, and the row is not cached.
    steps = (a0, c0, u, a1, c1, v, a_p, c_p)
    if g != m_p or m % m_p:
        raise InternalInvariantError(
            f"row invariants violated: "
            f"{_row_checks(a, b, c, d, m, m_p, far, x_p, y_p, *steps)}; "
            f"(a,b,c,d,m,k mod m')=({','.join(map(_show, (a, b, c, d, m, k_res)))})"
        )
    big_a, big_c = a_p // m_p, c_p // m_p
    return (
        (x1, y1, z1),
        (x_p, y_p),
        steps,
        (big_a, big_c, pow(big_a, -1, big_c)),  # the v-step made them coprime
    )


# Templates _plan keeps at once.  Callers visit a template's targets back to
# back, so a small cache is reused.
_PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(
    a: int, b: int, c: int, d: int, m: int
) -> tuple[int, int, int, int, int, int, int, int, int, int]:
    # Everything _solve needs of the caller's template alone: delta and
    # delta*m, ab + cd, the reduced templates' representatives in
    # [1, m/delta] (the construction needs them positive) and m/delta, m' of
    # the reduced template (the one _row takes), and the reduced template's
    # far-window threshold, so that a target picks its window with one
    # comparison.  delta comes by way of g = gcd(a, c, m), and the reduced
    # template's m' is g/delta: gcd(a/delta, c/delta, m/delta) = g/delta,
    # and moving to the representatives mod m/delta leaves it as it is.
    g = math.gcd(a, c, m)
    delta = math.gcd(g, b, d)
    ra, rb, rc, rd, rm = a // delta, b // delta, c // delta, d // delta, m // delta
    ra, rb, rc, rd = ra % rm or rm, rb % rm or rm, rc % rm or rm, rd % rm or rm
    return (
        delta, delta * m, a * b + c * d, ra, rb, rc, rd, rm, g // delta,
        _far_from(rb, rc, rm),
    )


def _plan_as_given(
    a: int, b: int, c: int, d: int, m: int
) -> tuple[int, int, int, int, int, int, int, int, int, int]:
    # A plan in _plan's layout that runs the construction on the template as
    # given: delta = 1, step m, and the template in place of the
    # representatives.  The one-sided theorem needs this: a one-sided
    # decomposition cannot move its template.  Pre: a, b, c, d >= 1 and
    # gcd(a, b, c, d, m) = 1.  On a template with entries in [1, m] it is
    # _plan's own plan.
    return 1, m, a * b + c * d, a, b, c, d, m, math.gcd(a, c, m), _far_from(b, c, m)


def _solve(
    a: int, b: int, c: int, d: int, m: int, N: int,
    plan: tuple[int, int, int, int, int, int, int, int, int, int], traced: bool,
) -> Optional[tuple[Witness, int, Optional[WitnessTrace]]]:
    # The whole construction, for every solve: divide a, b, c, d and m by
    # delta and N by delta^2, run the pipeline on the plan's template (the
    # representatives, or the template as given), and scale the witness
    # back.  plan is _plan(a, b, c, d, m) or _plan_as_given(a, b, c, d, m),
    # read by the caller, so a caller with many targets of one template
    # reads it once.  Only a traced solve computes the unit solve scaled by
    # k and its windows' quotients, builds the trace and runs validate_trace
    # on it.  An Instance is built only for a returned trace or an error
    # message: of the caller's values for the delta^2 and certificate
    # checks, and of the instance the pipeline ran on for the trace.
    delta, dm, base, ra, rb, rc, rd, rm, m_p, far_from = plan
    if (N - base) % dm != 0:
        return None
    rN = N
    if delta != 1:
        # N = ab + cd + t*delta*m = delta^2 * (AB + CD + t*M): divisibility
        # is forced.
        if N % (delta * delta) != 0:
            raise InternalInvariantError(
                "N not divisible by delta^2 for "
                f"{_show(Instance(a, b, c, d, m, N))}"
            )
        rN //= delta * delta
    k = (rN - (ra * rb + rc * rd)) // rm
    unit, (x_p, y_p), steps, (big_a, big_c, inv) = _row(
        ra, rb, rc, rd, rm, m_p, k % m_p, rN >= far_from
    )
    a_p, c_p = steps[6], steps[7]
    # The lift of (b, d): b' = b + m*r, d' = d + m*s with the least r >= 0,
    # which leaves the largest s.
    ell = (rN - (a_p * rb + c_p * rd)) // (rm * m_p)
    r, s = _least_r_lift(big_a, big_c, inv, ell)
    trace = None
    if traced:
        # The trace holds the values the pipeline used, the row's as read,
        # fresh or cached, and validate_trace runs all 23 checks on it.
        x, y, z = k * unit[0], k * unit[1], k * unit[2]
        trace = WitnessTrace(
            Instance(ra, rb, rc, rd, rm, rN), m_p, k, x, y, z, x_p, y_p,
            (x - x_p) // m_p, (y - y_p) // m_p, *steps, ell, r, s,
        )
        validate_trace(trace)
    w = Witness(
        delta * a_p, delta * (rb + rm * r), delta * c_p, delta * (rd + rm * s)
    )
    # x ≡ a/delta (mod m/delta) exactly when delta*x ≡ a (mod m), and the sum
    # scales by delta^2, so this one check on the caller's values covers the
    # reduced solve.
    if not _certificate_ok(a, b, c, d, m, N, w):
        if not traced:
            # Solve again, traced, so that validate_trace names the broken
            # step; it raises, with the text below if every check passes.
            _solve(a, b, c, d, m, N, plan, True)
        raise InternalInvariantError(
            f"witness failed verification: {_show(w)} "
            f"for {_show(Instance(a, b, c, d, m, N))}"
        )
    return w, delta, trace


def solve_class(inst: Instance) -> Optional[tuple[Witness, WitnessTrace]]:
    """Witness for N in the coprime case gcd(a, b, c, d, m) = 1.

    Returns None exactly when N !≡ ab + cd (mod m); otherwise a verified
    Witness together with its full WitnessTrace.  Templates are first moved
    to their representatives in [1, m], which the positivity arguments of
    the construction require (congruences are unaffected).
    """
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    plan = _plan(a, b, c, d, m)
    if plan[0] != 1:  # delta
        raise ValueError(
            "gcd(a, b, c, d, m) != 1: use solve_dilated for the general case"
        )
    got = _solve(a, b, c, d, m, inst.N, plan, True)
    return None if got is None else (got[0], got[2])


def solve_dilated(inst: Instance) -> Optional[tuple[Witness, int]]:
    """Witness for arbitrary gcd: divide through by delta = gcd(a, b, c, d, m),
    solve the coprime instance, and scale the witness back up.

    Returns None exactly when N !≡ ab + cd (mod delta*m); otherwise the
    witness and delta.  The witness satisfies the congruences for the
    original modulus m and is verified once, against inst itself.

    This runs the same construction as solve_class and solve_progression,
    on the plan that divides by delta and moves to representatives.  The
    template's own work (delta, the reduced representatives, m', the far
    window's threshold) is done once per template and kept for the last 64
    templates, and the pipeline up to the lift once per (template,
    k mod m', y' window) row, kept for the last 64 rows.  A target of a
    cached template and row then pays the residue test, the lift and one
    certificate check.  No trace is built, so none of the 23 proof-step
    checks runs, not even on a row this solve builds: the certificate check
    is what makes the answer right.  Only when it fails is the target solved
    again, traced, so that validate_trace names the broken step, in the
    text solve_class would give.  A row that fails a check is cached like
    any other; solve_class on the same instance names the failure.
    """
    a, b, c, d, m = inst.a, inst.b, inst.c, inst.d, inst.m
    got = _solve(a, b, c, d, m, inst.N, _plan(a, b, c, d, m), False)
    return None if got is None else got[:2]


def subgroup_witness(
    a: int, b: int, c: int, d: int, m: int, t: int
) -> Optional[SubgroupWitness]:
    """Quadruple (w, x, y, z) with a*w + b*x + c*y + d*z + m*(w*x + y*z) = t.

    Exists iff delta = gcd(a, b, c, d, m) divides t, and is None otherwise.
    Obtained by solving the pair decomposition for N = ab + cd + m*t, which
    solve_dilated refuses exactly when delta does not divide t, and
    unraveling
    (a + m*x)(b + m*w) + (c + m*z)(d + m*y) = ab + cd + m*(aw + bx + cy + dz
    + m*(wx + yz)).
    """
    # Instance refuses a non-integral value, t included, and m < 1.
    inst = Instance(a, b, c, d, m, a * b + c * d + m * t)
    if t == 0:
        return SubgroupWitness(0, 0, 0, 0, 0)
    got = solve_dilated(inst)
    if got is None:
        return None
    wit, _ = got
    sw = SubgroupWitness(
        w=(wit.b_prime - b) // m,
        x=(wit.a_prime - a) // m,
        y=(wit.d_prime - d) // m,
        z=(wit.c_prime - c) // m,
        t=t,
    )
    if sw.evaluate(a, b, c, d, m) != t:
        raise InternalInvariantError(f"subgroup witness mis-evaluates: {_show(sw)}")
    return sw
