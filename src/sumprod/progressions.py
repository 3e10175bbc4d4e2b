"""One-sided (progression) witnesses: every component of the decomposition
must sit at or above its template, which holds unconditionally once the
target clears an explicit threshold N0.

Below the threshold the solver still tries, and the exceptional_set helper
measures exactly which targets have no one-sided decomposition at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .witness import (
    Instance,
    InternalInvariantError,
    Witness,
    _component_box,
    _plan_as_given,
    _solve,
)
from . import oracle as _oracle

__all__ = [
    "ThresholdReport",
    "ProgressionResult",
    "threshold_N0",
    "solve_progression",
    "exceptional_set",
]

WITNESS = "witness"
NOT_MEMBER = "not-member"
BELOW_THRESHOLD_FAILURE = "below-threshold-failure"


@dataclass(frozen=True)
class ThresholdReport:
    """The explicit threshold N0 and the component bounds it is built from.

    a_hi and c_hi are the upper ends of the box the pipeline's (a', c') land
    in; N0 = a_hi*b + c_hi*d + m*a_hi*c_hi dominates the growth requirement
    for every pair inside the box.
    """

    N0: int
    a_hi: int
    c_hi: int
    instance: tuple[int, int, int, int, int]


@dataclass
class ProgressionResult:
    status: str  # WITNESS | NOT_MEMBER | BELOW_THRESHOLD_FAILURE
    witness: Optional[Witness]
    threshold: ThresholdReport


# The last 64 templates' plans are kept: solve_progression reads one per
# target.  A failed check raises, and lru_cache caches no raise, so the
# template raises again on every call.  typed keeps True apart from 1, so the
# shared (frozen) report holds the caller's own values.
@functools.lru_cache(maxsize=64, typed=True)
def _plan(a: int, b: int, c: int, d: int, m: int) -> tuple[ThresholdReport, tuple]:
    # The template's checks, then its ThresholdReport and the witness plan
    # that runs the construction on the template as given (a one-sided
    # decomposition cannot move it).
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if min(a, b, c, d) < 1:
        raise ValueError("progression templates must be positive")
    if math.gcd(a, b, c, d, m) != 1:
        raise ValueError("gcd(a, b, c, d, m) must be 1")
    a_hi, c_hi = _component_box(a, b, c, d, m)
    n0 = a_hi * b + c_hi * d + m * a_hi * c_hi
    return (
        ThresholdReport(n0, a_hi, c_hi, (a, b, c, d, m)),
        _plan_as_given(a, b, c, d, m),
    )


def threshold_N0(a: int, b: int, c: int, d: int, m: int) -> ThresholdReport:
    """Exact integer evaluation of the representability threshold.

    Valid for the pipeline's smallest u, v shifts: they never exceed the CRT
    shifts the box a' <= a_hi, c' <= c_hi is derived from.  Refuses, with
    ValueError, the templates solve_progression refuses: a non-positive
    parameter, or gcd(a, b, c, d, m) = delta > 1, whose one-sided sums are
    delta^2 times the reduced template's and outgrow this N0's claim.

    The report is the one solve_progression shares among a template's
    targets: it is built once per template, and the last 64 templates'
    are kept.
    """
    return _plan(a, b, c, d, m)[0]


def solve_progression(inst: Instance) -> ProgressionResult:
    """One-sided witness for N in P_m(ab+cd): all four components end up in
    their progressions (a' >= a, b' >= b, c' >= c, d' >= d).

    Guaranteed for N >= N0, since the smallest u, v shifts keep (a', c')
    inside the threshold's box.  For smaller members the lift is attempted
    anyway; when the lift has d' < d, no one-sided lift exists for the
    constructed (a', c') and the outcome is labelled below-threshold-failure
    rather than not-member.

    The pair theorem's construction runs here on the template as given, with
    no division by delta and no move to representatives: the same _solve,
    with the same target checks and certificate check, on a plan built by
    witness._plan_as_given.  The template's checks, its ThresholdReport and
    that plan are computed once per template (the last 64 templates are
    kept), and its results share the report; each target then costs one
    cache lookup and one solve, which builds no WitnessTrace.
    """
    a, b, c, d, m, N = inst.a, inst.b, inst.c, inst.d, inst.m, inst.N
    report, plan = _plan(a, b, c, d, m)
    base = plan[2]
    # A target below ab + cd is no member, yet the pair theorem would solve
    # it, so membership is decided here, before the N = ab + cd shortcut.
    if N < base or (N - base) % m != 0:
        return ProgressionResult(NOT_MEMBER, None, report)
    if N == base:
        # Smallest member: the templates themselves already decompose it.
        return ProgressionResult(WITNESS, Witness(a, b, c, d), report)
    w = _solve(a, b, c, d, m, N, plan, False, inst)[0]
    if w.d_prime < d:
        if N >= report.N0:
            raise InternalInvariantError(
                f"one-sided lift must succeed at N >= N0: {inst!r}, N0={report.N0}"
            )
        return ProgressionResult(BELOW_THRESHOLD_FAILURE, None, report)
    if not (
        w.a_prime >= a
        and w.b_prime >= b
        and w.c_prime >= c
        and w.d_prime >= d
    ):
        raise InternalInvariantError(
            f"progression witness out of contract: {w!r} for {inst!r}"
        )
    return ProgressionResult(WITNESS, w, report)


def exceptional_set(
    a: int, b: int, c: int, d: int, m: int, cap: int
) -> list[int]:
    """All N in P_m(ab+cd) with N <= cap that have no one-sided decomposition.

    Decided by the oracle's exhaustive nonnegative sumset, which is complete
    up to cap because every factor is positive and bounded by the target.
    The cap is inclusive; the result is ascending.  The sumset is taken over
    member indices t <= top = (cap - ab - cd) // m in O(sqrt(top/m) *
    log(top)) shifts of a top-bit integer: about 0.05 s at top = 2*10**5
    and at most about 0.9 s at 10**6 (CPython 3.11, 2-vCPU host).  More
    than 10**6 members to scan (top + 1) is refused before any work.
    """
    base = _plan(a, b, c, d, m)[1][2]  # ab + cd
    if cap < base:
        return []
    top = (cap - base) // m
    if top + 1 > _oracle._MAX_SCANNED:
        # No count in the text: str() of a count past 4300 digits raises.
        raise ValueError("members to scan ((cap - ab - cd) // m + 1) must be <= 10**6")
    # Bit t of the folded mask is member base + m*t; read the bits once.
    bits = format(_oracle._folded_sums_mask(a, b, c, d, m, top), "b")
    bits = bits.zfill(top + 1)[::-1]
    return [base + m * t for t, bit in enumerate(bits) if bit == "0"]
