"""Independent ground truth: bounded exhaustive searches that decide
membership by direct substitution, with no reliance on the constructive
pipeline.  Used for differential testing and for reproducing the strictness
counterexamples.

Every positive answer carries an index tuple that re-evaluates to the target;
class-side searches are complete only within their box (progression-side
searches are complete outright, since all factors are positive).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .classes import (
    CongruenceClass,
    Progression,
    _positive_divisors,
    product_class_contains,
    progression_product_contains,
)
from .witness import Instance, Witness, solve_dilated, verify_witness

__all__ = [
    "SearchBox",
    "GridReport",
    "StrictnessReport",
    "oracle_member_class",
    "oracle_member_progression",
    "progression_sums_mask",
    "iterated_member_search",
    "grid_verify_theorem",
    "strictness_demo",
]


@dataclass(frozen=True)
class SearchBox:
    """Inclusive index bounds applied to each of the four search indices."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty box: [{self.lo}, {self.hi}]")

    @classmethod
    def default_for(cls, inst: Instance) -> "SearchBox":
        # Generous enough to cover small-index decompositions of modest
        # targets; quadratic table cost, so keep N modest.
        half = abs(inst.N) // inst.m + inst.m
        return cls(-half, half)


def _class_products(c: int, d: int, m: int, box: SearchBox) -> set[int]:
    # Every (c+k*m)(d+l*m) with k and l in the box: the class side of the
    # meet-in-the-middle search.
    span = range(box.lo, box.hi + 1)
    return {(c + k * m) * (d + l * m) for k in span for l in span}


def _first_pair(
    a: int, b: int, m: int, n_target: int, order: Sequence[int], products: set[int]
) -> Optional[tuple[int, int]]:
    # First (i, j) in order x order with N - (a+i*m)(b+j*m) in products.
    for i in order:
        ai = a + i * m
        for j in order:
            if n_target - ai * (b + j * m) in products:
                return i, j
    return None


def _centered(box: SearchBox) -> list[int]:
    # 0, 1, -1, 2, -2, ... clipped to the box; near-origin hits come first.
    return sorted(range(box.lo, box.hi + 1), key=lambda v: (abs(v), v))


def oracle_member_class(
    inst: Instance, box: SearchBox
) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Is N = (a+i*m)(b+j*m) + (c+k*m)(d+l*m) for indices in the box?

    Sound always; complete only within the box.  On success returns the
    lexicographically first quadruple (i, j, k, l), via a meet-in-the-middle
    table rather than four nested loops.
    """
    a, b, c, d, m, n_target = inst.a, inst.b, inst.c, inst.d, inst.m, inst.N
    span = range(box.lo, box.hi + 1)
    hit = _first_pair(a, b, m, n_target, span, _class_products(c, d, m, box))
    if hit is None:
        return False, None
    i, j = hit
    rest = n_target - (a + i * m) * (b + j * m)
    k, l = next(
        (k, l)
        for k, l in itertools.product(span, repeat=2)
        if (c + k * m) * (d + l * m) == rest
    )
    return True, (i, j, k, l)


def _nonneg_rows(x0: int, y0: int, m: int, cap: int) -> Iterator[range]:
    # Row i holds the products (x0+i*m)(y0+j*m) <= cap for j = 0, 1, ...,
    # which form an arithmetic progression in j; rows come in order of i.
    # Positive x0, y0 keep the enumeration finite.
    x = x0
    while x * y0 <= cap:
        yield range(x * y0, cap + 1, x * m)
        x += m


def oracle_member_progression(
    inst: Instance,
) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Complete decision of N ∈ P_m(a)P_m(b) + P_m(c)P_m(d).

    No box is needed: every factor is positive, so all indices satisfy
    a + i*m <= N and the search space is finite.  Returns the
    lexicographically first nonnegative quadruple on success.
    """
    a, b, c, d, m, n_target = inst.a, inst.b, inst.c, inst.d, inst.m, inst.N
    if min(a, b, c, d) < 1:
        raise ValueError("progression templates must be positive")
    if n_target < a * b + c * d:
        return False, None
    right: dict[int, tuple[int, int]] = {}
    for k, row in enumerate(_nonneg_rows(c, d, m, n_target - a * b)):
        for l, p in enumerate(row):
            if p not in right:
                right[p] = (k, l)
    for i, row in enumerate(_nonneg_rows(a, b, m, n_target - c * d)):
        for j, p in enumerate(row):
            got = right.get(n_target - p)
            if got is not None:
                return True, (i, j, got[0], got[1])
    return False, None


def progression_sums_mask(
    a: int, b: int, c: int, d: int, m: int, cap: int
) -> int:
    """Bitmask of every representable target up to cap (bit n set iff
    n = x*y + z*w with x ∈ P_m(a), y ∈ P_m(b), z ∈ P_m(c), w ∈ P_m(d)).

    Exhaustive enumeration of both product sides; complete below cap for the
    same reason oracle_member_progression is.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if min(a, b, c, d) < 1:
        raise ValueError("progression templates must be positive")
    if cap < a * b + c * d:
        return 0
    left = 0
    for row in _nonneg_rows(a, b, m, cap - c * d):
        for p in row:
            left |= 1 << p
    total = 0
    for q in set().union(*_nonneg_rows(c, d, m, cap - a * b)):
        total |= left << q
    return total & ((1 << (cap + 1)) - 1)


def _iterated_finder(
    terms: tuple[tuple[int, ...], ...], m: int, bounds: tuple[int, ...]
) -> Callable[[int], Optional[tuple[tuple[int, ...], ...]]]:
    # The tables depend only on (terms, m, bounds): build them once, and
    # finish each target with the returned lookup.
    # Enumerate attainable values per term, keeping the first index tuple.
    tables: list[dict[int, tuple[int, ...]]] = []
    for coefs, bd in zip(terms, bounds):
        vals: dict[int, tuple[int, ...]] = {}
        for qs in itertools.product(range(-bd, bd + 1), repeat=len(coefs)):
            v = math.prod(cf + q * m for cf, q in zip(coefs, qs))
            if v not in vals:
                vals[v] = qs
        tables.append(vals)
    # Combine all but the largest table, then finish with lookups into it.
    order = sorted(range(len(tables)), key=lambda idx: len(tables[idx]))
    big = order[-1]
    partial: dict[int, list[tuple[int, tuple[int, ...]]]] = {0: []}
    for idx in order[:-1]:
        new: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for s, picked in partial.items():
            for v, qs in tables[idx].items():
                key = s + v
                if key not in new:
                    new[key] = picked + [(idx, qs)]
        partial = new

    def lookup(n_target: int) -> Optional[tuple[tuple[int, ...], ...]]:
        for s, picked in partial.items():
            qs_big = tables[big].get(n_target - s)
            if qs_big is not None:
                chosen = dict(picked)
                chosen[big] = qs_big
                return tuple(chosen[idx] for idx in range(len(terms)))
        return None

    return lookup


def iterated_member_search(
    terms: tuple[tuple[int, ...], ...],
    m: int,
    n_target: int,
    bounds: tuple[int, ...],
) -> tuple[bool, Optional[tuple[tuple[int, ...], ...]]]:
    """Bounded search for N = sum of products of (a_ij + q_ij * m).

    bounds[i] caps |q_ij| for every coefficient of term i.  Sound always;
    complete only within those boxes.  A wrong residue class is refused
    outright: every decomposition reduces to the base value mod m, so no box
    can contain one.  A negative bound, an empty box, raises ValueError.
    """
    if len(bounds) != len(terms):
        raise ValueError("one bound per term required")
    if any(bd < 0 for bd in bounds):
        raise ValueError(f"bounds must be >= 0, got {bounds}")
    base = sum(math.prod(t) for t in terms)
    if (n_target - base) % m != 0:
        return False, None
    qs = _iterated_finder(terms, m, bounds)(n_target)
    return qs is not None, qs


@dataclass
class GridReport:
    """Outcome of a differential sweep of the pair solver against the oracle."""

    m_max: int
    k_window: int
    instances: int = 0
    values: int = 0
    discrepancies: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def grid_verify_theorem(
    m_max: int = 4,
    k_window: int = 20,
    corrupt: Optional[Callable[[Witness], Witness]] = None,
) -> GridReport:
    """Sweep all templates in [1, m]^4 for m <= m_max and every residue-valid
    target in a ±k_window band; assert solver success, certificate validity,
    and oracle agreement.  Zero discrepancies is the expected outcome.

    `corrupt` mutates each witness before verification; it exists so the
    harness can prove to itself that an injected fault is actually caught.
    A sweep that would check nothing (m_max < 1 or k_window < 0) is refused.
    """
    if m_max > 12:
        raise ValueError("sweep cap is m_max <= 12")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if k_window < 0:
        raise ValueError(f"k_window must be >= 0, got {k_window}")
    report = GridReport(m_max=m_max, k_window=k_window)
    for m in range(1, m_max + 1):
        for c, d in itertools.product(range(1, m + 1), repeat=2):
            group = []
            for a, b in itertools.product(range(1, m + 1), repeat=2):
                base = a * b + c * d
                dm = math.gcd(a, b, c, d, m) * m
                far = Instance(a, b, c, d, m, base + k_window * dm)
                group.append((a, b, base, dm, SearchBox.default_for(far)))
            # One class-side table per (m, c, d).  Boxes are centred, so the
            # largest holds every other one: a table over it can only let an
            # (a, b) find more than a table over its own box would.
            widest = max((g[4] for g in group), key=lambda box: box.hi)
            products = _class_products(c, d, m, widest)
            for a, b, base, dm, box in group:
                report.instances += 1
                order = _centered(box)
                for t in range(-k_window, k_window + 1):
                    n_target = base + t * dm
                    report.values += 1
                    inst = Instance(a, b, c, d, m, n_target)
                    got = solve_dilated(inst)
                    if got is None:
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "solver-not-member")
                        )
                        continue
                    w = got[0]
                    if corrupt is not None:
                        w = corrupt(w)
                    if not verify_witness(inst, w):
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "verify-failed", w)
                        )
                        continue
                    if _first_pair(a, b, m, n_target, order, products) is None:
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "oracle-missed")
                        )
            # Drop this table before the next one is built, so that two are
            # never alive at once.
            del products
    return report


@dataclass
class StrictnessReport:
    """The inclusion-strictness counterexamples, reproduced by search."""

    in_class: bool  # 53 ∈ R_19(15)
    in_product: bool  # 53 ∈ R_19(3) · R_19(5)
    scan_bound: int
    non_representable: list[int]
    primes_found: list[int]

    @property
    def ok(self) -> bool:
        return self.in_class and not self.in_product and bool(self.non_representable)


def strictness_demo(scan_bound: int = 1000) -> StrictnessReport:
    """Reproduce the strictness counterexample: 53 lies in R_19(15) but not in
    R_19(3)·R_19(5) (it is prime), then scan P_19(15) up to scan_bound for
    members missing from P_19(3)·P_19(5).

    The scan is bounded evidence only: showing the gap is infinite needs
    Dirichlet's theorem on primes in progressions, which this package does
    not attempt.  Trial division makes the scan grow like scan_bound**1.5,
    so a scan_bound above 10**6 is refused before any work.
    """
    if scan_bound > 10**6:
        raise ValueError(f"scan_bound must be <= 10**6, got {scan_bound}")
    r15 = CongruenceClass(15, 19)
    r3 = CongruenceClass(3, 19)
    r5 = CongruenceClass(5, 19)
    in_class = r15.contains(53)
    in_product = product_class_contains(r3, r5, 53)[0]
    p3 = Progression(3, 19)
    p5 = Progression(5, 19)
    missing = [
        n
        for n in range(15, scan_bound + 1, 19)
        if not progression_product_contains(p3, p5, n)[0]
    ]
    # Exact at every size: n >= 2 is prime exactly when its divisors are 1, n.
    primes = [n for n in missing if _positive_divisors(n) == [1, n]]
    return StrictnessReport(
        in_class=in_class,
        in_product=in_product,
        scan_bound=scan_bound,
        non_representable=missing,
        primes_found=primes,
    )
