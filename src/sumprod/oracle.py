"""Independent ground truth: bounded exhaustive searches that decide
membership by direct substitution, with no reliance on the constructive
pipeline.  Used for differential testing and for reproducing the strictness
counterexamples.

Every positive answer carries an index tuple that re-evaluates to the target;
class-side searches are complete only within their box (progression-side
searches are complete outright, since all factors are positive).

A congruence class R_m(a) = {a + i*m : i in Z} is a CongruenceClass.
Membership of n in a bare product R_m(a1)·R_m(a2) needs no box:
product_class_contains decides it by divisor enumeration, which is exact
because a product equal to n forces both factors to divide n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import index
from typing import Callable, Iterator, Optional, Sequence

from .witness import (
    Instance,
    InternalInvariantError,
    Witness,
    _certificate_ok,
    _plan,
    _solve,
)

__all__ = [
    "SearchBox",
    "GridReport",
    "StrictnessReport",
    "oracle_member_class",
    "oracle_member_progression",
    "iterated_member_search",
    "grid_verify_theorem",
    "CongruenceClass",
    "product_class_contains",
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
        # targets; the class-side table takes about 2*half**2*m bytes, so
        # keep N modest.
        half = abs(inst.N) // inst.m + inst.m
        return cls(-half, half)


# Bytes a class-side table may take: 4x the largest a grid sweep admits.
_MAX_TABLE_BYTES = 5 * 10**7


def _class_products(c: int, d: int, m: int, box: SearchBox) -> tuple[int, bytearray]:
    # Every (c+k*m)(d+l*m) with k and l in the box, as a byte map: byte p is
    # 1 exactly when low + m*p is such a product, low the smallest.  Every
    # product is c*d mod m, so one byte stands for m values.  The product is
    # bilinear in the two factors, so the box's corners bound it, and a table
    # over _MAX_TABLE_BYTES is refused before it is allocated.  With k
    # fixed the products over l step by |c+k*m|*m, so each row is one slice
    # store of stride |c+k*m|; the row with c+k*m = 0 is the value 0.
    count = box.hi - box.lo + 1
    ys = (d + box.lo * m, d + box.hi * m)
    corners = [x * y for x in (c + box.lo * m, c + box.hi * m) for y in ys]
    low = min(corners)
    size = (max(corners) - low) // m + 1
    if size > _MAX_TABLE_BYTES:
        raise ValueError(f"class-side table must be <= 5*10**7 bytes, got {size}")
    buf = bytearray(size)
    ones = b"\x01" * count
    for k in range(box.lo, box.hi + 1):
        x = c + k * m
        if x == 0:
            buf[-low // m] = 1
            continue
        start = (min(x * ys[0], x * ys[1]) - low) // m
        buf[start : start + (count - 1) * abs(x) + 1 : abs(x)] = ones
    return low, buf


def _first_pair(
    a: int,
    b: int,
    m: int,
    n_target: int,
    box: SearchBox,
    order: Sequence[int],
    table: tuple[int, bytearray],
) -> Optional[tuple[int, int]]:
    # First (i, j) in order x order, an ordering of the box's indices, with
    # N - (a+i*m)(b+j*m) in the table.  That value is N - ab mod m, so none
    # is there unless N - ab - low = m*t, and then it is low + m*p with
    # p = t - i*b - (a+i*m)*j.  Row i probes order[0] first; its bytes over
    # the box form a progression of step |a+i*m|, so one strided slice,
    # clipped to the table, says whether the row has a hit, and only a row
    # that has one is walked in order.
    low, buf = table
    t = n_target - a * b - low
    if t % m:
        return None
    t //= m
    size = len(buf)
    first = order[0]
    for i in order:
        ai = a + i * m
        at_zero = t - i * b  # the byte of j = 0
        p = at_zero - ai * first
        if 0 <= p < size and buf[p]:
            return i, first
        if ai == 0:
            continue  # every j gives the byte just probed
        ends = (at_zero - ai * box.lo, at_zero - ai * box.hi)
        start, stop, stride = min(ends), max(ends), abs(ai)
        if start < 0:
            start %= stride
        if start > stop or 1 not in buf[start : min(stop, size - 1) + 1 : stride]:
            continue
        for j in order:
            p = at_zero - ai * j
            if 0 <= p < size and buf[p]:
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
    lexicographically first quadruple (i, j, k, l), via a byte table of the
    class-side products rather than four nested loops.  The table holds one
    byte per m values between the smallest and largest class-side product,
    about 2*max(|lo|, |hi|)**2*m bytes for a box around the origin; a box
    whose table would take more than 5*10**7 bytes raises ValueError before
    any work.
    """
    a, b, c, d, m, n_target = inst.a, inst.b, inst.c, inst.d, inst.m, inst.N
    span = range(box.lo, box.hi + 1)
    hit = _first_pair(a, b, m, n_target, box, span, _class_products(c, d, m, box))
    if hit is None:
        return False, None
    i, j = hit
    rest = n_target - (a + i * m) * (b + j * m)
    for k in span:
        # rest = x*(d + l*m) fixes l, or, when x = 0, takes every l (the
        # first is box.lo) if rest = 0
        x = c + k * m
        l, r = divmod(rest - x * d, x * m) if x else (box.lo, rest)
        if r == 0 and box.lo <= l <= box.hi:
            return True, (i, j, k, l)
    raise InternalInvariantError(f"table hit with no (k, l) in {box}: {inst!r}")


def _ap_rows(
    x0: int, y0: int, m: int, top: int
) -> Iterator[tuple[int, int, int]]:
    # The indices u <= top of the products (x0+i*m)(y0+j*m) = x0*y0 + m*u,
    # u = x0*j + y0*i + m*i*j, as (start, step, count) progressions, one per
    # value of the smaller index: fix i for j >= i (step x0 + m*i in j) and
    # fix j for i > j (step y0 + m*j in i).  Both rows of i start at or after
    # its diagonal (x0+y0)*i + m*i*i, so there are at most
    # 2*(isqrt(top // m) + 1) of them.
    i = 0
    while (diag := (x0 + y0) * i + m * i * i) <= top:
        for start, step in ((diag, x0 + m * i), (diag + y0 + m * i, y0 + m * i)):
            if start <= top:
                yield start, step, (top - start) // step + 1
        i += 1


def _index_digits(x0: int, y0: int, m: int, top: int) -> bytearray:
    # Digit u of the result is b"1" iff u <= top is an index of the side,
    # x0*y0 + m*u = (x0+i*m)(y0+j*m) for some i, j >= 0: one slice store
    # per row of _ap_rows.
    buf = bytearray(b"0") * (top + 1)
    for start, step, count in _ap_rows(x0, y0, m, top):
        buf[start::step] = b"1" * count
    return buf


# Member indices a progression scan may cover: oracle_member_progression's
# digit table and exceptional_set's mask cost up to about 1 s at this size.
_MAX_SCANNED = 10**6


def oracle_member_progression(
    inst: Instance,
) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Complete decision of N ∈ P_m(a)P_m(b) + P_m(c)P_m(d).

    No box is needed: every factor is positive, so all indices satisfy
    a + i*m <= N and the search space is finite.  Returns the
    lexicographically first nonnegative quadruple on success.

    Decided on member indices: N = ab + cd + m*t with t = u + v, where
    (a+i*m)(b+j*m) = ab + m*u and (c+k*m)(d+l*m) = cd + m*v.  The search
    allocates one byte per index u <= t, and takes about 0.45 s at
    t = 10**6 (CPython 3.11, 2-vCPU host).  A target with more than 10**6
    member indices, (N - ab - cd) // m + 1, is refused with ValueError
    before any work, whatever its residue.
    """
    a, b, c, d, m, n_target = inst.a, inst.b, inst.c, inst.d, inst.m, inst.N
    if min(a, b, c, d) < 1:
        raise ValueError("progression templates must be positive")
    t, r = divmod(n_target - a * b - c * d, m)
    if t + 1 > _MAX_SCANNED:
        # No count in the text: str() of a large enough one raises.
        raise ValueError("member indices ((N - ab - cd) // m + 1) must be <= 10**6")
    if t < 0 or r:
        return False, None
    # Reversed, digit u says whether t - u is a right index; each left row
    # u = b*i + (a+m*i)*j is probed for its first hit, in (i, j) order.
    rest = _index_digits(c, d, m, t)[::-1]
    i = 0
    while b * i <= t:
        j = rest[b * i :: a + m * i].find(b"1")
        if j >= 0:
            v = t - b * i - (a + m * i) * j
            # The first (k, l) in order for this v: the smallest k whose
            # factor c + m*k divides what is left after d*k.
            k = next(k for k in itertools.count() if (v - d * k) % (c + m * k) == 0)
            return True, (i, j, k, (v - d * k) // (c + m * k))
        i += 1
    return False, None


def _folded_sums_mask(a: int, b: int, c: int, d: int, m: int, top: int) -> int:
    # Bit t set iff ab + cd + m*t = x*y + z*w with x ∈ P_m(a), y ∈ P_m(b),
    # z ∈ P_m(c), w ∈ P_m(d), for t in [0, top]: the sumset of the two sides'
    # index sets.  The left set is read as one integer; each right
    # progression (start, step, count) ORs in left << (start + j*step) for
    # every j < count by doubling, so about log2(count) shifts of a
    # (top+1)-bit integer.
    left = int(_index_digits(a, b, m, top)[::-1], 2)
    total = 0
    for start, step, count in _ap_rows(c, d, m, top):
        keep = (1 << (top + 1 - start)) - 1
        acc, span = left & keep, 1
        while span < count:
            # acc holds the shifts j < span, now j < 2*span; a j >= count
            # shifts past top, and keep drops it.
            acc = (acc | acc << (span * step)) & keep
            span *= 2
        total |= acc << start
    return total


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


# Entries iterated_member_search may tabulate: about 1.3 s at this size.
_MAX_TABULATED = 10**6


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
    can contain one.  A negative bound, an empty box, raises ValueError, as
    do m < 1, no terms and a term with no coefficients (IteratedSpec refuses
    it too; it is not the empty product); a non-integral m, target,
    coefficient or bound raises TypeError.

    The search tabulates (2*bound + 1)**k products for each term of k
    coefficients, then combines every table but the largest.  A search
    whose entries, the sum of the tables' sizes plus the product of all but
    the largest, exceed 10**6 is refused with ValueError before any table is
    built.  With m = 5, ((1,), (1, 2, 3)) is admitted up to bound 49, where
    it takes about 1.3 s and a peak RSS of 36 MB (CPython 3.11, 2-vCPU
    host); at bound 1000 it would tabulate about 8*10**9 products.
    """
    # operator.index, as at IteratedSpec: a float or a string is refused.
    if index(m) < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    index(n_target)
    if not terms or not all(terms):
        raise ValueError("need at least one term, each with a coefficient")
    for coefs in terms:
        for cf in coefs:
            index(cf)
    if len(bounds) != len(terms):
        raise ValueError("one bound per term required")
    if any(index(bd) < 0 for bd in bounds):
        raise ValueError(f"bounds must be >= 0, got {bounds}")
    sizes = sorted((2 * bd + 1) ** len(coefs) for coefs, bd in zip(terms, bounds))
    entries = sum(sizes) + math.prod(sizes[:-1])
    if entries > _MAX_TABULATED:
        raise ValueError(f"tabulated entries must be <= 10**6, got {entries}")
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
    Each template's plan is read once, before its targets, and each target
    is solved by the per-target function solve_dilated calls, on plain ints
    and with no Instance.  Every (a, b) of a (m, c, d) group is searched
    over the group's one box, in one centred order against one class-side
    table.  The box is that of the group's far target, (a, b) = (m, m) at
    +k_window: every other has ab <= m*m and gcd(a, b, c, d, m) dividing
    gcd(c, d, m), so a target and a box no larger, and the wider box can
    only let the oracle find more.

    `corrupt` mutates each witness before verification; it exists so the
    harness can prove to itself that an injected fault is actually caught.
    A sweep that would check nothing (m_max < 1 or k_window < 0) is refused,
    and so, before any work, is one with more than 5*10**5 targets or a
    class-side table of more than 5*10**6 entries.  The table is a byte map
    with one byte per m values over the range of its products, about
    2*half**2*m bytes for the box [-half, half]: 2,228,941 bytes at (3, 200),
    and at most 12,443,401 bytes (11.9 MiB), at (5, 220), for a sweep the
    budget admits.  (8, 20) checks 359,652 targets in about 1.3-2.0 s;
    (3, 200) checks 39,298 in about 0.12-0.18 s (CPython 3.11.7, a shared
    2-vCPU host).
    """
    if m_max > 12:
        raise ValueError("sweep cap is m_max <= 12")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if k_window < 0:
        raise ValueError(f"k_window must be >= 0, got {k_window}")
    targets = sum(m**4 for m in range(1, m_max + 1)) * (2 * k_window + 1)
    if targets > 5 * 10**5:
        raise ValueError(f"sweep targets must be <= 5*10**5, got {targets}")

    def group_box(c: int, d: int, m: int) -> SearchBox:
        n_far = m * m + c * d + k_window * math.gcd(c, d, m) * m
        return SearchBox.default_for(Instance(m, m, c, d, m, n_far))

    # The (m_max, m_max, m_max) group's box is the sweep's widest.
    entries = (2 * group_box(m_max, m_max, m_max).hi + 1) ** 2
    if entries > 5 * 10**6:
        raise ValueError(f"class-side table must be <= 5*10**6 entries, got {entries}")
    report = GridReport(m_max=m_max, k_window=k_window)
    for m in range(1, m_max + 1):
        for c, d in itertools.product(range(1, m + 1), repeat=2):
            box = group_box(c, d, m)
            order = _centered(box)
            table = _class_products(c, d, m, box)
            for a, b in itertools.product(range(1, m + 1), repeat=2):
                report.instances += 1
                # The template's plan, read once for all of its targets.
                plan = _plan(a, b, c, d, m)
                dm, base = plan[1], plan[2]
                for t in range(-k_window, k_window + 1):
                    n_target = base + t * dm
                    report.values += 1
                    got = _solve(a, b, c, d, m, n_target, plan, False)
                    if got is None:
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "solver-not-member")
                        )
                        continue
                    w = got[0]
                    if corrupt is not None:
                        w = corrupt(w)
                    if not _certificate_ok(a, b, c, d, m, n_target, w):
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "verify-failed", w)
                        )
                        continue
                    if _first_pair(a, b, m, n_target, box, order, table) is None:
                        report.discrepancies.append(
                            (a, b, c, d, m, n_target, "oracle-missed")
                        )
            del table  # before the next is built: never two alive at once
    return report


@dataclass(frozen=True)
class CongruenceClass:
    """R_m(a), stored with its canonical representative in [0, m)."""

    a: int
    m: int

    def __post_init__(self) -> None:
        # operator.index refuses a float or a string with TypeError.
        if index(self.m) < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        object.__setattr__(self, "a", index(self.a) % self.m)

    def contains(self, n: int) -> bool:
        # A float is refused, as in __post_init__: a large one is rounded,
        # so the test would answer for a nearby integer.
        return (index(n) - self.a) % self.m == 0

    def __repr__(self) -> str:
        return f"R_{self.m}({self.a})"


# The largest |n| product_class_contains takes: sqrt(10**12) = 10**6 trial
# divisions, a fraction of a second.
_MAX_N = 10**12


def _positive_divisors(n: int) -> list[int]:
    # Ascending positive divisors of n >= 1.
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def product_class_contains(
    c1: CongruenceClass, c2: CongruenceClass, n: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decide n ∈ R_m(a1)·R_m(a2); on success also return one factor pair.

    Both signs of every divisor of |n| are tried, since class members range
    over all of Z.  For n = 0 the convention is: 0 is in the product set iff
    0 itself lies in one of the two classes (then 0 = 0*y for any y).

    The divisors come from trial division up to sqrt(|n|), so |n| > 10**12
    (more than 10**6 trial divisions) is refused with ValueError before any
    work.
    """
    if abs(index(n)) > _MAX_N:  # a non-integral n raises TypeError
        raise ValueError("|n| must be <= 10**12")
    if c1.m != c2.m:
        raise ValueError("classes must share a modulus")
    m = c1.m
    if n == 0:
        if c1.a % m == 0:
            return True, (0, c2.a)
        if c2.a % m == 0:
            return True, (c1.a, 0)
        return False, None
    for dv in _positive_divisors(abs(n)):
        for x in (dv, -dv):
            y = n // x  # exact: x divides n
            if (x - c1.a) % m == 0 and (y - c2.a) % m == 0:
                return True, (x, y)
    return False, None


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
    not attempt.  The missing members are read from the product's member
    indices (one slice store per row, about 2*sqrt(scan_bound/19) rows) and
    their primes from one sieve of Eratosthenes up to scan_bound, so time
    and memory grow about linearly in scan_bound.  A scan_bound above 10**7
    is refused before any work, and a non-integral one raises TypeError.
    """
    # operator.index refuses a float, whose clamp below would scan nothing.
    if index(scan_bound) > 10**7:
        raise ValueError(f"scan_bound must be <= 10**7, got {scan_bound}")
    r15 = CongruenceClass(15, 19)
    r3 = CongruenceClass(3, 19)
    r5 = CongruenceClass(5, 19)
    in_class = r15.contains(53)
    in_product = product_class_contains(r3, r5, 53)[0]
    # A negative bound scans nothing; clamped, it also sizes no buffer
    # below zero.
    limit = max(scan_bound, 0)
    # 15 + 19*u is in P_19(3)·P_19(5) exactly when digit u is b"1".
    digits = _index_digits(3, 5, 19, (limit - 15) // 19)
    missing = [15 + 19 * u for u, digit in enumerate(digits) if digit == ord("0")]
    # Every member is >= 15, so the entries for 0 and 1 are never read.
    sieve = bytearray(b"\x01") * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = [n for n in missing if sieve[n]]
    return StrictnessReport(
        in_class=in_class,
        in_product=in_product,
        scan_bound=scan_bound,
        non_representable=missing,
        primes_found=primes,
    )
