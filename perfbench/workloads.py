"""The four benchmark workloads, the closed loop that runs them and the
correctness gate.

Every workload is one single-threaded closed loop: the next call is made
only after the previous one returns.  Inputs come from `random.Random(seed)`
alone.  The gate re-checks each answer right after its call; that time, and
the time spent generating inputs, is excluded from the measured wall time.

Timings are reported at nominal machine speed.  The hosts this runs on
change speed by up to 1.5x for minutes at a time (other tenants share the
cores), which no amount of averaging inside one run removes.  So every
SLICE_NS of measured time the loop pauses, times `reference_routine` (fixed
code that never changes with the package), and scales the slice's timings by
NOMINAL_REF_NS / (reference time): a timing reads as it would on a machine
where the reference takes NOMINAL_REF_NS.  The raw times are reported too.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import resource
import signal
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .tracer import counter_median

clock = time.perf_counter_ns

# Latency slots allocated up front (4 bytes each).  A fixed buffer keeps the
# benchmark's own memory independent of how many ops a faster program
# completes, which would otherwise read as a peak_rss_mb regression.
LATENCY_SLOTS = 1 << 21
_NS_MAX = (1 << 32) - 1
_FAILURES_KEPT = 5

NOMINAL_REF_NS = 3_000_000
SLICE_NS = 500_000_000
_REF_REPEATS = 3


def reference_routine() -> int:
    """Fixed work with the workloads' mix: tuple and dict allocation,
    small-int arithmetic, and big-int products, remainders and gcds."""
    acc = 0
    table = {}
    for i in range(9000):
        table[(i, i * 7 % 13)] = i
        acc += i * i % 97
    x, y = 3**200 + 7, 2**255 - 19
    for _ in range(1200):
        x = (x * x + 1) % y
        acc ^= math.gcd(x, 1234567891011)
    return acc


def speed_scale() -> float:
    """NOMINAL_REF_NS over the median time of a few reference runs."""
    times = []
    for _ in range(_REF_REPEATS):
        t0 = clock()
        reference_routine()
        times.append(clock() - t0)
    return NOMINAL_REF_NS / sorted(times)[_REF_REPEATS // 2]


class MeasuredClock:
    """Measured time of one run: excludes benchmark-side work and the speed
    checks, and scales each slice by the speed measured at its start."""

    def __init__(self) -> None:
        self.start = clock()
        self.excluded = 0
        self.nominal_ns = 0.0
        self.scales: list[float] = []
        self._recalibrate()
        self.slice_start = 0

    def elapsed(self) -> int:
        """Raw measured ns so far."""
        return clock() - self.start - self.excluded

    def exclude(self, ns: int) -> None:
        self.excluded += ns

    def _recalibrate(self) -> None:
        t0 = clock()
        self.scale = speed_scale()
        self.scales.append(self.scale)
        self.excluded += clock() - t0

    def tick(self) -> bool:
        """Start a new slice, with a fresh speed check, once SLICE_NS of
        measured time has passed; True when it did."""
        now = self.elapsed()
        if now - self.slice_start < SLICE_NS:
            return False
        self.nominal_ns += (now - self.slice_start) * self.scale
        self._recalibrate()
        self.slice_start = now
        return True

    def finish(self, tally: "Tally") -> None:
        now = self.elapsed()
        self.nominal_ns += (now - self.slice_start) * self.scale
        tally.wall_ns = self.nominal_ns
        tally.raw_wall_ns = now
        tally.speed_scales = self.scales
        tally.peak_rss_mb = peak_rss_mb()


@dataclass(frozen=True)
class GridSpec:
    """Every template in [1, m]^4 for m <= m_max, targets ab+cd+t*delta*m
    for |t| <= k_window: the lattice of acceptance criteria 1 and 2, cut to
    m <= 7 so that a run goes through it about three times and every run
    solves the same mix of templates."""

    m_max: int = 7
    k_window: int = 30


@dataclass(frozen=True)
class RandomSpec:
    """Random modulus of exactly `modulus_bits` bits, templates in [1, m],
    N = ab + cd + t*delta*m with a random t of `modulus_bits` bits.

    `budget_s` caps one solve.  Solve times on 64-bit moduli have no gap to
    put it in (they run on continuously past 0.5 s), so it sits where about
    0.5% of solves exceed it: far enough below 1% that op_p99_us stays a
    measured latency, and low enough that those few stalls do not swamp the
    run's wall time.
    """

    modulus_bits: int = 64
    budget_s: float = 0.05


@dataclass(frozen=True)
class ProgressionSpec:
    """Every template in `entries`^4 with gcd(a,b,c,d,m) = 1 for m in
    `m_values` (the 47 templates of acceptance criterion 4), each member of
    P_m(ab+cd) from ab+cd up to N0 + tail_steps*m."""

    m_values: tuple[int, ...] = (1, 2, 3)
    entries: tuple[int, ...] = (1, 2)
    tail_steps: int = 40


@dataclass(frozen=True)
class SweepSpec:
    """grid_verify_theorem(m_max, k_window), repeated; a window this wide
    relative to m makes the oracle's class scan most of the work."""

    m_max: int = 3
    k_window: int = 200


SPECS = {
    "grid_small": GridSpec(),
    "random_bits": RandomSpec(),
    "progression_band": ProgressionSpec(),
    "oracle_sweep": SweepSpec(),
}


class LatencyLog:
    """Per-op latencies in ns, held in fixed memory.

    Past `slots` completed ops a uniform reservoir sample is kept.  Ops that
    fail or run over budget are held apart and rank above every completed
    op, as a caller who got no answer would rank them.
    """

    def __init__(self, seed: int, slots: int = LATENCY_SLOTS) -> None:
        self._buf = array("I", [0]) * slots
        self._rng = random.Random(seed)
        self.completed = 0
        self.top: list[int] = []

    def add(self, ns: int) -> None:
        ns = min(ns, _NS_MAX)
        n = self.completed
        self.completed = n + 1
        slots = len(self._buf)
        if n < slots:
            self._buf[n] = ns
        else:
            j = self._rng.randrange(n + 1)
            if j < slots:
                self._buf[j] = ns

    def add_top(self, ns: int) -> None:
        self.top.append(ns)

    @property
    def kept(self) -> int:
        return min(self.completed, len(self._buf))

    def percentiles(self, *qs: float) -> list[float]:
        """Latency (ns) at each quantile q in [0, 1] over every op."""
        done = sorted(self._buf[: self.kept])
        ceiling = done[-1] if done else 0
        top = sorted(max(ns, ceiling) for ns in self.top)
        total = self.completed + len(self.top)
        if not total:
            return [0.0 for _ in qs]
        out = []
        for q in qs:
            rank = q * total
            if rank <= self.completed and done:
                out.append(_interpolate(done, rank / self.completed))
            else:
                out.append(_interpolate(top, (rank - self.completed) / len(top)))
        return out


def _interpolate(values: list[int], q: float) -> float:
    pos = min(max(q, 0.0), 1.0) * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


@dataclass
class Tally:
    """Outcome of one measured run."""

    log: LatencyLog
    attempted: int = 0
    failed: int = 0
    over_budget: int = 0
    incomplete: int = 0
    cert_bits: Counter = field(default_factory=Counter)
    # Workloads that cycle through a fixed input set count certificate sizes
    # in the first cycle only, so a partial last cycle cannot shift the median.
    record_certs: bool = True
    failures: list = field(default_factory=list)
    wall_ns: float = 0.0  # at nominal speed
    raw_wall_ns: int = 0
    speed_scales: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def fail(self, reason: str, args: Any, ns: Optional[int]) -> None:
        """Count a failed op; `ns` ranks it above every completed op."""
        self.failed += 1
        if ns is not None:
            self.log.add_top(ns)
        if len(self.failures) < _FAILURES_KEPT:
            self.failures.append(f"{reason}: {args!r}")

    @property
    def completed(self) -> int:
        return self.log.completed

    @property
    def ops_per_s(self) -> float:
        return self.completed * 1e9 / self.wall_ns if self.wall_ns else 0.0

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        p50, p99 = self.log.percentiles(0.50, 0.99)
        return {
            "ops_per_s": (self.ops_per_s, "ops/s"),
            "op_p50_us": (p50 / 1e3, "us"),
            "op_p99_us": (p99 / 1e3, "us"),
            "cert_bits_p50": (counter_median(self.cert_bits), "bits"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def shares(self) -> dict[str, float]:
        n = self.attempted or 1
        return {
            "fail_share": self.failed / n,
            "over_budget_share": self.over_budget / n,
            "incomplete_share": self.incomplete / n,
        }


def cert_bits(w: Any) -> int:
    """Bit length of the largest component of a certificate."""
    return max(
        abs(w.a_prime).bit_length(),
        abs(w.b_prime).bit_length(),
        abs(w.c_prime).bit_length(),
        abs(w.d_prime).bit_length(),
    )


def certificate_ok(args: tuple, w: Any) -> bool:
    """a'b' + c'd' = N with each component congruent to its template mod m.

    The same test as the package's verify_witness, done here by the
    benchmark itself so that a broken verify_witness cannot pass a bad
    certificate.
    """
    a, b, c, d, m, n = args
    return (
        (w.a_prime - a) % m == 0
        and (w.b_prime - b) % m == 0
        and (w.c_prime - c) % m == 0
        and (w.d_prime - d) % m == 0
        and w.a_prime * w.b_prime + w.c_prime * w.d_prime == n
    )


class OverBudget(Exception):
    """Raised inside an op by the interval timer when its budget runs out."""


class _Budget:
    """Per-op wall-clock budget enforced with SIGALRM.

    The handler raises only while an op is armed, so an alarm that lands
    after the op has returned is ignored instead of escaping the loop.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        self._previous: Any = None

    def _alarm(self, _signum: int, _frame: Any) -> None:
        if self.armed:
            self.armed = False
            raise OverBudget()

    def __enter__(self) -> "_Budget":
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# An op is (call, args, check): `call(*args)` is timed; `check(args, result,
# tally)` is the gate and returns a failure reason or None.
Op = tuple[Callable[..., Any], tuple, Callable[[tuple, Any, "Tally"], Optional[str]]]


def closed_loop(
    ops: Iterator[Op],
    tally: Tally,
    seconds: float,
    budget_s: Optional[float] = None,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Make calls one after another until `seconds` of measured time pass.

    `corrupt`, if given, alters each result before the gate sees it; tests
    use it to show that the gate fires.
    """
    budget = _Budget(budget_s) if budget_s is not None else None
    limit = int(seconds * 1e9)
    mc = MeasuredClock()
    with budget if budget is not None else contextlib.nullcontext():
        while mc.elapsed() < limit:
            mc.tick()
            g0 = clock()
            call, args, check = next(ops)
            tally.attempted += 1
            if budget is not None:
                budget.arm()
            t0 = clock()
            mc.exclude(t0 - g0)
            try:
                result = call(*args)
                t1 = clock()
                if budget is not None:
                    budget.disarm()
            except OverBudget:
                tally.over_budget += 1
                tally.log.add_top(int((clock() - t0) * mc.scale))
                continue
            except Exception as exc:  # any raise is a failed op, not a crash
                if budget is not None:
                    budget.disarm()
                tally.fail(f"raised {exc!r}", args, int((clock() - t0) * mc.scale))
                continue
            if corrupt is not None:
                result = corrupt(result)
            reason = check(args, result, tally)
            if reason is None:
                tally.log.add(int((t1 - t0) * mc.scale))
            else:
                tally.fail(reason, args, int((t1 - t0) * mc.scale))
            mc.exclude(clock() - t1)
    mc.finish(tally)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- gates ----


def _check_dilated(args: tuple, got: Any, tally: Tally) -> Optional[str]:
    # Every target the workloads generate is in the dilated class.
    if got is None:
        return "solver-not-member"
    w, delta = got
    a, b, c, d, m, _n = args
    if delta != math.gcd(a, b, c, d, m):
        return f"wrong delta {delta}"
    if not certificate_ok(args, w):
        return f"bad certificate {w!r}"
    if tally.record_certs:
        tally.cert_bits[cert_bits(w)] += 1
    return None


# ------------------------------------------------------------ workloads ----


def grid_ops(
    sp: Any, spec: GridSpec, rng: random.Random, tally: Tally
) -> Iterator[Op]:
    solve, instance = sp.solve_dilated, sp.Instance

    def call(*args):
        return solve(instance(*args))

    templates = [
        (a, b, c, d, m)
        for m in range(1, spec.m_max + 1)
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4)
    ]
    while True:
        rng.shuffle(templates)
        for a, b, c, d, m in templates:
            base = a * b + c * d
            step = math.gcd(a, b, c, d, m) * m
            for t in range(-spec.k_window, spec.k_window + 1):
                yield call, (a, b, c, d, m, base + t * step), _check_dilated
        tally.record_certs = False


def random_ops(
    sp: Any, spec: RandomSpec, rng: random.Random, _tally: Tally
) -> Iterator[Op]:
    solve, instance = sp.solve_dilated, sp.Instance
    bits = spec.modulus_bits

    def call(*args):
        return solve(instance(*args))

    while True:
        m = rng.getrandbits(bits - 1) | (1 << (bits - 1))
        a, b, c, d = (rng.randint(1, m) for _ in range(4))
        t = rng.getrandbits(bits)
        n = a * b + c * d + t * math.gcd(a, b, c, d, m) * m
        yield call, (a, b, c, d, m, n), _check_dilated


def progression_templates(spec: ProgressionSpec) -> list[tuple[int, ...]]:
    return [
        (a, b, c, d, m)
        for m in spec.m_values
        for a, b, c, d in itertools.product(spec.entries, repeat=4)
        if math.gcd(a, b, c, d, m) == 1
    ]


def progression_ops(
    sp: Any, spec: ProgressionSpec, rng: random.Random, tally: Tally
) -> Iterator[Op]:
    """Per template: one exceptional_set(..., N0) call, which is the oracle
    for the template, then one solve_progression call per member."""
    solve, instance, exceptional = sp.solve_progression, sp.Instance, sp.exceptional_set
    templates = progression_templates(spec)
    tops = {t: sp.threshold_N0(*t).N0 + spec.tail_steps * t[4] for t in templates}
    # template -> members without a one-sided decomposition, filled in by
    # the template's exceptional_set op before any of its solves run.
    oracle: dict[tuple, frozenset] = {}

    def solve_call(*args):
        return solve(instance(*args))

    def check_exceptions(args: tuple, exc: Any, tally: Tally) -> Optional[str]:
        a, b, c, d, m, cap = args
        base = a * b + c * d
        if any(n < base or n > cap or (n - base) % m for n in exc):
            return f"exceptional_set lists a non-member: {exc!r}"
        oracle[(a, b, c, d, m)] = frozenset(exc)
        return None

    def check_solve(args: tuple, res: Any, tally: Tally) -> Optional[str]:
        a, b, c, d, m, n = args
        exceptional_here = n in oracle[(a, b, c, d, m)]
        if res.status == "witness":
            w = res.witness
            if exceptional_here:
                return "witness for a listed exception"
            if not certificate_ok(args, w):
                return f"bad certificate {w!r}"
            if w.a_prime < a or w.b_prime < b or w.c_prime < c or w.d_prime < d:
                return f"certificate not one-sided {w!r}"
            if tally.record_certs:
                tally.cert_bits[cert_bits(w)] += 1
            return None
        if res.status == "below-threshold-failure":
            if not exceptional_here:
                tally.incomplete += 1
            return None
        return f"status {res.status!r} for a progression member"

    while True:
        rng.shuffle(templates)
        for a, b, c, d, m in templates:
            n0_top = tops[(a, b, c, d, m)]
            n0 = n0_top - spec.tail_steps * m
            yield exceptional, (a, b, c, d, m, n0), check_exceptions
            for n in range(a * b + c * d, n0_top + 1, m):
                yield solve_call, (a, b, c, d, m, n), check_solve
        tally.record_certs = False


def run_oracle_sweep(
    sp: Any,
    spec: SweepSpec,
    tally: Tally,
    seconds: float,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Repeat the sweep until `seconds` pass.  An op is one target of the
    sweep: its latency is the time between consecutive certificates, which
    the sweep hands to its `corrupt` hook (used here as an observer that
    returns the witness unchanged, unless a test passes `corrupt`)."""
    sweep = sp.grid_verify_theorem
    log, bits = tally.log, tally.cert_bits
    last = [0]
    mc = MeasuredClock()

    def observe(w):
        now = clock()
        log.add(int((now - last[0]) * mc.scale))
        bits[cert_bits(w)] += 1
        last[0] = clock() if mc.tick() else now
        return w if corrupt is None else corrupt(w)

    limit = int(seconds * 1e9)
    while mc.elapsed() < limit:
        last[0] = clock()
        try:
            report = sweep(spec.m_max, spec.k_window, corrupt=observe)
        except Exception as exc:  # a raise fails the whole sweep
            tally.fail(f"sweep raised {exc!r}", (spec.m_max, spec.k_window), None)
            tally.attempted += 1
            break
        tally.attempted += report.values
        for disc in report.discrepancies:
            tally.fail(f"sweep discrepancy {disc[6]!r}", disc[:6], None)
    mc.finish(tally)


def measure(
    sp: Any,
    name: str,
    seed: int,
    seconds: float,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> Tally:
    """One measured run of workload `name` against the loaded package `sp`."""
    spec = SPECS[name]
    tally = Tally(LatencyLog(seed))
    rng = random.Random(seed)
    if name == "oracle_sweep":
        run_oracle_sweep(sp, spec, tally, seconds, corrupt)
        return tally
    ops = {
        "grid_small": grid_ops,
        "random_bits": random_ops,
        "progression_band": progression_ops,
    }[name](sp, spec, rng, tally)
    closed_loop(ops, tally, seconds, getattr(spec, "budget_s", None), corrupt)
    return tally
