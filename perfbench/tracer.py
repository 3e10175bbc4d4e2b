"""Per-layer split of a run, measured from outside the package.

`Tracer.install` replaces selected public functions of the loaded `sumprod`
modules with timing wrappers, in every `sumprod` namespace that holds them
(so `witness.factorize`, imported from `core_arith`, is wrapped too).  Each
wrapped call is a span: its busy time is its duration and its self time is
the duration minus that of the wrapped calls made inside it.  Spans are
aggregated per function as they close, so memory stays flat however many
ops a run makes.

A function that a module no longer defines is skipped: it reports zero
calls, so a later change that deletes a layer does not break the benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

clock = time.perf_counter_ns

# (module, function) pairs that get a timed span.
SPANNED = (
    ("core_arith", "factorize"),
    ("core_arith", "crt_solve"),
    ("core_arith", "solve_linear3"),
    ("core_arith", "sylvester_nonneg"),
    ("witness", "solve_dilated"),
    ("witness", "solve_class"),
    ("witness", "lemma_lift"),
    ("witness", "validate_trace"),
    ("witness", "verify_witness"),
    ("progressions", "solve_progression"),
    ("progressions", "exceptional_set"),
    ("oracle", "grid_verify_theorem"),
    ("oracle", "progression_sums_mask"),
)
# Called several times per solve and cheap: counted only, because timing it
# would cost more than the call itself.
COUNTED = (("core_arith", "ext_gcd"),)

# The span statistics reported.  solve_dilated is spanned but not reported:
# its span is what grid_verify_theorem's self time excludes.
REPORTED = (
    ("core_arith.factorize", ("calls", "busy_s")),
    ("core_arith.crt_solve", ("busy_s",)),
    ("core_arith.solve_linear3", ("busy_s",)),
    ("core_arith.ext_gcd", ("calls",)),
    ("core_arith.sylvester_nonneg", ("busy_s",)),
    ("witness.solve_class", ("calls", "self_s")),
    ("witness.validate_trace", ("busy_s",)),
    ("witness.lemma_lift", ("busy_s",)),
    ("witness.verify_witness", ("busy_s",)),
    ("progressions.solve_progression", ("self_s",)),
    ("progressions.exceptional_set", ("busy_s",)),
    ("oracle.grid_verify_theorem", ("self_s",)),
    ("oracle.progression_sums_mask", ("busy_s",)),
)


class _Span:
    __slots__ = ("calls", "busy_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0


class Tracer:
    """Wraps the package's layer functions; `metrics()` reads the totals."""

    def __init__(self) -> None:
        self.spans = {f"{mod}.{fn}": _Span() for mod, fn in SPANNED + COUNTED}
        self._children: list[int] = []  # wrapped-child time of each open span
        self._patched: list[tuple[Any, str, Any]] = []
        self.factorize_bits_max = 0
        self.sylvester_none = 0
        self.below_threshold = 0
        self.u_max = 0
        self.v_bits_max = 0
        self.c_prime_bits: Counter = Counter()

    # -- observers: read a call's arguments or result, never alter them --

    def _see_factorize(self, args: tuple, _result: Any) -> None:
        self.factorize_bits_max = max(
            self.factorize_bits_max, abs(args[0]).bit_length()
        )

    def _see_sylvester(self, _args: tuple, result: Any) -> None:
        if result is None:
            self.sylvester_none += 1

    def _see_solve_class(self, _args: tuple, result: Any) -> None:
        if result is None:
            return
        trace = result[1]
        self.u_max = max(self.u_max, getattr(trace, "u", 0))
        self.v_bits_max = max(self.v_bits_max, getattr(trace, "v", 0).bit_length())
        self.c_prime_bits[getattr(trace, "c_prime", 0).bit_length()] += 1

    def _see_progression(self, _args: tuple, result: Any) -> None:
        if getattr(result, "status", None) == "below-threshold-failure":
            self.below_threshold += 1

    def _observer(self, key: str) -> Callable[[tuple, Any], None] | None:
        return {
            "core_arith.factorize": self._see_factorize,
            "core_arith.sylvester_nonneg": self._see_sylvester,
            "witness.solve_class": self._see_solve_class,
            "progressions.solve_progression": self._see_progression,
        }.get(key)

    def _spanned(self, key: str, fn: Callable) -> Callable:
        span = self.spans[key]
        children = self._children
        observe = self._observer(key)

        def wrapper(*args, **kwargs):
            children.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                span.calls += 1
                span.busy_ns += dt
                span.self_ns += dt - inner
                if children:
                    children[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        span = self.spans[key]

        def wrapper(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "sumprod" or name.startswith("sumprod."))
        ]
        plan = [(k, self._spanned) for k in SPANNED] + [
            (k, self._counted) for k in COUNTED
        ]
        for (mod, fn_name), make in plan:
            home = sys.modules.get(f"sumprod.{mod}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # the layer no longer has this function: zero calls
            wrapped = make(f"{mod}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals, keyed by the names BENCHMARK.json lists."""
        out: dict[str, tuple[float, str]] = {}
        for key, stats in REPORTED:
            span = self.spans[key]
            for stat in stats:
                out[f"{key}.{stat}"] = {
                    "calls": (span.calls, "count"),
                    "busy_s": (span.busy_ns / 1e9, "s"),
                    "self_s": (span.self_ns / 1e9, "s"),
                }[stat]
        syl_calls = self.spans["core_arith.sylvester_nonneg"].calls
        out.update(
            {
                "core_arith.factorize.in_bits_max": (self.factorize_bits_max, "bits"),
                "core_arith.sylvester_nonneg.none_share": (
                    self.sylvester_none / syl_calls if syl_calls else 0.0,
                    "ratio",
                ),
                "witness.trace.u_max": (self.u_max, "count"),
                "witness.trace.v_bits_max": (self.v_bits_max, "bits"),
                "witness.trace.c_prime_bits_p50": (
                    counter_median(self.c_prime_bits),
                    "bits",
                ),
                "progressions.below_threshold.count": (self.below_threshold, "count"),
            }
        )
        return out


def counter_median(counts: Counter) -> float:
    """Median of a multiset given as value -> multiplicity (0 when empty)."""
    total = sum(counts.values())
    if not total:
        return 0
    lo_rank, hi_rank = (total - 1) // 2, total // 2
    seen = 0
    lo = None
    for value in sorted(counts):
        seen += counts[value]
        if lo is None and seen > lo_rank:
            lo = value
        if seen > hi_rank:
            return (lo + value) / 2
    raise AssertionError("unreachable")  # pragma: no cover
