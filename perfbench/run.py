"""sumprod benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 25 --trace 0

Workloads: grid_small, random_bits, progression_band, oracle_sweep (see
BENCHMARK.json for why each exists).  The package is imported from `src/`
next to this directory, never from an installed copy.

With --trace 0 the run measures the end-to-end metrics.  With --trace 1 it
measures half the time untraced and half traced, and reports the per-layer
split plus the tracing overhead (untraced minus traced ops/s).

stdout: one `provenance` line, one `metric` line per metric, then the
result as one JSON object on the last line.  Exit 0 when every answer passed
the correctness gate, 1 when any failed, 2 when the package cannot be set up
(nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# Fresh imports of the package per run, some before the measured loop and
# some after it, so that setup_s (their median) spans the host's slow and
# fast spells the way the loop does.
SETUP_BEFORE = 4
SETUP_AFTER = 3


class SetupError(Exception):
    """The package under test cannot be found or imported."""


def import_sumprod() -> tuple[Any, float]:
    """Import `sumprod` from SRC afresh; return the module and seconds taken."""
    if not (SRC / "sumprod" / "__init__.py").is_file():
        raise SetupError(f"no sumprod package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sumprod" or n.startswith("sumprod.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = time.perf_counter()
    try:
        module = importlib.import_module("sumprod")
    except ImportError as exc:
        raise SetupError(f"cannot import sumprod: {exc}") from exc
    elapsed = time.perf_counter() - t0
    if Path(module.__file__).resolve().parent != (SRC / "sumprod").resolve():
        raise SetupError(f"imported sumprod from {module.__file__}, not {SRC}")
    return module, elapsed


def import_times(repeats: int) -> tuple[Any, list[float]]:
    """Import the package `repeats` times; return the last module and the
    import times at nominal machine speed (see workloads)."""
    times = []
    for _ in range(repeats):
        scale = workloads.speed_scale()
        module, elapsed = import_sumprod()
        times.append(elapsed * scale)
    return module, times


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.SPECS[name]
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumprod").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": asdict(spec),
        "budget_s": getattr(spec, "budget_s", None),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_repeats": SETUP_BEFORE + SETUP_AFTER,
        "latency_slots": workloads.LATENCY_SLOTS,
        "nominal_ref_ns": workloads.NOMINAL_REF_NS,
        "slice_s": workloads.SLICE_NS / 1e9,
    }


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def counts(tally: workloads.Tally) -> dict:
    return {
        "attempted": tally.attempted,
        "completed": tally.completed,
        "failed": tally.failed,
        "over_budget": tally.over_budget,
        "incomplete": tally.incomplete,
        "latency_samples": tally.log.kept,
        "certificates": sum(tally.cert_bits.values()),
        "measured_s": tally.raw_wall_ns / 1e9,
        "nominal_s": tally.wall_ns / 1e9,
        "raw_ops_per_s": (
            tally.completed * 1e9 / tally.raw_wall_ns if tally.raw_wall_ns else 0.0
        ),
        "speed_scale_median": statistics.median(tally.speed_scales),
        "speed_checks": len(tally.speed_scales),
        **tally.shares(),
    }


def run(
    sp: Any,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> tuple[list[workloads.Tally], Optional[dict], dict]:
    """Measure one workload.

    Returns the tallies (one, or untraced and traced halves), the per-layer
    metrics of a traced run (else None) and the counts for the report.
    """
    if not trace:
        tally = workloads.measure(sp, name, seed, seconds, corrupt=corrupt)
        return [tally], None, {"run": counts(tally)}
    half = seconds / 2
    plain = workloads.measure(sp, name, seed, half, corrupt=corrupt)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.measure(sp, name, seed, half, corrupt=corrupt)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    layers.update(
        {
            "progressions.incomplete_share": (
                traced.shares()["incomplete_share"],
                "ratio",
            ),
            "trace.wall_s": (traced.raw_wall_ns / 1e9, "s"),
            "trace.traced_ops_per_s": (traced.ops_per_s, "ops/s"),
            "trace.untraced_ops_per_s": (plain.ops_per_s, "ops/s"),
            "trace.overhead_ops_per_s": (plain.ops_per_s - traced.ops_per_s, "ops/s"),
        }
    )
    return [plain, traced], layers, {"untraced": counts(plain), "traced": counts(traced)}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(
    argv: Optional[Sequence[str]] = None,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> int:
    args = parse_args(argv)
    try:
        sp, before = import_times(SETUP_BEFORE)
        tallies, layers, report = run(
            sp, args.workload, args.seed, args.seconds, bool(args.trace), corrupt
        )
        _, after = import_times(SETUP_AFTER)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(before + after)
    metrics = tallies[0].end_to_end(setup_s) if layers is None else layers
    record = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(report)
    print("provenance " + json.dumps(record, sort_keys=True))
    for tally in tallies:
        for line in tally.failures:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
    for key, value in tallies[0].shares().items():
        print(f"metric {key} {value!r} ratio")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
