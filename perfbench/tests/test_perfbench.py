"""Tests of the benchmark harness itself.

    python -m pytest perfbench/tests -q

Each workload runs in a tiny configuration for a fraction of a second.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracer import counter_median

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
NAMES = [w["name"] for w in BENCH["workloads"]]

TINY = {
    "grid_small": workloads.GridSpec(m_max=3, k_window=3),
    "random_bits": workloads.RandomSpec(modulus_bits=24, budget_s=0.5),
    "progression_band": workloads.ProgressionSpec(m_values=(1, 2), tail_steps=3),
    "oracle_sweep": workloads.SweepSpec(m_max=2, k_window=4),
}
SECONDS = 0.3


@pytest.fixture
def sp():
    module, _ = run.import_sumprod()
    return module


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SPECS", TINY)


def _bump(w):
    return dataclasses.replace(w, a_prime=w.a_prime + 1)


def corrupt(result):
    """Break every certificate a workload sees; leave other results alone."""
    if isinstance(result, tuple):  # solve_dilated: (witness, delta)
        return (_bump(result[0]),) + result[1:]
    if getattr(result, "witness", None) is not None:  # ProgressionResult
        return dataclasses.replace(result, witness=_bump(result.witness))
    if hasattr(result, "a_prime"):  # grid_verify_theorem's hook
        return _bump(result)
    return result


def test_workload_names_match_specs():
    assert sorted(NAMES) == sorted(workloads.SPECS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(sp, name):
    (tally,), layers, _ = run.run(sp, name, 7, SECONDS, False)
    assert layers is None
    metrics = tally.end_to_end(0.01)
    assert set(metrics) == END_TO_END
    assert tally.attempted >= 1 and tally.failed == 0
    assert all(value > 0 for value, _unit in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(sp, name):
    tallies, layers, _ = run.run(sp, name, 7, SECONDS, True)
    assert set(layers) == PER_LAYER
    assert all(t.failed == 0 for t in tallies)
    assert layers["trace.wall_s"][0] > 0


@pytest.mark.parametrize("name", NAMES)
def test_gate_catches_corrupted_certificates(sp, name):
    (tally,), _layers, _ = run.run(sp, name, 7, SECONDS, False, corrupt)
    assert tally.failed > 0
    assert tally.failures


def test_cli_exit_code_follows_the_gate(capsys):
    argv = ["--workload", "grid_small", "--seed", "1", "--seconds", "0.2"]
    assert run.main(argv + ["--trace", "0"]) == 0
    good = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert good["correct"] is True and good["failed"] == 0
    assert set(good["metrics"]) == END_TO_END

    assert run.main(argv + ["--trace", "0"], corrupt=corrupt) == 1
    bad = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert bad["correct"] is False and bad["failed"] > 0


def test_listed_exception_with_witness_fails(sp, monkeypatch):
    # An oracle that calls every member exceptional makes each witness wrong.
    def every_member(a, b, c, d, m, cap):
        return list(range(a * b + c * d, cap + 1, m))

    monkeypatch.setattr(sp, "exceptional_set", every_member)
    tally = workloads.measure(sp, "progression_band", 1, SECONDS)
    assert tally.failed > 0
    assert any("listed exception" in f for f in tally.failures)


def test_unlisted_below_threshold_answer_counts_as_incomplete(sp):
    # Some members below N0 get below-threshold-failure from solve_progression
    # although exceptional_set does not list them: incomplete, not failed.
    tally = workloads.measure(sp, "progression_band", 1, 1.0)
    assert tally.failed == 0
    assert tally.incomplete > 0


def test_over_budget_ops_rank_above_completed_ones(sp, monkeypatch):
    monkeypatch.setitem(
        workloads.SPECS, "random_bits", workloads.RandomSpec(64, budget_s=0.0005)
    )
    tally = workloads.measure(sp, "random_bits", 3, SECONDS)
    assert tally.over_budget > 0 and tally.failed == 0
    assert tally.attempted == tally.completed + tally.over_budget
    (p100,) = tally.log.percentiles(1.0)
    assert p100 >= max(tally.log._buf[: tally.log.kept])


def test_missing_layer_function_counts_zero_calls(sp, monkeypatch):
    # The witness module keeps its own reference, so solving still works.
    monkeypatch.delattr(sp.core_arith, "factorize")
    _tallies, layers, _ = run.run(sp, "grid_small", 1, SECONDS, True)
    assert layers["core_arith.factorize.calls"][0] == 0
    assert layers["witness.solve_class.calls"][0] > 0


def test_timings_are_scaled_to_nominal_speed(sp, monkeypatch):
    # A machine twice as slow as nominal: raw times are halved in the report.
    monkeypatch.setattr(workloads, "speed_scale", lambda: 0.5)
    tally = workloads.measure(sp, "grid_small", 1, SECONDS)
    assert tally.wall_ns == pytest.approx(tally.raw_wall_ns / 2, rel=1e-6)
    assert tally.speed_scales and set(tally.speed_scales) == {0.5}


def test_latency_log_keeps_fixed_memory_and_ranks_failures_last():
    log = workloads.LatencyLog(seed=1, slots=100)
    for ns in range(10_000):
        log.add(ns)
    assert log.kept == 100 and log.completed == 10_000
    (p50,) = log.percentiles(0.5)
    assert 3_000 < p50 < 7_000
    log.add_top(5)
    (top,) = log.percentiles(1.0)
    assert top >= max(log._buf)


def test_counter_median():
    assert counter_median({}) == 0
    assert counter_median({3: 1}) == 3
    assert counter_median({1: 1, 4: 1}) == 2.5
    assert counter_median({1: 2, 9: 1}) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
