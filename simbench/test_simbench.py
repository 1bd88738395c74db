"""The benchmark's own tests: schema, smoke runs, checks and tracing.

Run from the repository root::

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker  # puts the simulator sources on sys.path
from spec import END_TO_END_UNITS, HELD_OUT_SEED, PER_LAYER_UNITS, WORKLOADS
from tracer import Tracer, installed
from workloads import PaperSweep, ServeOverload, ServeSteady

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_matches_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        PER_LAYER_UNITS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(capsys, *args: str) -> list[dict]:
    assert run.main([*args, "--tiny", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_of_every_workload(capsys, trace):
    results = _run(capsys, "--workload", "all", "--seed", str(HELD_OUT_SEED),
                   "--trace", trace)
    units = PER_LAYER_UNITS if trace == "1" else END_TO_END_UNITS
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == (
            units)
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)
        if trace == "0":
            assert all(v > 0 for v in values)


def test_traced_run_shows_the_workload_contrast(capsys):
    steady, overload = (
        {name: m["value"] for name, m in _run(
            capsys, "--workload", workload, "--trace", "1")[0]["metrics"].items()}
        for workload in ("serve_steady", "serve_overload"))
    for metrics in (steady, overload):
        assert metrics["cold.pricing.misses"] > 0
        assert metrics["pricing.misses"] == 0
    assert overload["router.routed"] == overload["router.push_s"] == 0
    assert steady["host.dispatch_calls"] == steady["host.grants"] == 0
    assert steady["router.routed"] > 0 and overload["host.grants"] > 0
    assert overload["planner.chunks"] > 0 and steady["planner.chunks"] == 0


def _doctor(workload, edit):
    """Make the workload's simulate() return ``edit``-ed results."""
    simulate = workload.simulate

    def doctored(recorder):
        result = simulate(recorder)
        return dataclasses.replace(result, outcomes=edit(result.outcomes))
    workload.simulate = doctored


@pytest.mark.parametrize("cls", [ServeSteady, ServeOverload])
def test_dropped_request_raises_error_rate(cls):
    workload = cls(seed=3, tiny=True)
    clean = worker.measure(workload, seconds=0)
    assert sum(p.failed for p in clean) == 0
    _doctor(workload, lambda outcomes: outcomes[1:])
    passes = worker.measure(workload, seconds=0)
    assert all(p.failed for p in passes)
    assert all("exactly once" in p.failures[0] for p in passes)


def test_out_of_order_latencies_and_changed_outcomes_fail():
    workload = ServeSteady(seed=3, tiny=True)
    assert workload.run_pass(cold=True).failed == 0

    def swap_first(outcomes):
        first = dataclasses.replace(outcomes[0],
                                    ttft_ns=outcomes[0].completion_ns + 1)
        return [first, *outcomes[1:]]
    _doctor(workload, swap_first)
    failures = workload.run_pass(cold=False).failures
    assert len(failures) == 2
    assert "out of order" in failures[0]
    assert "differ from the first pass" in failures[1]


def test_paper_sweep_fails_when_gh200_is_not_cpu_bound_longest(monkeypatch):
    import repro.skip
    from repro.skip.classify import TransitionPoint

    workload = PaperSweep(seed=3, tiny=True)
    assert workload.run_pass(cold=True).failed == 0
    monkeypatch.setattr(repro.skip, "find_transition",
                        lambda batches, values: TransitionPoint(
                            2, 0.0, tuple(batches), tuple(values)))
    failures = workload.run_pass(cold=False).failures
    assert len(failures) == 2
    assert "GH200 at 2 is not later than [2, 2]" in failures[0]
    assert "differ from the first pass" in failures[1]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.reset(keep_spans=True)
    tracer.bias_s = 0.0
    tracer.push("parent")
    tracer.push("child")
    tracer.push("grandchild")
    tracer.pop()
    tracer.pop()
    tracer.pop()
    start, end = tracer.span_start, tracer.span_end
    assert tracer.self_s["parent"] == pytest.approx(
        (end[0] - start[0]) - (end[1] - start[1]))
    assert sum(tracer.self_s.values()) == pytest.approx(end[0] - start[0])
    assert list(tracer.span_parent) == [-1, 0, 1]


def test_installed_restores_every_patched_name():
    import repro.serving.latency
    from repro.serving.planner import StepPlanner
    from repro.serving.runtime import AdmissionQueue

    before = (repro.serving.latency.run, vars(AdmissionQueue)["depth"],
              vars(StepPlanner)["chunk_cost_ns"])
    with installed(Tracer()):
        assert repro.serving.latency.run is not before[0]
    after = (repro.serving.latency.run, vars(AdmissionQueue)["depth"],
             vars(StepPlanner)["chunk_cost_ns"])
    assert after == before


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "paper_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
