"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from btusearch import engine, perms  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())


def measure(workload, tmp_path, trace=False, pins=PINS):
    return run.measure(workload, 7, 0.0, trace, "tiny", pins, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_answers_every_job(workload, tmp_path):
    record = measure(workload, tmp_path)
    assert record["errors"] == {}
    assert record["attempted"] > 0 and record["failed"] == 0
    metrics = record["metrics"]
    assert set(metrics) == set(run.END_TO_END) - {"setup_s"}
    assert metrics["ok_frac"] == 1.0
    assert all(value > 0 for value in metrics.values())


def test_wrong_pin_counts_as_failed(tmp_path):
    pins = dict(PINS, **{"search 16 4": "0" * 64})
    record = measure("search-filter", tmp_path, pins=pins)
    assert record["failed"] == record["wrong"] == record["attempted"] == 1
    assert record["metrics"]["ok_frac"] == 0.0
    assert "wrong answer" in record["errors"]["search 16 4"]


def test_exception_counts_as_failed_not_wrong():
    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    ops = [
        workloads.Op("boom", boom, None),
        workloads.Op("fine", lambda: workloads.Outcome(answer=4, nbytes=10), 4),
    ]
    result = run.run_pass(ops, workloads.judge, read_gauge=lambda: run.GAUGE_REFERENCE_S)
    assert (result.attempted, result.failed, result.wrong) == (2, 1, 0)
    assert result.ok_bytes == 10
    assert result.errors["boom"].startswith("RecursionError")


def test_girth_beyond_moore_bound_is_wrong():
    assert workloads.moore_ok(15, 3, 8) and not workloads.moore_ok(14, 3, 8)
    op = workloads.Op("g", None, 8)
    assert workloads.judge(op, workloads.Outcome(answer=8, nbytes=0, girths=((14, 3, 8),)))
    assert workloads.judge(op, workloads.Outcome(answer=8, nbytes=0, girths=((15, 3, 8),))) is None


def test_traced_counts_repeat_and_originals_return(tmp_path):
    compose, post_init = perms.compose, perms.Permutation.__post_init__
    first = measure("search-filter", tmp_path, trace=True)
    second = measure("search-filter", tmp_path, trace=True)
    assert first["trace_absent"] == []
    assert first["failed"] == 0
    for name, unit in tracing.METRICS.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["perms.permutation_new"] > 0
    assert first["metrics"]["engine.candidates_attempted"] == 40320 + 24 + 1
    assert engine.compose is compose and perms.compose is compose
    assert perms.Permutation.__post_init__ is post_init


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "NAMED", tracing.NAMED + (("engine", "_no_such_stage"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["engine._no_such_stage"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_reads_every_cpu_and_restores_affinity():
    cpus = os.sched_getaffinity(0)
    assert run.gauge() > 0
    assert os.sched_getaffinity(0) == cpus
