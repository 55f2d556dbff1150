"""Smoke tests of the benchmark: every workload at tiny scale, both modes.

The smoke scale runs every correctness check of the full benchmark on
inputs small enough for the test suite; its timings mean nothing and
nothing here gates on them.  Run with::

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every runnable workload, including those BENCHMARK.json leaves out.
WORKLOADS = ("cold-200k", "query-5k", "drift-3k", "serve-3k")


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_tracer_restores_every_entry_point():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    tracing = importlib.import_module("tracing")

    def snapshot():
        return {
            (name, key): value
            for name, module in sys.modules.items()
            if name.split(".")[0] == "repro" and module is not None
            for key, value in list(vars(module).items())
            if callable(value)
        } | {
            (module_name, path): getattr(
                getattr(importlib.import_module(module_name),
                        path.rpartition(".")[0]), path.rpartition(".")[2])
            for module_name, path, _, _ in tracing.LAYER_ENTRY_POINTS
            if "." in path
        }

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()  # first install imports every wrapped module
    before = snapshot()
    tracer.install()
    assert not tracer.missing
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before
