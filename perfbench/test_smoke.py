"""Smoke test of the benchmark itself: every workload, tiny, traced and not.

Run with ``python3 -m pytest perfbench/test_smoke.py -q``.  It checks that
each run emits exactly the metrics ``BENCHMARK.json`` names, each with its
unit, and that the output checks pass; and that the command refuses to
report anything when the program's sources are absent.
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_emitted_and_checks_pass(workload, trace):
    result, lines = run.run_workload(workload, 7, 0.0, trace, scale=0.05, instances=1)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected]
    for entry in expected:
        emitted = metrics[entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, entry["name"]
    json.dumps(result)  # the last output line must serialise


def test_deterministic_metrics_repeat_for_a_seed():
    first, _ = run.run_workload("live_txallo", 7, 0.0, False, scale=0.05, instances=1)
    again, _ = run.run_workload("live_txallo", 7, 0.0, False, scale=0.05, instances=1)
    for name in ("throughput_x", "cross_shard_ratio", "mean_latency_blocks", "tail_latency_blocks"):
        assert first["metrics"][name] == again["metrics"][name]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    args = ["--workload", "live_hash", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        BENCH["command"] + args,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
