"""Fast smoke tests for the perf run-table plumbing.

Runs ``benchmarks/bench_delta_freeze.py``, ``benchmarks/bench_adaptive.py``,
``benchmarks/bench_resilience.py`` and ``benchmarks/bench_parallel.py``
end-to-end at a small scale and asserts the run tables regenerate and the
incremental/batched/supervised/multi-core paths were actually
exercised — so the
benchmarks (and the ``BENCH_*.json`` trajectories later PRs gate
against) cannot silently rot.  The speedup gates themselves only apply
at the benchmarks' own scale, not here.
"""

import importlib.util
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_PATH = BENCH_DIR / "bench_delta_freeze.py"
ADAPTIVE_BENCH_PATH = BENCH_DIR / "bench_adaptive.py"
RESILIENCE_BENCH_PATH = BENCH_DIR / "bench_resilience.py"
PARALLEL_BENCH_PATH = BENCH_DIR / "bench_parallel.py"
MATRIX_BENCH_PATH = BENCH_DIR / "bench_matrix.py"


def _load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_module():
    return _load_module(BENCH_PATH)


def test_bench_delta_regenerates_and_exercises_delta_path(tmp_path):
    bench = _load_bench_module()
    out_path = tmp_path / "BENCH_delta.json"
    # run_bench itself asserts full-vs-delta parity (same mapping, same
    # caches, same events) and that at least one incremental freeze ran.
    payload = bench.run_bench(scale=0.05, out_path=out_path)

    assert out_path.exists()
    on_disk = json.loads(out_path.read_text())
    assert on_disk == payload

    for key in (
        "scale",
        "n_nodes",
        "n_edges",
        "stream_blocks",
        "full_loop_seconds",
        "delta_loop_seconds",
        "speedup",
        "full_freeze_stats",
        "delta_freeze_stats",
        "frontier_freeze_ms",
        "full_freeze_ms",
    ):
        assert key in payload, key

    assert payload["delta_freeze_stats"]["delta"] > 0
    assert payload["full_freeze_stats"]["delta"] == 0
    assert payload["delta_loop_seconds"] > 0
    assert set(payload["frontier_freeze_ms"]) == {"8", "32", "128"}


def test_committed_run_table_is_current():
    """The checked-in BENCH_delta.json must match the bench's schema, so
    the perf trajectory stays comparable across PRs."""
    committed = BENCH_PATH.parent / "BENCH_delta.json"
    assert committed.exists(), "run benchmarks/bench_delta_freeze.py to regenerate"
    payload = json.loads(committed.read_text())
    assert payload["speedup"] >= 2.0
    assert payload["delta_freeze_stats"]["delta"] > 0


def test_bench_adaptive_regenerates_and_batches(tmp_path):
    """bench_adaptive end-to-end at a small scale: the run table must
    regenerate, the two loops must be byte-identical (run_bench asserts
    it), and the workspace must actually extend across τ₁ windows."""
    bench = _load_module(ADAPTIVE_BENCH_PATH)
    out_path = tmp_path / "BENCH_adaptive.json"
    payload = bench.run_bench(scale=0.05, out_path=out_path)

    assert out_path.exists()
    assert json.loads(out_path.read_text()) == payload

    for key in (
        "scale",
        "n_nodes",
        "stream_blocks",
        "base_loop_seconds",
        "workspace_loop_seconds",
        "speedup",
        "adaptive_base_ms",
        "adaptive_workspace_ms",
        "adaptive_speedup",
        "workspace_stats",
        "byte_identical",
    ):
        assert key in payload, key

    assert payload["byte_identical"] is True
    assert payload["workspace_stats"]["extends"] > 0
    assert payload["workspace_stats"]["runs"] > 0
    # The byte-identity + batching gates hold at any scale, unlike the
    # timing one.
    assert payload["workspace_loop_seconds"] > 0


def test_committed_adaptive_run_table_is_current():
    """The checked-in BENCH_adaptive.json must satisfy the standing gates."""
    committed = BENCH_DIR / "BENCH_adaptive.json"
    assert committed.exists(), "run benchmarks/bench_adaptive.py to regenerate"
    bench = _load_module(ADAPTIVE_BENCH_PATH)
    payload = json.loads(committed.read_text())
    assert bench.check_gates(payload) == []


def test_bench_resilience_regenerates_and_recovers(tmp_path):
    """bench_resilience end-to-end at a small scale: the run table must
    regenerate, the circuit must trip and re-close, and no transaction
    may be lost (run_bench asserts committed == arrived in both runs).
    The TPS-retention gate itself holds at any scale: supervision cost
    is a bounded number of degraded blocks, not a percentage."""
    bench = _load_module(RESILIENCE_BENCH_PATH)
    out_path = tmp_path / "BENCH_resilience.json"
    payload = bench.run_bench(scale=0.1, out_path=out_path)

    assert out_path.exists()
    assert json.loads(out_path.read_text()) == payload

    for key in (
        "scale",
        "baseline_committed",
        "baseline_tps",
        "faulted_committed",
        "faulted_tps",
        "tps_retention",
        "recovery_blocks",
        "circuit_state",
        "resilience_stats",
    ):
        assert key in payload, key

    assert payload["resilience_stats"]["trips"] >= 1
    assert payload["resilience_stats"]["recoveries"] >= 1
    assert payload["circuit_state"] == "closed"
    assert payload["faulted_committed"] == payload["baseline_committed"]


def test_committed_resilience_run_table_is_current():
    """The checked-in BENCH_resilience.json must satisfy the standing
    gates."""
    committed = BENCH_DIR / "BENCH_resilience.json"
    assert committed.exists(), "run benchmarks/bench_resilience.py to regenerate"
    bench = _load_module(RESILIENCE_BENCH_PATH)
    payload = json.loads(committed.read_text())
    assert bench.check_gates(payload) == []


def test_bench_parallel_regenerates_and_fans_out(tmp_path):
    """bench_parallel end-to-end at a small scale: the run table must
    regenerate and the grid records must be byte-identical across worker
    counts.  The multi-core *speedup* gate is environment-conditional
    and does not apply here."""
    bench = _load_module(PARALLEL_BENCH_PATH)
    out_path = tmp_path / "BENCH_parallel.json"
    payload = bench.run_bench(scale=0.25, out_path=out_path)

    assert out_path.exists()
    assert json.loads(out_path.read_text()) == payload

    for key in (
        "scale",
        "cpu_count",
        "fork_available",
        "blas_pinned",
        "grid_seconds",
        "grid_speedup_w4",
        "grid_records_identical",
    ):
        assert key in payload, key
    assert not any(key.startswith("window_") for key in payload)

    assert payload["blas_pinned"] is True
    assert payload["grid_records_identical"] is True
    assert bench.check_gates(payload) == []


def test_bench_matrix_regenerates_and_gates(tmp_path):
    """bench_matrix end-to-end at a small scale: the grid must complete,
    stay deterministic across re-runs and worker counts, and keep txallo
    ahead of hash on the planted-community topology — all structural
    gates, so they hold at any scale.  Also exercises the artifact tree
    (spec.json + per-run folders + run_table.csv)."""
    bench = _load_module(MATRIX_BENCH_PATH)
    out_path = tmp_path / "BENCH_matrix.json"
    artifacts = tmp_path / "matrix-artifacts"
    payload = bench.run_bench(scale=0.25, out_path=out_path, artifacts_dir=artifacts)

    assert out_path.exists()
    assert json.loads(out_path.read_text()) == payload

    for key in (
        "scale",
        "grid_scale",
        "spec",
        "cells",
        "expected_cells",
        "all_cells_complete",
        "deterministic",
        "workers_identical",
        "txallo_tps_ethereum",
        "hash_tps_ethereum",
        "txallo_beats_hash",
        "matrix_seconds",
        "rows",
    ):
        assert key in payload, key

    assert (artifacts / "spec.json").exists()
    assert (artifacts / "run_table.csv").exists()
    run_dirs = list((artifacts / "runs").iterdir())
    assert len(run_dirs) == payload["cells"]
    for run_dir in run_dirs:
        assert (run_dir / "result.json").exists()
        assert (run_dir / "ticks.csv").exists()
    assert bench.check_gates(payload) == []


def test_committed_matrix_run_table_is_current():
    """The checked-in BENCH_matrix.json must satisfy the standing gates."""
    committed = BENCH_DIR / "BENCH_matrix.json"
    assert committed.exists(), "run benchmarks/bench_matrix.py to regenerate"
    bench = _load_module(MATRIX_BENCH_PATH)
    payload = json.loads(committed.read_text())
    assert bench.check_gates(payload) == []


def test_committed_parallel_run_table_is_current():
    """The checked-in BENCH_parallel.json must satisfy the standing
    gates (the environment-conditional speedup gates consult the
    *recorded* cpu_count, so this holds on any runner)."""
    committed = BENCH_DIR / "BENCH_parallel.json"
    assert committed.exists(), "run benchmarks/bench_parallel.py to regenerate"
    bench = _load_module(PARALLEL_BENCH_PATH)
    payload = json.loads(committed.read_text())
    assert bench.check_gates(payload) == []
