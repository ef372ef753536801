"""Warm-start run-table: turbo vs fast τ₂ global refreshes.

After PR 2's delta-freeze the cost of a G-TxAllo global refresh in the
dynamic controller loop is dominated by re-partitioning N nodes from
scratch (Louvain) plus full O(N k) optimisation sweeps.  The turbo
backend (PR 4) warm-starts Louvain from the previous snapshot's
partition carried on the extended CSR and work-skips converged sweep
nodes; it is *allowed* to land on a different deterministic allocation,
gated on the TxAllo objective instead of byte-parity
(:data:`repro.core.engine.WARM_OBJECTIVE_TOLERANCE`).

This benchmark replays the Fig. 9-style controller block-loop once per
backend over the same stream, then writes ``BENCH_louvain.json`` next to
this file:

``{"scale", "cold_refresh_seconds", "warm_refresh_seconds",
"refresh_speedup", "objective_ratio", "cross_shard_fast",
"cross_shard_turbo", "warm_stats", ...}``

Gates (enforced by :func:`check_gates`, by ``test_louvain_warm_gates``
and by CI):

* warm-started refreshes ≥ 2x faster than cold ones;
* turbo objective within ``WARM_OBJECTIVE_TOLERANCE`` of fast;
* turbo committed throughput / cross-shard ratio not regressed beyond
  the same tolerance;
* the warm path actually ran (every scheduled refresh warm-started).

Run directly (``python benchmarks/bench_louvain_warm.py [--scale S]
[--out PATH]``) it exits non-zero when a gate fails, so the CI perf job
can call it without a pytest wrapper.  ``--scale`` / ``BENCH_SCALE``
crank the workload (CI pins 0.5; ``benchmarks/run_table.py
--local-scale 2`` regenerates a non-toy row locally).

Both loops run with ``adaptive_workspace=False`` so the refresh timings
stay comparable across PRs: the adaptive workspace (PR 5) batches the
τ₁ runs and defers freezing to the τ₂ refresh, which would shift freeze
cost into the very refresh this table isolates.  The workspace path is
benchmarked by ``benchmarks/bench_adaptive.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:  # script mode from a clean checkout: resolve the src layout
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.parallel import pin_blas_threads

# Explicit thread ownership for honest timings: pin the BLAS/OpenMP
# knobs before any other import (the multi-core
# layer owns its parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.core.controller import TxAlloController
from repro.core.engine import WARM_OBJECTIVE_TOLERANCE
from repro.core.metrics import evaluate_allocation
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: Fig. 9 cadence: adaptive every block, global refresh every 50 blocks.
TAU1 = 1
TAU2 = 50
BLOCK_SIZE = 100
#: Loop timings are best-of-N to shave scheduler noise off the gate.
TIMING_REPEATS = 2

OUT_PATH = Path(__file__).resolve().parent / "BENCH_louvain.json"


def _block_stream(scale: float, seed: int = 2022):
    config = WorkloadConfig(
        num_accounts=max(100, int(10_000 * scale)),
        num_transactions=max(1_000, int(60_000 * scale)),
        block_size=BLOCK_SIZE,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [[tuple(tx.accounts) for tx in block.transactions] for block in gen.blocks()]


def _run_loop(backend, blocks, seed_blocks, num_transactions):
    """One controller over the stream; returns (loop_seconds, controller)."""
    params = TxAlloParams.with_capacity_for(
        num_transactions, k=16, eta=2.0, tau1=TAU1, tau2=TAU2, backend=backend
    )
    controller = TxAlloController(
        params,
        seed_transactions=[tx for block in seed_blocks for tx in block],
        # Workspace off: keeps per-refresh freeze cost where PR 4 measured
        # it (see the module docstring); bench_adaptive.py owns the
        # workspace gate.
        adaptive_workspace=False,
    )
    t0 = time.perf_counter()
    for block in blocks:
        controller.observe_block(block)
    return time.perf_counter() - t0, controller


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    blocks = _block_stream(scale)
    # First half seeds the initial global allocation (history), second
    # half is the live stream the controller loop is timed over.
    split = len(blocks) // 2
    seed_blocks, stream = blocks[:split], blocks[split:]
    num_transactions = sum(len(b) for b in blocks)

    fast_seconds = turbo_seconds = float("inf")
    cold_refresh = warm_refresh = float("inf")
    for _ in range(TIMING_REPEATS):
        seconds, fast_ctrl = _run_loop("fast", stream, seed_blocks, num_transactions)
        fast_seconds = min(fast_seconds, seconds)
        seconds, turbo_ctrl = _run_loop("turbo", stream, seed_blocks, num_transactions)
        turbo_seconds = min(turbo_seconds, seconds)

        # Scheduled refreshes only — events[0] is the seed run, which is
        # cold on both backends (a fresh graph has no prior partition).
        # Per-repeat means, best-of across repeats like the loop totals.
        cold_refreshes = [e.seconds for e in fast_ctrl.global_events[1:]]
        warm_refreshes = [e.seconds for e in turbo_ctrl.global_events[1:]]
        assert warm_refreshes, "stream too short: no scheduled global refresh ran"
        cold_refresh = min(cold_refresh, sum(cold_refreshes) / len(cold_refreshes))
        warm_refresh = min(warm_refresh, sum(warm_refreshes) / len(warm_refreshes))

    warm_stats = turbo_ctrl.warm_stats
    assert warm_stats["warm"] > 0, "warm-start path never ran"

    # Quality: both controllers ingested the identical stream, so the
    # final graphs are identical and the objectives comparable 1:1.
    obj_fast = fast_ctrl.allocation.total_throughput()
    obj_turbo = turbo_ctrl.allocation.total_throughput()

    # Live metrics over the streamed transactions (committed throughput
    # and cross-shard ratio of the final mapping, the Fig. 2/5 view).
    stream_sets = [tx for block in stream for tx in block]
    eval_params = fast_ctrl.params.replace(
        lam=max(1.0, len(stream_sets) / fast_ctrl.params.k)
    )
    report_fast = evaluate_allocation(stream_sets, fast_ctrl.allocation, eval_params)
    report_turbo = evaluate_allocation(stream_sets, turbo_ctrl.allocation, eval_params)

    payload = {
        "scale": scale,
        "n_nodes": turbo_ctrl.graph.num_nodes,
        "n_edges": turbo_ctrl.graph.num_edges,
        "seed_blocks": split,
        "stream_blocks": len(stream),
        "tau1": TAU1,
        "tau2": TAU2,
        "fast_loop_seconds": fast_seconds,
        "turbo_loop_seconds": turbo_seconds,
        "loop_speedup": fast_seconds / turbo_seconds if turbo_seconds > 0 else float("inf"),
        "cold_refresh_seconds": cold_refresh,
        "warm_refresh_seconds": warm_refresh,
        "refresh_speedup": cold_refresh / warm_refresh if warm_refresh > 0 else float("inf"),
        "cold_refreshes": cold_refreshes,
        "warm_refreshes": warm_refreshes,
        "warm_stats": warm_stats,
        "objective_fast": obj_fast,
        "objective_turbo": obj_turbo,
        "objective_ratio": obj_turbo / obj_fast if obj_fast > 0 else float("inf"),
        "objective_tolerance": WARM_OBJECTIVE_TOLERANCE,
        "throughput_fast": report_fast.throughput,
        "throughput_turbo": report_turbo.throughput,
        "cross_shard_fast": report_fast.cross_shard_ratio,
        "cross_shard_turbo": report_turbo.cross_shard_ratio,
        "freeze_stats": turbo_ctrl.freeze_stats,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== louvain warm-start refresh (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    tol = payload["objective_tolerance"]
    failures = []
    if payload["refresh_speedup"] < 2.0:
        failures.append(
            f"warm refresh speedup {payload['refresh_speedup']:.2f}x < 2x"
        )
    if payload["objective_ratio"] < 1.0 - tol:
        failures.append(
            f"turbo objective ratio {payload['objective_ratio']:.4f} below 1-{tol}"
        )
    if payload["throughput_turbo"] < (1.0 - tol) * payload["throughput_fast"]:
        failures.append("turbo committed throughput regressed beyond tolerance")
    if payload["cross_shard_turbo"] > payload["cross_shard_fast"] + tol:
        failures.append(
            f"turbo cross-shard ratio {payload['cross_shard_turbo']:.4f} regressed "
            f"past fast {payload['cross_shard_fast']:.4f} + {tol}"
        )
    if payload["warm_stats"]["warm"] < len(payload["warm_refreshes"]):
        failures.append("some scheduled refreshes fell back to a cold partition")
    return failures


def test_louvain_warm_run_table(bench_scale):
    payload = run_bench(scale=bench_scale)
    failures = check_gates(payload)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=BENCH_SCALE,
        help="workload scale factor (default: BENCH_SCALE env or 0.5)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"output run-table path (default {OUT_PATH.name} next to this file)",
    )
    args = parser.parse_args()
    result = run_bench(scale=args.scale, out_path=args.out)
    problems = check_gates(result)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)
