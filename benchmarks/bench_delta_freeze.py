"""Delta-freeze run-table: the dynamic controller block-loop, full vs
incremental CSR maintenance.

The paper's dynamic setting (Section V-A, Figs. 9-10) runs A-TxAllo
every ``τ₁`` blocks and G-TxAllo every ``τ₂`` blocks while blocks keep
arriving.  Every one of those updates needs the graph's frozen CSR
snapshot; before delta-freeze each snapshot was a from-scratch O(N + E)
lowering even though a block only perturbs a small frontier.

This benchmark replays exactly that loop twice over the same Fig. 9-style
block stream — once with ``TransactionGraph.delta_freeze_enabled = False``
(every refresh re-lowers from scratch) and once with the default
incremental path — asserts the two runs are **byte-identical** (same
mapping, same caches, same update events), and writes
``BENCH_delta.json`` next to this file:

``{"scale", "blocks", "full_loop_seconds", "delta_loop_seconds",
"speedup", "frontier_freeze_ms", "full_freeze_ms", ...}``

``frontier_freeze_ms`` is the steady-state microbench: mean time to
re-freeze after touching a frontier of ``f`` nodes, for growing ``f`` —
the incremental cost tracks the frontier, while the full lowering pays
N + E regardless.

Both loops run with ``adaptive_workspace=False``: the adaptive workspace
(PR 5) skips per-window freezes entirely, which would collapse the very
difference this table measures.  The workspace's own block-loop gain is
gated by ``benchmarks/bench_adaptive.py`` instead; the delta-freeze path
stays the supported fallback (and what global refreshes ride), so this
gate stands.

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the workload
(CI pins 0.5 for runner budget; ``benchmarks/run_table.py
--local-scale 2`` regenerates a non-toy row locally).
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
from repro.core.csr import CSRGraph
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: Fig. 9 cadence: adaptive every block, global refresh every 50 blocks.
TAU1 = 1
TAU2 = 50
#: Ethereum-sized blocks; the update frequency is what stresses freeze.
BLOCK_SIZE = 100
#: Loop timings are best-of-N to shave scheduler noise off the gate.
TIMING_REPEATS = 3

OUT_PATH = Path(__file__).resolve().parent / "BENCH_delta.json"


def _block_stream(scale: float, seed: int = 2022):
    config = WorkloadConfig(
        num_accounts=max(100, int(10_000 * scale)),
        num_transactions=max(1_000, int(60_000 * scale)),
        block_size=BLOCK_SIZE,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [[tuple(tx.accounts) for tx in block.transactions] for block in gen.blocks()]


def _run_loop(blocks, seed_blocks, delta_enabled: bool):
    """One controller over the stream; returns (loop_seconds, controller)."""
    params = TxAlloParams.with_capacity_for(
        sum(len(b) for b in blocks) + sum(len(b) for b in seed_blocks),
        k=16,
        eta=2.0,
        tau1=TAU1,
        tau2=TAU2,
    )
    controller = TxAlloController(
        params,
        seed_transactions=[tx for block in seed_blocks for tx in block],
        # Workspace off: this table isolates the delta-freeze machinery
        # (see the module docstring); bench_adaptive.py owns the
        # workspace gate.
        adaptive_workspace=False,
    )
    controller.graph.delta_freeze_enabled = delta_enabled
    t0 = time.perf_counter()
    for block in blocks:
        controller.observe_block(block)
    return time.perf_counter() - t0, controller


def _frontier_microbench(graph, repeats: int = 5):
    """Steady-state cost of re-freezing after touching ``f`` nodes."""
    existing = [v for v in graph.nodes()]
    results = {}
    for frontier in (8, 32, 128):
        times = []
        for r in range(repeats):
            # Touch ~frontier existing nodes (pair transactions).
            for i in range(frontier // 2):
                a = existing[(r * 7919 + i * 31) % len(existing)]
                b = existing[(r * 104729 + i * 97 + 1) % len(existing)]
                if a == b:
                    b = existing[(i + 2) % len(existing)]
                graph.add_transaction((a, b))
            t0 = time.perf_counter()
            graph.freeze()
            times.append(time.perf_counter() - t0)
        results[str(frontier)] = sum(times) / len(times) * 1e3
    t0 = time.perf_counter()
    CSRGraph.from_graph(graph)
    full_ms = (time.perf_counter() - t0) * 1e3
    return results, full_ms


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    blocks = _block_stream(scale)
    # First half seeds the initial global allocation (history), second
    # half is the live stream the controller loop is timed over.
    split = len(blocks) // 2
    seed_blocks, stream = blocks[:split], blocks[split:]

    full_seconds = delta_seconds = float("inf")
    for _ in range(TIMING_REPEATS):
        seconds, full_ctrl = _run_loop(stream, seed_blocks, delta_enabled=False)
        full_seconds = min(full_seconds, seconds)
        seconds, delta_ctrl = _run_loop(stream, seed_blocks, delta_enabled=True)
        delta_seconds = min(delta_seconds, seconds)

    # Parity: delta-freeze is an optimisation, not a reinterpretation.
    assert full_ctrl.allocation.mapping() == delta_ctrl.allocation.mapping()
    assert full_ctrl.allocation.sigma == delta_ctrl.allocation.sigma
    assert full_ctrl.allocation.lam_hat == delta_ctrl.allocation.lam_hat
    assert [
        (e.kind, e.block_height, e.moves, e.touched) for e in full_ctrl.events
    ] == [(e.kind, e.block_height, e.moves, e.touched) for e in delta_ctrl.events]

    delta_stats = delta_ctrl.freeze_stats
    assert delta_stats["delta"] > 0, "delta-freeze path never ran"

    # Counts first: the microbench ingests extra frontier transactions.
    n_nodes = delta_ctrl.graph.num_nodes
    n_edges = delta_ctrl.graph.num_edges
    frontier_ms, full_freeze_ms = _frontier_microbench(delta_ctrl.graph)

    payload = {
        "scale": scale,
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "seed_blocks": split,
        "stream_blocks": len(stream),
        "tau1": TAU1,
        "tau2": TAU2,
        "full_loop_seconds": full_seconds,
        "delta_loop_seconds": delta_seconds,
        "speedup": full_seconds / delta_seconds if delta_seconds > 0 else float("inf"),
        "full_freeze_stats": full_ctrl.freeze_stats,
        "delta_freeze_stats": delta_stats,
        "frontier_freeze_ms": frontier_ms,
        "full_freeze_ms": full_freeze_ms,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== delta-freeze controller loop (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    failures = []
    # Steady-state cost must track the frontier, not N + E: the smallest
    # frontier refresh has to be far below a from-scratch lowering.
    if not payload["frontier_freeze_ms"]["8"] < payload["full_freeze_ms"] / 4:
        failures.append(
            "smallest-frontier re-freeze no longer tracks the frontier: "
            f"{payload['frontier_freeze_ms']['8']:.2f}ms vs full "
            f"{payload['full_freeze_ms']:.2f}ms"
        )
    # The standing gate: >= 2x on the controller block-loop at the
    # default BENCH_SCALE=0.5 (margin for timer noise).
    if payload["speedup"] < 2.0:
        failures.append(
            f"delta-freeze block-loop speedup regressed: {payload['speedup']:.2f}x < 2x"
        )
    return failures


def test_delta_freeze_run_table(bench_scale):
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
