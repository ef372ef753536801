"""Delta-freeze run-table: incremental CSR re-freeze vs a full lowering.

The paper's dynamic setting (Section V-A, Figs. 9-10) keeps ingesting
blocks while G-TxAllo refreshes every ``τ₂`` blocks, and every refresh
needs the graph's frozen CSR snapshot.  A block perturbs only a small
frontier, so :meth:`TransactionGraph.freeze` extends the previous
snapshot (:meth:`CSRGraph.extend`) instead of re-lowering the whole
graph (:meth:`CSRGraph.from_graph`).

This benchmark ingests a Fig. 9-style transaction stream into one
graph, freezes it, then times the steady state: the mean re-freeze after
touching a frontier of ``f`` nodes, for growing ``f``, against one
from-scratch lowering of the same graph.  Every re-freeze is asserted
to take the incremental path.  It writes ``BENCH_delta.json`` next to
this file:

``{"scale", "n_nodes", "n_edges", "transactions", "frontier_freeze_ms",
"full_freeze_ms", "freeze_stats"}``

The gate: an 8-node frontier re-freezes in under a quarter of a full
lowering — the incremental cost tracks the frontier, while the full
lowering pays N + E regardless.  The end-to-end effect on the live
controller loop is measured by ``perfbench/`` (``graph.freeze_s``,
``graph.freeze_delta``).

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

from repro.core.csr import CSRGraph
from repro.core.graph import TransactionGraph
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

OUT_PATH = Path(__file__).resolve().parent / "BENCH_delta.json"


def _build_graph(scale: float, seed: int = 2022) -> TransactionGraph:
    config = WorkloadConfig(
        num_accounts=max(100, int(10_000 * scale)),
        num_transactions=max(1_000, int(60_000 * scale)),
        seed=seed,
    )
    graph = TransactionGraph()
    for tx in EthereumWorkloadGenerator(config).transactions():
        graph.add_transaction(tx.accounts)
    return graph


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
    graph = _build_graph(scale)
    graph.freeze()

    # Counts first: the microbench ingests extra frontier transactions.
    n_nodes = graph.num_nodes
    n_edges = graph.num_edges
    n_transactions = graph.num_transactions
    frontier_ms, full_freeze_ms = _frontier_microbench(graph)
    freeze_stats = graph.freeze_stats
    assert freeze_stats["full"] == 1, "a frontier re-freeze fell back to a full rebuild"

    payload = {
        "scale": scale,
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "transactions": n_transactions,
        "frontier_freeze_ms": frontier_ms,
        "full_freeze_ms": full_freeze_ms,
        "freeze_stats": freeze_stats,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== delta-freeze frontier microbench (scale={scale}) ==")
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
