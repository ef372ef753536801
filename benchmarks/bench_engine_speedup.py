"""Engine speedup run-table: reference vs flat-array ``g_txallo``.

Times the *paper's evaluation pattern* — the Fig. 8 running-time grid,
i.e. ``g_txallo`` end-to-end for every ``(k, eta)`` cell over one shared
workload — on the reference and fast backends, asserts byte-identical
outputs between them cell by cell, and writes ``BENCH_engine.json`` next
to this file so subsequent PRs have a perf trajectory to gate against:

``{"scale", "n_nodes", "n_edges", "ref_seconds", "fast_seconds",
"speedup", ...}``

``ref_seconds`` / ``fast_seconds`` are the grid totals (the fast backend
legitimately amortises one freeze + one memoised Louvain partition
across the grid, exactly as ``experiments.sweep`` does); ``single_*``
fields record one cold/warm ``k=20`` call for the pessimistic view.

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the workload
(CI pins 0.5 for runner budget; ``benchmarks/run_table.py
--local-scale 2`` regenerates a non-toy row locally, and
``--scale 2 --out BENCH_engine.scale2.json`` produces the committed
large-N row).
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
# knobs before any other import (the multi-core layer owns its
# parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from repro.eval import experiments

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: The Fig. 8 grid as the rest of the benchmark suite runs it
#: (``conftest.BENCH_KS`` x ``conftest.BENCH_ETAS``).
GRID_KS = (2, 10, 20, 40, 60)
GRID_ETAS = (2.0, 6.0, 10.0)

OUT_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"


def _run_grid(workload, backend):
    total = 0.0
    results = {}
    for eta in GRID_ETAS:
        for k in GRID_KS:
            params = TxAlloParams.with_capacity_for(
                workload.num_transactions, k=k, eta=eta, backend=backend
            )
            t0 = time.perf_counter()
            result = g_txallo(workload.graph, params)
            total += time.perf_counter() - t0
            results[(k, eta)] = result
    return total, results


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    # Fresh workloads per backend so neither run can warm the other's
    # graph-level caches.
    wl_ref = experiments.build_workload(scale=scale, seed=2022)
    wl_fast = experiments.build_workload(scale=scale, seed=2022)

    ref_seconds, ref_results = _run_grid(wl_ref, "reference")
    fast_seconds, fast_results = _run_grid(wl_fast, "fast")

    # Parity across the whole grid — same mapping, caches and counters.
    for cell, ref in ref_results.items():
        fast = fast_results[cell]
        assert ref.allocation.mapping() == fast.allocation.mapping(), cell
        assert ref.allocation.sigma == fast.allocation.sigma, cell
        assert ref.allocation.lam_hat == fast.allocation.lam_hat, cell
        assert (ref.sweeps, ref.moves, ref.small_nodes_absorbed) == (
            fast.sweeps,
            fast.moves,
            fast.small_nodes_absorbed,
        ), cell

    # One extra cold + warm single call at the paper's headline setting.
    wl_single = experiments.build_workload(scale=scale, seed=2022)
    params = TxAlloParams.with_capacity_for(
        wl_single.num_transactions, k=20, eta=2.0, backend="fast"
    )
    t0 = time.perf_counter()
    g_txallo(wl_single.graph, params)
    single_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    g_txallo(wl_single.graph, params)
    single_warm = time.perf_counter() - t0
    t0 = time.perf_counter()
    g_txallo(wl_ref.graph, params, backend="reference")
    single_ref = time.perf_counter() - t0

    speedup = ref_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    payload = {
        "scale": scale,
        "n_nodes": wl_ref.graph.num_nodes,
        "n_edges": wl_ref.graph.num_edges,
        "n_transactions": wl_ref.num_transactions,
        "grid_ks": list(GRID_KS),
        "grid_etas": list(GRID_ETAS),
        "ref_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": speedup,
        "single_ref_seconds": single_ref,
        "single_cold_seconds": single_cold,
        "single_warm_seconds": single_warm,
        "single_cold_speedup": single_ref / single_cold if single_cold > 0 else None,
        "single_warm_speedup": single_ref / single_warm if single_warm > 0 else None,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== engine speedup (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    failures = []
    # The standing ROADMAP gate: >= 3x end-to-end on the evaluation grid
    # at the default BENCH_SCALE=0.5 (small margin for timer noise).
    speedup = payload["speedup"]
    if speedup < 3.0:
        failures.append(f"engine speedup regressed: {speedup:.2f}x < 3x")
    return failures


def test_engine_speedup_run_table(bench_scale):
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
