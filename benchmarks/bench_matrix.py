"""Scenario-matrix smoke row: the declared-factors harness, gated.

PR 9 added the scenario-matrix harness (:mod:`repro.eval.matrix`) and the
workload zoo (:mod:`repro.data.synthetic`): a declarative spec over
topology x scale x allocator x backend x cadence x fault-plan factors,
expanded with seeded repetitions and executed through
:class:`repro.chain.live.LiveShardedNetwork`.  This benchmark runs the
built-in smoke spec (2 topologies x 2 allocators x 2 seeded reps) three
times — sequentially, sequentially again, and through the fork process
pool — and records the structural facts every later matrix claim rests
on.  Writes ``BENCH_matrix.json`` next to this file:

``{"scale", "grid_scale", "cells", "all_cells_complete",
"deterministic", "workers_identical", "txallo_tps_ethereum",
"hash_tps_ethereum", "txallo_beats_hash", "matrix_seconds", ...}``

Gates (enforced by :func:`check_gates`, ``tests/test_bench_gate.py`` and
the CI perf job):

* **all cells complete** — every grid cell produced a row, every row
  drained fully (``committed == arrived``);
* **determinism** — two runs of the same spec agree on every
  non-runtime column (:data:`repro.eval.matrix.RUNTIME_COLUMNS`), and a
  4-worker pool run agrees with the sequential rows;
* **txallo >= hash committed TPS** on the planted-community (ethereum)
  topology, averaged over the seeded repetitions — the paper's headline
  claim, now standing on the matrix instead of a single hand-run.

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the grid's
workload scale (the spec's ``scales`` factor is ``0.2 x BENCH_SCALE``,
so CI's 0.5 pin lands on the smoke spec's native 0.1).  ``--artifacts``
additionally writes the full artifact tree (per-run folders +
``run_table.csv``) — the CI perf job uploads that.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
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

from repro.eval.matrix import MatrixSpec, run_matrix

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: The smoke spec's workload scale as a fraction of the bench scale:
#: CI's BENCH_SCALE=0.5 lands on the spec's native 0.1.
GRID_SCALE_FACTOR = 0.2
POOL_WORKERS = 4

OUT_PATH = Path(__file__).resolve().parent / "BENCH_matrix.json"


def _spec(scale: float) -> MatrixSpec:
    grid_scale = max(0.02, round(GRID_SCALE_FACTOR * scale, 4))
    return MatrixSpec(scales=(grid_scale,))


def run_bench(
    scale: float = BENCH_SCALE,
    out_path: Path = OUT_PATH,
    artifacts_dir: Path | None = None,
) -> dict:
    spec = _spec(scale)
    expected = len(spec.cells())

    t0 = time.perf_counter()
    first = run_matrix(
        spec, out_dir=str(artifacts_dir) if artifacts_dir is not None else None
    )
    matrix_seconds = time.perf_counter() - t0
    rerun = run_matrix(spec)
    pooled = run_matrix(spec, workers=POOL_WORKERS)

    all_complete = (
        len(first.results) == expected
        and all(r.ticks > 0 for r in first.results)
        and all(r.committed == r.arrived for r in first.results)
    )
    deterministic = first.comparable_rows() == rerun.comparable_rows()
    workers_identical = first.comparable_rows() == pooled.comparable_rows()

    txallo_tps = statistics.mean(
        r.committed_tps for r in first.select(topology="ethereum", allocator="txallo")
    )
    hash_tps = statistics.mean(
        r.committed_tps for r in first.select(topology="ethereum", allocator="hash")
    )

    payload = {
        "scale": scale,
        "grid_scale": spec.scales[0],
        "spec": spec.to_dict(),
        "cells": len(first.results),
        "expected_cells": expected,
        "all_cells_complete": all_complete,
        "deterministic": deterministic,
        "workers_identical": workers_identical,
        "pool_workers": POOL_WORKERS,
        "txallo_tps_ethereum": txallo_tps,
        "hash_tps_ethereum": hash_tps,
        "txallo_beats_hash": txallo_tps >= hash_tps,
        "matrix_seconds": matrix_seconds,
        "rows": [
            {
                "cell_id": r.cell_id,
                "committed_tps": r.committed_tps,
                "cross_shard_ratio": r.cross_shard_ratio,
                "mean_latency": r.mean_latency,
                "p99_latency": r.p99_latency,
                "moves": r.moves,
            }
            for r in first.results
        ],
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== scenario-matrix smoke grid (scale={scale}) ==")
    for key, value in payload.items():
        if key in ("rows", "spec"):
            continue
        print(f"  {key}: {value}")
    print(first.render())
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    failures = []
    if not payload["all_cells_complete"]:
        failures.append(
            f"matrix completed {payload['cells']}/{payload['expected_cells']} "
            "cells (or a cell failed to drain)"
        )
    if not payload["deterministic"]:
        failures.append(
            "re-running the same spec changed non-runtime run-table columns"
        )
    if not payload["workers_identical"]:
        failures.append(
            f"{payload['pool_workers']}-worker pool rows differ from the "
            "sequential rows on non-runtime columns"
        )
    if not payload["txallo_beats_hash"]:
        failures.append(
            f"txallo committed TPS {payload['txallo_tps_ethereum']:.2f} fell "
            f"below hash {payload['hash_tps_ethereum']:.2f} on the "
            "planted-community workload"
        )
    return failures


def test_matrix_run_table(bench_scale):
    payload = run_bench(scale=bench_scale)
    failures = check_gates(payload)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=BENCH_SCALE,
        help="bench scale factor (default: BENCH_SCALE env or 0.5; the "
             f"grid's workload scale is {GRID_SCALE_FACTOR} x this)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"output run-table path (default {OUT_PATH.name} next to this file)",
    )
    parser.add_argument(
        "--artifacts", type=Path, default=None,
        help="also write the full artifact tree (spec.json, per-run "
             "folders, run_table.csv) to this directory",
    )
    args = parser.parse_args()
    result = run_bench(scale=args.scale, out_path=args.out, artifacts_dir=args.artifacts)
    problems = check_gates(result)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)
