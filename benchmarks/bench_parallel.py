"""Multi-core execution layer run-table: the process-parallel grid.

Times :mod:`repro.core.parallel`'s evaluation grid and writes
``BENCH_parallel.json`` next to this file: the Fig. 8 evaluation grid
(:func:`repro.eval.experiments.sweep`) at ``workers`` 1, 2 and 4,
asserting the records are identical across worker counts (the
process-parallel contract: ``workers=N`` changes wall-clock only).

``cpu_count`` and ``fork_available`` ride in the payload because the
*speedup* gate is environment-conditional: a 1-core container cannot
exhibit multi-core speedups, so ``check_gates`` enforces it only when
the recording host actually had the cores (>= 4) at the committed
scale-2 row — the structural gate (record identity) and the pool
overhead floor hold everywhere and always.

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the workload
(CI's perf leg regenerates this table with ``--workers 2``;
``--scale 2 --out BENCH_parallel.scale2.json`` produces the committed
large-N row that ``tests/test_bench_gate.py`` gates).
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
# knobs before any repro import can pull numpy in (the multi-core
# layer owns its parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.core import backends, parallel
from repro.eval import experiments

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: The Fig. 8 grid axes (``conftest.BENCH_KS`` x ``conftest.BENCH_ETAS``)
#: restricted to the two slowest methods — the grid-scaling story is
#: about fan-out, not about re-benching every allocator (bench_fig8
#: already does that).
GRID_KS = (2, 10, 20, 40, 60)
GRID_ETAS = (2.0, 6.0, 10.0)
GRID_METHODS = ("txallo", "metis")
GRID_WORKERS = (1, 2, 4)

OUT_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"


def _grid_part(scale: float) -> dict:
    workload = experiments.build_workload(scale=scale, seed=2022)
    seconds = {}
    canon = {}
    for workers in GRID_WORKERS:
        t0 = time.perf_counter()
        records = experiments.sweep(
            workload,
            ks=GRID_KS,
            etas=GRID_ETAS,
            methods=GRID_METHODS,
            backend="fast",
            workers=workers,
        )
        seconds[workers] = time.perf_counter() - t0
        canon[workers] = parallel.canonical_records(records)
    identical = all(canon[w] == canon[1] for w in GRID_WORKERS)
    return {
        "n_nodes": workload.graph.num_nodes,
        "n_edges": workload.graph.num_edges,
        "n_transactions": workload.num_transactions,
        "grid_ks": list(GRID_KS),
        "grid_etas": list(GRID_ETAS),
        "grid_methods": list(GRID_METHODS),
        "grid_seconds": {str(w): seconds[w] for w in GRID_WORKERS},
        "grid_speedup_w2": seconds[1] / seconds[2] if seconds[2] > 0 else None,
        "grid_speedup_w4": seconds[1] / seconds[4] if seconds[4] > 0 else None,
        "grid_records_identical": identical,
    }


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    payload = {
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "fork_available": parallel.fork_available(),
        "numpy_available": backends.numpy_available(),
        "blas_pinned": parallel.blas_threads_pinned(),
    }
    payload.update(_grid_part(scale))
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== multi-core execution layer (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green).

    Structural gates apply unconditionally; the multi-core *speedup*
    gate only where the recording host could exhibit it (>= 4 cores,
    the committed scale-2 row) — a 1-core container records honest
    ~1.0x columns without failing.
    """
    failures = []
    if not payload["grid_records_identical"]:
        failures.append("parallel grid records differ from workers=1")
    # Fork-pool overhead must stay in the noise even without spare
    # cores: fanning out may not *lose* the grid.
    w4 = payload.get("grid_speedup_w4")
    if w4 is not None and w4 < 0.8:
        failures.append(f"parallel grid overhead too high: {w4:.2f}x at 4 workers")
    cpus = payload.get("cpu_count") or 1
    if cpus >= 4 and payload["scale"] >= 2.0:
        if w4 is not None and w4 < 2.5:
            failures.append(f"parallel grid speedup regressed: {w4:.2f}x < 2.5x")
    return failures


def test_parallel_run_table(bench_scale):
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
