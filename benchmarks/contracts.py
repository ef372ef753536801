"""Standing contracts: one run, one run table, one exit code.

The paper's claims rest on contracts this repo keeps: the flat engine
equals the reference exactly, a worker pool never changes a result, a
delta freeze tracks its frontier, supervision keeps committed TPS under
faults, and the scenario matrix is complete and deterministic.  This
script builds each workload once per (topology, scale), measures every
contract once and writes ``OUT/run_table.csv`` in the declared-factors
layout: one row per contract x topology x scale with the measured value,
its bound, whether the bound binds at that point (``gated``) and whether
the value meets it (``passed``).  It exits 1 when any gated row fails.
``OUT/matrix/`` receives the scenario matrix's artifact tree (spec,
per-run folders, its own ``run_table.csv``).

Every bound, and where it binds, is one entry of :data:`CONTRACTS`.
Exact and threshold rows bind at every scale.  Timing rows bind only
where they are stable on a 2-core host: the pool-overhead floor reads
0.72-1.45x over six runs at scale 0.25 and 1.22-1.73x at scale 0.5.

Usage::

    python benchmarks/contracts.py --scale 0.5 --out contracts-out

``benchmarks/contracts.csv`` is the committed record: the scale-0.5 and
scale-2 tables, concatenated under one header.
"""

import argparse
import csv
import dataclasses
import operator
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
# knobs before any other import (the multi-core layer owns its
# parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.chain.faults import FaultPlan
from repro.chain.live import LiveShardedNetwork
from repro.core import parallel
from repro.core.controller import TxAlloController
from repro.core.csr import CSRGraph
from repro.core.gtxallo import g_txallo, g_txallo_reference
from repro.core.params import TxAlloParams
from repro.core.resilience import ResilientAllocator
from repro.data.synthetic import workload_names
from repro.eval import experiments
from repro.eval.matrix import run_matrix, smoke_spec

SEED = 2022
#: The Fig. 8 grid as the figure benchmarks run it
#: (``conftest.BENCH_KS`` x ``conftest.BENCH_ETAS``).
GRID_KS = (2, 10, 20, 40, 60)
GRID_ETAS = (2.0, 6.0, 10.0)
#: The two slowest methods: the worker contract is about fan-out, not
#: about re-running every allocator.
GRID_METHODS = ("txallo", "metis")
WORKERS = (1, 2, 4)
#: Frontier sizes (touched nodes) of the delta re-freeze, each timed as
#: the mean of ``FREEZE_REPEATS`` re-freezes; only 8 is gated.
FRONTIERS = (8, 32, 128)
FREEZE_REPEATS = 5
#: The scenario matrix runs the smoke spec at this fraction of the
#: scale, so scale 0.5 lands on the spec's native 0.1.
MATRIX_SCALE_FACTOR = 0.2

OPS = {">=": operator.ge, "<": operator.lt, "==": operator.eq}
COLUMNS = ("contract", "kind", "topology", "scale", "cpus", "value", "bound", "gated", "passed")


@dataclasses.dataclass(frozen=True)
class Contract:
    """One bound, and the points of the sweep where it gates."""

    name: str
    kind: str  # "exact", "threshold" or "timing"
    op: str
    bound: float
    #: The one topology the row gates on; ``None`` gates every topology.
    topology: str | None = None
    min_scale: float = 0.0
    min_cpus: int = 1

    def binds(self, topology: str, scale: float, cpus: int) -> bool:
        return (
            self.topology in (None, topology)
            and scale >= self.min_scale
            and cpus >= self.min_cpus
        )

    def holds(self, value: float) -> bool:
        return OPS[self.op](value, self.bound)

    @property
    def bound_text(self) -> str:
        return f"{self.op} {self.bound:g}"


CONTRACTS = {
    c.name: c
    for c in (
        # Fast == reference on every Fig. 8 grid cell: mapping, sigma,
        # lam_hat, sweeps, moves and small_nodes_absorbed.
        Contract("engine_mismatched_cells", "exact", "==", 0),
        # Noisy on a shared 2-core host: 2.7-5.4x across runs at scale 0.5.
        Contract("engine_grid_speedup", "timing", ">=", 3.0, "ethereum", min_scale=0.5),
        # Every frontier re-freeze extends the snapshot: one full lowering.
        Contract("delta_full_rebuilds", "exact", "==", 1),
        Contract("delta_frontier8_over_full", "timing", "<", 0.25, "ethereum", min_scale=0.5),
        Contract("resilience_tps_retention", "threshold", ">=", 0.7),
        Contract("resilience_trips", "threshold", ">=", 1),
        Contract("resilience_recoveries", "threshold", ">=", 1),
        Contract("resilience_circuit_closed", "exact", "==", 1),
        Contract("resilience_lost_tx", "exact", "==", 0),
        # Sweep records at workers 2 and 4 that differ from workers 1.
        Contract("parallel_mismatched_workers", "exact", "==", 0),
        # Fanning out may not lose the grid, even without spare cores.
        Contract("parallel_w4_overhead", "timing", ">=", 0.8, "ethereum", min_scale=0.5),
        # A multi-core speedup binds only where the cores exist.
        Contract("parallel_w4_speedup", "timing", ">=", 2.5, "ethereum", min_scale=2.0, min_cpus=4),
        Contract("matrix_incomplete_cells", "exact", "==", 0),
        Contract("matrix_rerun_changed_rows", "exact", "==", 0),
        Contract("matrix_pool_changed_rows", "exact", "==", 0),
        Contract("matrix_txallo_over_hash_tps", "threshold", ">=", 1.0),
    )
}


def engine_grid(workload) -> dict:
    """``g_txallo_reference`` vs the engine's ``g_txallo`` over the Fig. 8 grid.

    Each side starts from its own copy of the graph, so neither warms
    the other's freeze or Louvain memo; the engine legitimately amortises
    them across the grid, as ``experiments.sweep`` does.
    """
    seconds, results = {}, {}
    for tier, run in (("reference", g_txallo_reference), ("fast", g_txallo)):
        graph = workload.graph.copy()
        t0 = time.perf_counter()
        results[tier] = [
            run(graph, TxAlloParams.with_capacity_for(workload.num_transactions, k=k, eta=eta))
            for eta in GRID_ETAS
            for k in GRID_KS
        ]
        seconds[tier] = time.perf_counter() - t0

    def signature(result):
        allocation = result.allocation
        return (
            allocation.mapping(),
            allocation.sigma,
            allocation.lam_hat,
            result.sweeps,
            result.moves,
            result.small_nodes_absorbed,
        )

    mismatched = sum(
        signature(ref) != signature(fast)
        for ref, fast in zip(results["reference"], results["fast"])
    )
    return {
        "engine_mismatched_cells": mismatched,
        "engine_grid_speedup": seconds["reference"] / seconds["fast"],
    }


def worker_grid(workload) -> dict:
    """The txallo/METIS Fig. 8 sweep at 1, 2 and 4 workers, cold graph.

    Each worker count gets its own ``graph.copy()``: a shared copy would
    hand the later counts the freeze, Louvain memo and METIS memo the
    first one filled.
    """
    seconds, canon = {}, {}
    for workers in WORKERS:
        cold = dataclasses.replace(workload, graph=workload.graph.copy())
        t0 = time.perf_counter()
        records = experiments.sweep(
            cold, ks=GRID_KS, etas=GRID_ETAS, methods=GRID_METHODS, workers=workers
        )
        seconds[workers] = time.perf_counter() - t0
        canon[workers] = parallel.canonical_records(records)
    speedup = seconds[1] / seconds[4]
    return {
        "parallel_mismatched_workers": sum(canon[w] != canon[1] for w in WORKERS[1:]),
        "parallel_w4_overhead": speedup,
        "parallel_w4_speedup": speedup,
    }


def delta_freeze(workload) -> dict:
    """Steady-state re-freeze after touching a frontier vs a full lowering."""
    graph = workload.graph.copy()
    graph.freeze()
    nodes = list(graph.nodes())
    frontier_s = {}
    for frontier in FRONTIERS:
        total = 0.0
        for r in range(FREEZE_REPEATS):
            for i in range(frontier // 2):
                a = nodes[(r * 7919 + i * 31) % len(nodes)]
                b = nodes[(r * 104729 + i * 97 + 1) % len(nodes)]
                if a == b:
                    b = nodes[(i + 2) % len(nodes)]
                graph.add_transaction((a, b))
            t0 = time.perf_counter()
            graph.freeze()
            total += time.perf_counter() - t0
        frontier_s[frontier] = total / FREEZE_REPEATS
    t0 = time.perf_counter()
    CSRGraph.from_graph(graph)
    full_s = time.perf_counter() - t0
    return {
        "delta_full_rebuilds": graph.freeze_stats["full"],
        "delta_frontier8_over_full": frontier_s[8] / full_s,
    }


def resilience(scale: float) -> dict:
    """A supervised controller under the standard fault plan vs no faults.

    Both runs drain fully, so the damage shows as extra ticks: retention
    is faulted committed-per-tick over the fault-free baseline's.
    """
    workload = experiments.build_workload(scale=scale, seed=SEED, block_size=100)
    setup = experiments.live_setup(
        workload,
        k=8,
        eta=2.0,
        seed_fraction=1 / 3,
        capacity_factor=1.5,
        no_live_blocks="the resilience contract needs at least one live block",
        tau1=2,
        tau2=10,
    )
    params = setup.params
    baseline = LiveShardedNetwork(
        params, TxAlloController(params, seed_transactions=setup.seed_sets)
    ).run(setup.live_blocks, drain=True)
    supervised = ResilientAllocator(TxAlloController(params, seed_transactions=setup.seed_sets))
    faulted = LiveShardedNetwork(
        params, supervised, fault_plan=FaultPlan.standard(params.tau2)
    ).run(setup.live_blocks, drain=True)
    offered = sum(len(block) for block in setup.live_blocks)
    stats = supervised.resilience_stats
    return {
        "resilience_tps_retention": faulted.committed_per_tick / baseline.committed_per_tick,
        "resilience_trips": stats["trips"],
        "resilience_recoveries": stats["recoveries"],
        "resilience_circuit_closed": int(supervised.circuit_state == "closed"),
        "resilience_lost_tx": 2 * offered - baseline.committed - faulted.committed,
    }


def scenario_matrix(scale: float, out_dir: Path):
    """Run the smoke spec three times: sequential, again, and pooled.

    Yields ``(contract, topology, value)``; the structural rows cover
    every topology of the spec, the TPS row only the planted-community
    (ethereum) cells.
    """
    scales = (max(0.02, round(MATRIX_SCALE_FACTOR * scale, 4)),)
    spec = dataclasses.replace(smoke_spec(), scales=scales)
    first = run_matrix(spec, out_dir=str(out_dir))
    rerun = run_matrix(spec)
    pooled = run_matrix(spec, workers=4)

    def changed(other):
        a, b = first.comparable_rows(), other.comparable_rows()
        return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))

    complete = sum(r.ticks > 0 and r.committed == r.arrived for r in first.results)
    topologies = "+".join(spec.topologies)
    yield "matrix_incomplete_cells", topologies, len(spec.cells()) - complete
    yield "matrix_rerun_changed_rows", topologies, changed(rerun)
    yield "matrix_pool_changed_rows", topologies, changed(pooled)
    tps = {
        name: statistics.mean(
            r.committed_tps for r in first.select(topology="ethereum", allocator=name)
        )
        for name in ("txallo", "hash")
    }
    yield "matrix_txallo_over_hash_tps", "ethereum", tps["txallo"] / tps["hash"]


def measure(scale: float, out_dir: Path):
    """Yield ``(contract, topology, value)`` for every contract at ``scale``."""
    for topology in workload_names():
        workload = experiments.build_workload(scale=scale, seed=SEED, topology=topology)
        values = {**engine_grid(workload), **worker_grid(workload)}
        if topology == "ethereum":
            # Smaller zoo graphs rebuild a 128-node frontier by design
            # (it exceeds ``DELTA_REBUILD_FRACTION`` of their nodes).
            values.update(delta_freeze(workload))
        for name, value in values.items():
            yield name, topology, value
    for name, value in resilience(scale).items():
        yield name, "ethereum", value
    yield from scenario_matrix(scale, out_dir / "matrix")


def run_table(scale: float, out_dir: Path) -> list:
    """Measure every contract at ``scale`` and write ``out_dir/run_table.csv``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cpus = os.cpu_count() or 1
    rows = []
    for name, topology, value in measure(scale, out_dir):
        contract = CONTRACTS[name]
        rows.append(
            {
                "contract": name,
                "kind": contract.kind,
                "topology": topology,
                "scale": scale,
                "cpus": cpus,
                "value": f"{value:.6g}",
                "bound": contract.bound_text,
                "gated": contract.binds(topology, scale, cpus),
                "passed": contract.holds(value),
            }
        )
    with (out_dir / "run_table.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5, help="workload scale (default 0.5)")
    parser.add_argument(
        "--out", type=Path, required=True, help="directory for run_table.csv and matrix/"
    )
    args = parser.parse_args(argv)
    rows = run_table(args.scale, args.out)
    for row in rows:
        status = "PASS" if row["passed"] else ("FAIL" if row["gated"] else "miss")
        print(
            f"{status:4}  {row['contract']:28} {row['topology']:16} "
            f"{row['value']:>10} {row['bound']:>7}{'' if row['gated'] else '  (ungated)'}"
        )
    failed = [row for row in rows if row["gated"] and not row["passed"]]
    for row in failed:
        print(
            f"GATE FAILED: {row['contract']} on {row['topology']} at scale "
            f"{row['scale']:g}: {row['value']} is not {row['bound']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
