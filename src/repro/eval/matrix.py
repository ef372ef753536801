"""Scenario-matrix experiment harness (ROADMAP item 2).

A muBench-style declared-factors replication harness: a
:class:`MatrixSpec` declares factor levels — workload topology (the
registry in :mod:`repro.data.synthetic`), scale, allocator (the registry
in :mod:`repro.allocators`), τ₁/τ₂ update cadence and fault plan — and
:func:`run_matrix` expands the full cross product with seeded
repetitions, runs every cell through the tick-driven
:class:`~repro.chain.live.LiveShardedNetwork` (the same plumbing as
``experiments.live_compare``), and reports committed TPS, cross-shard
ratio, latency distribution, allocation updates/migrations and allocator
runtime per cell.

Artifacts follow the declared-factors run-table convention::

    out/
      spec.json                  # the spec that produced everything below
      runs/<cell_id>/result.json # one folder per run: flat metrics dict
      runs/<cell_id>/ticks.csv   #   ... plus the per-tick trace
      run_table.csv              # every cell, one row, fixed column order

Determinism contract: every column except the trailing runtime columns
(:data:`RUNTIME_COLUMNS`) is a pure function of the spec — re-running
the same spec produces a byte-identical ``run_table.csv`` modulo those
columns.  ``tests/test_matrix.py`` and ``benchmarks/contracts.py``
gate this.

Cell-level fan-out reuses the fork-pool idiom of
:mod:`repro.core.parallel`: ``workers > 1`` on a ``fork`` platform runs
cells in a process pool (results identical up to the runtime columns);
everywhere else the cells run sequentially.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import allocators
from repro.chain.faults import FaultPlan, parse_fault_name, resolve_fault_plan
from repro.chain.live import LiveShardedNetwork, TickStats
from repro.core.allocator import OnlineAllocator
from repro.core.parallel import effective_workers, fork_available
from repro.core.resilience import ResilientAllocator
from repro.data.synthetic import get_workload_entry
from repro.errors import ParameterError
from repro.eval.experiments import Workload, build_workload, live_setup
from repro.eval.reporting import format_table

#: Columns of ``run_table.csv``, in order.  The runtime columns come
#: last so determinism checks can compare whole-row prefixes.
RUN_TABLE_COLUMNS: Tuple[str, ...] = (
    "cell_id",
    "topology",
    "scale",
    "allocator",
    "tau1",
    "tau2",
    "fault",
    "rep",
    "seed",
    "k",
    "eta",
    "lam",
    "ticks",
    "arrived",
    "committed",
    "committed_tps",
    "cross_shard_ratio",
    "mean_latency",
    "p99_latency",
    "global_updates",
    "adaptive_updates",
    "migration_updates",
    "moves",
    "degraded_ticks",
    "failovers",
    "dropped_malformed",
    "allocator_seconds",
    "runtime_seconds",
)

#: Wall-clock measurements — inherently nondeterministic, excluded from
#: every byte-identity comparison.
RUNTIME_COLUMNS: Tuple[str, ...] = ("allocator_seconds", "runtime_seconds")


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MatrixSpec:
    """Declared factors of one experiment matrix.

    Every factor is a tuple of levels; the grid is the full cross
    product times ``reps`` seeded repetitions (repetition ``r`` uses
    workload seed ``base_seed + r``).  ``cadences`` holds ``(tau1,
    tau2)`` pairs where ``0`` means "derive from the live stream length"
    exactly as ``live_compare`` does.  ``faults`` names fault plans:
    ``"none"``, ``"standard"`` or ``"seeded:<int>"`` (see
    :func:`repro.chain.faults.parse_fault_name`).
    """

    topologies: Tuple[str, ...] = ("ethereum", "hotspot")
    scales: Tuple[float, ...] = (0.1,)
    allocators: Tuple[str, ...] = ("txallo", "hash")
    cadences: Tuple[Tuple[int, int], ...] = ((0, 0),)
    faults: Tuple[str, ...] = ("none",)
    reps: int = 2
    base_seed: int = 2022
    k: int = 4
    eta: float = 2.0
    seed_fraction: float = 0.4
    capacity_factor: float = 1.5

    def __post_init__(self) -> None:
        for field in ("topologies", "scales", "allocators", "cadences", "faults"):
            if not getattr(self, field):
                raise ParameterError(f"spec factor {field!r} must have at least one level")
        for topology in self.topologies:
            get_workload_entry(topology)  # raises with the available names
        for name in self.allocators:
            allocators.get_entry(name)
        for scale in self.scales:
            if scale <= 0:
                raise ParameterError(f"scales must be positive, got {scale!r}")
        for cadence in self.cadences:
            if len(cadence) != 2:
                raise ParameterError(f"cadences must be (tau1, tau2) pairs, got {cadence!r}")
            tau1, tau2 = cadence
            if tau1 < 0 or tau2 < 0:
                raise ParameterError(f"cadence periods must be >= 0 (0 = auto), got {cadence!r}")
            if tau1 > 0 and tau2 > 0 and tau1 > tau2:
                raise ParameterError(f"cadence tau1 must not exceed tau2, got {cadence!r}")
        for fault in self.faults:
            parse_fault_name(fault)
        if self.reps < 1:
            raise ParameterError(f"reps must be >= 1, got {self.reps!r}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k!r}")
        if not 0.0 < self.seed_fraction < 1.0:
            raise ParameterError(
                f"seed_fraction must be in (0, 1), got {self.seed_fraction!r}"
            )
        if self.capacity_factor <= 0:
            raise ParameterError(
                f"capacity_factor must be positive, got {self.capacity_factor!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "MatrixSpec":
        """Build a spec from a parsed JSON object (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(
                f"unknown spec keys {unknown}; known keys: {sorted(known)}"
            )
        kwargs = dict(data)
        for name in ("topologies", "allocators", "faults"):
            if name in kwargs:
                kwargs[name] = tuple(str(v) for v in kwargs[name])
        if "scales" in kwargs:
            kwargs["scales"] = tuple(float(v) for v in kwargs["scales"])
        if "cadences" in kwargs:
            try:
                kwargs["cadences"] = tuple(
                    (int(pair[0]), int(pair[1])) for pair in kwargs["cadences"]
                )
            except (TypeError, IndexError, ValueError):
                raise ParameterError(
                    f"cadences must be [tau1, tau2] pairs, got {kwargs['cadences']!r}"
                ) from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """A JSON-serialisable mirror of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        data["cadences"] = [list(pair) for pair in self.cadences]
        for name in ("topologies", "scales", "allocators", "faults"):
            data[name] = list(data[name])
        return data

    # ------------------------------------------------------------------
    def cells(self) -> List["MatrixCell"]:
        """The expanded grid: cross product × seeded repetitions."""
        out: List[MatrixCell] = []
        for topology, scale, allocator, cadence, fault in itertools.product(
            self.topologies,
            self.scales,
            self.allocators,
            self.cadences,
            self.faults,
        ):
            for rep in range(self.reps):
                out.append(
                    MatrixCell(
                        topology=topology,
                        scale=scale,
                        allocator=allocator,
                        tau1=cadence[0],
                        tau2=cadence[1],
                        fault=fault,
                        rep=rep,
                        seed=self.base_seed + rep,
                        k=self.k,
                        eta=self.eta,
                        seed_fraction=self.seed_fraction,
                        capacity_factor=self.capacity_factor,
                    )
                )
        return out


def load_spec(path) -> MatrixSpec:
    """Read a :class:`MatrixSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"spec file {path!s} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError(f"spec file {path!s} must hold a JSON object")
    return MatrixSpec.from_dict(data)


def smoke_spec() -> MatrixSpec:
    """The small spec behind the CLI default and ``benchmarks/contracts.py``.

    2 topologies × 2 allocators × 2 seeded repetitions at scale 0.1 —
    the smallest grid that still exercises the zoo, the registry and the
    determinism contract, and on which ``txallo`` must beat ``hash`` on
    committed TPS for the planted-community (ethereum) topology.
    """
    return MatrixSpec()


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """One fully-bound run: a point of the grid plus its repetition seed."""

    topology: str
    scale: float
    allocator: str
    tau1: int  # 0 = derive from the live stream (live_compare rule)
    tau2: int  # 0 = 10 x tau1
    fault: str
    rep: int
    seed: int
    k: int
    eta: float
    seed_fraction: float
    capacity_factor: float

    @property
    def cell_id(self) -> str:
        """Stable folder/row identifier (spec-level factors, not resolved)."""
        fault = self.fault.replace(":", "-")
        return (
            f"{self.topology}__s{self.scale:g}__{self.allocator}"
            f"__c{self.tau1}x{self.tau2}__f{fault}__r{self.rep}"
        )


@dataclasses.dataclass
class CellResult:
    """Everything one cell reports — one ``run_table.csv`` row + tick trace."""

    cell_id: str
    topology: str
    scale: float
    allocator: str
    tau1: int  # resolved (never 0)
    tau2: int  # resolved (never 0)
    fault: str
    rep: int
    seed: int
    k: int
    eta: float
    lam: float
    ticks: int
    arrived: int
    committed: int
    committed_tps: float
    cross_shard_ratio: float
    mean_latency: float
    p99_latency: int
    global_updates: int
    adaptive_updates: int
    migration_updates: int
    moves: int
    degraded_ticks: int
    failovers: int
    dropped_malformed: int
    allocator_seconds: float
    runtime_seconds: float
    #: Per-tick trace (written to ``ticks.csv``, not a table column).
    tick_stats: List[TickStats] = dataclasses.field(default_factory=list, repr=False)

    def row(self) -> Dict[str, object]:
        """This result as a run-table row (fixed column order)."""
        return {column: getattr(self, column) for column in RUN_TABLE_COLUMNS}

    def comparable_row(self) -> Dict[str, object]:
        """The row minus the runtime columns — the determinism contract."""
        return {
            column: getattr(self, column)
            for column in RUN_TABLE_COLUMNS
            if column not in RUNTIME_COLUMNS
        }


class _TimedAllocator(OnlineAllocator):
    """Transparent proxy accounting wall-clock spent inside the allocator.

    Also accumulates the ``moves`` counters of the update events it
    forwards (the run table's migration column).  The supervision
    properties are overridden explicitly: they are class-level defaults
    on :class:`OnlineAllocator`, so ``__getattr__`` alone would shadow
    the wrapped allocator's values.
    """

    def __init__(self, inner: OnlineAllocator) -> None:
        self.inner = inner
        self.params = inner.params
        self.seconds = 0.0
        self.moves = 0

    def observe_block(self, transactions):
        t0 = time.perf_counter()
        try:
            event = self.inner.observe_block(transactions)
        finally:
            self.seconds += time.perf_counter() - t0
        if event is not None:
            self.moves += getattr(event, "moves", 0) or 0
        return event

    def shard_of(self, account) -> int:
        return self.inner.shard_of(account)

    def mapping(self):
        return self.inner.mapping()

    @property
    def degraded(self):
        return self.inner.degraded

    @property
    def resilience_stats(self):
        return self.inner.resilience_stats

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


# Per-process workload memo: consecutive cells usually share (topology,
# scale, seed), and forked pool workers each keep their own copy.
_WORKLOAD_MEMO: Dict[Tuple[str, float, int], Workload] = {}
_WORKLOAD_MEMO_MAX = 8


def _memo_workload(topology: str, scale: float, seed: int) -> Workload:
    key = (topology, scale, seed)
    workload = _WORKLOAD_MEMO.get(key)
    if workload is None:
        if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
            _WORKLOAD_MEMO.clear()
        workload = build_workload(scale, seed=seed, topology=topology)
        _WORKLOAD_MEMO[key] = workload
    return workload


def run_cell(cell: MatrixCell) -> CellResult:
    """Execute one grid cell through the live sharded network.

    Starts from ``experiments.live_setup``, the derivations
    ``live_compare`` uses too (seed/live split, λ from the mean live
    block, τ cadence, ε), so matrix rows and the live-comparison report
    agree wherever they overlap, then layers the cell's factors on top:
    zoo topology, explicit cadence, fault plan.
    """
    t_start = time.perf_counter()
    workload = _memo_workload(cell.topology, cell.scale, cell.seed)
    setup = live_setup(
        workload,
        k=cell.k,
        eta=cell.eta,
        seed_fraction=cell.seed_fraction,
        capacity_factor=cell.capacity_factor,
        no_live_blocks=f"cell {cell.cell_id} has no live blocks",
        tau1=cell.tau1 or None,
        tau2=cell.tau2 or None,
    )
    params = setup.params
    live_blocks = setup.live_blocks

    plan: Optional[FaultPlan] = resolve_fault_plan(
        cell.fault, ticks=len(live_blocks), k=cell.k, tau2=params.tau2
    )
    allocator = allocators.get_online(
        cell.allocator, params, seed_transactions=setup.seed_sets, seed_graph=setup.seed_graph
    )
    if isinstance(allocator, ResilientAllocator):
        # Supervised method (e.g. txallo_resilient): time *inside* the
        # supervisor, which keeps it outermost for fault handling.
        timer = _TimedAllocator(allocator.inner)
        allocator.inner = timer
    else:
        timer = _TimedAllocator(allocator)
        allocator = timer
        if plan is not None:
            allocator = ResilientAllocator(allocator)

    net = LiveShardedNetwork(params, allocator, fault_plan=plan)
    report = net.run(live_blocks, drain=True)

    kinds = [t.allocation_update for t in report.ticks if t.allocation_update]
    return CellResult(
        cell_id=cell.cell_id,
        topology=cell.topology,
        scale=cell.scale,
        allocator=cell.allocator,
        tau1=params.tau1,
        tau2=params.tau2,
        fault=cell.fault,
        rep=cell.rep,
        seed=cell.seed,
        k=cell.k,
        eta=cell.eta,
        lam=params.lam,
        ticks=len(report.ticks),
        arrived=report.arrived,
        committed=report.committed,
        committed_tps=report.committed_per_tick,
        cross_shard_ratio=report.cross_shard_ratio,
        mean_latency=report.mean_latency,
        p99_latency=report.p99_latency,
        global_updates=kinds.count("global"),
        adaptive_updates=kinds.count("adaptive"),
        migration_updates=kinds.count("migration"),
        moves=timer.moves,
        degraded_ticks=report.degraded_ticks,
        failovers=report.failovers,
        dropped_malformed=report.dropped_malformed,
        allocator_seconds=timer.seconds,
        runtime_seconds=time.perf_counter() - t_start,
        tick_stats=list(report.ticks),
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
@dataclasses.dataclass
class MatrixResult:
    """All cell results of one expanded spec, in grid order."""

    spec: MatrixSpec
    results: List[CellResult]
    out_dir: Optional[str] = None

    def rows(self) -> List[Dict[str, object]]:
        return [res.row() for res in self.results]

    def comparable_rows(self) -> List[Dict[str, object]]:
        """Rows minus runtime columns — equal across re-runs and workers."""
        return [res.comparable_row() for res in self.results]

    def select(self, **factors) -> List[CellResult]:
        """Cell results whose factor columns equal every given value."""
        out = []
        for res in self.results:
            if all(getattr(res, name) == value for name, value in factors.items()):
                out.append(res)
        return out

    def render(self) -> str:
        title = (
            f"== Scenario matrix: {len(self.results)} cells "
            f"({len(self.spec.topologies)} topologies x "
            f"{len(self.spec.allocators)} allocators x "
            f"{len(self.spec.scales)} scales x "
            f"{len(self.spec.cadences)} cadences x "
            f"{len(self.spec.faults)} fault plans x "
            f"{self.spec.reps} reps) =="
        )
        headers = [
            "cell",
            "committed TPS",
            "cross-shard",
            "mean latency",
            "p99",
            "moves",
            "alloc s",
        ]
        rows = [
            (
                res.cell_id,
                res.committed_tps,
                res.cross_shard_ratio,
                res.mean_latency,
                res.p99_latency,
                res.moves,
                res.allocator_seconds,
            )
            for res in self.results
        ]
        body = format_table(headers, rows)
        lines = [title, "", body]
        if self.out_dir is not None:
            lines += ["", f"artifacts: {self.out_dir}/run_table.csv"]
        return "\n".join(lines)


def run_matrix(
    spec: MatrixSpec,
    out_dir: Optional[str] = None,
    workers: int = 1,
) -> MatrixResult:
    """Expand ``spec`` and execute every cell; optionally write artifacts.

    ``workers > 1`` fans cells out to a fork-based process pool (the
    :mod:`repro.core.parallel` idiom); rows come back in grid order and
    match a sequential run on every non-runtime column.  Platforms
    without ``fork`` fall back to the sequential path.
    """
    cells = spec.cells()
    workers = effective_workers(workers, len(cells))
    if workers > 1 and fork_available():
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]
    result = MatrixResult(spec=spec, results=results, out_dir=out_dir)
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def _format_cell_value(value: object) -> str:
    # repr() for floats so re-runs are byte-identical (no locale, no
    # precision surprises); everything else is already canonical.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_artifacts(result: MatrixResult, out_dir) -> Path:
    """Write the declared-factors artifact tree; returns the out dir."""
    out = Path(out_dir)
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    spec_json = json.dumps(result.spec.to_dict(), indent=2, sort_keys=True)
    (out / "spec.json").write_text(spec_json + "\n", encoding="utf-8")

    for res in result.results:
        run_dir = runs / res.cell_id
        run_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(res.row(), indent=2, sort_keys=True)
        (run_dir / "result.json").write_text(payload + "\n", encoding="utf-8")
        with open(run_dir / "ticks.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "tick",
                    "arrived",
                    "committed",
                    "cross_shard_arrived",
                    "backlog_workload",
                    "allocation_update",
                    "degraded",
                    "stalled_shards",
                    "dropped_malformed",
                ]
            )
            for t in res.tick_stats:
                writer.writerow(
                    [
                        t.tick,
                        t.arrived,
                        t.committed,
                        t.cross_shard_arrived,
                        _format_cell_value(t.backlog_workload),
                        t.allocation_update or "",
                        int(t.degraded),
                        t.stalled_shards,
                        t.dropped_malformed,
                    ]
                )

    with open(out / "run_table.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RUN_TABLE_COLUMNS)
        for res in result.results:
            row = res.row()
            writer.writerow([_format_cell_value(row[c]) for c in RUN_TABLE_COLUMNS])
    return out


__all__ = [
    "RUN_TABLE_COLUMNS",
    "RUNTIME_COLUMNS",
    "CellResult",
    "MatrixCell",
    "MatrixResult",
    "MatrixSpec",
    "load_spec",
    "run_cell",
    "run_matrix",
    "smoke_spec",
    "write_artifacts",
]
