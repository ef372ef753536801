#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the TxAllo reproduction.

One command runs one named workload, checks the program's outputs and
prints every end-to-end metric by name and unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``)::

    python3 perfbench/run.py --workload live_txallo --seed 1 --seconds 20 --trace 0

``--trace 1`` makes a separate traced run instead: one untraced pass,
then the same inputs again with every layer wrapped by
:mod:`tracing` (spans written to ``perfbench/out/``), and the
JSON carries the per-layer metrics.  ``--second-seed N`` prints a second
seed's end-to-end figures next to the first.  ``--ladder`` is the
ungated scale ladder: ``live_txallo`` at three scales, with ``tx_per_s``
and each layer's share of the traced time.

The program runs from ``src/`` next to this directory, single-threaded
(``workers=1``, the default ``fast`` backend, BLAS pinned to one
thread), and is driven only through ``experiments.build_workload``,
``experiments.live_compare``, ``experiments.sweep`` and the allocator
registry.  See ``perfbench/README.md`` for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Live runs: k shards, adaptive period tau1 (tau2 = 10 tau1).  tau1 is
#: fixed rather than derived from the stream length, so the number of
#: updates does not depend on the code under test.  At scale 0.25 the
#: live phase is 60 blocks: 27 adaptive and 3 global updates, and the
#: frontier between refreshes is small enough for delta-freezes (with
#: tau1 = 4 every freeze of so small an account pool is a full rebuild).
LIVE_K = 8
TAU1 = 2
#: The offline grid: the paper's Fig. 2/5/7/8 setting at one eta.
GRID_KS = (8, 20, 60)
GRID_ETAS = (2.0,)
GRID_METHODS = ("txallo", "hash", "metis")
#: Instance seeds are seed, seed + SEED_STRIDE, ...: instance 0 is the
#: given seed itself, and small consecutive seeds share no instance.
SEED_STRIDE = 7919
LADDER_SCALES = (0.5, 1.0, 2.0)
#: Seconds the reference loop takes on the reference host (a 2-core VM
#: when quiet).  setup_s and tx_per_s are reported at that host speed;
#: see host_loop_s.
REFERENCE_LOOP_S = 0.013


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: which call, at which scale, over how many instances.

    Quality metrics are deterministic per instance but differ between
    seeds; a run pools ``instances`` generated workloads so its figures
    move little from one ``--seed`` to the next.
    """

    kind: str  # "live" | "offline"
    scale: float
    instances: int
    method: str = ""


WORKLOADS: Dict[str, WorkloadSpec] = {
    "live_txallo": WorkloadSpec("live", 0.25, 28, "txallo"),
    "live_hash": WorkloadSpec("live", 0.25, 28, "hash"),
    "offline_grid": WorkloadSpec("offline", 0.5, 10),
}
#: A traced run covers at most this many instances, twice (untraced, then
#: traced), so it stays well inside the time a run may take.
TRACE_INSTANCES = 8

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "tx_per_s": "tx/s",
    "throughput_x": "x",
    "cross_shard_ratio": "ratio",
    "mean_latency_blocks": "blocks",
    "tail_latency_blocks": "blocks",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics from the traced run: name -> unit.
PER_LAYER = {
    "data.build_s": "s",
    "data.self_s": "s",
    "graph.ingest_calls": "count",
    "graph.ingest_s": "s",
    "graph.freeze_calls": "count",
    "graph.freeze_s": "s",
    "graph.freeze_full": "count",
    "graph.freeze_delta": "count",
    "graph.freeze_cached": "count",
    "graph.self_s": "s",
    "controller.observe_s": "s",
    "controller.ingest_s": "s",
    "controller.workspace_rebuilds": "count",
    "controller.workspace_extends": "count",
    "controller.self_s": "s",
    "gtxallo.calls": "count",
    "gtxallo.idle_calls": "count",
    "gtxallo.refresh_p50_s": "s",
    "gtxallo.init_s": "s",
    "gtxallo.optimise_s": "s",
    "gtxallo.sweeps": "count",
    "gtxallo.moves": "count",
    "gtxallo.self_s": "s",
    "atxallo.calls": "count",
    "atxallo.empty_calls": "count",
    "atxallo.update_p50_s": "s",
    "atxallo.update_tail_s": "s",
    "atxallo.swept_nodes": "count",
    "atxallo.moves": "count",
    "atxallo.unconverged": "count",
    "atxallo.self_s": "s",
    "route.shard_of_calls": "count",
    "route.shard_of_s": "s",
    "route.fallback_ratio": "ratio",
    "shard.enqueue_calls": "count",
    "shard.step_s": "s",
    "shard.backlog_calls": "count",
    "shard.backlog_s": "s",
    "shard.peak_queue_len": "count",
    "shard.bottleneck_ratio": "ratio",
    "shard.self_s": "s",
    "live.ticks": "count",
    "live.drain_ticks": "count",
    "live.tick_self_s": "s",
    "eval.self_s": "s",
    "metrics.evaluate_s": "s",
    "metis.allocate_s": "s",
    "hash.allocate_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


class ProgramMissing(Exception):
    """The program's sources are not next to the benchmark."""


def host_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The loop does dictionary, string and sorting work like the program's
    but runs none of its code, so a change to the program cannot move it.
    On a shared host the same work can take twice as long from one minute
    to the next; timing this loop right before and after each build and
    each measured call lets setup_s and tx_per_s be rescaled to the
    reference speed.
    """
    t0 = time.perf_counter()
    keys = [f"0x{i * 7919 % 10007:05x}" for i in range(2000)]
    counts: Dict[str, float] = {}
    for _ in range(60):
        for key in keys:
            counts[key] = counts.get(key, 0.0) + 1.0
        sorted(counts, key=counts.__getitem__)
    return time.perf_counter() - t0


def load_program():
    """Import ``repro`` from ``src/`` beside this directory, BLAS pinned first."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.parallel import pin_blas_threads

    pin_blas_threads(1)
    import repro
    from repro.eval import experiments

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ProgramMissing(f"repro resolved outside {SRC}: {repro.__file__}")
    return experiments


# ----------------------------------------------------------------------
# One instance: build, run, check
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    """What one instance produced: timings, deterministic quality, checks."""

    seed: int
    build_s: float
    call_s: float
    handled: int
    quality: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    #: Offline only: the TxAllo cells' summed allocation time (Fig. 8).
    alloc_s: float = 0.0
    #: Mean of host_loop_s() right before and right after the build...
    build_loop_s: float = REFERENCE_LOOP_S
    #: ... and the call.
    host_loop_s: float = REFERENCE_LOOP_S

    @property
    def setup_s(self) -> float:
        """Build time at the reference host speed."""
        return self.build_s * REFERENCE_LOOP_S / self.build_loop_s


def run_live(experiments, workload, method: str) -> Outcome:
    """One ``live_compare`` call with its output checks."""
    _, live_stream = workload.blocks.split(0.4)
    submitted = live_stream.num_transactions
    t0 = time.perf_counter()
    comparison = experiments.live_compare(
        workload, k=LIVE_K, methods=(method,), tau1=TAU1, tau2=10 * TAU1
    )
    call_s = time.perf_counter() - t0
    report = comparison.reports[method]
    ticks = report.ticks
    cross = sum(t.cross_shard_arrived for t in ticks)
    problems = []
    if report.committed != report.arrived:
        problems.append(f"did not drain: committed {report.committed} of {report.arrived}")
    if report.arrived != submitted:
        problems.append(f"arrived {report.arrived} of {submitted} submitted")
    if sum(t.arrived for t in ticks) != report.arrived:
        problems.append("per-tick arrivals do not sum to the report's total")
    if sum(t.committed for t in ticks) != report.committed:
        problems.append("per-tick commits do not sum to the report's total")
    if not 0.0 <= report.cross_shard_ratio <= 1.0:
        problems.append(f"cross-shard ratio {report.cross_shard_ratio} outside [0, 1]")
    quality = {
        "arrived": report.arrived,
        "committed": report.committed,
        "ticks": len(ticks),
        "cross": cross,
        "lam": comparison.lam,
        "committed_per_tick": report.committed_per_tick,
        "cross_shard_ratio": report.cross_shard_ratio,
        "mean_latency": report.mean_latency,
        "p99_latency": report.p99_latency,
        "updates": sum(1 for t in ticks if t.allocation_update),
    }
    return Outcome(
        seed=workload.config.seed,
        build_s=0.0,
        call_s=call_s,
        handled=report.arrived,
        quality=quality,
        attempted=submitted,
        failed=max(0, submitted - report.committed),
        problems=problems,
    )


def run_offline(experiments, workload) -> Outcome:
    """One ``sweep`` over the grid with its output checks."""
    t0 = time.perf_counter()
    records = experiments.sweep(
        workload, ks=GRID_KS, etas=GRID_ETAS, methods=GRID_METHODS, workers=1
    )
    call_s = time.perf_counter() - t0
    cells: Dict[Tuple[str, int], object] = {}
    problems = []
    bad = set()
    for rec in records:
        key = (rec.method, rec.k)
        if key in cells:
            problems.append(f"duplicate cell {key}")
            bad.add(key)
        cells[key] = rec
        if not 0.0 <= rec.cross_shard_ratio <= 1.0:
            problems.append(f"cell {key} cross-shard ratio {rec.cross_shard_ratio}")
            bad.add(key)
    expected = [(m, k) for m in GRID_METHODS for k in GRID_KS]
    for key in expected:
        if key not in cells:
            problems.append(f"missing cell {key}")
            bad.add(key)
    for k in GRID_KS:
        ours, floor = cells.get(("txallo", k)), cells.get(("hash", k))
        if ours is not None and floor is not None and not (
            ours.cross_shard_ratio < floor.cross_shard_ratio
        ):
            problems.append(
                f"k={k}: txallo cross-shard {ours.cross_shard_ratio} not below "
                f"hash {floor.cross_shard_ratio}"
            )
            bad.add(("txallo", k))
    quality: Dict[str, float] = {}
    for (method, k), rec in sorted(cells.items()):
        prefix = f"{method}.k{k}."
        quality[prefix + "cross_shard_ratio"] = rec.cross_shard_ratio
        quality[prefix + "workload_balance"] = rec.workload_balance
        quality[prefix + "throughput_x"] = rec.throughput_x
        quality[prefix + "avg_latency"] = rec.avg_latency
        quality[prefix + "worst_latency"] = rec.worst_latency
    return Outcome(
        seed=workload.config.seed,
        build_s=0.0,
        call_s=call_s,
        handled=workload.num_transactions,
        quality=quality,
        attempted=len(expected),
        failed=len(bad),
        problems=problems,
        alloc_s=sum(r.runtime_seconds for r in records if r.method == "txallo"),
    )


def run_instance(experiments, spec: WorkloadSpec, scale: float, seed: int, tracer=None) -> Outcome:
    """Build one instance's workload (the set-up), then run and check it.

    The host-speed loop runs before the build, between build and call,
    and after the call.
    """
    build = experiments.build_workload
    if tracer is not None:
        build = tracer.spanned("build_workload", "data", build)
        main_call = "live_compare" if spec.kind == "live" else "sweep"
        experiments = _Spanned(experiments, tracer, main_call)
    loops = [host_loop_s()]
    t0 = time.perf_counter()
    workload = build(scale=scale, seed=seed)
    build_s = time.perf_counter() - t0
    loops.append(host_loop_s())
    if spec.kind == "live":
        outcome = run_live(experiments, workload, spec.method)
    else:
        outcome = run_offline(experiments, workload)
    loops.append(host_loop_s())
    return dataclasses.replace(
        outcome,
        build_s=build_s,
        build_loop_s=(loops[0] + loops[1]) / 2,
        host_loop_s=(loops[1] + loops[2]) / 2,
    )


class _Spanned:
    """``experiments`` seen through a tracer: the main call gets a span."""

    def __init__(self, experiments, tracer, name: str) -> None:
        self.live_compare = tracer.spanned(name, "eval", experiments.live_compare)
        self.sweep = tracer.spanned(name, "eval", experiments.sweep)


def run_pass(experiments, spec, scale, seeds, tracer=None) -> Tuple[List[Outcome], float]:
    """Every instance once; returns the outcomes and the summed build+call wall time."""
    outcomes = []
    wall = 0.0
    for seed in seeds:
        outcome = run_instance(experiments, spec, scale, seed, tracer)
        if tracer is not None:
            tracing.harvest_controllers(tracer)
        outcomes.append(outcome)
        wall += outcome.build_s + outcome.call_s
        gc.collect()
    return outcomes, wall


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def throughput(outcomes: List[Outcome]) -> float:
    """Transactions per second of the main calls, at the reference host speed."""
    scaled = sum(o.call_s * REFERENCE_LOOP_S / o.host_loop_s for o in outcomes)
    return sum(o.handled for o in outcomes) / scaled


def wall_throughput(outcomes: List[Outcome]) -> float:
    """Transactions per wall-clock second of the main calls, unscaled."""
    return sum(o.handled for o in outcomes) / sum(o.call_s for o in outcomes)


def quality_metrics(spec: WorkloadSpec, outcomes: List[Outcome]) -> Dict[str, float]:
    """The deterministic end-to-end metrics, pooled over the instances."""
    qs = [o.quality for o in outcomes]
    if spec.kind == "live":
        committed = sum(q["committed"] for q in qs)
        return {
            "throughput_x": _mean(q["committed_per_tick"] / q["lam"] for q in qs),
            "cross_shard_ratio": sum(q["cross"] for q in qs) / sum(q["arrived"] for q in qs),
            "mean_latency_blocks": sum(q["mean_latency"] * q["committed"] for q in qs)
            / committed,
            "tail_latency_blocks": _mean(q["p99_latency"] for q in qs),
        }

    def txallo(field):
        return _mean(q[f"txallo.k{k}.{field}"] for q in qs for k in GRID_KS)

    return {
        "throughput_x": txallo("throughput_x"),
        "cross_shard_ratio": txallo("cross_shard_ratio"),
        "mean_latency_blocks": txallo("avg_latency"),
        "tail_latency_blocks": txallo("worst_latency"),
    }


def report_extras(spec: WorkloadSpec, outcomes: List[Outcome]) -> List[Tuple[str, float, str]]:
    """Figures printed beside the gated metrics (not in the JSON)."""
    qs = [o.quality for o in outcomes]
    host_speed = REFERENCE_LOOP_S / statistics.median(o.host_loop_s for o in outcomes)
    rows = [
        ("setup_wall_s", statistics.median(o.build_s for o in outcomes), "s"),
        ("tx_per_wall_s", wall_throughput(outcomes), "tx/s"),
        ("host_speed", host_speed, "x"),
    ]
    if spec.kind == "live":
        ticks = sum(q["ticks"] for q in qs)
        return rows + [
            ("committed_tps", sum(q["committed"] for q in qs) / ticks, "tx/tick"),
            ("p99_latency_blocks", _mean(q["p99_latency"] for q in qs), "blocks"),
            ("live_s", _mean(o.call_s for o in outcomes), "s"),
            ("ticks", ticks / len(qs), "ticks"),
            ("alloc_updates", _mean(q["updates"] for q in qs), "count"),
        ]
    rows += [
        ("grid_s", _mean(o.call_s for o in outcomes), "s"),
        ("alloc_s", _mean(o.alloc_s for o in outcomes), "s"),
        (
            "worst_latency_blocks",
            _mean(q[f"txallo.k{k}.worst_latency"] for q in qs for k in GRID_KS),
            "blocks",
        ),
    ]
    for method in GRID_METHODS:
        for k in GRID_KS:
            rows.append(
                (
                    f"{method}.k{k}.cross_shard_ratio",
                    _mean(q[f"{method}.k{k}.cross_shard_ratio"] for q in qs),
                    "ratio",
                )
            )
    return rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compare_determinism(first: List[Outcome], again: List[Outcome]) -> List[str]:
    problems = []
    for a, b in zip(first, again):
        if a.quality != b.quality:
            changed = sorted(k for k in a.quality if a.quality[k] != b.quality.get(k))
            problems.append(f"seed {a.seed}: deterministic metrics changed on rerun: {changed}")
    return problems


# ----------------------------------------------------------------------
# Layer metrics from a traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    s = tracer.stats
    self_s = tracer.self_s
    calls = s["route.shard_of_calls"]
    g_samples = tracer.samples["g_txallo"]
    a_samples = tracer.samples["a_txallo"]
    values = {
        "data.build_s": sum(tracer.samples["build_workload"]),
        "data.self_s": self_s["data"],
        "graph.ingest_calls": s["graph.ingest_calls"],
        "graph.ingest_s": s["graph.ingest_s"],
        "graph.freeze_calls": s["graph.freeze_calls"],
        "graph.freeze_s": s["graph.freeze_s"],
        "graph.freeze_full": s["graph.freeze_full"],
        "graph.freeze_delta": s["graph.freeze_delta"],
        "graph.freeze_cached": s["graph.freeze_cached"],
        "graph.self_s": self_s["graph"],
        "controller.observe_s": s["controller.observe_s"],
        "controller.ingest_s": s["controller.observe_s"] - s["controller.update_s"],
        "controller.workspace_rebuilds": s["controller.workspace_rebuilds"],
        "controller.workspace_extends": s["controller.workspace_extends"],
        "controller.self_s": self_s["controller"],
        "gtxallo.calls": s["gtxallo.calls"],
        "gtxallo.idle_calls": s["gtxallo.idle_calls"],
        "gtxallo.refresh_p50_s": tracing.percentile(g_samples, 50.0),
        "gtxallo.init_s": s["gtxallo.init_s"],
        "gtxallo.optimise_s": s["gtxallo.optimise_s"],
        "gtxallo.sweeps": s["gtxallo.sweeps"],
        "gtxallo.moves": s["gtxallo.moves"],
        "gtxallo.self_s": self_s["gtxallo"],
        "atxallo.calls": s["atxallo.calls"],
        "atxallo.empty_calls": s["atxallo.empty_calls"],
        "atxallo.update_p50_s": tracing.percentile(a_samples, 50.0),
        "atxallo.update_tail_s": tracing.tail(a_samples)[1],
        "atxallo.swept_nodes": s["atxallo.swept_nodes"],
        "atxallo.moves": s["atxallo.moves"],
        "atxallo.unconverged": s["atxallo.unconverged"],
        "atxallo.self_s": self_s["atxallo"],
        "route.shard_of_calls": calls,
        "route.shard_of_s": s["route.shard_of_s"],
        "route.fallback_ratio": s["route.fallbacks"] / calls if calls else 0.0,
        "shard.enqueue_calls": s["shard.enqueue_calls"],
        "shard.step_s": s["shard.step_s"],
        "shard.backlog_calls": s["shard.backlog_calls"],
        "shard.backlog_s": s["shard.backlog_s"],
        "shard.peak_queue_len": s["shard.peak_queue_len"],
        "shard.bottleneck_ratio": tracer.peak_bottleneck,
        "shard.self_s": self_s["shard"],
        "live.ticks": s["live.ticks"],
        "live.drain_ticks": s["live.drain_ticks"],
        "live.tick_self_s": self_s["live"],
        "eval.self_s": self_s["eval"],
        "metrics.evaluate_s": sum(tracer.samples["evaluate_allocation"]),
        "metis.allocate_s": sum(tracer.samples["metis_partition"]),
        "hash.allocate_s": sum(tracer.samples["hash_partition"]),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.accounted_ratio": sum(self_s[layer] for layer in tracing.LAYERS) / traced_wall,
    }
    return {
        name: int(value) if PER_LAYER[name] == "count" else value
        for name, value in values.items()
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: Optional[float] = None,
    instances: Optional[int] = None,
    experiments=None,
) -> Tuple[Dict, List[str]]:
    """Run one workload; returns the result object and the report lines.

    ``scale`` and ``instances`` override the workload's own (the smoke
    test runs every workload tiny); the gated figures use the defaults.
    """
    spec = WORKLOADS[name]
    scale = spec.scale if scale is None else scale
    count = spec.instances if instances is None else instances
    if trace:
        count = min(count, TRACE_INSTANCES)
    seeds = [seed + SEED_STRIDE * i for i in range(count)]
    experiments = experiments or load_program()
    lines = [
        f"workload {name}: seed {seed}, scale {scale:g}, {len(seeds)} instances "
        f"(seeds {seeds[0]}, {seeds[0]} + {SEED_STRIDE}i), trace {int(trace)}"
    ]

    started = time.perf_counter()
    first, wall = run_pass(experiments, spec, scale, seeds)
    passes = [first]
    if trace:
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced, traced_wall = run_pass(experiments, spec, scale, seeds, tracer)
        passes.append(traced)
        metrics_values = layer_metrics(tracer, traced_wall, wall)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-{seed}.jsonl"
        tracer.write(trace_path)
        lines.append(f"{len(tracer.spans)} spans written to {trace_path}")
        lines.extend(self_time_lines(tracer, traced_wall))
    else:
        last = time.perf_counter() - started
        while time.perf_counter() - started + last <= seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(experiments, spec, scale, seeds)[0])
            last = time.perf_counter() - t0
        if len(passes) == 1:
            # Determinism is checked on a rerun even when one pass fills the time.
            passes.append(run_pass(experiments, spec, scale, seeds[:1])[0])
        timed = [p for p in passes if len(p) == len(seeds)]
        metrics_values = {
            "setup_s": statistics.median(o.setup_s for p in passes for o in p),
            "tx_per_s": statistics.median(throughput(p) for p in timed),
            **quality_metrics(spec, first),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        lines.append(
            f"{len(timed)} timed pass(es) in {time.perf_counter() - started:.1f} s; "
            f"setup_s is the median of {sum(len(p) for p in passes)} builds"
        )

    problems = [f"seed {o.seed}: {p}" for o in first for p in o.problems]
    for again in passes[1:]:
        problems.extend(compare_determinism(first, again))
    attempted = sum(o.attempted for p in passes for o in p)
    failed = sum(o.failed for p in passes for o in p)

    lines.append(f"{'metric':<32} {'value':>14}  unit")
    for metric, unit in units.items():
        lines.append(f"{metric:<32} {metrics_values[metric]:>14.6g}  {unit}")
    if not trace:
        for metric, value, unit in report_extras(spec, first):
            lines.append(f"{metric:<32} {value:>14.6g}  {unit}")
    lines.append(f"{'failed_ratio':<32} {failed / attempted:>14.6g}  ratio")
    lines.extend(f"CHECK FAILED: {p}" for p in problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics_values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    return result, lines


def self_time_lines(tracer, traced_wall: float) -> List[str]:
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}   (traced wall {traced_wall:.3f} s)"]
    for layer in tracing.LAYERS:
        share = tracer.self_s[layer] / traced_wall
        lines.append(f"{layer:<12} {tracer.self_s[layer]:>10.4f} {share:>7.1%}")
    return lines


def run_ladder(seed: int, experiments) -> List[str]:
    """live_txallo at each ladder scale: tx_per_s and layer self-time shares."""
    spec = WORKLOADS["live_txallo"]
    header = f"{'scale':>6} {'tx':>7} {'tx_per_s':>9} " + " ".join(
        f"{layer:>10}" for layer in tracing.LAYERS
    )
    lines = [f"live_txallo scale ladder, seed {seed}, one instance per scale (ungated)", header]
    for scale in LADDER_SCALES:
        plain = run_instance(experiments, spec, scale, seed)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced = run_instance(experiments, spec, scale, seed, tracer)
        gc.collect()
        wall = traced.build_s + traced.call_s
        shares = " ".join(f"{tracer.self_s[layer] / wall:>10.1%}" for layer in tracing.LAYERS)
        lines.append(
            f"{scale:>6g} {plain.handled:>7} {plain.handled / plain.call_s:>9.0f} {shares}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", type=int, default=None)
    parser.add_argument("--ladder", action="store_true")
    args = parser.parse_args(argv)
    if not args.ladder and args.workload is None:
        parser.error("--workload is required unless --ladder is given")

    try:
        experiments = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.ladder:
        print("\n".join(run_ladder(args.seed, experiments)), flush=True)
        return 0

    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), experiments=experiments
    )
    if args.second_seed is not None:
        second, second_lines = run_workload(
            args.workload, args.second_seed, args.seconds, bool(args.trace),
            experiments=experiments,
        )
        lines.extend(line for line in second_lines if line.startswith("CHECK FAILED"))
        lines.append(f"{'metric':<32} {args.seed:>14} {args.second_seed:>14}")
        for metric, entry in result["metrics"].items():
            other = second["metrics"][metric]["value"]
            lines.append(f"{metric:<32} {entry['value']:>14.6g} {other:>14.6g}")
        result["correct"] = result["correct"] and second["correct"]
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
