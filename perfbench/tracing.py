"""In-memory tracer that times each layer of the program from outside.

Nothing under ``src/`` knows about it: :func:`instrumented` swaps the
public callables of each layer for timing wrappers and puts the
originals back on exit.  Two kinds of record are kept:

* **Spans** (name, layer, start, end, parent) around the coarse calls:
  ``tick``, ``observe_block``, ``g_txallo``, ``a_txallo``, ``freeze``,
  each sweep cell, the allocators' partition calls and the harness's own
  ``build_workload`` / ``live_compare`` / ``sweep`` calls.
* **Counters** (calls and summed seconds, no span) around the calls made
  once per transaction or per shard and tick: ``add_transaction``,
  ``shard_of``, ``enqueue``, ``step`` and ``backlog_workload``.

A layer's self time is the time its spans and counters cover minus the
part covered by nested spans and counters, so the self times of all
layers add up to the traced wall time.  Layers are named after the
``repro`` modules they time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Layers in pipeline order; every span and counter belongs to one.
LAYERS = (
    "data",
    "graph",
    "controller",
    "gtxallo",
    "atxallo",
    "route",
    "shard",
    "live",
    "eval",
    "metrics",
    "metis",
    "hash",
)

#: Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def tail(values: List[float]) -> Tuple[float, float]:
    """``(p, value)`` for the highest percentile with >= 10 samples beyond it.

    Falls back to the median when there are too few samples for even
    that, so the figure is always defined.
    """
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


class Tracer:
    """Spans, counters and per-layer self time for one traced pass."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (name, layer, start, end, parent id or -1, id), in end order.
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        #: Open spans: [id, name, layer, start, seconds covered by children].
        self._stack: List[list] = []
        self._next_index = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Named counts and summed seconds (``graph.ingest_calls``, ...).
        self.stats: Dict[str, float] = defaultdict(float)
        #: Named duration samples, for medians and tails.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Per-shard backlog values seen during the open tick.
        self.tick_backlogs: List[float] = []
        self.peak_backlog = -1.0
        self.peak_bottleneck = 0.0
        #: Controllers seen in the open ``live_compare`` call.
        self.controllers: Dict[int, object] = {}
        #: Graph id -> transaction count at that graph's last update.
        self.last_update_txs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def begin(self, name: str, layer: str) -> list:
        frame = [self._next_index, name, layer, time.perf_counter(), 0.0]
        self._next_index += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        index, name, layer, start, child = frame
        duration = end - start
        self.self_s[layer] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        parent_id = parent[0] if parent is not None else -1
        self.spans.append((name, layer, start - self.origin, end - self.origin, parent_id, index))
        return duration

    def parent_name(self) -> str:
        """Name of the innermost open span ('' when none)."""
        return self._stack[-1][1] if self._stack else ""

    def count(self, layer: str, key: str, duration: float) -> None:
        """Charge one counted call of ``duration`` seconds to ``layer``."""
        stats = self.stats
        stats[key + "_calls"] += 1
        stats[key + "_s"] += duration
        self.self_s[layer] += duration
        if self._stack:
            self._stack[-1][4] += duration

    # ------------------------------------------------------------------
    def spanned(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span; the span's duration is sampled under ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.samples[name].append(tracer.end(frame))

        return wrapper

    def counted(self, layer: str, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a counter (calls and summed seconds)."""
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count(layer, key, clock() - t0)

        return wrapper

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line: name, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for name, layer, start, end, parent, index in sorted(
                self.spans, key=lambda s: s[5]
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap each layer's public callables for tracing wrappers, then restore."""
    from repro import allocators
    from repro.chain import live
    from repro.chain.shard import ShardState
    from repro.core import allocator as core_allocator
    from repro.core import controller as core_controller
    from repro.core.graph import TransactionGraph
    from repro.eval import experiments

    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        stats = tracer.stats

        # graph: per-transaction ingest, and freezes split full/delta/cached.
        patch(
            TransactionGraph,
            "add_transaction",
            tracer.counted("graph", "graph.ingest", TransactionGraph.add_transaction),
        )
        original_freeze = TransactionGraph.freeze

        def freeze(graph):
            before = graph.freeze_stats
            frame = tracer.begin("freeze", "graph")
            try:
                return original_freeze(graph)
            finally:
                stats["graph.freeze_s"] += tracer.end(frame)
                stats["graph.freeze_calls"] += 1
                after = graph.freeze_stats
                for kind in ("full", "delta", "cached"):
                    stats["graph.freeze_" + kind] += after[kind] - before[kind]

        patch(TransactionGraph, "freeze", freeze)

        # controller: observe_block, its update share, workspace counters.
        original_observe = core_controller.TxAlloController.observe_block

        def observe_block(controller, transactions):
            tracer.controllers[id(controller)] = controller
            frame = tracer.begin("observe_block", "controller")
            try:
                return original_observe(controller, transactions)
            finally:
                stats["controller.observe_s"] += tracer.end(frame)

        patch(core_controller.TxAlloController, "observe_block", observe_block)

        def note_update(graph, duration: float) -> bool:
            """Charge an update to its observe_block; True when it saw no new tx."""
            if tracer.parent_name() == "observe_block":
                stats["controller.update_s"] += duration
            key = id(graph)
            idle = tracer.last_update_txs.get(key) == graph.num_transactions
            tracer.last_update_txs[key] = graph.num_transactions
            return idle

        # gtxallo: the function as bound in the controller and the registry.
        def g_txallo_wrapper(original, from_controller: bool):
            def g_txallo(graph, params, **kwargs):
                frame = tracer.begin("g_txallo", "gtxallo")
                try:
                    result = original(graph, params, **kwargs)
                finally:
                    duration = tracer.end(frame)
                    tracer.samples["g_txallo"].append(duration)
                stats["gtxallo.calls"] += 1
                stats["gtxallo.init_s"] += result.init_seconds
                stats["gtxallo.optimise_s"] += result.optimise_seconds
                stats["gtxallo.sweeps"] += result.sweeps
                stats["gtxallo.moves"] += result.moves
                if from_controller and note_update(graph, duration):
                    stats["gtxallo.idle_calls"] += 1
                return result

            return g_txallo

        patch(core_controller, "g_txallo", g_txallo_wrapper(core_controller.g_txallo, True))
        patch(allocators, "g_txallo", g_txallo_wrapper(allocators.g_txallo, False))

        # atxallo: every adaptive run the controller makes.
        original_a_txallo = core_controller.a_txallo

        def a_txallo(alloc, touched, **kwargs):
            empty = not touched
            frame = tracer.begin("a_txallo", "atxallo")
            try:
                result = original_a_txallo(alloc, touched, **kwargs)
            finally:
                duration = tracer.end(frame)
                tracer.samples["a_txallo"].append(duration)
            note_update(alloc.graph, duration)
            stats["atxallo.calls"] += 1
            stats["atxallo.empty_calls"] += empty
            stats["atxallo.swept_nodes"] += result.swept_nodes
            stats["atxallo.moves"] += result.moves
            stats["atxallo.unconverged"] += not result.converged
            return result

        patch(core_controller, "a_txallo", a_txallo)

        # route: shard_of on both online allocators the workloads drive.  A
        # call is a fallback when the account is not placed yet: unassigned in
        # the controller's allocation, or routed through a static mapping's
        # default_shard.
        clock = time.perf_counter
        original_controller_shard_of = core_controller.TxAlloController.shard_of

        def controller_shard_of(controller, account):
            if controller.allocation.shard_of_or_none(account) is None:
                stats["route.fallbacks"] += 1
            t0 = clock()
            try:
                return original_controller_shard_of(controller, account)
            finally:
                tracer.count("route", "route.shard_of", clock() - t0)

        patch(core_controller.TxAlloController, "shard_of", controller_shard_of)
        patch(
            core_allocator.FixedMappingAllocator,
            "shard_of",
            tracer.counted(
                "route", "route.shard_of", core_allocator.FixedMappingAllocator.shard_of
            ),
        )
        for owner in (core_allocator.StaticAllocator, core_allocator.FunctionAllocator):
            original_default = owner.__dict__["default_shard"]

            def default_shard(self, account, k, _original=original_default):
                stats["route.fallbacks"] += 1
                return _original(self, account, k)

            patch(owner, "default_shard", default_shard)

        # shard: queue work, the peak queue, and the bottleneck at peak backlog.
        patch(ShardState, "enqueue", tracer.counted("shard", "shard.enqueue", ShardState.enqueue))
        original_step = ShardState.step

        def step(shard, now):
            if shard.queue_length > stats["shard.peak_queue_len"]:
                stats["shard.peak_queue_len"] = shard.queue_length
            t0 = clock()
            try:
                return original_step(shard, now)
            finally:
                tracer.count("shard", "shard.step", clock() - t0)

        patch(ShardState, "step", step)
        original_backlog = ShardState.backlog_workload.fget

        def backlog_workload(shard):
            t0 = clock()
            try:
                value = original_backlog(shard)
            finally:
                tracer.count("shard", "shard.backlog", clock() - t0)
            tracer.tick_backlogs.append(value)
            return value

        patch(ShardState, "backlog_workload", property(backlog_workload))

        # live: one span per tick; drain ticks carry no arrivals.
        original_tick = live.LiveShardedNetwork.tick

        def tick(network, incoming):
            if isinstance(incoming, (list, tuple)) and not incoming:
                stats["live.drain_ticks"] += 1
            tracer.tick_backlogs = []
            frame = tracer.begin("tick", "live")
            try:
                return original_tick(network, incoming)
            finally:
                tracer.end(frame)
                stats["live.ticks"] += 1
                backlogs = tracer.tick_backlogs
                total = sum(backlogs)
                if backlogs and total > tracer.peak_backlog:
                    tracer.peak_backlog = total
                    mean = total / len(backlogs)
                    tracer.peak_bottleneck = max(backlogs) / mean if mean > 0 else 1.0

        patch(live.LiveShardedNetwork, "tick", tick)

        # eval / metrics / baselines: sweep cells, Eq. 1-5 scoring, partitions.
        patch(
            experiments,
            "run_method",
            tracer.spanned("sweep_cell", "eval", experiments.run_method),
        )
        patch(
            experiments,
            "evaluate_allocation",
            tracer.spanned("evaluate_allocation", "metrics", experiments.evaluate_allocation),
        )
        patch(
            allocators,
            "metis_partition",
            tracer.spanned("metis_partition", "metis", allocators.metis_partition),
        )
        patch(
            allocators,
            "hash_partition",
            tracer.spanned("hash_partition", "hash", allocators.hash_partition),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def harvest_controllers(tracer: Tracer) -> None:
    """Fold the workspace counters of the controllers seen so far, then forget them."""
    for controller in tracer.controllers.values():
        workspace = controller.workspace_stats
        tracer.stats["controller.workspace_rebuilds"] += workspace["rebuilds"]
        tracer.stats["controller.workspace_extends"] += workspace["extends"]
    tracer.controllers.clear()
    tracer.last_update_txs.clear()
