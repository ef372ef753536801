"""A live, tick-driven sharded network with dynamic reallocation.

:mod:`repro.chain.simulator` reproduces the paper's *analytic* setting:
all workload present at t=0, drained at rate λ.  This module simulates
the *deployed* setting instead: transactions arrive over time, each tick
is one block interval, every shard processes up to λ workload per tick,
and any :class:`~repro.core.allocator.OnlineAllocator` decides where
accounts live *as the system runs*.

The network is allocator-agnostic: it speaks only the allocator
protocol (``observe_block`` before routing, ``shard_of`` for every
account).  The dynamic
:class:`~repro.core.controller.TxAlloController`, the online Shard
Scheduler, and any static mapping frozen into a
:class:`~repro.core.allocator.FixedMappingAllocator` all plug in through
the same seam — a plain account→shard dict is auto-wrapped, with the
protocol's hash fallback (not a hard-coded shard 0) routing accounts the
mapping misses.  :func:`repro.allocators.get_online` builds any
registered method in live form.

A cross-shard transaction completes only when **every** involved shard
has processed its slice (the 2PC atomicity of Section II-B); its
end-to-end latency is the maximum over shards.  New accounts appearing
in live traffic are routed by the allocator's fallback policy until its
next scheduled update places them.

This closes the loop the paper argues for qualitatively: with TxAllo
steering allocation, the same network sustains a higher committed TPS
than with hash allocation — ``tests/test_live.py`` asserts exactly that,
and :func:`repro.eval.experiments.live_compare` tables it for the whole
method set.

Failure semantics are injectable and reported, not assumed away: a
:class:`~repro.chain.faults.FaultPlan` makes the allocator raise or
stall shards at deterministic blocks, and the network *itself* stays
honest about the consequences — malformed deliveries are dropped with a
counter, every tick records whether routing was degraded, and
:attr:`LiveReport.resilience_stats` carries the supervision counters
when the allocator is a
:class:`~repro.core.resilience.ResilientAllocator`.  An *unsupervised*
allocator under the same plan raises out of :meth:`tick` — surviving
faults is the supervisor's job, not something the network hides.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.chain.shard import ShardState
from repro.chain.types import Transaction
from repro.core.allocator import OnlineAllocator, ensure_online
from repro.core.params import TxAlloParams
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> core)
    from repro.chain.faults import FaultPlan


@dataclasses.dataclass(frozen=True)
class TickStats:
    """What happened during one block interval."""

    tick: int
    arrived: int
    committed: int
    cross_shard_arrived: int
    backlog_workload: float
    #: Allocation-update kind reported by the allocator this tick
    #: ("global" / "adaptive" / "migration" / ...), or None.
    allocation_update: Optional[str]
    #: True when the allocator served this tick degraded (frozen
    #: last-good mapping; see repro.core.resilience).
    degraded: bool = False
    #: Shards that processed nothing this tick (injected stall windows).
    stalled_shards: int = 0
    #: Malformed deliveries dropped at validation this tick.
    dropped_malformed: int = 0


@dataclasses.dataclass
class LiveReport:
    """Aggregates over a whole run."""

    ticks: List[TickStats]
    committed: int
    arrived: int
    mean_latency: float
    p99_latency: int
    cross_shard_ratio: float
    #: Ticks served on the frozen last-good mapping.
    degraded_ticks: int = 0
    #: Times routing fell over to the frozen mapping (healthy -> degraded
    #: transitions of a supervised allocator).
    failovers: int = 0
    #: Malformed deliveries dropped at validation over the whole run.
    dropped_malformed: int = 0
    #: Supervision counters of a ResilientAllocator, else None.
    resilience_stats: Optional[Dict[str, int]] = None

    @property
    def committed_per_tick(self) -> float:
        if not self.ticks:
            return 0.0
        return self.committed / len(self.ticks)


class LiveShardedNetwork:
    """Tick-driven network of ``k`` shards with pluggable allocation.

    ``allocator`` is anything :func:`~repro.core.allocator.ensure_online`
    accepts: an :class:`OnlineAllocator` (driven live — it observes every
    block of arriving transactions and is consulted for every routing
    decision) or a static ``dict`` account→shard (frozen, with the hash
    fallback routing accounts it misses).

    ``fault_plan`` injects a :class:`~repro.chain.faults.FaultPlan`:
    shard stalls and delivery faults are applied by the network itself;
    allocator faults are installed via
    :func:`~repro.chain.faults.with_faults` — *inside* a supervised
    wrapper (which absorbs them) or around a bare allocator (whose
    failures then propagate out of :meth:`tick`, by design).
    """

    def __init__(
        self,
        params: TxAlloParams,
        allocator: Union[OnlineAllocator, Mapping[str, int]],
        *,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self.params = params
        self.allocator: OnlineAllocator = ensure_online(allocator, params)
        self.fault_plan = fault_plan
        if fault_plan is not None:
            from repro.chain.faults import with_faults

            self.allocator = with_faults(self.allocator, fault_plan)
        self.shards: List[ShardState] = [
            ShardState(i, params.lam) for i in range(params.k)
        ]
        self.now = 0
        # Completion tracking keys each arrival by its arrival number
        # (so ``_seq`` also counts arrivals), not by its tx_id: identical
        # transfers share a content-derived tx_id.  The value is the
        # number of shards still holding a slice.
        self._seq = 0
        self._pending_completions: Dict[int, int] = {}
        # Latency histogram (latency -> commits): bounded by the longest
        # latency seen rather than the commit count, and exact for the
        # mean and p99 since latencies are ints.
        self._latencies: collections.Counter = collections.Counter()
        self._cross_arrived = 0
        self._degraded_ticks = 0
        self._dropped_malformed = 0
        self.ticks: List[TickStats] = []

    # ------------------------------------------------------------------
    def tick(self, incoming: Iterable[Transaction]) -> TickStats:
        """One block interval: ingest arrivals, let every shard work."""
        incoming = list(incoming)
        plan = self.fault_plan
        if plan is not None:
            incoming = incoming + plan.injected_deliveries(self.now, incoming)

        # Delivery validation: malformed objects are dropped with a
        # counter — they reach neither the allocator nor a shard queue.
        # Each valid arrival's account set is built once, here, and serves
        # both the allocator and routing.
        arrivals: List[FrozenSet[str]] = []
        dropped_now = 0
        for tx in incoming:
            accounts = tx.accounts if isinstance(tx, Transaction) else None
            if accounts:
                arrivals.append(accounts)
            else:
                dropped_now += 1
        self._dropped_malformed += dropped_now

        # The allocator learns about the block *and* may update the
        # allocation; routing below uses the updated mapping (the paper
        # applies a fresh mapping from the next block onward).
        event = self.allocator.observe_block([tuple(accounts) for accounts in arrivals])
        update = event.kind if event is not None else None

        # Routing enqueues one slice per involved shard and records the
        # cross-shard decision as it is taken — one shard_of call per
        # account, and the stat cannot drift from the queues it describes.
        # Slices of one arrival go to distinct shards, so the order they
        # are queued in does not matter.
        now = self.now
        shard_of = self.allocator.shard_of
        shards = self.shards
        pending = self._pending_completions
        eta = self.params.eta
        cross_now = 0
        for accounts in arrivals:
            involved = {shard_of(account) for account in accounts}
            m = len(involved)
            if m == 1:
                cost = share = 1.0
            else:
                cross_now += 1
                cost = eta
                share = 1.0 / m
            seq = self._seq
            self._seq = seq + 1
            pending[seq] = m
            for shard in involved:
                shards[shard].enqueue(seq, cost, share, now)
        self._cross_arrived += cross_now

        latencies = self._latencies
        committed_now = 0
        stalled_now = 0
        for shard in shards:
            if plan is not None and plan.stalled(shard.shard_id, now):
                # The shard processes zero capacity this tick; its queue
                # accrues and drains at normal capacity once the stall
                # window ends.
                stalled_now += 1
                continue
            for seq, _, _, enqueued_at in shard.step(now=now):
                remaining = pending.get(seq)
                if remaining is None:
                    raise SimulationError(f"completion for unknown tx {seq!r}")
                if remaining == 1:
                    del pending[seq]
                    latencies[now - enqueued_at + 1] += 1
                    committed_now += 1
                else:
                    pending[seq] = remaining - 1

        degraded = bool(self.allocator.degraded)
        if degraded:
            self._degraded_ticks += 1
        stats = TickStats(
            tick=now,
            arrived=len(arrivals),
            committed=committed_now,
            cross_shard_arrived=cross_now,
            backlog_workload=sum(s.backlog_workload for s in shards),
            allocation_update=update,
            degraded=degraded,
            stalled_shards=stalled_now,
            dropped_malformed=dropped_now,
        )
        self.ticks.append(stats)
        self.now += 1
        return stats

    def run(
        self,
        blocks: Sequence[Sequence[Transaction]],
        drain: bool = True,
        max_drain_ticks: int = 100_000,
    ) -> LiveReport:
        """Feed blocks one per tick, optionally drain the backlog."""
        for block in blocks:
            self.tick(block)
        if drain:
            idle = 0
            while self._pending_completions:
                self.tick([])
                idle += 1
                if idle > max_drain_ticks:
                    raise SimulationError(
                        f"backlog failed to drain within {max_drain_ticks} ticks"
                    )
        return self.report()

    # ------------------------------------------------------------------
    def report(self) -> LiveReport:
        histogram = sorted(self._latencies.items())
        committed = sum(count for _, count in histogram)
        mean = sum(lat * count for lat, count in histogram) / committed if committed else 0.0
        # The p99 is the nearest-rank entry sorted[int(0.99 * (committed - 1))] of
        # the (virtual) sorted latency list.
        p99 = 0
        rank = int(0.99 * (committed - 1))
        for latency, count in histogram:
            p99 = latency
            rank -= count
            if rank < 0:
                break
        resilience = self.allocator.resilience_stats
        return LiveReport(
            ticks=list(self.ticks),
            committed=committed,
            arrived=self._seq,
            mean_latency=mean,
            p99_latency=p99,
            cross_shard_ratio=(
                self._cross_arrived / self._seq if self._seq else 0.0
            ),
            degraded_ticks=self._degraded_ticks,
            failovers=resilience["failovers"] if resilience else 0,
            dropped_malformed=self._dropped_malformed,
            resilience_stats=dict(resilience) if resilience else None,
        )
