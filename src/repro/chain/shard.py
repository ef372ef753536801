"""Per-shard state for the discrete-time simulator.

A shard maintains the accounts allocated to it, a chronological queue of
transaction work items and its capacity ``λ`` per time unit (block
interval).  Cross-shard transactions appear as work items in *every*
involved shard, each costing ``η`` workload but contributing only
``1/μ(Tx)`` throughput — the paper's no-double-counting rule.

Every per-tick read is O(1): :attr:`ShardState.backlog_workload` comes
from a running sum of queued cost kept by ``enqueue`` and ``step`` (reset
to exactly ``0.0`` whenever the queue drains, so float dust from
non-dyadic ``η`` cannot accumulate across busy periods), and completed
items are folded into counters (``processed_count``, ``latency_sum``,
``latency_max``) instead of a list that grows with the run.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, List, Set

from repro.chain.types import Address, Transaction
from repro.errors import SimulationError


@dataclasses.dataclass(frozen=True)
class WorkItem:
    """One transaction's slice of work inside one shard."""

    tx: Transaction
    cost: float        # 1 for intra-shard, eta for cross-shard
    share: float       # throughput credit: 1/mu(tx)
    enqueued_at: int   # time unit of arrival


@dataclasses.dataclass
class ProcessedItem:
    """A completed work item, with its completion time."""

    item: WorkItem
    completed_at: int

    @property
    def latency(self) -> int:
        """Confirmation latency in time units (>= 1)."""
        return self.completed_at - self.item.enqueued_at + 1


class ShardState:
    """One shard's accounts, queue and processing loop.

    ``backlog_workload`` is the queued cost minus the partial progress on
    the head, read in O(1) from a running total.  Completed items are
    returned by :meth:`step` and summarised in ``processed_count``,
    ``latency_sum`` (an exact int) and ``latency_max``.
    """

    def __init__(self, shard_id: int, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"shard capacity must be positive, got {capacity!r}")
        self.shard_id = shard_id
        self.capacity = capacity
        self.accounts: Set[Address] = set()
        self._queue: Deque[WorkItem] = collections.deque()
        self._carry = 0.0  # partial progress on the queue head
        self._queued_cost = 0.0  # sum of item.cost over the queue
        self.total_workload = 0.0
        self.processed_count = 0
        self.latency_sum = 0
        self.latency_max = 0
        self.throughput_credit = 0.0

    # ------------------------------------------------------------------
    def assign_account(self, account: Address) -> None:
        self.accounts.add(account)

    def remove_account(self, account: Address) -> None:
        self.accounts.discard(account)

    def enqueue(self, tx: Transaction, cost: float, share: float, now: int) -> None:
        """Queue one work item, chronologically."""
        if cost <= 0 or share <= 0:
            raise SimulationError(
                f"work item needs positive cost/share, got cost={cost!r} share={share!r}"
            )
        self._queue.append(WorkItem(tx=tx, cost=cost, share=share, enqueued_at=now))
        self._queued_cost += cost
        self.total_workload += cost

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def backlog_workload(self) -> float:
        """Workload still to process: queued cost minus head progress."""
        return self._queued_cost - self._carry

    # ------------------------------------------------------------------
    def step(self, now: int) -> List[ProcessedItem]:
        """Process one time unit: spend up to ``capacity`` workload.

        Strictly chronological — the head of the queue must finish before
        the next item starts, so an expensive cross-shard transaction
        cannot be skipped in favour of cheap intra-shard ones
        (Section III-B's fairness rule).  Work on the head may span
        multiple units (``_carry`` tracks partial progress).
        """
        budget = self.capacity
        done: List[ProcessedItem] = []
        while self._queue and budget > 1e-12:
            head = self._queue[0]
            remaining = head.cost - self._carry
            if remaining <= budget + 1e-12:
                self._queue.popleft()
                self._carry = 0.0
                self._queued_cost = self._queued_cost - head.cost if self._queue else 0.0
                budget -= remaining
                completed = ProcessedItem(item=head, completed_at=now)
                done.append(completed)
                latency = completed.latency
                self.processed_count += 1
                self.latency_sum += latency
                if latency > self.latency_max:
                    self.latency_max = latency
                self.throughput_credit += head.share
            else:
                self._carry += budget
                budget = 0.0
        return done

    def drain_fully(self, start: int, max_units: int = 10_000_000) -> int:
        """Run :meth:`step` until the queue empties; returns units used."""
        now = start
        used = 0
        while self._queue:
            self.step(now)
            now += 1
            used += 1
            if used > max_units:
                raise SimulationError(
                    f"shard {self.shard_id} failed to drain within {max_units} units"
                )
        return used
