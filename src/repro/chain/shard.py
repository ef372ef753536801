"""Per-shard state for the discrete-time simulator.

A shard maintains a chronological queue of transaction work items and
its capacity ``λ`` per time unit (block interval).  Cross-shard
transactions appear as work items in *every* involved shard, each
costing ``η`` workload but contributing only ``1/μ(Tx)`` throughput —
the paper's no-double-counting rule.

A work item carries an opaque hashable ``key`` naming what it is a slice
of: the simulator passes the :class:`~repro.chain.types.Transaction`
itself, the live network its integer arrival number.  :meth:`ShardState.step`
hands completed items back as they were queued; their completion time
is the ``now`` the caller passed in.

Every per-tick read is O(1): :attr:`ShardState.backlog_workload` comes
from a running sum of queued cost kept by ``enqueue`` and ``step`` (reset
to exactly ``0.0`` whenever the queue drains, so float dust from
non-dyadic ``η`` cannot accumulate across busy periods), and completed
items are folded into counters (``processed_count``, ``latency_sum``,
``latency_max``) instead of a list that grows with the run.
"""

from __future__ import annotations

import collections
from typing import Deque, Hashable, List, NamedTuple

from repro.errors import SimulationError


class WorkItem(NamedTuple):
    """One transaction's slice of work inside one shard."""

    key: Hashable      # what the slice belongs to; see the module docstring
    cost: float        # 1 for intra-shard, eta for cross-shard
    share: float       # throughput credit: 1/mu(tx)
    enqueued_at: int   # time unit of arrival


class ShardState:
    """One shard's queue and processing loop.

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
        self._queue: Deque[WorkItem] = collections.deque()
        self._carry = 0.0  # partial progress on the queue head
        self._queued_cost = 0.0  # sum of item.cost over the queue
        self.total_workload = 0.0
        self.processed_count = 0
        self.latency_sum = 0
        self.latency_max = 0
        self.throughput_credit = 0.0

    # ------------------------------------------------------------------
    def enqueue(self, key: Hashable, cost: float, share: float, now: int) -> None:
        """Queue one work item, chronologically."""
        if cost <= 0 or share <= 0:
            raise SimulationError(
                f"work item needs positive cost/share, got cost={cost!r} share={share!r}"
            )
        self._queue.append(WorkItem(key, cost, share, now))
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
    def step(self, now: int) -> List[WorkItem]:
        """Process one time unit: spend up to ``capacity`` workload.

        Returns the items completed in this unit, in queue order; each
        one's completion time is ``now`` and its latency
        ``now - enqueued_at + 1``.

        Strictly chronological — the head of the queue must finish before
        the next item starts, so an expensive cross-shard transaction
        cannot be skipped in favour of cheap intra-shard ones
        (Section III-B's fairness rule).  Work on the head may span
        multiple units (``_carry`` tracks partial progress).
        """
        queue = self._queue
        budget = self.capacity
        done: List[WorkItem] = []
        while queue and budget > 1e-12:
            head = queue[0]
            _, cost, share, enqueued_at = head
            remaining = cost - self._carry
            if remaining <= budget + 1e-12:
                queue.popleft()
                self._carry = 0.0
                self._queued_cost = self._queued_cost - cost if queue else 0.0
                budget -= remaining
                done.append(head)
                latency = now - enqueued_at + 1
                self.processed_count += 1
                self.latency_sum += latency
                if latency > self.latency_max:
                    self.latency_max = latency
                self.throughput_credit += share
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
