"""Shard Scheduler — the transaction-level baseline (Krol et al., AFT'21).

Unlike the graph-based methods, Shard Scheduler decides placement *online*:
when a transaction arrives, its accounts may migrate to the least-loaded
involved shard, subject to a load buffer.  Because load is charged at
processing time, even a hyper-active account's traffic is smeared across
shards as the account keeps migrating — which is why this baseline wins on
workload balance and worst-case latency in the paper (Figs. 3, 4c, 7)
while paying with a mediocre cross-shard ratio and a per-transaction cost
that dwarfs the graph methods' runtime (Fig. 8).

The paper's comparison sets "the same capacity and the buffer ratio as 1"
(Section VI-B1); those are our defaults.

Implementation notes
--------------------
* A brand-new account goes to the globally least-loaded shard.
* For a transaction whose accounts are spread over several shards, the
  scheduler tries to gather them in the least-loaded involved shard; an
  account migrates only if the destination's load stays within
  ``buffer_ratio x`` the current average load (the migration criterion).
* Loads are charged after placement: 1 per involved shard for an
  intra-shard transaction, ``η`` per involved shard otherwise, matching
  the workload model of Section III-A.
* Everything is deterministic: ties break toward the smallest shard id.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.allocation import capped_throughput
from repro.core.graph import Node
from repro.core.metrics import ordered_sum
from repro.core.params import TxAlloParams
from repro.errors import ParameterError


@dataclasses.dataclass
class SchedulerResult:
    """Online run outcome: final mapping plus accumulated online metrics."""

    mapping: Dict[Node, int]
    shard_loads: Tuple[float, ...]
    shard_lam_hat: Tuple[float, ...]
    num_transactions: int
    num_cross_shard: int
    num_migrations: int

    @property
    def cross_shard_ratio(self) -> float:
        if self.num_transactions == 0:
            return 0.0
        return self.num_cross_shard / self.num_transactions

    def throughput(self, lam: float) -> float:
        """Capacity-capped system throughput over the accumulated loads."""
        return ordered_sum(
            capped_throughput(s, lh, lam)
            for s, lh in zip(self.shard_loads, self.shard_lam_hat)
        )


class ShardScheduler:
    """Stateful online allocator; feed transactions chronologically."""

    def __init__(self, params: TxAlloParams, *, buffer_ratio: float = 1.0) -> None:
        if buffer_ratio <= 0:
            raise ParameterError(f"buffer_ratio must be positive, got {buffer_ratio!r}")
        self.params = params
        self.buffer_ratio = buffer_ratio
        self.mapping: Dict[Node, int] = {}
        self.loads: List[float] = [0.0] * params.k
        self.lam_hat: List[float] = [0.0] * params.k
        self.num_transactions = 0
        self.num_cross_shard = 0
        self.num_migrations = 0

    # ------------------------------------------------------------------
    def _least_loaded(self) -> int:
        loads = self.loads
        return min(range(len(loads)), key=lambda i: (loads[i], i))

    # ------------------------------------------------------------------
    def observe(self, accounts: Sequence[Node]) -> bool:
        """Place/migrate the accounts of one transaction; charge its load.

        Returns True when the transaction ends up cross-shard.
        """
        unique = sorted(set(accounts))
        known = [a for a in unique if a in self.mapping]
        new = [a for a in unique if a not in self.mapping]

        if not known:
            target = self._least_loaded()
        else:
            involved = sorted({self.mapping[a] for a in known})
            target = min(involved, key=lambda i: (self.loads[i], i))
            if len(involved) > 1:
                # Migration criterion: an account abandons its shard only
                # when that shard is overloaded relative to the buffer and
                # the destination can take it — the scheduler relieves
                # hot-spots rather than performing global clustering
                # (which is the graph methods' job).
                k = self.params.k
                mean = ordered_sum(self.loads) / k
                for a in known:
                    src = self.mapping[a]
                    if (
                        src != target
                        and self.loads[src] > self.buffer_ratio * mean
                        and self.loads[target] <= self.buffer_ratio * mean
                    ):
                        self.mapping[a] = target
                        self.num_migrations += 1
        for a in new:
            self.mapping[a] = target

        shards = {self.mapping[a] for a in unique}
        m = len(shards)
        self.num_transactions += 1
        if m == 1:
            (i,) = shards
            self.loads[i] += 1.0
            self.lam_hat[i] += 1.0
            return False
        self.num_cross_shard += 1
        eta = self.params.eta
        share = 1.0 / m
        for i in shards:
            self.loads[i] += eta
            self.lam_hat[i] += share
        return True

    def run(self, transactions: Iterable[Sequence[Node]]) -> SchedulerResult:
        """Process a whole chronological transaction stream."""
        for accounts in transactions:
            self.observe(accounts)
        return self.result()

    def result(self) -> SchedulerResult:
        return SchedulerResult(
            mapping=dict(self.mapping),
            shard_loads=tuple(self.loads),
            shard_lam_hat=tuple(self.lam_hat),
            num_transactions=self.num_transactions,
            num_cross_shard=self.num_cross_shard,
            num_migrations=self.num_migrations,
        )


def shard_scheduler_partition(
    transactions: Iterable[Sequence[Node]],
    params: TxAlloParams,
    *,
    buffer_ratio: float = 1.0,
) -> SchedulerResult:
    """Convenience one-shot run over a transaction stream."""
    return ShardScheduler(params, buffer_ratio=buffer_ratio).run(transactions)
