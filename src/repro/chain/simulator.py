"""Discrete-time sharded-chain simulator.

The paper evaluates allocations *analytically* — Eqs. (2)-(4) model each
shard as a queue drained chronologically at rate ``λ`` per block interval.
This simulator actually runs that system: it applies an account-shard
mapping, enqueues every transaction in all of its involved shards (cost 1
intra, ``η`` cross; throughput credit ``1/μ``), and steps the shards one
block interval at a time.

Its report cross-validates the closed forms:

* throughput processed in the **first** time unit equals ``Λ`` of
  Eqs. (2)-(3) (the analytic Λ is a steady-state per-unit rate);
* the mean per-shard confirmation latency equals ``ζ`` of Eq. (4) up to
  work-item granularity (the integral treats workload as a fluid);
* the slowest shard drains in exactly ``⌈σ_max / λ⌉`` units — the
  worst-case latency of Fig. 7.

``tests/test_simulator_crossvalidation.py`` asserts all three.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from repro.chain.shard import ShardState
from repro.chain.types import Address, Transaction
from repro.core.params import TxAlloParams
from repro.errors import AllocationError, SimulationError


@dataclasses.dataclass(frozen=True)
class SimulationReport:
    """Empirical counterparts of the paper's analytic metrics."""

    num_transactions: int
    num_cross_shard: int
    cross_shard_ratio: float
    first_unit_throughput: float
    total_units: int
    per_shard_workload: tuple
    per_shard_mean_latency: tuple
    mean_latency: float
    worst_case_latency: int


class ShardedChainSimulator:
    """Applies a mapping, runs the shards, measures what really happens."""

    def __init__(self, params: TxAlloParams, mapping: Dict[Address, int]) -> None:
        self.params = params
        self.mapping = mapping
        self.shards: List[ShardState] = [
            ShardState(i, params.lam) for i in range(params.k)
        ]
        for account, shard in mapping.items():
            if not 0 <= shard < params.k:
                raise AllocationError(
                    f"account {account!r} mapped to invalid shard {shard!r}"
                )
            self.shards[shard].assign_account(account)
        self._num_transactions = 0
        self._num_cross = 0

    # ------------------------------------------------------------------
    def submit(self, tx: Transaction, now: int = 0) -> int:
        """Route one transaction into its involved shards; returns μ(Tx)."""
        try:
            involved = sorted({self.mapping[a] for a in tx.accounts})
        except KeyError as exc:
            raise AllocationError(
                f"account {exc.args[0]!r} of tx {tx.tx_id} is not allocated"
            ) from None
        m = len(involved)
        self._num_transactions += 1
        if m == 1:
            self.shards[involved[0]].enqueue(tx, cost=1.0, share=1.0, now=now)
        else:
            self._num_cross += 1
            share = 1.0 / m
            for i in involved:
                self.shards[i].enqueue(tx, cost=self.params.eta, share=share, now=now)
        return m

    def submit_all(self, txs: Iterable[Transaction], now: int = 0) -> None:
        for tx in txs:
            self.submit(tx, now)

    # ------------------------------------------------------------------
    def run(self, max_units: int = 1_000_000) -> SimulationReport:
        """Step all shards until every queue drains; build the report."""
        first_unit_credit = 0.0
        now = 0
        while any(s.queue_length for s in self.shards):
            if now >= max_units:
                raise SimulationError(f"simulation did not drain within {max_units} units")
            for shard in self.shards:
                before = shard.throughput_credit
                shard.step(now=now)
                if now == 0:
                    first_unit_credit += shard.throughput_credit - before
            now += 1
        units = now
        per_shard_latency = [
            s.latency_sum / s.processed_count if s.processed_count else 1.0
            for s in self.shards
        ]
        worst = max(s.latency_max for s in self.shards)
        total = self._num_transactions
        return SimulationReport(
            num_transactions=total,
            num_cross_shard=self._num_cross,
            cross_shard_ratio=(self._num_cross / total) if total else 0.0,
            first_unit_throughput=first_unit_credit,
            total_units=units,
            per_shard_workload=tuple(s.total_workload for s in self.shards),
            per_shard_mean_latency=tuple(per_shard_latency),
            mean_latency=sum(per_shard_latency) / len(per_shard_latency),
            worst_case_latency=worst,
        )


def simulate_allocation(
    transactions: Sequence[Transaction],
    mapping: Dict[Address, int],
    params: TxAlloParams,
    max_units: Optional[int] = None,
) -> SimulationReport:
    """One-shot convenience: submit everything at t=0 and drain.

    This reproduces the analytic model's setting exactly: all workload is
    present up front and the shards drain it at rate ``λ``.
    """
    sim = ShardedChainSimulator(params, mapping)
    sim.submit_all(transactions, now=0)
    return sim.run(max_units=max_units if max_units is not None else 1_000_000)
