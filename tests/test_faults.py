"""Tests for deterministic fault injection (repro.chain.faults).

Plan construction (validation, seeded determinism), each fault family's
network-level effect, and the seeded chaos property test: under random
fault plans a supervised network must preserve the conservation
invariants — nothing lost, nothing leaked, nothing raised.
"""

import pytest

from repro.chain.faults import (
    AllocatorFault,
    DeliveryFault,
    FaultPlan,
    FaultyAllocator,
    MalformedDelivery,
    ShardStall,
    with_faults,
)
from repro.chain.live import LiveShardedNetwork
from repro.chain.types import Transaction
from repro.core.allocator import OnlineAllocator
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.core.resilience import ResilientAllocator
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig
from repro.errors import AllocatorError, ParameterError


def tx(a, b):
    return Transaction.transfer(a, b)


def make_params(**overrides):
    defaults = dict(k=4, eta=2.0, lam=50.0, epsilon=0.01, tau1=2, tau2=10)
    defaults.update(overrides)
    return TxAlloParams(**defaults)


class RecordingAllocator(OnlineAllocator):
    """Static routing that records every block it is shown."""

    name = "recording"

    def __init__(self, params):
        self.params = params
        self.observed = []

    def observe_block(self, transactions):
        block = tuple(tuple(accounts) for accounts in transactions)
        self.observed.append(block)
        return None

    def shard_of(self, account):
        return 0

    def mapping(self):
        return {}


class TestPlanConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AllocatorFault(at_block=0)
        with pytest.raises(ParameterError):
            AllocatorFault(at_block=1, kind="explode")
        with pytest.raises(ParameterError):
            ShardStall(shard=-1, start_tick=0, ticks=1)
        with pytest.raises(ParameterError):
            ShardStall(shard=0, start_tick=0, ticks=0)
        with pytest.raises(ParameterError):
            DeliveryFault(tick=-1)
        with pytest.raises(ParameterError):
            DeliveryFault(tick=0, kind="weird")
        with pytest.raises(ParameterError):
            FaultPlan.standard(tau2=0)
        with pytest.raises(ParameterError):
            FaultPlan.seeded(1, ticks=0, k=4)

    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(42, ticks=50, k=8)
        b = FaultPlan.seeded(42, ticks=50, k=8)
        assert a == b  # frozen dataclass value equality, field by field
        assert a.seed == 42
        # Distinct call indices: no fault shadows another.
        indices = [f.at_block for f in a.allocator_faults]
        assert len(indices) == len(set(indices))
        # And a different seed eventually differs (not a constant plan).
        assert any(
            FaultPlan.seeded(s, ticks=50, k=8) != a for s in range(43, 53)
        )

    def test_standard_plan_shape(self):
        plan = FaultPlan.standard(10)
        assert [f.at_block for f in plan.allocator_faults] == [10, 11, 12]
        assert all(f.kind == "raise" for f in plan.allocator_faults)
        assert len(plan.stalls) == 1
        assert not plan.empty
        assert FaultPlan().empty

    def test_with_faults_layering(self):
        params = make_params()
        plan = FaultPlan.standard(10)
        bare = RecordingAllocator(params)
        wrapped = with_faults(bare, plan)
        assert isinstance(wrapped, FaultyAllocator)  # faults propagate

        supervised = ResilientAllocator(RecordingAllocator(params))
        out = with_faults(supervised, plan)
        assert out is supervised  # faults installed *inside* the wrapper
        assert isinstance(supervised.inner, FaultyAllocator)

        # A plan without allocator faults installs nothing.
        stall_only = FaultPlan(stalls=(ShardStall(0, 0, 1),))
        assert with_faults(bare, stall_only) is bare

    def test_faulty_proxy_raises_before_delegating(self):
        params = make_params()
        inner = RecordingAllocator(params)
        proxy = FaultyAllocator(
            inner, FaultPlan(allocator_faults=(AllocatorFault(at_block=1),))
        )
        with pytest.raises(AllocatorError):
            proxy.observe_block([("a", "b")])
        # The inner allocator never saw the failed block — replay-exact.
        assert inner.observed == []
        proxy.observe_block([("a", "b")])
        assert inner.observed == [(("a", "b"),)]


class TestNetworkFaultFamilies:
    def test_duplicate_delivery_adds_load_without_breaking_invariants(self):
        params = make_params(k=2)
        plan = FaultPlan(
            delivery_faults=(DeliveryFault(tick=0, kind="duplicate", count=2),)
        )
        net = LiveShardedNetwork(params, {"a": 0, "b": 1}, fault_plan=plan)
        report = net.run([[tx("a", "b")]], drain=True)
        # The duplicate arrivals are re-stamped and processed like any
        # other transaction: extra load, full conservation.
        assert report.arrived == 3
        assert report.committed == 3
        assert report.dropped_malformed == 0

    def test_malformed_delivery_is_dropped_and_counted(self):
        params = make_params(k=2)
        plan = FaultPlan(
            delivery_faults=(DeliveryFault(tick=0, kind="malformed", count=3),)
        )
        allocator = RecordingAllocator(params)
        net = LiveShardedNetwork(params, allocator, fault_plan=plan)
        report = net.run([[tx("a", "b")]], drain=True)
        assert report.dropped_malformed == 3
        assert report.arrived == 1
        assert report.committed == 1
        assert report.ticks[0].dropped_malformed == 3
        # The allocator was never shown the garbage.
        for block in allocator.observed:
            for accounts in block:
                assert accounts and all(isinstance(a, str) for a in accounts)

    def test_malformed_delivery_object_is_not_a_transaction(self):
        assert not isinstance(MalformedDelivery(), Transaction)
        assert MalformedDelivery().accounts == frozenset()

    def test_shard_stall_accrues_backlog_then_drains(self):
        params = make_params(k=2, lam=10.0)
        plan = FaultPlan(stalls=(ShardStall(shard=0, start_tick=0, ticks=3),))
        net = LiveShardedNetwork(params, {"a": 0, "b": 0}, fault_plan=plan)
        first = net.tick([tx("a", "b")] * 5)
        assert first.committed == 0
        assert first.stalled_shards == 1
        assert first.backlog_workload == pytest.approx(5.0)
        report = net.run([], drain=True)
        # Once the window ends the shard drains at normal capacity.
        assert report.committed == 5
        assert report.arrived == 5


class TestSeededChaos:
    """Property test: random fault plans, supervised network, invariants."""

    @pytest.mark.parametrize("seed", [1, 7, 13, 99, 2023])
    def test_conservation_under_random_faults(self, seed):
        config = WorkloadConfig(
            num_accounts=200, num_transactions=1200, block_size=40, seed=seed
        )
        blocks = [
            list(blk) for blk in EthereumWorkloadGenerator(config).blocks()
        ]
        seed_sets = [tuple(t.accounts) for blk in blocks[:5] for t in blk]
        live = blocks[5:]
        params = make_params(lam=20.0)
        plan = FaultPlan.seeded(seed, ticks=len(live), k=params.k)
        supervised = ResilientAllocator(
            TxAlloController(params, seed_transactions=seed_sets),
            deadline_seconds=1.0,  # seeded "slow" faults overrun this
        )
        net = LiveShardedNetwork(params, supervised, fault_plan=plan)
        report = net.run(live, drain=True)  # must never raise

        # No transaction lost: everything that arrived committed, and
        # the completion book and every shard queue are empty after the
        # drain.
        assert report.committed == report.arrived
        assert net._pending_completions == {}
        assert all(shard.queue_length == 0 for shard in net.shards)
        # Degradation is reported, never silently swallowed.
        stats = supervised.resilience_stats
        if stats["failures"]:
            assert report.degraded_ticks >= 1
            assert report.failovers >= 1
