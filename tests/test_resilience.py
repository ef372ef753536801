"""Tests for the supervised allocator wrapper (repro.core.resilience).

Unit level: the failure state machine against a scripted inner allocator
(exception isolation, block-clocked capped-exponential backoff, circuit
breaker with degraded routing, deadline budget, exact buffered replay,
checkpoint discipline).  Acceptance level: the ISSUE's standard fault
plan — a supervised TxAllo controller survives it at >= 70% of the
fault-free committed TPS and the circuit re-closes before the final
tick, while the bare controller under the same plan raises.
"""

import pytest

from repro import allocators
from repro.baselines.hash_allocation import prefix_shard
from repro.chain.faults import AllocatorFault, FaultPlan, FaultyAllocator
from repro.chain.live import LiveShardedNetwork
from repro.core.allocator import FixedMappingAllocator, OnlineAllocator, hash_fallback_shard
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.core.persistence import allocation_digest
from repro.core.resilience import CLOSED, HALF_OPEN, OPEN, ResilientAllocator
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig
from repro.errors import AllocatorError, DegradedModeError, ParameterError


class ScriptedInner(OnlineAllocator):
    """Inner allocator that fails on scripted call indices (1-based)."""

    name = "scripted"

    def __init__(self, params, fail_calls=(), fail_always=False):
        self.params = params
        self.fail_calls = set(fail_calls)
        self.fail_always = fail_always
        self.calls = 0
        self.observed = []  # blocks the inner actually ingested, in order
        self.last_update_seconds = None
        self._mapping = {"a": 0, "b": 1}

    def observe_block(self, transactions):
        self.calls += 1
        block = tuple(tuple(accounts) for accounts in transactions)
        if self.fail_always or self.calls in self.fail_calls:
            raise RuntimeError(f"scripted failure at call {self.calls}")
        self.observed.append(block)
        return None

    def shard_of(self, account):
        return self._mapping.get(account, 0)

    def mapping(self):
        return dict(self._mapping)


def make_params(**overrides):
    defaults = dict(k=4, eta=2.0, lam=10.0, epsilon=0.01, tau1=2, tau2=10)
    defaults.update(overrides)
    return TxAlloParams(**defaults)


def block(i):
    return [(f"a{i}", f"b{i}")]


class TestSupervisionStateMachine:
    def test_exception_isolated_and_block_replayed(self):
        inner = ScriptedInner(make_params(), fail_calls={1})
        sup = ResilientAllocator(inner)
        assert sup.observe_block(block(0)) is None  # failure absorbed
        assert sup.degraded
        assert sup.pending_blocks == 1
        sup.observe_block(block(1))  # retry: replays block 0 then block 1
        assert not sup.degraded
        assert inner.observed == [(("a0", "b0"),), (("a1", "b1"),)]
        stats = sup.resilience_stats
        assert stats["failures"] == 1
        assert stats["retries"] == 1
        assert stats["failovers"] == 1
        assert stats["recoveries"] == 1

    def test_backoff_schedule_is_capped_exponential_in_blocks(self):
        """base=1, cap=4: attempts land at blocks 1, 2, 4, 8, 12, 16..."""
        inner = ScriptedInner(make_params(), fail_always=True)
        sup = ResilientAllocator(
            inner,
            failure_threshold=100,  # never trip; isolate the backoff path
            backoff_base_blocks=1,
            backoff_cap_blocks=4,
        )
        attempts = []
        for i in range(16):
            before = inner.calls
            sup.observe_block(block(i))
            if inner.calls > before:
                attempts.append(i + 1)  # 1-based wrapper block index
        assert attempts == [1, 2, 4, 8, 12, 16]

    def test_circuit_opens_at_threshold_and_probe_recloses(self):
        inner = ScriptedInner(make_params(), fail_calls={1, 2, 3})
        sup = ResilientAllocator(
            inner, failure_threshold=3, backoff_base_blocks=1,
            backoff_cap_blocks=8, cooldown_blocks=5,
        )
        # Blocks 1, 2 fail (attempts at 1, 2); block 3 backs off;
        # block 4 retries, third consecutive failure trips the circuit.
        for i in range(4):
            sup.observe_block(block(i))
        assert sup.circuit_state == OPEN
        assert sup.resilience_stats["trips"] == 1
        calls_when_open = inner.calls
        # Cooldown: blocks 5..8 never touch the inner allocator.
        for i in range(4, 8):
            sup.observe_block(block(i))
            assert inner.calls == calls_when_open
        assert sup.circuit_state == OPEN
        # Block 9 is the half-open probe; it succeeds and replays the
        # whole buffered backlog in order, exactly once each.
        sup.observe_block(block(8))
        assert sup.circuit_state == CLOSED
        assert not sup.degraded
        assert sup.pending_blocks == 0
        assert inner.observed == [tuple(tuple(t) for t in block(i)) for i in range(9)]
        stats = sup.resilience_stats
        assert stats["recoveries"] == 1
        assert stats["degraded_blocks"] > 0

    def test_failed_probe_reopens_the_circuit(self):
        inner = ScriptedInner(make_params(), fail_always=True)
        sup = ResilientAllocator(
            inner, failure_threshold=2, cooldown_blocks=3,
        )
        for i in range(3):  # two failures trip; block 3 is in cooldown
            sup.observe_block(block(i))
        assert sup.circuit_state == OPEN
        for i in range(3, 5):
            sup.observe_block(block(i))
        # The cooldown expired, the probe ran (and failed): straight
        # back to OPEN with a fresh cooldown, counted as a second trip.
        assert sup.circuit_state == OPEN
        assert sup.resilience_stats["trips"] == 2

    def test_degraded_routing_is_frozen_plus_hash_fallback(self):
        params = make_params()
        inner = ScriptedInner(params, fail_always=True)
        sup = ResilientAllocator(inner, failure_threshold=1)
        sup.observe_block(block(0))
        assert sup.degraded and sup.circuit_state == OPEN
        # Frozen mapping answers for placed accounts...
        assert sup.shard_of("a") == 0
        assert sup.shard_of("b") == 1
        # ...and, as the inner allocator has no fallback rule of its
        # own, the protocol's hash rule for everything else —
        # deterministic, not the inner allocator's (possibly broken) view.
        assert sup.shard_of("never-seen") == hash_fallback_shard(
            "never-seen", params.k
        )
        assert sup.mapping() == {"a": 0, "b": 1}

    def test_deadline_overrun_counts_as_failure_without_replay(self):
        inner = ScriptedInner(make_params())
        sup = ResilientAllocator(inner, deadline_seconds=0.5)
        inner.last_update_seconds = 2.0  # simulated duration, no sleeping
        assert sup.observe_block(block(0)) is None
        stats = sup.resilience_stats
        assert stats["deadline_overruns"] == 1
        assert stats["failures"] == 1
        assert sup.degraded
        # The slow update *did* ingest the block: it must not be
        # replayed (double ingest), only the backoff applies.
        assert sup.pending_blocks == 0
        inner.last_update_seconds = 0.001
        sup.observe_block(block(1))
        assert not sup.degraded
        assert [b for b in inner.observed] == [
            (("a0", "b0"),), (("a1", "b1"),)
        ]

    def test_half_open_state_is_reported_mid_probe(self):
        # White-box: the HALF_OPEN constant is part of the public
        # circuit_state surface even though it only exists inside a call.
        assert {CLOSED, OPEN, HALF_OPEN} == {"closed", "open", "half_open"}

    def test_parameter_validation(self):
        inner = ScriptedInner(make_params())
        with pytest.raises(ParameterError):
            ResilientAllocator(inner, failure_threshold=0)
        with pytest.raises(ParameterError):
            ResilientAllocator(inner, deadline_seconds=0.0)
        with pytest.raises(AllocatorError):
            ResilientAllocator({"a": 0})  # not an OnlineAllocator


class TestCheckpointRecovery:
    def test_checkpoint_refused_while_degraded(self):
        inner = ScriptedInner(make_params(), fail_always=True)
        sup = ResilientAllocator(inner, failure_threshold=1)
        sup.observe_block(block(0))
        assert sup.degraded
        with pytest.raises(DegradedModeError):
            sup.checkpoint_now()

    def test_restore_round_trip_preserves_digest(self, tmp_path):
        config = WorkloadConfig(
            num_accounts=200, num_transactions=1500, block_size=50, seed=11
        )
        blocks = [
            [tuple(tx.accounts) for tx in blk]
            for blk in EthereumWorkloadGenerator(config).blocks()
        ]
        params = make_params(lam=100.0)
        path = tmp_path / "alloc.ckpt.json"
        sup = ResilientAllocator(
            TxAlloController(params, seed_transactions=blocks[0]),
            checkpoint_path=path,
        )
        for blk in blocks[1:20]:
            sup.observe_block(blk)
        checkpoint = sup.checkpoint_now()
        assert path.exists()

        restored = ResilientAllocator.restore(path)
        # The resumed controller serves byte-for-byte the checkpointed
        # allocation: same digest, same per-account routing.
        assert allocation_digest(restored.mapping()) == checkpoint.digest
        for account in list(checkpoint.mapping)[:32]:
            assert restored.shard_of(account) == checkpoint.mapping[account]
        # And it is live again: observing and routing new traffic works.
        restored.observe_block([("fresh-x", "fresh-y")])
        assert 0 <= restored.shard_of("fresh-x") < params.k
        assert not restored.degraded


def _live_setup(seed=5):
    config = WorkloadConfig(
        num_accounts=400, num_transactions=3000, block_size=50, seed=seed
    )
    blocks = [
        list(blk) for blk in EthereumWorkloadGenerator(config).blocks()
    ]
    split = len(blocks) // 3
    seed_sets = [tuple(tx.accounts) for blk in blocks[:split] for tx in blk]
    live = blocks[split:]
    mean_block = sum(len(b) for b in live) / len(live)
    params = make_params(lam=max(1.0, 1.5 * mean_block / 4))
    return params, seed_sets, live


class TestAcceptanceStandardPlan:
    """The ISSUE's acceptance criteria, end to end."""

    def test_bare_controller_crashes_under_the_plan(self):
        params, seed_sets, live = _live_setup()
        plan = FaultPlan.standard(params.tau2)
        net = LiveShardedNetwork(
            params,
            TxAlloController(params, seed_transactions=seed_sets),
            fault_plan=plan,
        )
        with pytest.raises(AllocatorError):
            net.run(live, drain=True)

    def test_supervised_controller_survives_with_tps_retention(self):
        params, seed_sets, live = _live_setup()
        plan = FaultPlan.standard(params.tau2)

        baseline_net = LiveShardedNetwork(
            params, TxAlloController(params, seed_transactions=seed_sets)
        )
        baseline = baseline_net.run(live, drain=True)
        assert baseline.committed == baseline.arrived

        supervised = ResilientAllocator(
            TxAlloController(params, seed_transactions=seed_sets)
        )
        net = LiveShardedNetwork(params, supervised, fault_plan=plan)
        report = net.run(live, drain=True)

        assert report.committed == report.arrived, "faults lost transactions"
        retention = report.committed_per_tick / baseline.committed_per_tick
        assert retention >= 0.7, f"TPS retention {retention:.3f} < 0.7"

        stats = supervised.resilience_stats
        assert stats["trips"] >= 1, "plan never tripped the circuit"
        assert stats["recoveries"] >= 1, "circuit never recovered"
        assert supervised.circuit_state == CLOSED
        # The circuit re-closed *before* the final tick: the run ends on
        # healthy routing, not mid-outage.
        assert report.ticks[-1].degraded is False
        assert any(t.degraded for t in report.ticks)
        assert report.failovers >= 1
        assert report.degraded_ticks >= 1
        assert report.resilience_stats == stats


class TestDegradedRoutingKeepsTheInnerRule:
    """Degraded routing sends accounts the frozen mapping never saw where
    the inner allocator's own fallback rule would, not by the hash."""

    def test_unseen_account_routes_by_the_inner_fallback(self):
        params = make_params()
        inner = FixedMappingAllocator({"a": 3}, params, fallback=prefix_shard)
        plan = FaultPlan(allocator_faults=(AllocatorFault(at_block=1),))
        sup = ResilientAllocator(FaultyAllocator(inner, plan), failure_threshold=1)
        sup.observe_block(block(0))
        assert sup.degraded
        accounts = [f"0x{i:040x}" for i in range(0, 2**160, 2**155)]
        assert [sup.shard_of(a) for a in accounts] == [prefix_shard(a, params.k) for a in accounts]
        assert any(prefix_shard(a, params.k) != hash_fallback_shard(a, params.k) for a in accounts)
        assert sup.shard_of("a") == 3

    def test_supervised_prefix_live_form_routes_by_prefix_when_degraded(self):
        params, seed_sets, live = _live_setup()
        supervised = ResilientAllocator(
            allocators.get_online("prefix", params, seed_transactions=seed_sets)
        )
        net = LiveShardedNetwork(params, supervised, fault_plan=FaultPlan.standard(params.tau2))
        degraded_ticks = 0
        for block_ in live:
            net.tick(block_)
            if supervised.degraded:
                degraded_ticks += 1
                accounts = sorted({a for tx in block_ for a in tx.accounts})
                routes = [supervised.shard_of(a) for a in accounts]
                assert routes == [prefix_shard(a, params.k) for a in accounts]
        assert degraded_ticks > 0, "the plan never degraded routing"
