"""Tests for the live tick-driven network simulator."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from repro import allocators
from repro.baselines.hash_allocation import hash_partition, hash_shard
from repro.chain.faults import FaultPlan, ShardStall
from repro.chain.live import LiveShardedNetwork
from repro.chain.types import Transaction
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig
from repro.eval.experiments import build_workload, live_compare


def tx(a, b):
    return Transaction.transfer(a, b)


def blocks_from(generator):
    return [list(block) for block in generator.blocks()]


class TestStaticRouting:
    def test_intra_commits_same_tick(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        stats = net.tick([tx("a", "b")])
        assert stats.committed == 1
        report = net.report()
        assert report.mean_latency == 1.0

    def test_cross_shard_needs_all_shards(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1})
        stats = net.tick([tx("a", "b")])
        # Both shards processed their slice in the same tick.
        assert stats.committed == 1
        assert net.report().cross_shard_ratio == 1.0

    def test_cross_shard_latency_is_max_over_shards(self):
        params = TxAlloParams(k=2, eta=2.0, lam=2.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1, "c": 1, "d": 1})
        # Pre-load shard 1 with 4 workload (two ticks' worth) so its
        # slice of the later cross-shard tx has to wait.
        net.tick([tx("b", "c"), tx("c", "d"), tx("b", "d"), tx("c", "b")])
        net.tick([tx("a", "b")])  # cross: shard 0 is idle, shard 1 queued
        report = net.run([], drain=True)
        assert report.committed == 5
        # The cross tx could not commit in its arrival tick.
        assert report.p99_latency >= 2

    def test_unknown_account_routes_by_hash_fallback(self):
        """Regression: accounts missing from a static mapping must route
        by the protocol's hash fallback, not to a hard-coded shard 0
        (which silently skewed every live run toward shard 0)."""
        params = TxAlloParams(k=4, eta=2.0, lam=100.0)
        net = LiveShardedNetwork(params, {})
        accounts = [f"acct-{i}" for i in range(32)]
        for a in accounts:
            assert net.allocator.shard_of(a) == hash_shard(a, params.k)
        pairs = list(zip(accounts[::2], accounts[1::2]))
        net.run([[tx(a, b) for a, b in pairs]], drain=True)
        busy = {i for i, s in enumerate(net.shards) if s.processed_count}
        assert len(busy) > 1, "hash fallback must spread unknown accounts"

    def test_backlog_accumulates_when_overloaded(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        stats = net.tick([tx("a", "b"), tx("a", "b"), tx("a", "b")])
        assert stats.committed == 1
        assert stats.backlog_workload == pytest.approx(2.0)

    def test_backlog_total_is_left_to_right(self, monkeypatch):
        """Regression: the tick's backlog total must not hang on how
        ``sum()`` rounds (compensated from Python 3.12, like fsum)."""
        monkeypatch.setattr("repro.chain.live.sum", math.fsum, raising=False)
        params = TxAlloParams(k=3, eta=2.0, lam=0.1)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1, "c": 2})
        loops = {a: Transaction(inputs=(a,), outputs=(a,)) for a in "abc"}
        stats = net.tick([loops["a"], loops["b"], loops["b"], loops["c"]])
        backlogs = [shard.backlog_workload for shard in net.shards]
        assert backlogs == [0.9, 1.9, 0.9]
        left_to_right = (0.9 + 1.9) + 0.9
        assert left_to_right != math.fsum(backlogs)
        assert stats.backlog_workload == left_to_right

    def test_run_drains_backlog(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0})
        report = net.run([[tx("a", "b")] * 5], drain=True)
        assert report.committed == 5
        assert report.arrived == 5

    def test_report_counts(self):
        params = TxAlloParams(k=2, eta=2.0, lam=100.0)
        mapping = {"a": 0, "b": 0, "c": 1}
        net = LiveShardedNetwork(params, mapping)
        report = net.run([[tx("a", "b"), tx("a", "c")]], drain=True)
        assert report.arrived == 2
        assert report.cross_shard_ratio == pytest.approx(0.5)


class TestControllerDriven:
    def make_controller(self, sets_, k=4, tau1=2, tau2=50, lam=None):
        if lam is None:
            lam = len(sets_) / k / 4
        params = TxAlloParams(
            k=k, eta=2.0, lam=lam, epsilon=1e-5 * len(sets_),
            tau1=tau1, tau2=tau2,
        )
        return params, TxAlloController(params, seed_transactions=sets_)

    def workload(self, seed=3):
        config = WorkloadConfig(
            num_accounts=400, num_transactions=3000, block_size=50, seed=seed
        )
        return EthereumWorkloadGenerator(config)

    def test_controller_network_runs_green(self):
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        params, controller = self.make_controller(seed_sets)
        net = LiveShardedNetwork(params, controller)
        report = net.run(all_blocks[40:], drain=True)
        assert report.committed == report.arrived
        controller.allocation.validate()

    def test_adaptive_updates_happen_during_run(self):
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        params, controller = self.make_controller(seed_sets, tau1=2)
        net = LiveShardedNetwork(params, controller)
        net.run(all_blocks[40:52], drain=False)
        kinds = [t.allocation_update for t in net.ticks]
        assert "adaptive" in kinds

    def test_controller_routes_unknown_account_with_neighbours(self):
        """Regression: an account awaiting its first A-TxAllo assignment
        is co-located with its assigned neighbourhood by the controller
        (not dumped on shard 0)."""
        gen = self.workload()
        all_blocks = blocks_from(gen)
        seed_sets = [tuple(t.accounts) for b in all_blocks[:40] for t in b]
        # Huge periods: no scheduled update runs during the test window.
        params, controller = self.make_controller(
            seed_sets, tau1=10_000, tau2=20_000
        )
        known = next(iter(controller.allocation.mapping()))
        net = LiveShardedNetwork(params, controller)
        net.tick([tx(known, "brand-new-account")])
        assert controller.allocation.shard_of_or_none("brand-new-account") is None
        assert (
            controller.shard_of("brand-new-account")
            == controller.allocation.shard_of(known)
        )

    def test_controller_unknown_isolated_account_uses_hash_fallback(self):
        params = TxAlloParams(k=4, eta=2.0, lam=10.0, tau1=100, tau2=200)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.shard_of("never-seen") == hash_shard("never-seen", 4)

    def test_txallo_beats_hash_on_committed_tps(self):
        """The paper's end-to-end claim, on the live system: with the
        same shards and capacity, TxAllo-steered routing commits more
        per tick than hash routing (less eta-priced cross traffic)."""
        gen = self.workload(seed=8)
        all_blocks = blocks_from(gen)
        seed_blocks, live_blocks = all_blocks[:40], all_blocks[40:]
        seed_sets = [tuple(t.accounts) for b in seed_blocks for t in b]
        # Tight capacity: ~30 workload units per shard per tick against
        # 50 arriving transactions — hash routing (eta on ~90% of
        # traffic) overloads, TxAllo routing does not.
        params, controller = self.make_controller(seed_sets, lam=30.0)

        txallo_net = LiveShardedNetwork(params, controller)
        txallo_report = txallo_net.run(live_blocks, drain=True)

        accounts = {a for b in all_blocks for t in b for a in t.accounts}
        hash_net = LiveShardedNetwork(params, hash_partition(accounts, params.k))
        hash_report = hash_net.run(live_blocks, drain=True)

        assert txallo_report.cross_shard_ratio < hash_report.cross_shard_ratio
        assert len(txallo_report.ticks) < len(hash_report.ticks), (
            "TxAllo should drain the same traffic in fewer block intervals"
        )
        assert txallo_report.mean_latency < hash_report.mean_latency


def fluid_fifo_completion_ticks(arrivals, capacity):
    """Exact completion tick of each ``(arrival_tick, cost)`` slice on one
    FIFO shard draining ``capacity`` per tick (see ShardState.step)."""
    cap = Fraction(capacity)
    free = Fraction(0)
    ticks = []
    for arrived, cost in arrivals:
        free = max(free, Fraction(arrived)) + Fraction(cost) / cap
        ticks.append(math.ceil(free) - 1)
    return ticks


class TestStaticRoutingOracle:
    """A static mapping makes the whole run predictable: every shard is a
    FIFO queue over its slices in arrival order, and a transaction commits
    in the tick its slowest slice completes.  Costs and capacities are
    dyadic, so the network must match the exact oracle tick for tick."""

    @staticmethod
    def traffic(seed, k):
        rng = random.Random(seed)
        accounts = [f"a{i}" for i in range(6 * k)]
        mapping = {a: rng.randrange(k) for a in accounts}
        blocks = []
        for now in range(25):
            quiet = now % 10 >= 7
            blocks.append([
                Transaction(
                    inputs=(rng.choice(accounts),),
                    outputs=tuple(rng.sample(accounts, rng.choice([1, 1, 2]))),
                )
                for _ in range(0 if quiet else rng.randint(0, 6))
            ])
        return mapping, blocks

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("eta", [1.0, 2.0, 2.5])
    def test_commit_ticks_match_fifo_oracle(self, eta, lam, seed):
        k = 3
        mapping, blocks = self.traffic(seed, k)
        params = TxAlloParams(k=k, eta=eta, lam=lam)
        report = LiveShardedNetwork(params, mapping).run(blocks, drain=True)

        slices = [[] for _ in range(k)]  # (arrival, cost, tx index)
        arrivals = []
        for now, block in enumerate(blocks):
            for t in block:
                shards = {mapping[a] for a in t.accounts}
                for i in shards:
                    slices[i].append((now, 1.0 if len(shards) == 1 else eta, len(arrivals)))
                arrivals.append((now, len(shards) > 1))
        commit = [0] * len(arrivals)
        for shard in slices:
            done = fluid_fifo_completion_ticks([(a, c) for a, c, _ in shard], lam)
            for tick, (_, _, j) in zip(done, shard):
                commit[j] = max(commit[j], tick)
        latencies = sorted(c - a + 1 for c, (a, _) in zip(commit, arrivals))
        n_ticks = max([len(blocks) - 1] + commit) + 1

        assert report.arrived == report.committed == len(arrivals) > 0
        assert report.cross_shard_ratio == sum(x for _, x in arrivals) / len(arrivals)
        assert report.mean_latency == sum(latencies) / len(latencies)
        assert report.p99_latency == latencies[int(0.99 * (len(latencies) - 1))]
        assert len(report.ticks) == n_ticks
        assert [t.committed for t in report.ticks] == [commit.count(i) for i in range(n_ticks)]
        assert [t.arrived for t in report.ticks] == [
            len(blocks[i]) if i < len(blocks) else 0 for i in range(n_ticks)
        ]


    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "stalls",
        [((0, 2, 3),), ((1, 0, 5), (2, 10, 2)), ((0, 4, 1), (0, 6, 2), (2, 5, 4))],
        ids=["one", "two-shards", "overlapping"],
    )
    def test_stalled_shards_shift_commits_by_their_idle_ticks(self, stalls, seed):
        """A stalled shard serves nothing in its window.  In each shard's
        own *service time* (its unstalled ticks, counted) the queue is the
        plain FIFO oracle again; completions map back to wall ticks."""
        k, eta, lam = 3, 2.0, 2.0
        mapping, blocks = self.traffic(seed, k)
        plan = FaultPlan(stalls=tuple(ShardStall(s, t, n) for s, t, n in stalls))
        report = LiveShardedNetwork(
            TxAlloParams(k=k, eta=eta, lam=lam), mapping, fault_plan=plan
        ).run(blocks, drain=True)

        horizon = 200
        served = [[t for t in range(horizon) if not plan.stalled(i, t)] for i in range(k)]
        slices = [[] for _ in range(k)]
        arrivals = []
        for now, block in enumerate(blocks):
            for t in block:
                shards = {mapping[a] for a in t.accounts}
                for i in shards:
                    slices[i].append((now, 1.0 if len(shards) == 1 else eta, len(arrivals)))
                arrivals.append(now)
        commit = [0] * len(arrivals)
        for i, shard in enumerate(slices):
            # Service-time arrival: unstalled ticks strictly before arrival.
            service = [(sum(1 for t in served[i] if t < a), c) for a, c, _ in shard]
            for unit, (_, _, j) in zip(fluid_fifo_completion_ticks(service, lam), shard):
                commit[j] = max(commit[j], served[i][unit])
        latencies = sorted(c - a + 1 for c, a in zip(commit, arrivals))
        n_ticks = max([len(blocks) - 1] + commit) + 1

        assert report.committed == len(arrivals)
        assert len(report.ticks) == n_ticks
        assert [t.committed for t in report.ticks] == [commit.count(i) for i in range(n_ticks)]
        assert [t.stalled_shards for t in report.ticks] == [
            sum(plan.stalled(i, t) for i in range(k)) for t in range(n_ticks)
        ]
        assert report.mean_latency == sum(latencies) / len(latencies)
        assert report.p99_latency == latencies[int(0.99 * (len(latencies) - 1))]


class TestConservationAcrossAllocators:
    """Every registered method, driven live, commits exactly what arrived:
    no transaction is lost, duplicated or credited twice, whatever the
    allocator does to the mapping mid-run."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", allocators.available())
    def test_every_arrival_commits_once(self, name, seed):
        config = WorkloadConfig(num_accounts=120, num_transactions=600, block_size=20, seed=seed)
        all_blocks = blocks_from(EthereumWorkloadGenerator(config))
        history = [tuple(t.accounts) for b in all_blocks[:10] for t in b]
        params = TxAlloParams(k=3, eta=2.0, lam=12.0, tau1=2, tau2=8)
        allocator = allocators.get_online(name, params, seed_transactions=history)
        net = LiveShardedNetwork(params, allocator)
        live_blocks = all_blocks[10:]
        report = net.run(live_blocks, drain=True)

        arrived = sum(len(b) for b in live_blocks)
        assert report.arrived == report.committed == arrived
        assert sum(t.arrived for t in report.ticks) == arrived
        assert sum(t.committed for t in report.ticks) == arrived
        assert report.cross_shard_ratio == (
            sum(t.cross_shard_arrived for t in report.ticks) / arrived
        )
        assert report.ticks[-1].backlog_workload == 0.0
        assert all(s.queue_length == 0 for s in net.shards)
        # Each transaction's shares sum to one across its shards.
        assert sum(s.throughput_credit for s in net.shards) == pytest.approx(arrived)
        assert report.mean_latency >= 1.0 and report.p99_latency >= 1


#: sha256 of every live report :class:`TestGoldenLiveDigest` produces.
#: Any change to routing, queueing, completion tracking or latency
#: accounting in the live network moves it; a pure refactor must not.
GOLDEN_LIVE_DIGEST = "fefc07e2c08c9ea7497f1dff15f778d59be88ecbd8c8ed196bb3c705ee45971f"


class TestGoldenLiveDigest:
    """Byte-identity of the live network across refactors.

    Every registered allocator runs ``live_compare`` on two seeds, with
    and without the seeded fault plan; the digest covers every
    ``TickStats`` field and the report's aggregate figures.  It does not
    depend on ``PYTHONHASHSEED``.
    """

    def test_live_reports_match_the_golden_digest(self, any_sum):
        digest = hashlib.sha256()
        for seed in (1, 2):
            workload = build_workload(scale=0.05, seed=seed)
            for faults in (False, True):
                comparison = live_compare(
                    workload,
                    k=4,
                    tau1=2,
                    tau2=20,
                    methods=allocators.available(),
                    faults=faults,
                    fault_seed=seed if faults else None,
                )
                for name, report in sorted(comparison.reports.items()):
                    digest.update(name.encode())
                    for tick in report.ticks:
                        digest.update(repr(dataclasses.astuple(tick)).encode())
                    summary = (
                        report.committed,
                        report.arrived,
                        report.mean_latency,
                        report.p99_latency,
                        report.cross_shard_ratio,
                        report.dropped_malformed,
                        report.degraded_ticks,
                    )
                    digest.update(repr(summary).encode())
        assert digest.hexdigest() == GOLDEN_LIVE_DIGEST
