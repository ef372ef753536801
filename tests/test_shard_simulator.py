"""Tests for shard state and the discrete-time simulator, including the
cross-validation of the paper's analytic formulas (Eqs. 2-4) against the
event-level simulation."""

import math
import random
from fractions import Fraction

import pytest

from repro.chain.live import LiveShardedNetwork
from repro.chain.shard import ShardState
from repro.chain.simulator import ShardedChainSimulator, simulate_allocation
from repro.chain.types import Transaction
from repro.core.metrics import evaluate_allocation
from repro.core.params import TxAlloParams
from repro.errors import AllocationError, SimulationError


def tx(s, r):
    return Transaction.transfer(s, r)


def latency(item, now):
    """Confirmation latency of an item ``step(now)`` returned (>= 1)."""
    return now - item.enqueued_at + 1


class TestShardState:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            ShardState(0, capacity=0.0)

    def test_step_processes_up_to_capacity(self):
        shard = ShardState(0, capacity=2.0)
        for i in range(5):
            shard.enqueue(tx(f"s{i}", f"r{i}"), cost=1.0, share=1.0, now=0)
        done = shard.step(now=0)
        assert len(done) == 2
        assert shard.queue_length == 3

    def test_chronological_head_spans_units(self):
        """An expensive head is worked across units, never skipped."""
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=3.0, share=1.0, now=0)
        shard.enqueue(tx("c", "d"), cost=1.0, share=1.0, now=0)
        assert shard.step(now=0) == []
        assert shard.step(now=1) == []
        done = shard.step(now=2)
        assert len(done) == 1 and done[0].key.inputs == ("a",)
        assert latency(done[0], now=2) == 3
        assert shard.step(now=3)[0].key.inputs == ("c",)

    def test_latency_computation(self):
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=1.0, share=1.0, now=0)
        done = shard.step(now=0)
        assert latency(done[0], now=0) == 1

    def test_throughput_credit_accumulates_shares(self):
        shard = ShardState(0, capacity=10.0)
        shard.enqueue(tx("a", "b"), cost=2.0, share=0.5, now=0)
        shard.enqueue(tx("c", "d"), cost=1.0, share=1.0, now=0)
        shard.step(now=0)
        assert shard.throughput_credit == pytest.approx(1.5)

    def test_invalid_work_item(self):
        shard = ShardState(0, capacity=1.0)
        with pytest.raises(SimulationError):
            shard.enqueue(tx("a", "b"), cost=0.0, share=1.0, now=0)

    def test_drain_fully(self):
        shard = ShardState(0, capacity=1.0)
        for i in range(4):
            shard.enqueue(tx(f"s{i}", f"r{i}"), cost=1.0, share=1.0, now=0)
        units = shard.drain_fully(start=0)
        assert units == 4
        assert shard.queue_length == 0


class TestSimulator:
    def test_unknown_account_rejected(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        sim = ShardedChainSimulator(params, {"a": 0})
        with pytest.raises(AllocationError):
            sim.submit(tx("a", "ghost"))

    def test_invalid_mapping_rejected(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        with pytest.raises(AllocationError):
            ShardedChainSimulator(params, {"a": 5})

    def test_cross_shard_counted(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        sim = ShardedChainSimulator(params, {"a": 0, "b": 1, "c": 0})
        assert sim.submit(tx("a", "b")) == 2
        assert sim.submit(tx("a", "c")) == 1
        report = sim.run()
        assert report.num_cross_shard == 1
        assert report.cross_shard_ratio == pytest.approx(0.5)

    def test_run_gives_up_past_max_units(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        txs = [tx("a", "b")] * 3  # 6 units of work on each shard
        with pytest.raises(SimulationError, match="did not drain within 4 units"):
            simulate_allocation(txs, {"a": 0, "b": 1}, params, max_units=4)
        assert simulate_allocation(txs, {"a": 0, "b": 1}, params, max_units=6).total_units == 6

    def test_report_workloads(self):
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        mapping = {"a": 0, "b": 1}
        report = simulate_allocation([tx("a", "b")], mapping, params)
        assert report.per_shard_workload == (3.0, 3.0)


class TestCrossValidation:
    """Eqs. 2-4 against the event-level simulation (DESIGN.md §5)."""

    def scenario(self, k=4, lam=5.0, eta=2.0, seed=3):
        import random

        rng = random.Random(seed)
        accounts = [f"a{i}" for i in range(24)]
        mapping = {a: i % k for i, a in enumerate(accounts)}
        txs = [
            Transaction.transfer(*rng.sample(accounts, 2)) for _ in range(60)
        ]
        params = TxAlloParams(k=k, eta=eta, lam=lam)
        return txs, mapping, params

    def test_first_unit_throughput_matches_eq3(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        # The analytic Lambda is a fluid steady-state rate; the event
        # simulator works at whole-transaction granularity, so agreement
        # is to within one transaction's workload per shard.
        tolerance = params.k * params.eta / analytic.throughput
        assert sim_report.first_unit_throughput == pytest.approx(
            analytic.throughput, rel=max(0.15, tolerance)
        )

    def test_worst_case_latency_matches_ceiling(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        assert sim_report.worst_case_latency == int(analytic.worst_case_latency)

    def test_mean_latency_close_to_eq4(self):
        txs, mapping, params = self.scenario()
        sim_report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation(
            [tuple(t.accounts) for t in txs], mapping, params
        )
        assert sim_report.mean_latency == pytest.approx(
            analytic.average_latency, rel=0.25
        )

    def test_underloaded_system_all_done_in_one_unit(self):
        txs, mapping, params = self.scenario(lam=1000.0)
        report = simulate_allocation(txs, mapping, params)
        assert report.total_units == 1
        assert report.worst_case_latency == 1
        assert report.mean_latency == pytest.approx(1.0)

    def test_throughput_shares_prevent_double_counting(self):
        """Total committed credit equals the number of transactions."""
        txs, mapping, params = self.scenario(lam=1000.0)
        sim = ShardedChainSimulator(params, mapping)
        sim.submit_all(txs)
        report = sim.run()
        assert report.first_unit_throughput == pytest.approx(len(txs))


def reference_backlog(shard):
    """The defining formula: queued cost minus progress on the head."""
    return sum(item.cost for item in shard._queue) - shard._carry


def random_queue_walk(eta, seed, steps=400):
    """Yield a shard after every enqueue/step of a seeded random walk.

    Busy spells (20 ticks of random arrivals) alternate with quiet ones
    (40 ticks without), so the queue both builds a backlog and drains to
    empty several times.
    """
    rng = random.Random(seed)
    shard = ShardState(0, capacity=rng.choice([1.0, 1.7, 2.5, 3.3]))
    for now in range(steps):
        burst = now % 60 < 20 and rng.random() < 0.5
        for i in range(rng.randint(0, 4) if burst else 0):
            cost = eta if rng.random() < 0.4 else 1.0
            shard.enqueue(tx(f"s{now}.{i}", f"r{now}.{i}"), cost=cost, share=0.5, now=now)
            yield shard
        shard.step(now=now)
        yield shard


class TestRunningBacklog:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("eta", [1.0, 2.0, 1.5])
    def test_exact_for_dyadic_costs(self, eta, seed):
        drained = 0
        for shard in random_queue_walk(eta, seed):
            assert shard.backlog_workload == reference_backlog(shard)
            if shard.queue_length == 0:
                drained += 1
                assert shard.backlog_workload == 0.0
        assert drained > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_close_for_non_dyadic_eta(self, seed):
        drained = 0
        for shard in random_queue_walk(1.3, seed):
            assert shard.backlog_workload == pytest.approx(
                reference_backlog(shard), rel=1e-9, abs=1e-9
            )
            if shard.queue_length == 0:
                drained += 1
                # The running sum resets, so float dust never survives a drain.
                assert shard.backlog_workload == 0.0
        assert drained > 0

    def test_is_still_a_property(self):
        # Tracers wrap the getter (ShardState.backlog_workload.fget).
        assert isinstance(ShardState.__dict__["backlog_workload"], property)

    def test_counters_summarise_completed_items(self):
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=3.0, share=1.0, now=0)
        shard.enqueue(tx("c", "d"), cost=1.0, share=1.0, now=1)
        done = []
        for now in range(4):
            done.extend((item, now) for item in shard.step(now=now))
        latencies = [latency(item, now) for item, now in done]
        assert latencies == [3, 3]
        assert shard.processed_count == 2
        assert shard.latency_sum == sum(latencies)
        assert shard.latency_max == max(latencies)


def record_slices(monkeypatch):
    """Record (shard, key, enqueued_at, completed_at) for every finished slice."""
    slices = []
    original = ShardState.step

    def step(shard, now):
        done = original(shard, now)
        for item in done:
            slices.append((shard.shard_id, item.key, item.enqueued_at, now))
        return done

    monkeypatch.setattr(ShardState, "step", step)
    return slices


class TestLatencyCounters:
    """The histogram and per-shard counters reproduce the list formulas."""

    def test_live_report_on_a_hand_built_trace(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1.0)
        net = LiveShardedNetwork(params, {"a": 0, "b": 0, "c": 1, "d": 1})
        net.tick([tx("a", "b"), tx("a", "b"), tx("c", "d")])
        net.tick([tx("a", "c")])
        report = net.run([], drain=True)
        # ab and cd commit at tick 0, the queued ab at tick 1, and the
        # cross-shard ac (cost 2 on both shards) waits for shard 0 until
        # tick 3: latencies 1, 1, 2, 3.
        latencies = sorted([1, 1, 2, 3])
        assert report.committed == 4
        assert report.mean_latency == sum(latencies) / len(latencies)
        assert report.p99_latency == latencies[int(0.99 * (len(latencies) - 1))] == 2

    def test_live_report_matches_list_formulas(self, monkeypatch):
        slices = record_slices(monkeypatch)
        rng = random.Random(5)
        accounts = [f"a{i}" for i in range(30)]
        mapping = {a: i % 3 for i, a in enumerate(accounts)}
        net = LiveShardedNetwork(TxAlloParams(k=3, eta=2.0, lam=4.0), mapping)
        blocks = [
            [tx(*rng.sample(accounts, 2)) for _ in range(rng.randint(0, 12))]
            for _ in range(40)
        ]
        report = net.run(blocks, drain=True)
        done = {}
        for _, key, enqueued, completed in slices:
            done[key] = (enqueued, max(completed, done.get(key, (0, 0))[1]))
        latencies = sorted(c - e + 1 for e, c in done.values())
        assert len(latencies) == report.committed > 100
        assert report.mean_latency == sum(latencies) / len(latencies)
        assert report.p99_latency == latencies[int(0.99 * (len(latencies) - 1))]

    def test_one_transaction_twice_in_a_block_commits_twice(self, monkeypatch):
        """The same object delivered twice is two arrivals, each tracked to
        its own commit on both shards of a cross-shard pair."""
        slices = record_slices(monkeypatch)
        params = TxAlloParams(k=2, eta=2.0, lam=1.5)
        net = LiveShardedNetwork(params, {"a": 0, "b": 1})
        t = tx("a", "b")
        report = net.run([[t, t]], drain=True)
        # Each shard queues two eta-cost slices at tick 0.
        expected = fluid_fifo_completions([(0, params.eta)] * 2, params.lam)
        assert expected == [1, 2]
        for shard_id in range(params.k):
            mine = [s for s in slices if s[0] == shard_id]
            assert [completed for _, _, _, completed in mine] == expected
        assert len({key for _, key, _, _ in slices}) == 2
        latencies = [completed + 1 for completed in expected]  # arrived at tick 0
        assert report.arrived == report.committed == 2
        assert [tick.committed for tick in report.ticks] == [0, 1, 1]
        assert report.mean_latency == sum(latencies) / len(latencies)
        assert report.p99_latency == latencies[int(0.99 * (len(latencies) - 1))]
        assert report.cross_shard_ratio == 1.0

    def test_completion_for_an_unknown_arrival_raises(self):
        net = LiveShardedNetwork(TxAlloParams(k=2, eta=2.0, lam=1.0), {"a": 0})
        net.shards[1].enqueue(99, cost=1.0, share=1.0, now=0)
        with pytest.raises(SimulationError, match="completion for unknown tx 99"):
            net.tick([])

    def test_empty_run_reports_zero(self):
        net = LiveShardedNetwork(TxAlloParams(k=2, eta=2.0, lam=1.0), {})
        report = net.report()
        assert (report.mean_latency, report.p99_latency) == (0.0, 0)

    def test_simulation_report_matches_list_formulas(self, monkeypatch):
        slices = record_slices(monkeypatch)
        txs, mapping, params = TestCrossValidation().scenario()
        report = simulate_allocation(txs, mapping, params)
        per_shard = [[] for _ in range(params.k)]
        for shard_id, _, enqueued, completed in slices:
            per_shard[shard_id].append(completed - enqueued + 1)
        expected = tuple(sum(lat) / len(lat) if lat else 1.0 for lat in per_shard)
        assert report.per_shard_mean_latency == expected
        assert report.mean_latency == sum(expected) / len(expected)
        assert report.worst_case_latency == max(max(lat) for lat in per_shard if lat)


def fluid_fifo_completions(arrivals, capacity):
    """Completion tick of each ``(arrival_tick, cost)`` job, in queue order.

    The model ``ShardState`` implements, computed in exact rationals: one
    FIFO server draining ``capacity`` workload per tick.  A job starts
    once it has arrived and the job ahead of it has finished, takes
    ``cost / capacity`` ticks, and completes in the tick its finish time
    falls in (a finish exactly on a tick boundary belongs to the tick that
    ends there).  Capacity left over while the queue is empty is lost.
    """
    cap = Fraction(capacity)
    free = Fraction(0)
    completions = []
    for arrived, cost in arrivals:
        free = max(free, Fraction(arrived)) + Fraction(cost) / cap
        completions.append(math.ceil(free) - 1)
    return completions


def random_arrivals(seed, ticks=40, costs=(1.0, 2.0, 1.5, 0.5)):
    """Seeded ``(arrival_tick, cost)`` list with busy and quiet spells."""
    rng = random.Random(seed)
    arrivals = []
    for now in range(ticks):
        if now % 15 < 8:
            arrivals.extend((now, rng.choice(costs)) for _ in range(rng.randint(0, 4)))
    return arrivals


class TestShardQueueModel:
    """``ShardState`` against an exact fluid FIFO oracle.

    All costs and capacities are dyadic, so the shard's float arithmetic
    is exact and every completion tick must match the oracle.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [0.5, 1.0, 1.5, 3.0])
    def test_completion_ticks_match_fluid_fifo(self, capacity, seed):
        arrivals = random_arrivals(seed)
        expected = fluid_fifo_completions(arrivals, capacity)
        shard = ShardState(0, capacity=capacity)
        by_tick = {}
        for i, (arrived, cost) in enumerate(arrivals):
            by_tick.setdefault(arrived, []).append((i, cost))
        got = {}
        now = 0
        while now < 40 or shard.queue_length:
            for i, cost in by_tick.get(now, ()):
                shard.enqueue(tx(f"s{i}", f"r{i}"), cost=cost, share=1.0, now=now)
            for done in shard.step(now=now):
                got[done.key.inputs[0]] = now
            now += 1
        assert [got[f"s{i}"] for i in range(len(arrivals))] == expected
        latencies = [c - a + 1 for c, (a, _) in zip(expected, arrivals)]
        assert shard.processed_count == len(arrivals)
        assert shard.latency_sum == sum(latencies)
        assert shard.latency_max == max(latencies)
        assert shard.total_workload == sum(cost for _, cost in arrivals)
        assert shard.backlog_workload == 0.0

    @pytest.mark.parametrize(
        "cost, share",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)],
        ids=["zero-cost", "negative-cost", "zero-share", "negative-share"],
    )
    def test_rejected_item_leaves_the_shard_untouched(self, cost, share):
        shard = ShardState(0, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=2.0, share=1.0, now=0)
        with pytest.raises(SimulationError):
            shard.enqueue(tx("c", "d"), cost=cost, share=share, now=0)
        assert shard.queue_length == 1
        assert shard.backlog_workload == 2.0
        assert shard.total_workload == 2.0

    @pytest.mark.parametrize(
        "capacity, costs",
        [
            (1.0, [1.0] * 4),
            (2.0, [1.0, 1.0, 1.0]),
            (1.0, [2.5, 0.5]),
            (4.0, [2.0, 2.0, 2.0, 2.0, 0.5]),
            (1.5, [1.0, 2.0, 1.0, 2.0]),
            (0.5, [1.0, 0.5]),
        ],
    )
    def test_drain_takes_ceiling_of_total_over_capacity(self, capacity, costs):
        """Chronological processing is still work-conserving: budget left
        after the head finishes goes to the next item in the same tick."""
        shard = ShardState(0, capacity=capacity)
        for i, cost in enumerate(costs):
            shard.enqueue(tx(f"s{i}", f"r{i}"), cost=cost, share=1.0, now=0)
        assert shard.drain_fully(start=0) == math.ceil(sum(costs) / capacity)
        assert shard.processed_count == len(costs)
        assert shard.latency_max == math.ceil(sum(costs) / capacity)

    def test_drain_fully_gives_up_past_max_units(self):
        shard = ShardState(3, capacity=1.0)
        shard.enqueue(tx("a", "b"), cost=5.0, share=1.0, now=0)
        with pytest.raises(SimulationError, match="shard 3 failed to drain within 2 units"):
            shard.drain_fully(start=0, max_units=2)


class TestSimulatorGrid:
    """Exact simulator-vs-analytic agreement over a grid of shapes.

    Everything is submitted at t=0, so each shard's FIFO completes its
    ``j``-th slice at tick ``ceil(prefix_j / λ) - 1``; workloads, the
    cross-shard ratio and the worst case must equal Eqs. 1-4's inputs.
    """

    @staticmethod
    def scenario(k, eta, seed):
        rng = random.Random(seed)
        accounts = [f"a{i}" for i in range(5 * k)]
        mapping = {a: rng.randrange(k) for a in accounts}
        txs = []
        for _ in range(12 * k):
            outputs = tuple(rng.sample(accounts, rng.choice([1, 1, 1, 2])))
            txs.append(Transaction(inputs=(rng.choice(accounts),), outputs=outputs))
        return txs, mapping, TxAlloParams(k=k, eta=eta, lam=4.0)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("eta", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_report_matches_queue_oracle_and_analytic_inputs(self, k, eta, seed):
        txs, mapping, params = self.scenario(k, eta, seed)
        report = simulate_allocation(txs, mapping, params)
        analytic = evaluate_allocation([tuple(t.accounts) for t in txs], mapping, params)

        costs = [[] for _ in range(k)]
        for t in txs:
            shards = {mapping[a] for a in t.accounts}
            for i in shards:
                costs[i].append(1.0 if len(shards) == 1 else eta)
        latencies = [
            [c + 1 for c in fluid_fifo_completions([(0, c) for c in shard], params.lam)]
            for shard in costs
        ]
        per_shard = tuple(sum(lat) / len(lat) if lat else 1.0 for lat in latencies)

        assert report.num_transactions == analytic.num_transactions == len(txs)
        assert report.num_cross_shard == analytic.num_cross_shard
        assert report.cross_shard_ratio == analytic.cross_shard_ratio
        assert report.per_shard_workload == analytic.shard_workloads
        assert report.per_shard_mean_latency == per_shard
        assert report.mean_latency == sum(per_shard) / k
        assert report.worst_case_latency == int(analytic.worst_case_latency)
        assert report.total_units == max(math.ceil(sum(c) / params.lam) for c in costs)
