"""Tests for the Section III-B metrics, including the latency closed form."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation, capped_throughput
from repro.core.graph import TransactionGraph
from repro.core.metrics import (
    MetricsReport,
    average_latency,
    evaluate_allocation,
    graph_cross_shard_ratio,
    graph_shard_workloads,
    graph_throughput,
    involved_shards,
    is_cross_shard,
    mu,
    shard_latency,
    workload_balance,
    worst_case_latency,
)
from repro.core.params import TxAlloParams
from repro.errors import AllocationError
from repro.eval.experiments import build_workload, sweep

MAPPING = {"a": 0, "b": 0, "c": 1, "d": 2}


class TestMu:
    def test_intra_shard(self):
        assert mu(("a", "b"), MAPPING) == 1

    def test_cross_two(self):
        assert mu(("a", "c"), MAPPING) == 2

    def test_cross_three(self):
        assert mu(("a", "c", "d"), MAPPING) == 3

    def test_self_loop_is_intra(self):
        assert mu(("a",), MAPPING) == 1

    def test_is_cross_shard(self):
        assert not is_cross_shard(("a", "b"), MAPPING)
        assert is_cross_shard(("b", "c"), MAPPING)

    def test_unallocated_account_raises(self):
        with pytest.raises(AllocationError):
            involved_shards(("a", "zzz"), MAPPING)


class TestEvaluate:
    def setup_method(self):
        self.params = TxAlloParams(k=3, eta=2.0, lam=10.0)

    def test_counts_and_ratio(self):
        txs = [("a", "b"), ("a", "c"), ("d",), ("b", "c")]
        rep = evaluate_allocation(txs, MAPPING, self.params)
        assert rep.num_transactions == 4
        assert rep.num_cross_shard == 2
        assert rep.cross_shard_ratio == pytest.approx(0.5)

    def test_workloads_follow_eta(self):
        txs = [("a", "b"), ("a", "c")]
        rep = evaluate_allocation(txs, MAPPING, self.params)
        # shard0: 1 intra + eta cross; shard1: eta cross; shard2: idle.
        assert rep.shard_workloads == pytest.approx((3.0, 2.0, 0.0))

    def test_throughput_shares(self):
        txs = [("a", "c")]  # one cross tx over two shards
        rep = evaluate_allocation(txs, MAPPING, self.params)
        assert rep.throughput == pytest.approx(1.0)  # 0.5 + 0.5

    def test_throughput_capped(self):
        params = TxAlloParams(k=3, eta=2.0, lam=2.0)
        txs = [("a", "b")] * 10  # sigma_0 = 10 > lam = 2
        rep = evaluate_allocation(txs, MAPPING, params)
        assert rep.throughput == pytest.approx(2.0)

    def test_empty_stream(self):
        rep = evaluate_allocation([], MAPPING, self.params)
        assert rep.num_transactions == 0
        assert rep.cross_shard_ratio == 0.0

    def test_accepts_plain_dict_or_allocation(self, triangle_graph):
        from repro.core.allocation import Allocation

        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        partition = {v: 0 for v in triangle_graph.nodes()}
        alloc = Allocation.from_partition(triangle_graph, params, partition)
        txs = [("a", "b")]
        r1 = evaluate_allocation(txs, alloc, params)
        r2 = evaluate_allocation(txs, partition, params)
        assert r1 == r2


def _oracle_evaluate(transactions, allocation, params):
    """Eqs. 1-5 one transaction at a time through ``involved_shards``."""
    mapping = allocation.mapping() if isinstance(allocation, Allocation) else allocation
    k, eta, lam = params.k, params.eta, params.lam
    sigma = [0.0] * k
    lam_hat = [0.0] * k
    total = 0
    cross = 0
    for accounts in transactions:
        shards = involved_shards(accounts, mapping)
        total += 1
        m = len(shards)
        if m == 1:
            (i,) = shards
            sigma[i] += 1.0
            lam_hat[i] += 1.0
        else:
            cross += 1
            share = 1.0 / m
            for i in shards:
                sigma[i] += eta
                lam_hat[i] += share
    throughput = sum(capped_throughput(s, lh, lam) for s, lh in zip(sigma, lam_hat))
    return MetricsReport(
        num_transactions=total,
        num_cross_shard=cross,
        cross_shard_ratio=(cross / total) if total else 0.0,
        shard_workloads=tuple(sigma),
        workload_balance=workload_balance(sigma, lam),
        throughput=throughput,
        normalized_throughput=throughput / lam if lam not in (0.0, math.inf) else 0.0,
        average_latency=average_latency(sigma, lam),
        worst_case_latency=worst_case_latency(sigma, lam),
    )


def _mixed_stream(seed, accounts, n=400):
    """1-, 2- and 3+-account transactions, ``(a, a)`` pairs, and every
    container type the evaluator accepts."""
    rng = random.Random(seed)
    containers = [tuple, list, set, frozenset]
    txs = []
    for _ in range(n):
        size = rng.choice([1, 2, 2, 2, 3, 4, 6])
        accs = rng.sample(accounts, size)
        if rng.random() < 0.1:
            accs = [accs[0], accs[0]]
        txs.append(rng.choice(containers)(accs))
    return txs


#: sha256 of small-scale ``sweep`` records (every field but the wall-clock
#: ``runtime_seconds``), recorded with the per-transaction evaluator.
SWEEP_GOLDEN = "718cb63014f4fa97c379a50ac41dc44c31a88ea9e84ed1440d8c4c76d4e515fe"


class TestEvaluateExactness:
    """``evaluate_allocation`` equals the per-transaction oracle bit for bit."""

    ACCOUNTS = [f"acc{i}" for i in range(40)]

    @pytest.mark.parametrize("lam", [3.0, 25.0, math.inf])
    @pytest.mark.parametrize("eta", [1.0, 1.7, 3.0])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_on_mixed_streams(self, seed, k, eta, lam):
        rng = random.Random(seed + 100 * k)
        mapping = {a: rng.randrange(k) for a in self.ACCOUNTS}
        txs = _mixed_stream(seed, self.ACCOUNTS)
        params = TxAlloParams(k=k, eta=eta, lam=lam)
        assert evaluate_allocation(txs, mapping, params) == _oracle_evaluate(txs, mapping, params)

    def test_self_pair_is_intra_shard(self):
        txs = [("a", "a"), ["c", "c"], ("a", "c")]
        params = TxAlloParams(k=3, eta=2.0, lam=10.0)
        rep = evaluate_allocation(txs, MAPPING, params)
        assert rep.num_cross_shard == 1
        assert rep.shard_workloads == (3.0, 3.0, 0.0)
        assert rep == _oracle_evaluate(txs, MAPPING, params)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_allocation_in_place_of_dict(self, seed):
        graph = TransactionGraph()
        txs = _mixed_stream(seed, self.ACCOUNTS, n=200)
        graph.add_transactions([tuple(sorted(t)) for t in txs])
        params = TxAlloParams(k=4, eta=2.5, lam=12.0)
        rng = random.Random(seed)
        partition = {v: rng.randrange(4) for v in graph.nodes()}
        alloc = Allocation.from_partition(graph, params, partition)
        got = evaluate_allocation(txs, alloc, params)
        assert got == _oracle_evaluate(txs, alloc, params)
        assert got == evaluate_allocation(txs, partition, params)

    @pytest.mark.parametrize(
        "tx",
        [("a", "zzz"), ("zzz", "a"), ("zzz", "yyy"), ("a", "zzz", "c"), ["a", "c", "zzz", "yyy"]],
    )
    def test_unallocated_account_message(self, tx):
        params = TxAlloParams(k=3, eta=2.0, lam=10.0)
        with pytest.raises(AllocationError) as want:
            involved_shards(tx, MAPPING)
        with pytest.raises(AllocationError) as got:
            evaluate_allocation([("a", "b"), tx], MAPPING, params)
        assert str(got.value) == str(want.value)
        assert "zzz" in str(got.value)

    def test_sweep_golden(self):
        workload = build_workload(scale=0.05, seed=13)
        methods = ("txallo", "hash", "metis", "shard_scheduler")
        records = sweep(workload, ks=(2, 8), etas=(1.5, 3.0), methods=methods)
        rows = [
            tuple(v for f, v in dataclasses.asdict(r).items() if f != "runtime_seconds")
            for r in records
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == SWEEP_GOLDEN


class TestBalance:
    def test_uniform_workloads_are_balanced(self):
        assert workload_balance([5.0, 5.0, 5.0], lam=1.0) == 0.0

    def test_known_deviation(self):
        # population std of [0, 2] is 1
        assert workload_balance([0.0, 2.0], lam=1.0) == pytest.approx(1.0)

    def test_lam_normalisation(self):
        assert workload_balance([0.0, 2.0], lam=2.0) == pytest.approx(0.5)

    def test_empty(self):
        assert workload_balance([], lam=1.0) == 0.0

    def test_infinite_lam_returns_raw(self):
        assert workload_balance([0.0, 2.0], lam=math.inf) == pytest.approx(1.0)


class TestLatency:
    def test_underloaded_shard_latency_is_one(self):
        assert shard_latency(5.0, lam=10.0) == 1.0

    def test_exactly_full_shard(self):
        assert shard_latency(10.0, lam=10.0) == 1.0

    def test_empty_shard(self):
        assert shard_latency(0.0, lam=10.0) == 1.0

    def test_integer_normalised_workload(self):
        # sigma_hat = 2: integral 0..2 of ceil = 1 + 2 = 3; 3/2 = 1.5.
        # (The paper's printed closed form degenerates here; the exact
        # integral is what Eq. 4 defines.)
        assert shard_latency(20.0, lam=10.0) == pytest.approx(1.5)

    def test_fractional_normalised_workload_matches_paper_formula(self):
        sigma_hat = 2.5
        paper = (
            math.floor(sigma_hat) * math.ceil(sigma_hat) / (2 * sigma_hat)
            + (sigma_hat - math.floor(sigma_hat)) * math.ceil(sigma_hat) / sigma_hat
        )
        assert shard_latency(25.0, lam=10.0) == pytest.approx(paper)

    def test_latency_monotone_in_workload(self):
        values = [shard_latency(s, lam=10.0) for s in (5, 10, 15, 20, 40, 80)]
        assert values == sorted(values)

    def test_invalid_capacity(self):
        with pytest.raises(AllocationError):
            shard_latency(1.0, lam=0.0)

    def test_average_latency(self):
        assert average_latency([5.0, 25.0], lam=10.0) == pytest.approx(
            (1.0 + shard_latency(25.0, 10.0)) / 2
        )

    def test_worst_case_is_ceiling_of_max(self):
        assert worst_case_latency([5.0, 33.0], lam=10.0) == 4.0

    def test_worst_case_minimum_one(self):
        assert worst_case_latency([0.5], lam=10.0) == 1.0

    def test_worst_case_empty_system(self):
        assert worst_case_latency([0.0, 0.0], lam=10.0) == 1.0

    @given(sigma=st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_property_latency_equals_numeric_integral(self, sigma):
        """Closed form == numeric integral of ceil(x) on [0, sigma_hat]."""
        lam = 10.0
        sigma_hat = sigma / lam
        if sigma_hat <= 0:
            return
        whole = int(math.floor(sigma_hat))
        numeric = whole * (whole + 1) / 2.0
        if sigma_hat > whole:
            numeric += (sigma_hat - whole) * (whole + 1)
        expected = max(1.0, numeric / sigma_hat)
        assert shard_latency(sigma, lam) == pytest.approx(expected)


class TestGraphLevel:
    def build(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c"))
        g.add_transaction(("c",))
        return g

    def test_graph_workloads_match_eq5(self):
        g = self.build()
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        mapping = {"a": 0, "b": 0, "c": 1}
        sigma = graph_shard_workloads(g, mapping, params)
        # shard0: intra {a,b}=1 + cut {b,c}=3 -> 4 ; shard1: loop 1 + cut 3.
        assert sigma == pytest.approx([4.0, 4.0])

    def test_graph_cross_ratio(self):
        g = self.build()
        mapping = {"a": 0, "b": 0, "c": 1}
        assert graph_cross_shard_ratio(g, mapping) == pytest.approx(1.0 / 3.0)

    def test_graph_cross_ratio_all_intra(self):
        g = self.build()
        mapping = {"a": 0, "b": 0, "c": 0}
        assert graph_cross_shard_ratio(g, mapping) == 0.0

    def test_graph_throughput_all_intra_equals_weight(self):
        g = self.build()
        params = TxAlloParams(k=2, eta=3.0, lam=100.0)
        mapping = {"a": 0, "b": 0, "c": 0}
        assert graph_throughput(g, mapping, params) == pytest.approx(3.0)

    def test_graph_throughput_agrees_with_allocation_cache(self, clustered_graph):
        from repro.core.allocation import Allocation

        params = TxAlloParams(k=3, eta=2.0, lam=50.0)
        partition = {v: i % 3 for i, v in enumerate(clustered_graph.nodes())}
        alloc = Allocation.from_partition(clustered_graph, params, partition)
        assert graph_throughput(clustered_graph, partition, params) == pytest.approx(
            alloc.total_throughput()
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 4])
    def test_graph_and_tx_level_agree_on_random_pairwise_streams(self, k, seed):
        """For 1-in-1-out transactions and self-sends, Eq. 5 on the graph
        equals the transaction-level Eqs. 1-3: workloads, cross-shard
        ratio and capped throughput (all sums are exact here)."""
        rng = random.Random(seed)
        accounts = [f"a{i}" for i in range(12)]
        txs = [tuple(rng.sample(accounts, rng.choice([1, 2, 2, 2]))) for _ in range(80)]
        g = TransactionGraph()
        g.add_transactions(txs)
        mapping = {a: rng.randrange(k) for a in accounts}
        params = TxAlloParams(k=k, eta=2.5, lam=8.0)
        report = evaluate_allocation(txs, mapping, params)
        assert graph_shard_workloads(g, mapping, params) == list(report.shard_workloads)
        assert graph_cross_shard_ratio(g, mapping) == report.cross_shard_ratio
        assert graph_throughput(g, mapping, params) == pytest.approx(
            report.throughput, rel=1e-12
        )

    def test_graph_and_tx_level_agree_on_pairwise_workloads(self):
        """For 1-in-1-out transactions the two sigma definitions coincide."""
        g = TransactionGraph()
        txs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        for t in txs:
            g.add_transaction(t)
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        mapping = {"a": 0, "b": 0, "c": 1, "d": 1}
        graph_sigma = graph_shard_workloads(g, mapping, params)
        tx_sigma = evaluate_allocation(txs, mapping, params).shard_workloads
        assert graph_sigma == pytest.approx(list(tx_sigma))
