"""Tests for the Section III-B metrics, including the latency closed form."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TransactionGraph
from repro.core.metrics import (
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
