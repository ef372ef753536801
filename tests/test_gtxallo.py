"""Tests for Algorithm 1 (G-TxAllo)."""


from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.metrics import evaluate_allocation, graph_cross_shard_ratio
from repro.core.params import TxAlloParams
from repro.baselines.hash_allocation import hash_partition
from tests.conftest import make_random_graph


def planted_graph(seed=13):
    return make_random_graph(num_accounts=80, num_transactions=600, seed=seed, groups=4)


class TestBasics:
    def test_result_is_valid_allocation(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        result = g_txallo(graph, params)
        result.allocation.validate()
        assert result.allocation.num_communities == 4

    def test_every_account_allocated(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        mapping = g_txallo(graph, params).allocation.mapping()
        assert set(mapping) == set(graph.nodes())
        assert set(mapping.values()) <= set(range(4))

    def test_recovers_planted_communities(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        result = g_txallo(graph, params)
        assert graph_cross_shard_ratio(graph, result.allocation) < 0.30

    def test_beats_hash_allocation_on_cross_shard(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        ours = graph_cross_shard_ratio(graph, g_txallo(graph, params).allocation)
        hashed = graph_cross_shard_ratio(graph, hash_partition(graph.nodes_sorted(), 4))
        assert ours < hashed

    def test_throughput_never_below_initialisation(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        result = g_txallo(graph, params)
        from repro.core.allocation import Allocation

        hash_alloc = Allocation.from_partition(
            graph, params, hash_partition(graph.nodes_sorted(), 4)
        )
        assert result.allocation.total_throughput() >= hash_alloc.total_throughput()

    def test_more_shards_than_louvain_communities(self):
        """The uncommon l <= k path pads with empty shards."""
        g = TransactionGraph()
        for pair in [("a", "b"), ("b", "c"), ("a", "c")]:
            g.add_transaction(pair)
        params = TxAlloParams.with_capacity_for(3, k=5, eta=2.0)
        result = g_txallo(g, params)
        result.allocation.validate()
        assert result.allocation.num_communities == 5

    def test_single_shard(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=1, eta=2.0)
        result = g_txallo(graph, params)
        assert set(result.allocation.mapping().values()) == {0}
        assert graph_cross_shard_ratio(graph, result.allocation) == 0.0

    def test_stats_populated(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        result = g_txallo(graph, params)
        assert result.sweeps >= 1
        assert result.louvain_communities >= 1
        assert result.init_seconds >= 0.0
        assert result.total_seconds >= result.optimise_seconds


class TestDeterminism:
    def test_identical_runs_identical_mappings(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        m1 = g_txallo(graph, params).allocation.mapping()
        m2 = g_txallo(graph, params).allocation.mapping()
        assert m1 == m2

    def test_graph_copy_identical_mapping(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        m1 = g_txallo(graph, params).allocation.mapping()
        m2 = g_txallo(graph.copy(), params).allocation.mapping()
        assert m1 == m2

    def test_rebuilt_workload_identical_mapping(self):
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        m1 = g_txallo(planted_graph(), params).allocation.mapping()
        m2 = g_txallo(planted_graph(), params).allocation.mapping()
        assert m1 == m2


class TestCustomInitialisation:
    def test_explicit_partition_respected(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        init = hash_partition(graph.nodes_sorted(), 4)
        result = g_txallo(graph, params, initial_partition=init)
        result.allocation.validate()

    def test_louvain_init_at_least_as_good_as_hash_init(self):
        graph = planted_graph()
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
        louvain_run = g_txallo(graph, params)
        hash_run = g_txallo(
            graph, params, initial_partition=hash_partition(graph.nodes_sorted(), 4)
        )
        assert (
            louvain_run.allocation.total_throughput()
            >= hash_run.allocation.total_throughput() - params.epsilon * 10
        )


class TestEtaSelfAdjustment:
    def test_larger_eta_does_not_increase_cross_ratio(self):
        """Section VI-B2: larger eta prioritises gamma."""
        graph = planted_graph()
        ratios = []
        for eta in (1.0, 4.0, 10.0):
            params = TxAlloParams.with_capacity_for(600, k=4, eta=eta)
            ratios.append(
                graph_cross_shard_ratio(graph, g_txallo(graph, params).allocation)
            )
        assert ratios[-1] <= ratios[0] + 0.05


class TestEndToEndMetrics:
    def test_transaction_level_report(self, small_workload):
        params = TxAlloParams.with_capacity_for(
            len(small_workload["sets"]), k=8, eta=2.0
        )
        result = g_txallo(small_workload["graph"], params)
        report = evaluate_allocation(small_workload["sets"], result.allocation, params)
        assert report.cross_shard_ratio < 0.5
        assert report.normalized_throughput > 1.0
        assert report.average_latency >= 1.0
