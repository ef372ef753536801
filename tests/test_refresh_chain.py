"""Global refreshes over a chain of delta-frozen snapshots.

Between global G-TxAllo runs the graph keeps growing, and each
``TransactionGraph.freeze`` either extends the previous CSR snapshot
(a frontier of at most ``DELTA_REBUILD_FRACTION`` of the nodes) or
re-lowers the whole graph.  Every refresh is cold and exact whichever
path produced its snapshot:

* on every snapshot of the chain, the engine equals the reference
  oracle and the engine on a cold copy of the graph — mapping, cache
  floats and sweep/move counts;
* nothing memoised on an older snapshot leaks into a newer one, and an
  older snapshot stays usable after newer extends add accounts;
* identical histories give identical allocations, on the engine and the
  oracle and on empty or tiny graphs.
"""

import random

import pytest

from repro.core.controller import TxAlloController
from repro.core.engine import louvain_flat
from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo, g_txallo_reference
from repro.core.params import TxAlloParams
from repro.core.resilience import ResilientAllocator
from repro.data.synthetic import (
    WorkloadConfig,
    account_sets,
    make_workload_generator,
    workload_names,
)
from tests.conftest import G_TXALLO, LOUVAIN, make_random_graph

#: The two ways ``freeze`` turns a grown graph into a new snapshot.
FREEZE_PATHS = ("delta", "full")


def assert_identical(got, want):
    assert got.allocation.mapping() == want.allocation.mapping()
    assert got.allocation.sigma == want.allocation.sigma
    assert got.allocation.lam_hat == want.allocation.lam_hat
    assert (got.sweeps, got.moves) == (want.sweeps, want.moves)


def grow(graph, rng, path, tag):
    """Ingest one window whose frontier sends the next ``freeze`` down
    ``path``: a few pair transactions plus one new account stay under
    ``DELTA_REBUILD_FRACTION`` of the nodes; pairing up 40% of them
    overshoots it."""
    nodes = sorted(graph.nodes())
    if path == "delta":
        for _ in range(3):
            graph.add_transaction(tuple(rng.sample(nodes, 2)))
        graph.add_transaction((f"{tag}_new", rng.choice(nodes)))
    else:
        touched = rng.sample(nodes, int(0.4 * len(nodes)) // 2 * 2)
        for i in range(0, len(touched), 2):
            graph.add_transaction((touched[i], touched[i + 1]))
        graph.add_transaction((f"{tag}_new", touched[0]))


def freeze_along(graph, path):
    """Freeze ``graph`` and check the snapshot came from ``path``."""
    before = graph.freeze_stats[path]
    csr = graph.freeze()
    assert graph.freeze_stats[path] == before + 1
    return csr


def refresh_along_chain(graph, params, path, seed):
    """Three grow-freeze-refresh rounds, each checked against the oracle
    and against the engine on a cold copy."""
    rng = random.Random(seed)
    g_txallo(graph, params)  # memoises the seed snapshot's partition
    for round_ in range(3):
        grow(graph, rng, path, f"r{round_}")
        freeze_along(graph, path)
        fast = g_txallo(graph, params)
        fast.allocation.validate(check_caches=True)
        assert_identical(fast, g_txallo_reference(graph, params))
        assert_identical(fast, g_txallo(graph.copy(), params))


class TestRefreshOnSnapshotChain:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("k,eta", ((2, 2.0), (2, 6.0), (6, 2.0), (6, 6.0)))
    @pytest.mark.parametrize("path", FREEZE_PATHS)
    def test_refresh_matches_reference_and_cold_copy(self, path, k, eta, seed):
        graph = make_random_graph(num_accounts=120, num_transactions=600, seed=seed)
        params = TxAlloParams.with_capacity_for(900, k=k, eta=eta)
        refresh_along_chain(graph, params, path, seed)

    @pytest.mark.parametrize("topology", workload_names())
    @pytest.mark.parametrize("path", FREEZE_PATHS)
    def test_zoo_topologies(self, path, topology):
        config = WorkloadConfig(num_accounts=120, num_transactions=600, seed=1)
        graph = TransactionGraph()
        graph.add_transactions(account_sets(make_workload_generator(topology, config).generate()))
        params = TxAlloParams.with_capacity_for(900, k=4, eta=2.0)
        refresh_along_chain(graph, params, path, seed=1)


class TestSnapshotMemos:
    @pytest.mark.parametrize("path", FREEZE_PATHS)
    def test_new_snapshot_starts_with_empty_memos(self, path):
        graph = make_random_graph(num_accounts=120, num_transactions=600, seed=10)
        params = TxAlloParams.with_capacity_for(600, k=4)
        g_txallo(graph, params)
        csr0 = graph.freeze()
        assert csr0.louvain_memo and csr0.intra_cut_memo

        grow(graph, random.Random(10), path, "next")
        csr1 = freeze_along(graph, path)
        assert csr1 is not csr0
        assert csr1.louvain_memo == {} and csr1.intra_cut_memo == {}
        assert louvain_flat(csr1) == louvain_flat(graph.copy().freeze())

    @pytest.mark.parametrize("path", FREEZE_PATHS)
    def test_older_snapshot_survives_newer_growth(self, path):
        """Extends share untouched rows with their base; a newer snapshot
        that adds accounts must leave an older one intact."""
        graph = make_random_graph(num_accounts=120, num_transactions=600, seed=14)
        rng = random.Random(14)
        louvain_flat(graph.freeze())
        grow(graph, rng, "delta", "mid")
        csr1 = freeze_along(graph, "delta")
        cold1 = graph.copy().freeze()

        grow(graph, rng, path, "late")
        graph.add_transaction(("brand_new_a", "brand_new_b"))
        csr2 = freeze_along(graph, path)
        assert csr2.num_nodes > csr1.num_nodes

        assert louvain_flat(csr1) == louvain_flat(cold1)
        assert louvain_flat(csr2) == louvain_flat(graph.copy().freeze())

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_partition_is_dense_after_extend(self, name):
        graph = make_random_graph(seed=8)
        LOUVAIN[name](graph)
        graph.freeze()  # the base snapshot, whether or not the tier froze
        graph.add_transaction(("acc000", "acc059"))
        freeze_along(graph, "delta")
        partition = LOUVAIN[name](graph)
        assert set(partition) == set(graph.nodes())
        labels = set(partition.values())
        assert labels == set(range(len(labels)))  # dense, 0-based

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_memo_serves_fresh_copies_after_extend(self, name):
        graph = make_random_graph(seed=9)
        LOUVAIN[name](graph)
        graph.freeze()  # the base snapshot, whether or not the tier froze
        graph.add_transaction(("acc001", "acc050"))
        freeze_along(graph, "delta")
        p1 = LOUVAIN[name](graph)
        p2 = LOUVAIN[name](graph)
        p1[next(iter(p1))] = 10**6
        assert LOUVAIN[name](graph) == p2 != p1

    @pytest.mark.parametrize("first", ("fast", "reference"))
    def test_tier_run_order_does_not_matter(self, first):
        """Tiers share one snapshot; whichever runs first must not
        change what the other computes on it."""
        graph = make_random_graph(seed=7)
        params = TxAlloParams.with_capacity_for(400, k=4)
        G_TXALLO[first](graph, params)
        graph.freeze()  # the base snapshot, whether or not the tier froze
        graph.add_transaction(("acc001", "acc002"))
        freeze_along(graph, "delta")
        results = {first: G_TXALLO[first](graph, params)}
        for name, run in G_TXALLO.items():
            results.setdefault(name, run(graph, params))
        for result in results.values():
            assert_identical(result, results["reference"])


class TestDeterminism:
    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_identical_histories_give_identical_refreshes(self, name):
        mappings = []
        for _ in range(2):
            graph = make_random_graph(seed=11)
            params = TxAlloParams.with_capacity_for(400, k=4)
            G_TXALLO[name](graph, params)
            graph.add_transaction(("acc001", "acc042"))
            graph.add_transaction(("fresh", "acc007"))
            graph.freeze()
            mappings.append(G_TXALLO[name](graph, params).allocation.mapping())
        assert mappings[0] == mappings[1]

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_empty_and_tiny_graphs(self, name):
        params = TxAlloParams.with_capacity_for(1, k=3)
        assert G_TXALLO[name](TransactionGraph(), params).allocation.mapping() == {}

        solo = TransactionGraph()
        solo.add_transaction(("only",))
        solo.freeze()
        solo.add_transaction(("only", "other"))
        result = G_TXALLO[name](solo, params)
        assert set(result.allocation.mapping()) == {"only", "other"}
        result.allocation.validate(check_caches=True)


@pytest.mark.parametrize("cls", (TxAlloController, ResilientAllocator))
def test_no_warm_stats_surface(cls):
    """Refreshes are always cold, so no allocator reports a warm/cold
    split."""
    assert not hasattr(cls, "warm_stats")

