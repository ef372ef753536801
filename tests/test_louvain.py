"""Tests for the deterministic Louvain implementation."""

import hashlib
import json

import pytest

from repro.core.graph import TransactionGraph
from repro.core.louvain import louvain_partition, louvain_reference, modularity
from tests.conftest import make_random_graph


def two_cliques(size=5, bridge_weight=1):
    g = TransactionGraph()
    left = [f"l{i}" for i in range(size)]
    right = [f"r{i}" for i in range(size)]
    for group in (left, right):
        for i in range(size):
            for j in range(i + 1, size):
                g.add_transaction((group[i], group[j]))
    for _ in range(bridge_weight):
        g.add_transaction((left[0], right[0]))
    return g, left, right


class TestStructureRecovery:
    def test_two_cliques_found(self):
        g, left, right = two_cliques()
        part = louvain_partition(g)
        left_labels = {part[v] for v in left}
        right_labels = {part[v] for v in right}
        assert len(left_labels) == 1
        assert len(right_labels) == 1
        assert left_labels != right_labels

    def test_labels_are_dense_from_zero(self):
        g, _, _ = two_cliques()
        labels = set(louvain_partition(g).values())
        assert labels == set(range(len(labels)))

    def test_single_clique_single_community(self):
        g = TransactionGraph()
        nodes = [f"n{i}" for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                g.add_transaction((nodes[i], nodes[j]))
        assert len(set(louvain_partition(g).values())) == 1

    def test_empty_graph(self):
        assert louvain_partition(TransactionGraph()) == {}

    def test_isolated_self_loop_node(self):
        g = TransactionGraph()
        g.add_transaction(("solo",))
        g.add_transaction(("a", "b"))
        part = louvain_partition(g)
        assert part["solo"] != part["a"]

    def test_all_nodes_labelled(self, clustered_graph):
        part = louvain_partition(clustered_graph)
        assert set(part) == set(clustered_graph.nodes())

    def test_three_planted_groups_recovered(self):
        g = make_random_graph(num_accounts=60, num_transactions=500, seed=3, groups=3)
        part = louvain_partition(g)
        # Group labels should be few (close to 3) and modularity positive.
        assert len(set(part.values())) <= 8
        assert modularity(g, part) > 0.3


class TestDeterminism:
    def test_same_graph_same_partition(self, clustered_graph):
        p1 = louvain_partition(clustered_graph)
        p2 = louvain_partition(clustered_graph)
        assert p1 == p2

    def test_rebuilt_graph_same_partition(self):
        g1 = make_random_graph(seed=6)
        g2 = make_random_graph(seed=6)
        assert louvain_partition(g1) == louvain_partition(g2)

    def test_copy_same_partition(self, clustered_graph):
        assert louvain_partition(clustered_graph) == louvain_partition(
            clustered_graph.copy()
        )


#: SHA-256 of the canonical (sorted, JSON) partitions produced by the
#: *original* ``_one_level`` — the one that sorted ``nbr_comm`` per node
#: and ratcheted ``best_gain`` by ``_MIN_GAIN`` between candidates —
#: captured by running the seed implementation on these graphs before it
#: was replaced by the min-index scan.  Note the scope of the claim: the
#: new exact (gain, -index) argmax could in principle pick a different
#: destination when two candidate gains sit within ``_MIN_GAIN`` (1e-12)
#: of each other; these pins prove the partitions are unchanged on every
#: covered workload (planted clusters, 9-community synthetic Ethereum
#: traffic, fractional multi-account weights), not on all graphs.
#: The first three ``rand_*`` entries deliberately share a digest — they
#: all recover the same planted 3-group split; the remaining seven have
#: pairwise-distinct partitions.
_PINNED_PARTITIONS = {
    "two_cliques": "dc740711ac6b052494107cfa712f2b4e80eb4c9751ce35baaa054f294341429f",
    "rand_seed3_g3": "a10fc91502faa2366a926a68892f906211a6121737cf49fed55848947e64de42",
    "rand_seed11": "a10fc91502faa2366a926a68892f906211a6121737cf49fed55848947e64de42",
    "rand_seed6": "a10fc91502faa2366a926a68892f906211a6121737cf49fed55848947e64de42",
    "rand_seed7_g4": "a1de9cc0f6f87b5398d59124e63fcced3043a27e27984e63b131f093ba13c401",
    "rand_seed19_g5": "24feb4bc07365eb45f27cc67686b95d1c081d009c3c34ab50b92a21019d06fe5",
    "synthetic_seed5": "b3ae64f00c0dc976cb90ad0c12bf2f3fbef2b907d13d9521bbe4a844dd63ad32",
    "synthetic_seed9": "c5ffd002a8b192b3f4d4498c6eed20d686205b0af52a5cff029fabcf6d8e7c1f",
    "multiacct_seed2": "11fd734954cf7b52e89c18a5c48ab3ac1ef4bf008b49292fa280a2040ae27aa4",
    "multiacct_seed17": "f57c4f37db921d4d5705517c54b2ab8942f8e12a8881f7010d01aa4838f2c009",
}


def _synthetic_graph(seed, num_accounts=300, num_transactions=1800):
    from repro.data.synthetic import (
        EthereumWorkloadGenerator,
        WorkloadConfig,
        account_sets,
    )

    config = WorkloadConfig(
        num_accounts=num_accounts, num_transactions=num_transactions, seed=seed
    )
    graph = TransactionGraph()
    for s in account_sets(EthereumWorkloadGenerator(config).generate()):
        graph.add_transaction(s)
    return graph


def _multiacct_graph(seed):
    """Multi-account transactions -> fractional 1/C(n,2) edge weights."""
    import random

    rng = random.Random(seed)
    accounts = [f"m{i:03d}" for i in range(50)]
    graph = TransactionGraph()
    for _ in range(400):
        n = rng.choice([2, 3, 3, 4, 5])
        graph.add_transaction(rng.sample(accounts, n))
    return graph


def _pin_graphs():
    return {
        "two_cliques": two_cliques()[0],
        "rand_seed3_g3": make_random_graph(
            num_accounts=60, num_transactions=500, seed=3, groups=3
        ),
        "rand_seed11": make_random_graph(),
        "rand_seed6": make_random_graph(seed=6),
        "rand_seed7_g4": make_random_graph(
            num_accounts=80, num_transactions=700, seed=7, groups=4
        ),
        "rand_seed19_g5": make_random_graph(
            num_accounts=90, num_transactions=800, seed=19, groups=5
        ),
        "synthetic_seed5": _synthetic_graph(5),
        "synthetic_seed9": _synthetic_graph(9),
        "multiacct_seed2": _multiacct_graph(2),
        "multiacct_seed17": _multiacct_graph(17),
    }


def _partition_digest(partition):
    canon = json.dumps(sorted(partition.items()), separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class TestMinIndexScanPreservesPartitions:
    """Satellite of the engine PR: the per-node ``sorted(nbr_comm)`` was
    replaced by an exact (gain, -index) argmax; partitions must match the
    seed implementation's on every pinned workload, for the engine and the
    reference oracle."""

    @pytest.mark.parametrize("name", sorted(_PINNED_PARTITIONS))
    @pytest.mark.parametrize(
        "partition", (louvain_reference, louvain_partition), ids=("reference", "fast")
    )
    def test_partition_unchanged(self, name, partition):
        graph = _pin_graphs()[name]
        digest = _partition_digest(partition(graph))
        assert digest == _PINNED_PARTITIONS[name]


class TestModularity:
    def test_single_community_modularity_zero(self):
        g, _, _ = two_cliques()
        part = {v: 0 for v in g.nodes()}
        assert modularity(g, part) == pytest.approx(0.0, abs=1e-9)

    def test_good_split_beats_trivial(self):
        g, left, right = two_cliques()
        split = {v: (0 if v.startswith("l") else 1) for v in g.nodes()}
        trivial = {v: 0 for v in g.nodes()}
        assert modularity(g, split) > modularity(g, trivial)

    def test_louvain_partition_is_near_optimal_on_cliques(self):
        g, left, right = two_cliques()
        part = louvain_partition(g)
        split = {v: (0 if v.startswith("l") else 1) for v in g.nodes()}
        assert modularity(g, part) >= modularity(g, split) - 1e-9

    def test_empty_graph_modularity(self):
        assert modularity(TransactionGraph(), {}) == 0.0

    def test_matches_networkx(self, clustered_graph):
        """Cross-check modularity values against networkx."""
        networkx = pytest.importorskip("networkx")
        G = networkx.Graph()
        for u, v, w in clustered_graph.edges():
            if G.has_edge(u, v):
                G[u][v]["weight"] += w
            else:
                G.add_edge(u, v, weight=w)
        part = louvain_partition(clustered_graph)
        groups = {}
        for v, c in part.items():
            groups.setdefault(c, set()).add(v)
        expected = networkx.community.modularity(
            G, list(groups.values()), weight="weight"
        )
        assert modularity(clustered_graph, part) == pytest.approx(expected, abs=1e-6)

    def test_quality_competitive_with_networkx(self, clustered_graph):
        networkx = pytest.importorskip("networkx")
        G = networkx.Graph()
        for u, v, w in clustered_graph.edges():
            if G.has_edge(u, v):
                G[u][v]["weight"] += w
            else:
                G.add_edge(u, v, weight=w)
        ours = modularity(clustered_graph, louvain_partition(clustered_graph))
        comms = networkx.community.louvain_communities(G, weight="weight", seed=7)
        theirs = networkx.community.modularity(G, comms, weight="weight")
        assert ours >= theirs - 0.05
