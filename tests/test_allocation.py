"""Unit + property tests for the allocation cache machinery.

The crucial invariant: the incremental ``sigma`` / ``lam_hat`` deltas of
``move``/``assign``/``ingest_transaction`` must agree *exactly* with an
O(E) recomputation from the graph (the paper's Eqs. 5-7 applied from
scratch).  If these drift, every gain computation is wrong.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation, capped_throughput
from repro.core.graph import TransactionGraph, pair_count
from repro.core.params import TxAlloParams
from repro.errors import AllocationError
from tests.conftest import make_random_graph


def build_alloc(graph, k=3, eta=2.0, lam=50.0, seed=3):
    rng = random.Random(seed)
    partition = {v: rng.randrange(k) for v in graph.nodes()}
    params = TxAlloParams(k=k, eta=eta, lam=lam)
    return Allocation.from_partition(graph, params, partition)


class TestCappedThroughput:
    def test_under_capacity_passes_through(self):
        assert capped_throughput(5.0, 4.0, 10.0) == pytest.approx(4.0)

    def test_at_capacity_passes_through(self):
        assert capped_throughput(10.0, 7.0, 10.0) == pytest.approx(7.0)

    def test_over_capacity_scales(self):
        assert capped_throughput(20.0, 8.0, 10.0) == pytest.approx(4.0)

    def test_zero_workload(self):
        assert capped_throughput(0.0, 0.0, 10.0) == 0.0


class TestConstruction:
    def test_from_partition_builds_caches(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        fresh_sigma, fresh_lam = alloc.recompute()
        assert alloc.sigma == pytest.approx(fresh_sigma)
        assert alloc.lam_hat == pytest.approx(fresh_lam)

    def test_partition_must_cover_all_nodes(self, triangle_graph):
        params = TxAlloParams(k=2, lam=10.0)
        with pytest.raises(AllocationError):
            Allocation.from_partition(triangle_graph, params, {"a": 0})

    def test_partition_index_range_checked(self, triangle_graph):
        params = TxAlloParams(k=2, lam=10.0)
        partition = {v: 0 for v in triangle_graph.nodes()}
        partition["a"] = 7
        with pytest.raises(AllocationError):
            Allocation.from_partition(
                triangle_graph, params, partition, num_communities=2
            )

    def test_cannot_shrink_below_k(self, triangle_graph):
        params = TxAlloParams(k=4, lam=10.0)
        with pytest.raises(AllocationError):
            Allocation(triangle_graph, params, num_communities=2)

    def test_sigma_definition_on_known_graph(self):
        # Two nodes, one edge, split across shards: each side pays eta.
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 0, "b": 1})
        assert alloc.sigma == pytest.approx([3.0, 3.0])
        assert alloc.lam_hat == pytest.approx([0.5, 0.5])

    def test_sigma_intra_counts_once(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 0, "b": 0})
        assert alloc.sigma == pytest.approx([1.0, 0.0])
        assert alloc.lam_hat == pytest.approx([1.0, 0.0])

    def test_self_loop_is_intra_workload(self):
        g = TransactionGraph()
        g.add_transaction(("a",))
        params = TxAlloParams(k=2, eta=3.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 1})
        assert alloc.sigma == pytest.approx([0.0, 1.0])
        assert alloc.lam_hat == pytest.approx([0.0, 1.0])


class TestMoves:
    def test_move_updates_mapping(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        alloc.move("a", 1)
        assert alloc.shard_of("a") == 1

    def test_move_to_same_shard_is_noop(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        p = alloc.shard_of("a")
        sigma = alloc.sigma[:]
        alloc.move("a", p)
        assert alloc.sigma == sigma

    def test_move_out_of_range_rejected(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        with pytest.raises(AllocationError):
            alloc.move("a", 5)

    def test_move_unknown_account_rejected(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        with pytest.raises(AllocationError):
            alloc.move("ghost", 0)

    def test_moves_keep_caches_exact(self, clustered_graph):
        alloc = build_alloc(clustered_graph, k=4)
        rng = random.Random(99)
        nodes = list(clustered_graph.nodes())
        for _ in range(300):
            alloc.move(rng.choice(nodes), rng.randrange(4))
        alloc.validate()

    def test_only_two_shards_change_per_move(self, clustered_graph):
        """Lemma 1: a move touches only the source and destination caches."""
        alloc = build_alloc(clustered_graph, k=4)
        v = next(iter(clustered_graph.nodes()))
        p = alloc.shard_of(v)
        q = (p + 1) % 4
        before_sigma = alloc.sigma[:]
        before_lam = alloc.lam_hat[:]
        alloc.move(v, q)
        for j in range(4):
            if j in (p, q):
                continue
            assert alloc.sigma[j] == before_sigma[j]
            assert alloc.lam_hat[j] == before_lam[j]


class TestAssignAndIngest:
    def test_assign_unassigned_node(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c"))
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        alloc = Allocation.from_partition(
            g, params, {"a": 0, "b": 0, "c": 1}
        )
        g.add_transaction(("c", "d"))
        alloc.ingest_transaction(("c", "d"))
        alloc.assign("d", 1)
        alloc.validate()
        assert alloc.shard_of("d") == 1

    def test_assign_twice_rejected(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        with pytest.raises(AllocationError):
            alloc.assign("a", 0)

    def test_ingest_keeps_caches_exact(self, clustered_graph):
        graph = clustered_graph.copy()
        alloc = build_alloc(graph, k=3)
        alloc.graph = graph
        rng = random.Random(5)
        nodes = list(graph.nodes())
        for i in range(50):
            accs = set(rng.sample(nodes, rng.choice([1, 2, 2, 3])))
            if rng.random() < 0.3:
                accs.add(f"fresh{i}")
            graph.add_transaction(accs)
            alloc.ingest_transaction(accs)
        # Assign the fresh nodes so completeness holds, then validate.
        for v in graph.nodes():
            if not alloc.is_assigned(v):
                alloc.assign(v, 0)
        alloc.validate()

    def test_ingest_self_loop_on_assigned(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        alloc = Allocation.from_partition(g, params, {"a": 0, "b": 1})
        g.add_transaction(("a",))
        alloc.ingest_transaction(("a",))
        alloc.validate()


class TestTruncateAndIntegrity:
    def test_truncate_drops_empty_tail(self, triangle_graph):
        params = TxAlloParams(k=2, lam=10.0)
        partition = {v: 0 for v in triangle_graph.nodes()}
        alloc = Allocation.from_partition(
            triangle_graph, params, partition, num_communities=5
        )
        alloc.truncate(2)
        assert alloc.num_communities == 2

    def test_truncate_refuses_nonempty(self, triangle_graph):
        params = TxAlloParams(k=1, lam=10.0)
        partition = {v: 1 for v in triangle_graph.nodes()}
        alloc = Allocation.from_partition(
            triangle_graph, params, partition, num_communities=2
        )
        with pytest.raises(AllocationError):
            alloc.truncate(1)

    def test_validate_detects_missing_account(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        del alloc._shard_of["a"]
        with pytest.raises(AllocationError):
            alloc.validate(check_caches=False)

    def test_validate_detects_cache_drift(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        alloc.sigma[0] += 5.0
        with pytest.raises(AllocationError):
            alloc.validate()

    def test_copy_is_deep(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        clone = alloc.copy()
        clone.move("a", 1 - alloc.shard_of("a"))
        assert alloc.shard_of("a") != clone.shard_of("a") or True
        alloc.validate()
        clone.validate()

    def test_mapping_snapshot(self, triangle_graph):
        alloc = build_alloc(triangle_graph, k=2)
        snap = alloc.mapping()
        alloc.move("a", 1)
        assert snap != alloc.mapping() or snap["a"] == 1


class TestThroughput:
    def test_total_is_sum_of_communities(self, clustered_graph):
        alloc = build_alloc(clustered_graph, k=4, lam=30.0)
        total = sum(alloc.community_throughput(i) for i in range(4))
        assert alloc.total_throughput() == pytest.approx(total)

    def test_all_intra_uncapped_equals_total_weight(self, clustered_graph):
        params = TxAlloParams(k=2, eta=2.0, lam=1e12)
        partition = {v: 0 for v in clustered_graph.nodes()}
        alloc = Allocation.from_partition(clustered_graph, params, partition)
        assert alloc.total_throughput() == pytest.approx(
            clustered_graph.total_weight
        )


@given(
    moves=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3)), max_size=80),
    eta=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_property_caches_never_drift(moves, eta):
    """Any random move sequence leaves caches equal to a recomputation."""
    graph = make_random_graph(num_accounts=40, num_transactions=150, seed=2)
    params = TxAlloParams(k=4, eta=eta, lam=40.0)
    partition = {v: i % 4 for i, v in enumerate(graph.nodes())}
    alloc = Allocation.from_partition(graph, params, partition)
    nodes = list(graph.nodes())
    for node_index, shard in moves:
        alloc.move(nodes[node_index % len(nodes)], shard)
    alloc.validate()


def reference_ingest(alloc, sigma, lam_hat, accounts):
    """The per-pair cache update ``ingest_transaction`` must reproduce,
    applied to the ``sigma`` / ``lam_hat`` lists given."""
    unique = sorted(set(accounts))
    if len(unique) == 1:
        i = alloc._shard_of.get(unique[0])
        if i is not None:
            sigma[i] += 1.0
            lam_hat[i] += 1.0
        return
    share = 1.0 / pair_count(len(unique))
    eta = alloc.params.eta
    for a in range(len(unique)):
        for b in range(a + 1, len(unique)):
            iu = alloc._shard_of.get(unique[a])
            iv = alloc._shard_of.get(unique[b])
            if iu is not None and iu == iv:
                sigma[iu] += share
                lam_hat[iu] += share
                continue
            if iu is not None:
                sigma[iu] += eta * share
                lam_hat[iu] += share / 2.0
            if iv is not None:
                sigma[iv] += eta * share
                lam_hat[iv] += share / 2.0


INGEST_FORMS = {
    "tuple": tuple,
    "list": list,
    "set": set,
    "generator": lambda accounts: (a for a in accounts),
}


@given(
    mapping=st.dictionaries(st.sampled_from("abcdefg"), st.integers(0, 2), max_size=7),
    txs=st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcdefgxy"), min_size=1, max_size=5),
            st.sampled_from(sorted(INGEST_FORMS)),
        ),
        min_size=1,
        max_size=25,
    ),
    eta=st.sampled_from([1.5, 2.0, 7.3]),
)
@settings(max_examples=120, deadline=None)
def test_ingest_transaction_matches_the_per_pair_update(mapping, txs, eta):
    """Partially assigned mappings, unassigned (``x``, ``y``) and repeated
    accounts: the caches stay ``float.hex``-equal to the per-pair update."""
    graph = TransactionGraph()
    alloc = Allocation(graph, TxAlloParams(k=3, eta=eta, lam=10.0))
    for v, q in mapping.items():
        graph.add_node(v)
        alloc.assign(v, q)
    sigma, lam_hat = list(alloc.sigma), list(alloc.lam_hat)
    for accounts, form in txs:
        graph.add_transaction(accounts)
        alloc.ingest_transaction(INGEST_FORMS[form](accounts))
        reference_ingest(alloc, sigma, lam_hat, accounts)
        assert [s.hex() for s in alloc.sigma] == [s.hex() for s in sigma]
        assert [x.hex() for x in alloc.lam_hat] == [x.hex() for x in lam_hat]
