"""Unit tests for the transaction graph (Definition 2)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TransactionGraph, pair_count
from repro.errors import GraphError, TransactionError


class TestPairCount:
    def test_single_account_is_one_self_loop(self):
        assert pair_count(1) == 1

    def test_pair(self):
        assert pair_count(2) == 1

    def test_triple(self):
        assert pair_count(3) == 3

    def test_five_accounts(self):
        assert pair_count(5) == 10

    def test_matches_combination_formula(self):
        for n in range(2, 12):
            assert pair_count(n) == math.comb(n, 2)

    def test_zero_accounts_rejected(self):
        with pytest.raises(TransactionError):
            pair_count(0)

    def test_negative_rejected(self):
        with pytest.raises(TransactionError):
            pair_count(-3)


class TestEdgeConstruction:
    def test_simple_transfer_adds_unit_edge(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        assert g.edge_weight("a", "b") == pytest.approx(1.0)
        assert g.edge_weight("b", "a") == pytest.approx(1.0)

    def test_weights_accumulate_over_transactions(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "a"))
        assert g.edge_weight("a", "b") == pytest.approx(3.0)

    def test_direction_is_ignored(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        h = TransactionGraph()
        h.add_transaction(("b", "a"))
        assert g.edge_weight("a", "b") == h.edge_weight("a", "b")

    def test_multi_account_transaction_splits_weight(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b", "c"))
        for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
            assert g.edge_weight(u, v) == pytest.approx(1.0 / 3.0)

    def test_multi_account_weight_sums_to_one(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b", "c", "d", "e"))
        assert g.total_weight == pytest.approx(1.0)

    def test_duplicate_accounts_collapse(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b", "a", "b"))
        assert g.edge_weight("a", "b") == pytest.approx(1.0)

    def test_self_loop_gets_full_weight(self):
        g = TransactionGraph()
        g.add_transaction(("a",))
        assert g.self_loop("a") == pytest.approx(1.0)

    def test_self_loop_counts_once_in_total_weight(self):
        g = TransactionGraph()
        g.add_transaction(("a",))
        g.add_transaction(("a", "b"))
        assert g.total_weight == pytest.approx(2.0)

    def test_empty_transaction_rejected(self):
        g = TransactionGraph()
        with pytest.raises(TransactionError):
            g.add_transaction(())

    def test_zero_weight_edge_rejected(self):
        g = TransactionGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 0.0)

    def test_negative_weight_edge_rejected(self):
        g = TransactionGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "b", -1.0)

    def test_add_transactions_bulk(self):
        g = TransactionGraph()
        g.add_transactions([("a", "b"), ("b", "c")])
        assert g.num_transactions == 2


class TestQueries:
    def test_contains_and_len(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        assert "a" in g and "b" in g and "c" not in g
        assert len(g) == 2

    def test_num_edges_counts_distinct_pairs(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("a", "b"))
        g.add_transaction(("a",))
        assert g.num_edges == 2  # pair + self-loop

    def test_unknown_node_neighbourhood_raises(self):
        g = TransactionGraph()
        with pytest.raises(GraphError):
            g.neighbours("ghost")

    def test_edge_weight_missing_is_zero(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        assert g.edge_weight("a", "zzz") == 0.0
        assert g.edge_weight("zzz", "a") == 0.0

    def test_external_strength_excludes_self_loop(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("a",))
        assert g.external_strength("a") == pytest.approx(1.0)
        assert g.strength("a") == pytest.approx(2.0)

    def test_degree(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("a", "c"))
        g.add_transaction(("a",))
        assert g.degree("a") == 3  # b, c, and the loop

    def test_nodes_sorted(self):
        g = TransactionGraph()
        g.add_transaction(("z", "a"))
        g.add_transaction(("m", "a"))
        assert g.nodes_sorted() == ["a", "m", "z"]

    def test_nodes_insertion_order(self):
        g = TransactionGraph()
        g.add_transaction(("b", "a"))  # sorted inside a tx: a first
        g.add_transaction(("c", "a"))
        assert list(g.nodes()) == ["a", "b", "c"]

    def test_edges_yields_each_pair_once(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c"))
        g.add_transaction(("a",))
        edges = list(g.edges())
        assert len(edges) == 3
        total = sum(w for _, _, w in edges)
        assert total == pytest.approx(g.total_weight)

    def test_subgraph_weight(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c"))
        g.add_transaction(("a",))
        assert g.subgraph_weight({"a", "b"}) == pytest.approx(2.0)
        assert g.subgraph_weight({"a", "b", "c"}) == pytest.approx(3.0)
        assert g.subgraph_weight({"c"}) == pytest.approx(0.0)

    def test_copy_is_independent(self):
        g = TransactionGraph()
        g.add_transaction(("a", "b"))
        h = g.copy()
        h.add_transaction(("a", "c"))
        assert "c" not in g
        assert g.num_transactions == 1
        assert h.num_transactions == 2

    def test_degree_histogram_covers_all_nodes(self, clustered_graph):
        hist = clustered_graph.degree_histogram()
        assert sum(count for _, count in hist) == clustered_graph.num_nodes

    def test_degree_histogram_empty_graph(self):
        assert TransactionGraph().degree_histogram() == []


class TestInvariantsProperty:
    @given(
        txs=st.lists(
            st.lists(st.integers(0, 20).map(lambda i: f"a{i}"), min_size=1, max_size=5),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_weight_equals_transaction_count(self, txs):
        g = TransactionGraph()
        for accounts in txs:
            g.add_transaction(accounts)
        assert g.total_weight == pytest.approx(len(txs))

    @given(
        txs=st.lists(
            st.lists(st.integers(0, 15).map(lambda i: f"a{i}"), min_size=1, max_size=4),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_strength_sum_is_twice_pairs_plus_loops(self, txs):
        g = TransactionGraph()
        for accounts in txs:
            g.add_transaction(accounts)
        loops = sum(g.self_loop(v) for v in g.nodes())
        strengths = sum(g.external_strength(v) for v in g.nodes())
        # Each pair edge is counted from both endpoints.
        assert strengths / 2.0 + loops == pytest.approx(g.total_weight)

    @given(
        txs=st.lists(
            st.lists(st.integers(0, 15).map(lambda i: f"a{i}"), min_size=1, max_size=4),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_edges_iteration_consistent_with_adjacency(self, txs):
        g = TransactionGraph()
        for accounts in txs:
            g.add_transaction(accounts)
        for u, v, w in g.edges():
            assert g.edge_weight(u, v) == pytest.approx(w)
            assert g.edge_weight(v, u) == pytest.approx(w)

    @given(
        txs=st.lists(
            st.lists(st.integers(0, 15).map(lambda i: f"a{i}"), min_size=1, max_size=4),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_edges_orientation_is_insertion_order(self, txs):
        """Regression pin for the documented ``edges()`` orientation: the
        earlier-inserted endpoint of every pair comes first, and each
        undirected edge is yielded exactly once."""
        g = TransactionGraph()
        for accounts in txs:
            g.add_transaction(accounts)
        rank = {v: i for i, v in enumerate(g.nodes())}
        seen = set()
        count = 0
        for u, v, w in g.edges():
            count += 1
            key = frozenset((u, v))
            assert key not in seen
            seen.add(key)
            if u != v:
                assert rank[u] < rank[v]
        assert count == g.num_edges


class TestFreeze:
    def small_graph(self):
        g = TransactionGraph()
        g.add_transaction(("b", "a"))
        g.add_transaction(("c", "b"))
        g.add_transaction(("a",))
        g.add_node("island")
        return g

    def test_freeze_interns_in_sorted_order(self):
        g = self.small_graph()
        csr = g.freeze()
        # Ids follow ascending identifier order, the canonical sweep
        # order; insertion_order lists the ids in chronological
        # appearance (here the two orders coincide) ...
        assert csr.nodes == ["a", "b", "c", "island"]
        assert csr.nodes == g.nodes_sorted()
        assert csr.index_of["a"] == 0
        assert csr.num_nodes == 4
        assert [csr.nodes[i] for i in csr.insertion_order] == list(g.nodes())
        # ... and a later, earlier-sorting account takes its sorted id,
        # renumbering the accounts after it, while insertion_order
        # lists it last.
        g.add_transaction(("aaa", "c"))
        csr = g.freeze()
        assert csr.nodes == ["a", "aaa", "b", "c", "island"]
        assert csr.index_of["aaa"] == 1
        assert list(csr.insertion_order) == [0, 2, 3, 4, 1]
        assert [csr.nodes[i] for i in csr.insertion_order] == list(g.nodes())

    def test_insertion_order_is_a_permutation_of_ids(self):
        g = TransactionGraph()
        for tx in [("m", "z"), ("a", "m"), ("q",), ("b", "z", "a")]:
            g.add_transaction(tx)
        csr = g.freeze()
        assert csr.nodes == g.nodes_sorted()
        assert sorted(csr.insertion_order) == list(range(csr.num_nodes))
        assert [csr.nodes[i] for i in csr.insertion_order] == list(g.nodes())
        for i, v in enumerate(csr.nodes):
            assert csr.index_of[v] == i

    def test_freeze_mirrors_adjacency(self):
        g = self.small_graph()
        csr = g.freeze()
        assert g.self_loop("a") > 0.0  # "a"'s loop sits after its "b" entry
        for v in g.nodes():
            i = csr.index_of[v]
            row = g.neighbours(v)
            # The full row, self-loop included at its dict position.
            assert [(csr.nodes[j], w.hex()) for j, w in csr.rows[i]] == [
                (u, w.hex()) for u, w in row.items()
            ]
            assert csr.loop[i] == g.self_loop(v)
            assert csr.ext[i] == pytest.approx(g.external_strength(v))
            # The loop-free hot view carries the same (neighbour, weight)s
            # in the same order, and is the row itself when there is no loop.
            assert [(csr.nodes[j], w.hex()) for j, w in csr.pairs[i]] == [
                (u, w.hex()) for u, w in row.items() if u != v
            ]
            if v not in row:
                assert csr.pairs[i] is csr.rows[i]

    def test_freeze_is_cached_until_mutation(self):
        g = self.small_graph()
        first = g.freeze()
        assert g.freeze() is first
        g.add_transaction(("a", "d"))
        second = g.freeze()
        assert second is not first
        assert "d" in second.index_of
        # The old snapshot is detached, not mutated.
        assert "d" not in first.index_of

    def test_add_existing_node_keeps_cache(self):
        g = self.small_graph()
        first = g.freeze()
        g.add_node("a")  # no-op: already present
        assert g.freeze() is first


class TestCopy:
    """A-TxAllo sums each live row left to right and scans it in dict
    order, so a copy must keep the row order as well as the weights."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_replay_onto_the_start_copy_reproduces_the_graph(self, seed):
        """Replaying the later mutations onto a copy taken part-way
        rebuilds the graph exactly — same insertion order, same row
        order, bit-identical weights (multi-account shares too)."""
        rng = random.Random(seed)
        accounts = [f"acc{i:02d}" for i in range(30)]
        g = TransactionGraph()
        for _ in range(40):
            g.add_transaction(rng.sample(accounts[:20], rng.choice([1, 2, 3])))
        start = g.copy()
        later = []
        for step in range(60):
            if rng.random() < 0.1:
                later.append(("node", f"iso{step}"))
            else:
                later.append(("tx", rng.sample(accounts, rng.choice([1, 2, 2, 3, 4]))))
        for graph in (g, start):
            for kind, item in later:
                if kind == "node":
                    graph.add_node(item)
                else:
                    graph.add_transaction(item)
        assert list(start.nodes()) == list(g.nodes())
        for v in g.nodes():
            assert list(start.neighbours(v).items()) == list(g.neighbours(v).items())
            assert start.self_loop(v) == g.self_loop(v)
        assert start.num_edges == g.num_edges
        assert start.num_transactions == g.num_transactions
        assert start.total_weight == g.total_weight


# ----------------------------------------------------------------------
# Ingest parity: add_transaction against an add_edge expansion
# ----------------------------------------------------------------------
def reference_ingest(graph, accounts):
    """Definition 2 spelled out through ``add_edge``: share ``1/C(n, 2)``
    per sorted pair, or one unit self-loop for a lone account."""
    unique = sorted(set(accounts))
    if len(unique) == 1:
        graph.add_edge(unique[0], unique[0], 1.0)
        return
    share = 1.0 / math.comb(len(unique), 2)
    for i, u in enumerate(unique):
        for v in unique[i + 1 :]:
            graph.add_edge(u, v, share)


def graph_state(graph):
    """Node order, row order and ``float.hex`` weights, plus counters."""
    rows = [(v, [(u, w.hex()) for u, w in graph.neighbours(v).items()]) for v in graph.nodes()]
    return rows, graph.num_edges, graph.total_weight.hex()


FORMS = {
    "tuple": tuple,
    "list": list,
    "set": set,
    "frozenset": frozenset,
    "generator": lambda accounts: (a for a in accounts),
}

ingest_account = st.sampled_from(["a", "b", "c", "d", "e", "f"])
ingest_tx = st.one_of(
    st.lists(ingest_account, min_size=1, max_size=5),
    st.tuples(ingest_account, ingest_account).map(list),
    st.just(["b", "a"]),
    st.just(["a", "a"]),
)


class TestIngestParity:
    """``add_transaction`` takes a fast path for two-account tuples and an
    inlined general path otherwise; both must build the graph exactly as
    the ``add_edge`` expansion of Definition 2 does."""

    @given(
        isolated=st.lists(ingest_account, max_size=3),
        txs=st.lists(st.tuples(ingest_tx, st.sampled_from(sorted(FORMS))), min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_add_edge_expansion(self, isolated, txs):
        g, ref = TransactionGraph(), TransactionGraph()
        for v in isolated:
            g.add_node(v)
            ref.add_node(v)
        for count, (accounts, form) in enumerate(txs, start=1):
            version, snapshot = g.version, g.freeze()
            full = g.freeze_stats["full"]
            g.add_transaction(FORMS[form](accounts))
            reference_ingest(ref, accounts)
            assert graph_state(g) == graph_state(ref)
            assert g.num_transactions == count
            assert g.version > version
            fresh = g.freeze()
            assert fresh is not snapshot
            assert g.freeze_stats["full"] == full + 1
            assert fresh.nodes == g.nodes_sorted()

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_empty_transaction_leaves_the_graph_untouched(self, form):
        g = TransactionGraph()
        g.add_node("z")
        g.add_transaction(("a", "b"))
        g.add_transaction(("b", "c", "d"))
        before = (graph_state(g), g.num_transactions, g.version)
        with pytest.raises(TransactionError):
            g.add_transaction(FORMS[form](()))
        assert (graph_state(g), g.num_transactions, g.version) == before

    def count_calls(self, monkeypatch):
        calls = []
        original = TransactionGraph.add_transaction

        def add_transaction(graph, accounts):
            calls.append(accounts)
            return original(graph, accounts)

        monkeypatch.setattr(TransactionGraph, "add_transaction", add_transaction)
        return calls

    def test_add_transactions_calls_add_transaction_once_per_transaction(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        txs = [("a", "b"), ["c"], {"a", "d", "e"}, ("b", "a"), ("f", "f")]
        TransactionGraph().add_transactions(txs)
        assert len(calls) == len(txs)

    def test_observe_block_calls_add_transaction_once_per_transaction(self, monkeypatch):
        from repro.core.controller import TxAlloController
        from repro.core.params import TxAlloParams

        controller = TxAlloController(
            TxAlloParams(k=2, eta=2.0, lam=10.0),
            seed_transactions=[("a", "b"), ("c", "d"), ("b", "c")],
        )
        calls = self.count_calls(monkeypatch)
        block = [("b", "a"), ["e", "e"], ("c", "a", "c", "f"), frozenset({"d", "g"})]
        controller.observe_block(block)
        assert len(calls) == len(block)
        # Each transaction reaches the graph sorted and deduplicated.
        assert calls == [tuple(sorted(set(accounts))) for accounts in block]
