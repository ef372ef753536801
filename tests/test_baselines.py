"""Tests for the three baseline allocators."""

import hashlib
import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_allocation import (
    account_digest,
    hash_partition,
    hash_shard,
    prefix_partition,
    prefix_shard,
)
from repro.baselines.metis import (
    _Hierarchy,
    _initial_partition,
    _refine,
    metis_partition,
)
from repro.baselines.shard_scheduler import ShardScheduler, shard_scheduler_partition
from repro.core.graph import TransactionGraph
from repro.core.metrics import graph_cross_shard_ratio, workload_balance
from repro.core.params import TxAlloParams
from repro.errors import ParameterError
from tests.conftest import make_random_graph


class TestHashAllocation:
    def test_shard_in_range(self):
        for k in (1, 2, 7, 60):
            assert 0 <= hash_shard("0xabc", k) < k

    def test_deterministic(self):
        assert hash_shard("0xabc", 16) == hash_shard("0xabc", 16)

    def test_partition_covers_all_accounts(self):
        accounts = [f"0x{i:040x}" for i in range(100)]
        part = hash_partition(accounts, 8)
        assert set(part) == set(accounts)
        assert set(part.values()) <= set(range(8))

    def test_roughly_uniform(self):
        accounts = [f"0x{i:040x}" for i in range(4000)]
        part = hash_partition(accounts, 4)
        counts = [0] * 4
        for shard in part.values():
            counts[shard] += 1
        for c in counts:
            assert abs(c - 1000) < 200

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            hash_shard("0xabc", 0)
        with pytest.raises(ParameterError):
            prefix_shard("0xabc", -1)

    def test_prefix_shard_range(self):
        for k in (1, 2, 8, 60):
            assert 0 <= prefix_shard("0xdef", k) < k

    def test_prefix_partition(self):
        accounts = [f"0x{i:040x}" for i in range(50)]
        part = prefix_partition(accounts, 8)
        assert set(part) == set(accounts)

    def test_digest_accepts_bytes(self):
        assert account_digest(b"abc") == account_digest(b"abc")

    @given(k=st.integers(1, 64), acc=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_shard_in_range(self, k, acc):
        assert 0 <= hash_shard(acc, k) < k


class TestMetis:
    def test_partition_complete_and_in_range(self, clustered_graph):
        result = metis_partition(clustered_graph, 4)
        assert set(result.mapping) == set(clustered_graph.nodes())
        assert set(result.mapping.values()) <= set(range(4))

    def test_single_part(self, clustered_graph):
        result = metis_partition(clustered_graph, 1)
        assert set(result.mapping.values()) == {0}
        assert result.edge_cut == 0.0

    def test_empty_graph(self):
        from repro.core.graph import TransactionGraph

        assert metis_partition(TransactionGraph(), 4).mapping == {}

    def test_invalid_k(self, clustered_graph):
        with pytest.raises(ParameterError):
            metis_partition(clustered_graph, 0)

    def test_deterministic(self, clustered_graph):
        r1 = metis_partition(clustered_graph, 4)
        r2 = metis_partition(clustered_graph, 4)
        assert r1.mapping == r2.mapping

    def test_cut_better_than_random(self):
        graph = make_random_graph(num_accounts=80, num_transactions=600, seed=17, groups=4)
        metis_gamma = graph_cross_shard_ratio(graph, metis_partition(graph, 4).mapping)
        random_gamma = graph_cross_shard_ratio(
            graph, hash_partition(graph.nodes_sorted(), 4)
        )
        assert metis_gamma < random_gamma

    def test_node_weight_balance_respected(self):
        graph = make_random_graph(num_accounts=80, num_transactions=600, seed=18, groups=4)
        result = metis_partition(graph, 4, imbalance=1.1)
        # imbalance diagnostic is max/avg of node weights.
        assert result.node_weight_imbalance < 1.8

    def test_custom_node_weights(self, clustered_graph):
        weights = {v: 1.0 for v in clustered_graph.nodes()}
        result = metis_partition(clustered_graph, 3, node_weights=weights)
        sizes = [0] * 3
        for shard in result.mapping.values():
            sizes[shard] += 1
        assert max(sizes) - min(sizes) < len(weights)

    def test_balance_bound_uses_the_ordered_total(self, any_sum):
        """Ten 0.1 weights total 0.9999999999999999 left to right but 1.0
        under ``math.fsum``.  At k=2 and imbalance 1.2 the ordered total
        puts the part bound just below 0.6, so the six-account clique may
        not share a part, however ``sum`` rounds."""
        accounts = [f"n{i}" for i in range(10)]
        graph = TransactionGraph()
        for group in (accounts[:6], accounts[6:]):
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    graph.add_transaction((a, b))
        graph.add_transaction(("n5", "n6"))
        weights = {v: 0.1 for v in accounts}
        result = metis_partition(graph, 2, imbalance=1.2, node_weights=weights)
        sizes = [0, 0]
        for shard in result.mapping.values():
            sizes[shard] += 1
        assert sizes == [5, 5]

    def test_levels_reported(self):
        # 200 accounts coarsen twice before reaching the 100-node target:
        # the finest graph plus two coarse levels.
        graph = make_random_graph(num_accounts=200, num_transactions=1500, seed=19)
        result = metis_partition(graph, 2)
        assert result.levels == 3


# ----------------------------------------------------------------------
# Oracles: the straightforward METIS loops the flat kernels replaced.
# ----------------------------------------------------------------------
def _oracle_initial_partition(adj, weights, k):
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    part = [0] * n
    loads = [0.0] * k
    for i in order:
        target = min(range(k), key=lambda p: (loads[p], p))
        part[i] = target
        loads[target] += weights[i]
    return part


def _oracle_refine(adj, weights, part, k, max_part_weight, passes):
    n = len(weights)
    loads = [0.0] * k
    for i in range(n):
        loads[part[i]] += weights[i]
    for _ in range(passes):
        moved = 0
        for i in range(n):
            p = part[i]
            conn: Dict[int, float] = {}
            for j, w in adj[i].items():
                q = part[j]
                conn[q] = conn.get(q, 0.0) + w
            internal = conn.get(p, 0.0)
            best_q = p
            best_gain = 0.0
            for q in sorted(conn):
                if q == p:
                    continue
                if loads[q] + weights[i] > max_part_weight:
                    continue
                gain = conn[q] - internal
                if gain > best_gain:
                    best_gain = gain
                    best_q = q
            if best_q != p:
                part[i] = best_q
                loads[p] -= weights[i]
                loads[best_q] += weights[i]
                moved += 1
        if moved == 0:
            break
    return part


def _oracle_match(adj):
    """Heavy-edge matching: scan each row in sorted order."""
    n = len(adj)
    match = [-1] * n
    for i in range(n):
        if match[i] != -1:
            continue
        best_j = -1
        best_w = -1.0
        for j in sorted(adj[i]):
            if match[j] == -1 and j != i:
                w = adj[i][j]
                if w > best_w:
                    best_w = w
                    best_j = j
        if best_j != -1:
            match[i] = best_j
            match[best_j] = i
        else:
            match[i] = i
    return match


def _coarse_ids(match):
    """Coarse ids in order of first appearance, as coarsen_once numbers them."""
    coarse_of = [-1] * len(match)
    next_id = 0
    for i, j in enumerate(match):
        if coarse_of[i] != -1:
            continue
        coarse_of[i] = next_id
        if j != i and coarse_of[j] == -1:
            coarse_of[j] = next_id
        next_id += 1
    return coarse_of


def _random_adj(seed, n=150, *, equal_edges=False, equal_nodes=False):
    """A symmetric random graph whose rows are in shuffled (unsorted) order.

    Edge and node weights come from small discrete sets plus a random
    float, so gains and weights tie often.
    """
    rng = random.Random(seed)
    edges = {}
    for i in range(n):
        for _ in range(rng.randint(1, 5)):
            j = rng.randrange(n)
            if j != i:
                w = 1.0 if equal_edges else rng.choice([0.5, 1.0, 1.0, 2.0, rng.random()])
                edges[(min(i, j), max(i, j))] = w
    pairs = list(edges.items())
    rng.shuffle(pairs)
    adj: List[Dict[int, float]] = [dict() for _ in range(n)]
    for (i, j), w in pairs:
        adj[i][j] = w
        adj[j][i] = w
    if equal_nodes:
        weights = [1.0] * n
    else:
        weights = [rng.choice([1.0, 2.0, rng.uniform(0.5, 4.0)]) for _ in range(n)]
    return adj, weights


def _golden_graph(seed):
    return make_random_graph(num_accounts=400, num_transactions=3000, seed=seed, groups=8)


def _result_digest(result):
    cut, imbalance = result.edge_cut.hex(), result.node_weight_imbalance.hex()
    payload = repr((sorted(result.mapping.items()), cut, imbalance))
    return hashlib.sha256(payload.encode()).hexdigest()


def _metis_digest(seed, k):
    return _result_digest(metis_partition(_golden_graph(seed), k))


#: sha256 of (mapping, edge_cut, node_weight_imbalance), recorded with the
#: straightforward loops above before the flat kernels replaced them.
METIS_GOLDEN = {
    (3, 2): "6619873a0021237778d98273491c2658a048f635814bb5d5b82d6da5ea319457",
    (3, 4): "34bc36a98e208e1f7646eca9dbf4bc020a89f9fedf472345f1ab02a237ab17ae",
    (3, 8): "515925b04130652b5cf03d568c2e43a212ac1bb6e39e7aa5b669399fa120b02c",
    (29, 2): "28f70077715d58300f25bec7b872908c803d5c1e94fdd4be6b504e879d86272e",
    (29, 4): "fec91a21281165366470ba322e77451317454c812b104e554908987046002ab0",
    (29, 8): "2ecabddc719f9228da5d9c9338bb0a974e4835e6c811e078d51486212f12268d",
}


class TestMetisExactness:
    """The flat kernels make exactly the oracle's choices, ties included."""

    GRAPHS = [
        pytest.param({}, id="mixed"),
        pytest.param({"equal_edges": True}, id="equal-edges"),
        pytest.param({"equal_nodes": True}, id="equal-nodes"),
        pytest.param({"equal_edges": True, "equal_nodes": True}, id="all-equal"),
    ]

    @pytest.mark.parametrize("shape", GRAPHS)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matching_matches_oracle(self, seed, shape):
        adj, weights = _random_adj(seed, **shape)
        levels = _Hierarchy(adj, weights)
        coarsened = levels.coarsen_once()
        coarse_of = _coarse_ids(_oracle_match(adj))
        assert coarsened == (max(coarse_of) + 1 <= len(adj) * 0.9)
        if coarsened:
            assert levels.maps[-1] == coarse_of

    @pytest.mark.parametrize("shape", GRAPHS)
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_initial_partition_matches_oracle(self, seed, k, shape):
        adj, weights = _random_adj(seed, **shape)
        assert _initial_partition(adj, weights, k) == _oracle_initial_partition(adj, weights, k)

    @pytest.mark.parametrize("imbalance", [1.0, 1.02, 1.05, 1.5, 100.0])
    @pytest.mark.parametrize("shape", GRAPHS)
    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refine_matches_oracle(self, seed, k, shape, imbalance):
        adj, weights = _random_adj(seed, **shape)
        rng = random.Random(seed * 31 + k)
        start = [rng.randrange(k) for _ in weights]
        max_part_weight = imbalance * sum(weights) / k
        for passes in (1, 4, 50):
            got = _refine(adj, weights, start[:], k, max_part_weight, passes)
            want = _oracle_refine(adj, weights, start[:], k, max_part_weight, passes)
            assert got == want

    def test_tight_imbalance_vetoes_positive_gains(self):
        """The tight-balance cases above do exercise load vetoes: with the
        same start, a loose bound moves nodes the tight bound refuses."""
        adj, weights = _random_adj(5)
        rng = random.Random(5)
        start = [rng.randrange(4) for _ in weights]
        tight = _oracle_refine(adj, weights, start[:], 4, 1.02 * sum(weights) / 4, 4)
        loose = _oracle_refine(adj, weights, start[:], 4, 100.0 * sum(weights) / 4, 4)
        assert tight != loose
        assert _refine(adj, weights, start[:], 4, 1.02 * sum(weights) / 4, 4) == tight

    @pytest.mark.parametrize("seed,k", sorted(METIS_GOLDEN))
    def test_partition_golden(self, seed, k, any_sum):
        assert _metis_digest(seed, k) == METIS_GOLDEN[(seed, k)]


def _stalling_graph():
    """A golden graph plus a 200-leaf star: heavy-edge matching pairs the
    hub with one leaf per round, so the chain 601 > 404 > 302 > 250 > 224
    stalls before reaching the 100-node target of k = 2."""
    graph = _golden_graph(3)
    for i in range(200):
        graph.add_transaction(("hub", f"leaf{i:03d}"))
    return graph


def _same_result(got, want):
    return (
        got.mapping == want.mapping
        and got.edge_cut.hex() == want.edge_cut.hex()
        and got.node_weight_imbalance.hex() == want.node_weight_imbalance.hex()
        and got.levels == want.levels
    )


class TestMetisMemo:
    """One lowered graph and coarsening chain per snapshot serves every k."""

    @pytest.mark.parametrize(
        "ks",
        [(2, 4, 8), (8, 4, 2), (4, 4, 2, 8, 2)],
        ids=["ascending", "descending", "repeated"],
    )
    @pytest.mark.parametrize("seed", sorted({seed for seed, _ in METIS_GOLDEN}))
    def test_shared_graph_matches_golden_and_cold_calls(self, seed, ks):
        graph = _golden_graph(seed)
        for k in ks:
            result = metis_partition(graph, k)
            assert _result_digest(result) == METIS_GOLDEN[(seed, k)]
            assert result.levels == metis_partition(graph.copy(), k).levels
        assert graph.freeze().metis_memo is not None

    def test_stalled_round_is_not_retried(self, monkeypatch):
        rounds = []
        real = _Hierarchy.coarsen_once

        def counted(self):
            rounds.append(len(self.weights[-1]))
            return real(self)

        monkeypatch.setattr(_Hierarchy, "coarsen_once", counted)
        graph = _stalling_graph()
        for k in (10, 2, 4, 2):
            result = metis_partition(graph, k)
            assert _same_result(result, metis_partition(graph.copy(), k))
        memo = graph.freeze().metis_memo
        assert memo.stalled
        assert [len(w) for w in memo.weights] == [601, 404, 302, 250, 224]
        # The shared graph runs each of its 5 rounds once, the stalled one
        # included; the cold copies run 3 + 5 + 5 + 5.
        assert rounds.count(224) == 1 + 3
        assert len(rounds) == 5 + (3 + 5 + 5 + 5)

    def test_node_weights_call_leaves_memo_untouched(self):
        graph = _golden_graph(3)
        weights = {v: 1.0 for v in graph.nodes()}
        cold = metis_partition(graph.copy(), 4, node_weights=weights)
        assert _same_result(metis_partition(graph, 4, node_weights=weights), cold)
        assert graph.freeze().metis_memo is None
        metis_partition(graph, 8)
        memo = graph.freeze().metis_memo
        depth = len(memo.adjs)
        assert _same_result(metis_partition(graph, 4, node_weights=weights), cold)
        assert graph.freeze().metis_memo is memo
        assert len(memo.adjs) == depth

    def test_grown_graph_matches_cold_copy(self):
        graph = _golden_graph(29)
        metis_partition(graph, 2)
        first = graph.freeze()
        rng = random.Random(29)
        accounts = sorted(graph.nodes()) + [f"new{i:02d}" for i in range(40)]
        for _ in range(300):
            graph.add_transaction(set(rng.sample(accounts, rng.choice([1, 2, 3]))))
        for k in (4, 2):
            assert _same_result(metis_partition(graph, k), metis_partition(graph.copy(), k))
        assert graph.freeze() is not first


class TestShardScheduler:
    def params(self, k=4, eta=2.0, n=100):
        return TxAlloParams.with_capacity_for(n, k=k, eta=eta)

    def test_places_every_account(self):
        txs = [("a", "b"), ("c", "d"), ("a", "c")]
        result = shard_scheduler_partition(txs, self.params(n=3))
        assert set(result.mapping) == {"a", "b", "c", "d"}

    def test_new_accounts_go_to_least_loaded(self):
        scheduler = ShardScheduler(self.params())
        scheduler.loads = [5.0, 0.0, 5.0, 5.0]
        scheduler.observe(("x", "y"))
        assert scheduler.mapping["x"] == 1
        assert scheduler.mapping["y"] == 1

    def test_intra_tx_charges_one(self):
        scheduler = ShardScheduler(self.params())
        scheduler.observe(("a", "b"))
        assert sum(scheduler.loads) == pytest.approx(1.0)

    def test_cross_tx_charges_eta_per_shard(self):
        scheduler = ShardScheduler(self.params(eta=3.0))
        scheduler.mapping = {"a": 0, "b": 1}
        # Force loads so no migration is allowed (neither overloaded).
        scheduler.loads = [1.0, 1.0, 1.0, 1.0]
        was_cross = scheduler.observe(("a", "b"))
        assert was_cross
        assert scheduler.loads[0] == pytest.approx(4.0)
        assert scheduler.loads[1] == pytest.approx(4.0)

    def test_migration_relieves_overloaded_shard(self):
        scheduler = ShardScheduler(self.params())
        scheduler.mapping = {"a": 0, "b": 1}
        scheduler.loads = [100.0, 0.0, 0.0, 0.0]  # shard 0 overloaded
        scheduler.observe(("a", "b"))
        assert scheduler.mapping["a"] == 1
        assert scheduler.num_migrations == 1

    def test_no_migration_when_balanced(self):
        scheduler = ShardScheduler(self.params())
        scheduler.mapping = {"a": 0, "b": 1}
        scheduler.loads = [1.0, 1.0, 1.0, 1.0]
        scheduler.observe(("a", "b"))
        assert scheduler.mapping["a"] == 0
        assert scheduler.num_migrations == 0

    def test_deterministic(self, small_workload):
        params = TxAlloParams.with_capacity_for(len(small_workload["sets"]), k=6)
        r1 = shard_scheduler_partition(small_workload["sets"], params)
        r2 = shard_scheduler_partition(small_workload["sets"], params)
        assert r1.mapping == r2.mapping
        assert r1.shard_loads == r2.shard_loads

    def test_balance_is_excellent(self, small_workload):
        params = TxAlloParams.with_capacity_for(len(small_workload["sets"]), k=6)
        result = shard_scheduler_partition(small_workload["sets"], params)
        rho = workload_balance(result.shard_loads, params.lam)
        assert rho < 0.2

    def test_invalid_buffer(self):
        with pytest.raises(ParameterError):
            ShardScheduler(self.params(), buffer_ratio=0.0)

    def test_result_counters_consistent(self, small_workload):
        params = TxAlloParams.with_capacity_for(len(small_workload["sets"]), k=6)
        result = shard_scheduler_partition(small_workload["sets"], params)
        assert result.num_transactions == len(small_workload["sets"])
        assert 0 <= result.num_cross_shard <= result.num_transactions
        assert 0.0 <= result.cross_shard_ratio <= 1.0

    def test_throughput_capped_by_system_capacity(self, small_workload):
        params = TxAlloParams.with_capacity_for(len(small_workload["sets"]), k=6)
        result = shard_scheduler_partition(small_workload["sets"], params)
        assert result.throughput(params.lam) <= params.lam * params.k + 1e-6
