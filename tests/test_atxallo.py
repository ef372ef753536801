"""Tests for Algorithm 2 (A-TxAllo) and the graph-ingest pipeline."""

import random

import pytest

from repro.core.atxallo import MAX_SWEEPS, a_txallo, a_txallo_reference
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from tests.conftest import make_random_graph


def prepared(seed=21, k=4):
    graph = make_random_graph(num_accounts=80, num_transactions=500, seed=seed, groups=4)
    params = TxAlloParams.with_capacity_for(500, k=k, eta=2.0)
    alloc = g_txallo(graph, params).allocation
    return graph, params, alloc


def ingest(graph, alloc, txs):
    touched = set()
    for accounts in txs:
        unique = set(accounts)
        graph.add_transaction(unique)
        alloc.ingest_transaction(unique)
        touched.update(unique)
    return touched


class TestNewNodes:
    def test_new_accounts_get_allocated(self):
        graph, params, alloc = prepared()
        nodes = list(graph.nodes())
        txs = [("brand_new_1", nodes[0]), ("brand_new_2", "brand_new_3")]
        touched = ingest(graph, alloc, txs)
        result = a_txallo(alloc, touched)
        alloc.validate()
        assert result.new_nodes == 3
        for v in ("brand_new_1", "brand_new_2", "brand_new_3"):
            assert alloc.is_assigned(v)

    def test_connected_new_node_joins_its_neighbourhood(self):
        graph, params, alloc = prepared()
        anchor = max(graph.nodes(), key=lambda v: graph.strength(v))
        home = alloc.shard_of(anchor)
        txs = [("sticky_new", anchor)] * 5
        touched = ingest(graph, alloc, txs)
        a_txallo(alloc, touched)
        assert alloc.shard_of("sticky_new") == home

    def test_disconnected_new_node_still_allocated(self):
        graph, params, alloc = prepared()
        touched = ingest(graph, alloc, [("lonely",)])
        a_txallo(alloc, touched)
        assert alloc.is_assigned("lonely")

    def test_empty_touched_set_is_noop(self):
        graph, params, alloc = prepared()
        before = alloc.mapping()
        result = a_txallo(alloc, [])
        assert result.moves == 0
        assert alloc.mapping() == before


class TestOptimisation:
    def test_throughput_does_not_decrease(self):
        graph, params, alloc = prepared()
        rng = random.Random(1)
        nodes = list(graph.nodes())
        txs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        touched = ingest(graph, alloc, txs)
        before = alloc.total_throughput()
        a_txallo(alloc, touched)
        assert alloc.total_throughput() >= before - params.epsilon

    def test_caches_exact_after_run(self):
        graph, params, alloc = prepared()
        rng = random.Random(2)
        nodes = list(graph.nodes())
        txs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        txs += [(f"n{i}", rng.choice(nodes)) for i in range(10)]
        touched = ingest(graph, alloc, txs)
        a_txallo(alloc, touched)
        alloc.validate()

    def test_untouched_accounts_do_not_move(self):
        graph, params, alloc = prepared()
        nodes = list(graph.nodes())
        touched_txs = [(nodes[0], nodes[1])]
        before = alloc.mapping()
        touched = ingest(graph, alloc, touched_txs)
        a_txallo(alloc, touched)
        after = alloc.mapping()
        for v, shard in before.items():
            if v not in touched:
                assert after[v] == shard

    def test_result_statistics(self):
        graph, params, alloc = prepared()
        nodes = list(graph.nodes())
        touched = ingest(graph, alloc, [(nodes[0], "fresh")])
        result = a_txallo(alloc, touched)
        assert result.swept_nodes == 2
        assert result.sweeps >= 1
        assert result.seconds >= 0.0


class TestDeterminism:
    def test_identical_streams_identical_result(self):
        outcomes = []
        for _ in range(2):
            graph, params, alloc = prepared(seed=33)
            rng = random.Random(44)
            nodes = list(graph.nodes())
            txs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
            touched = ingest(graph, alloc, txs)
            a_txallo(alloc, touched)
            outcomes.append(alloc.mapping())
        assert outcomes[0] == outcomes[1]


class TestApproximationQuality:
    def test_adaptive_close_to_global(self):
        """A-TxAllo's throughput stays within a few percent of a fresh
        G-TxAllo run on the same final graph (paper Fig. 9's message)."""
        graph, params, alloc = prepared(seed=55)
        rng = random.Random(55)
        nodes = list(graph.nodes())
        for _round in range(5):
            txs = []
            for _ in range(40):
                g_ = rng.randrange(4)
                pool = nodes[g_ * 20:(g_ + 1) * 20]
                txs.append(tuple(rng.sample(pool, 2)))
            touched = ingest(graph, alloc, txs)
            a_txallo(alloc, touched)
        fresh = g_txallo(graph, params).allocation
        adaptive_thpt = alloc.total_throughput()
        global_thpt = fresh.total_throughput()
        assert adaptive_thpt >= 0.9 * global_thpt


class TestConvergedFlag:
    def test_normal_runs_report_convergence(self):
        graph, params, alloc = prepared()
        touched = ingest(graph, alloc, [("fresh", next(iter(graph.nodes())))])
        result = a_txallo(alloc, touched)
        assert result.converged is True
        assert result.sweeps < MAX_SWEEPS

    @pytest.mark.parametrize("run", (a_txallo_reference, a_txallo), ids=("reference", "fast"))
    def test_epsilon_zero_exhausts_cap_and_flags_it(self, run):
        """ε=0 can never satisfy `sweep_gain < ε`, so the run must stop
        at MAX_SWEEPS and report converged=False on engine and oracle —
        previously a truncated run was indistinguishable from a
        converged one."""
        graph, params, alloc = prepared()
        nodes = list(graph.nodes())
        touched = ingest(graph, alloc, [(nodes[0], nodes[1])])
        result = run(alloc, touched, epsilon=0.0)
        assert result.sweeps == MAX_SWEEPS
        assert result.converged is False

    def test_epsilon_zero_workspace_path_matches(self):
        from repro.core.engine import AdaptiveWorkspace

        graph, params, alloc = prepared()
        nodes = list(graph.nodes())
        touched = ingest(graph, alloc, [(nodes[0], nodes[1])])
        result = a_txallo(
            alloc, touched, epsilon=0.0, workspace=AdaptiveWorkspace()
        )
        assert result.sweeps == MAX_SWEEPS
        assert result.converged is False

    def test_default_keeps_old_consumers_working(self):
        """The field defaults to True so results built without it (e.g.
        persisted replays) read as converged."""
        from repro.core.atxallo import ATxAlloResult

        graph, params, alloc = prepared()
        result = ATxAlloResult(
            allocation=alloc, new_nodes=0, swept_nodes=0, sweeps=1,
            moves=0, seconds=0.0,
        )
        assert result.converged is True
