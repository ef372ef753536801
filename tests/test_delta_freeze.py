"""Delta-freeze property tests: incremental CSR == cold CSR, element-wise.

``TransactionGraph.freeze`` may extend the previous snapshot via
``CSRGraph.extend`` instead of re-lowering the whole graph.  That path is
only allowed to exist because its output is **element-identical** to a
cold ``CSRGraph.from_graph`` of the same graph — same node interning,
same row contents in the same order, bit-identical ``weights`` / ``loop``
/ ``ext`` (compared via ``tobytes``), same insertion permutation.  These
tests pin that contract across randomized ingest / allocate
interleavings, plus the cache/delta bookkeeping around it.
"""

import random

import pytest

from repro.core.atxallo import a_txallo
from repro.core.csr import CSRGraph
from repro.core.graph import DELTA_REBUILD_FRACTION, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from repro.errors import GraphError

SEEDS = (1, 2, 3, 4, 5)


def assert_csr_identical(got: CSRGraph, want: CSRGraph) -> None:
    """Field-by-field equality; float arrays compared bit-for-bit."""
    assert got.nodes == want.nodes
    assert got.index_of == want.index_of
    assert got.indptr == want.indptr
    assert got.indices == want.indices
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.loop.tobytes() == want.loop.tobytes()
    assert got.ext.tobytes() == want.ext.tobytes()
    assert got.pairs == want.pairs
    assert got.sorted_order == want.sorted_order
    assert got.sorted_rank == want.sorted_rank
    assert got.num_edges == want.num_edges
    assert got.total_weight == want.total_weight


def seed_graph(rng, graph, accounts, num_transactions):
    for _ in range(num_transactions):
        graph.add_transaction(rng.sample(accounts, rng.choice([1, 2, 2, 2, 3])))


class TestExtendElementIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_randomized_ingest_interleavings(self, seed):
        """Mutate-freeze-compare loops over weight updates, new edges,
        new connected accounts and new isolated accounts."""
        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(300)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, 1500)
        g.freeze()
        for step in range(25):
            for _ in range(rng.randrange(1, 10)):
                roll = rng.random()
                if roll < 0.5:
                    g.add_transaction(rng.sample(accounts, 2))
                elif roll < 0.65:
                    g.add_transaction([rng.choice(accounts)])  # self-loop
                elif roll < 0.9:
                    g.add_transaction(
                        [f"new{seed}_{step}_{rng.randrange(3)}", rng.choice(accounts)]
                    )
                else:
                    g.add_node(f"iso{seed}_{step}")
            assert_csr_identical(g.freeze(), CSRGraph.from_graph(g))
        assert g.freeze_stats["delta"] > 0, "delta path never exercised"

    def test_extend_from_empty_base(self):
        g = TransactionGraph()
        g.freeze()  # snapshot of the empty graph
        g.add_transaction(("b", "a"))
        g.add_transaction(("c",))
        assert_csr_identical(g.freeze(), CSRGraph.from_graph(g))

    def test_new_nodes_append_ids_sorted_order_tracks(self):
        g = TransactionGraph()
        g.add_transaction(("m", "z"))
        g.freeze()
        g.add_transaction(("a", "m"))  # sorts first, but ids are stable
        csr = g.freeze()
        assert_csr_identical(csr, CSRGraph.from_graph(g))
        assert csr.index_of == {"m": 0, "z": 1, "a": 2}
        assert [csr.nodes[i] for i in csr.sorted_order] == ["a", "m", "z"]


class TestDeltaBookkeeping:
    def big_graph(self, n=200, txs=800, seed=7):
        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(n)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, txs)
        return g, accounts

    def test_small_delta_extends_large_delta_rebuilds(self):
        g, accounts = self.big_graph()
        g.freeze()
        g.add_transaction((accounts[0], accounts[1]))
        g.freeze()
        assert g.freeze_stats == {"full": 1, "delta": 1, "cached": 0}
        # Touch (far) more than DELTA_REBUILD_FRACTION of the nodes:
        # the incremental path must step aside for a full rebuild.
        n = g.num_nodes
        frontier = accounts[: int(n * DELTA_REBUILD_FRACTION) + 2]
        for a in frontier:
            g.add_transaction((a, accounts[-1]))
        assert_csr_identical(g.freeze(), CSRGraph.from_graph(g))
        assert g.freeze_stats["full"] == 2

    def test_unchanged_graph_returns_cached_snapshot(self):
        g, _ = self.big_graph()
        first = g.freeze()
        assert g.freeze() is first
        assert g.freeze_stats["cached"] == 1

    def test_extended_snapshot_is_detached_from_base(self):
        g, accounts = self.big_graph()
        base = g.freeze()
        g.add_transaction(("zzz_new", accounts[0]))
        extended = g.freeze()
        assert extended is not base
        assert "zzz_new" in extended.index_of
        assert "zzz_new" not in base.index_of
        assert base.num_edges == g.num_edges - 1

    def test_delta_freeze_can_be_disabled(self):
        g, accounts = self.big_graph()
        g.delta_freeze_enabled = False
        assert not g.delta_freeze_enabled
        g.freeze()
        g.add_transaction((accounts[0], accounts[1]))
        assert_csr_identical(g.freeze(), CSRGraph.from_graph(g))
        assert g.freeze_stats["delta"] == 0
        assert g.freeze_stats["full"] == 2

    def test_reenabling_delta_freeze_never_serves_stale_snapshots(self):
        """Regression: mutations made while delta-freeze is disabled are
        unlogged, so re-enabling must poison the log — extending the old
        base with an empty delta would cache a snapshot missing them."""
        g, accounts = self.big_graph()
        g.freeze()
        g.delta_freeze_enabled = False
        g.add_transaction(("zz_disabled_era", accounts[0]))
        g.delta_freeze_enabled = True
        csr = g.freeze()
        assert "zz_disabled_era" in csr.index_of
        assert_csr_identical(csr, CSRGraph.from_graph(g))

    def test_copy_starts_with_cold_cache_and_fresh_counters(self):
        g, accounts = self.big_graph()
        g.freeze()
        g.add_transaction((accounts[0], accounts[1]))
        g.freeze()
        clone = g.copy()
        assert clone.freeze_stats == {"full": 0, "delta": 0, "cached": 0}
        assert_csr_identical(clone.freeze(), CSRGraph.from_graph(g))

    def test_a_txallo_fast_rejects_nodes_missing_from_graph(self):
        g, accounts = self.big_graph()
        params = TxAlloParams.with_capacity_for(800, k=3, backend="fast")
        alloc = g_txallo(g, params).allocation
        with pytest.raises(GraphError):
            a_txallo(alloc, ["never-ingested"])


class TestAdaptiveWorkspaceInterleavings:
    """Workspace-vs-snapshot byte-parity across the full controller
    lifecycle: block ingest, scheduled adaptive runs, scheduled and
    forced global refreshes, forced adaptives and a competing journal on
    the same graph (which poisons the workspace's journal and must force
    a rebuild)."""

    def _drive(self, seed, workspace_enabled, poison_journal):
        from repro.core.controller import TxAlloController

        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(180)]
        graph = TransactionGraph()
        seed_graph(rng, graph, accounts, 900)
        params = TxAlloParams.with_capacity_for(
            900, k=4, eta=2.0, tau1=1, tau2=7
        )
        controller = TxAlloController(
            params, graph=graph, adaptive_workspace=workspace_enabled
        )
        for step in range(20):
            block = []
            for _ in range(rng.randrange(2, 8)):
                accs = rng.sample(accounts, 2)
                if rng.random() < 0.25:
                    accs.append(f"fresh{seed}_{step}_{rng.randrange(2)}")
                block.append(tuple(accs))
            controller.observe_block(block)
            roll = rng.random()
            if poison_journal and roll < 0.15:
                graph.start_mutation_journal()
            elif roll < 0.25:
                controller.force_adaptive()
            elif roll < 0.3:
                controller.force_global()
        controller.force_adaptive()
        return controller

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("poison_journal", (False, True))
    def test_workspace_byte_identical_across_lifecycle(self, seed, poison_journal):
        base = self._drive(seed, workspace_enabled=False, poison_journal=poison_journal)
        batched = self._drive(seed, workspace_enabled=True, poison_journal=poison_journal)
        assert base.allocation.mapping() == batched.allocation.mapping()
        assert base.allocation.sigma == batched.allocation.sigma        # exact
        assert base.allocation.lam_hat == batched.allocation.lam_hat    # exact
        assert [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in base.events
        ] == [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in batched.events
        ]
        stats = batched.workspace_stats
        assert stats["runs"] > 0
        assert stats["extends"] > 0, "workspace never carried across a window"
        if poison_journal:
            # The competing journal poisons the workspace's: at least one
            # rebuild beyond the first adaptive run (global refreshes
            # only reseat).
            assert stats["rebuilds"] >= 2
        else:
            assert stats["rebuilds"] == 1
            assert stats["reseats"] > 0

    def test_competing_journal_between_runs_forces_rebuild_not_staleness(self):
        """Directly pin the poisoned-journal path: a competing journal
        started between two workspace runs receives the next mutations,
        so the workspace must rebuild from a fresh freeze instead of
        replaying its own (now incomplete) log."""
        from repro.core.engine import AdaptiveWorkspace

        rng = random.Random(13)
        accounts = [f"acc{i:03d}" for i in range(100)]
        results = {}
        for label in ("snapshot", "workspace"):
            rng = random.Random(13)
            g = TransactionGraph()
            seed_graph(rng, g, accounts, 600)
            params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
            alloc = g_txallo(g, params).allocation
            workspace = AdaptiveWorkspace() if label == "workspace" else None
            stats = []
            for step in range(4):
                touched = set()
                for _ in range(15):
                    accs = rng.sample(accounts, 2)
                    g.add_transaction(accs)
                    alloc.ingest_transaction(accs)
                    touched.update(accs)
                res = a_txallo(alloc, touched, workspace=workspace)
                stats.append((res.new_nodes, res.swept_nodes, res.sweeps, res.moves))
                if step == 1:
                    g.start_mutation_journal()  # poisons the journal mid-sequence
            results[label] = (alloc.mapping(), alloc.sigma, alloc.lam_hat, stats)
            if workspace is not None:
                assert workspace.stats["rebuilds"] >= 2
        assert results["snapshot"] == results["workspace"]


class TestWorkspacePoisonTriggers:
    """Each surviving way to poison the workspace's journal between two
    runs forces exactly one extra rebuild, and the runs stay byte-identical
    to the snapshot-per-run path on every workspace-backed tier.

    ``none`` is the control: the journal carries every window, one rebuild.
    """

    TRIGGERS = ("none", "competing_journal", "stopped_journal", "edge_cap_overflow")

    @staticmethod
    def _pull_trigger(trigger, alloc, rng, accounts, touched):
        g = alloc.graph
        if trigger == "competing_journal":
            g.start_mutation_journal()
        elif trigger == "stopped_journal":
            if g._journal is not None:  # the snapshot path never subscribes
                g.stop_mutation_journal(g._journal)
        elif trigger == "edge_cap_overflow":
            # 15 window edges plus these 10 pass the patched cap of 20.
            for _ in range(10):
                accs = rng.sample(accounts, 2)
                g.add_transaction(accs)
                alloc.ingest_transaction(accs)
                touched.update(accs)

    def _run(self, trigger, backend, seed, use_workspace):
        from repro.core.engine import AdaptiveWorkspace

        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(100)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, 600)
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0, backend=backend)
        alloc = g_txallo(g, params).allocation
        workspace = AdaptiveWorkspace() if use_workspace else None
        runs = []
        for step in range(4):
            touched = set()
            for _ in range(15):
                accs = rng.sample(accounts, 2)
                g.add_transaction(accs)
                alloc.ingest_transaction(accs)
                touched.update(accs)
            if step == 2:
                self._pull_trigger(trigger, alloc, rng, accounts, touched)
            res = a_txallo(alloc, touched, workspace=workspace)
            runs.append((res.new_nodes, res.swept_nodes, res.sweeps, res.moves))
        alloc.validate(check_caches=True)
        outcome = (alloc.mapping(), alloc.sigma, alloc.lam_hat, runs)
        return outcome, workspace

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("backend", ("fast", "turbo", "vector"))
    @pytest.mark.parametrize("trigger", TRIGGERS)
    def test_trigger_rebuilds_once_and_keeps_parity(self, monkeypatch, trigger, backend, seed):
        import repro.core.graph as graph_module

        monkeypatch.setattr(graph_module, "JOURNAL_EDGE_CAP", 20)
        snapshot, _ = self._run(trigger, backend, seed, use_workspace=False)
        batched, workspace = self._run(trigger, backend, seed, use_workspace=True)
        assert batched == snapshot
        stats = workspace.stats
        assert stats["runs"] == 4
        assert stats["rebuilds"] == (1 if trigger == "none" else 2)
        assert stats["extends"] == (3 if trigger == "none" else 2)
