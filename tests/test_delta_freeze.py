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
from repro.data import WorkloadConfig, make_workload_generator, workload_names
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
        params = TxAlloParams.with_capacity_for(800, k=3)
        alloc = g_txallo(g, params).allocation
        with pytest.raises(GraphError):
            a_txallo(alloc, ["never-ingested"])


#: The interleavings below run on uniform random traffic and on every
#: registered zoo topology.
TOPOLOGIES = ("uniform", *workload_names())


def interleaving_traffic(topology, seed):
    """900 seed transactions and 20 live blocks of ``topology`` traffic.

    ``uniform`` samples 180 accounts uniformly and mixes brand-new
    accounts into the live blocks; a zoo topology draws a small stream
    (180 accounts, 5-transaction blocks) from its registered generator.
    """
    rng = random.Random(seed)
    if topology == "uniform":
        accounts = [f"acc{i:03d}" for i in range(180)]
        history = [rng.sample(accounts, rng.choice([1, 2, 2, 2, 3])) for _ in range(900)]
        blocks = []
        for step in range(20):
            block = []
            for _ in range(rng.randrange(2, 8)):
                accs = rng.sample(accounts, 2)
                if rng.random() < 0.25:
                    accs.append(f"fresh{seed}_{step}_{rng.randrange(2)}")
                block.append(tuple(accs))
            blocks.append(block)
        return history, blocks
    config = WorkloadConfig(num_accounts=180, num_transactions=1000, seed=seed)
    txs = [tx.accounts for tx in make_workload_generator(topology, config).transactions()]
    return txs[:900], [txs[i : i + 5] for i in range(900, 1000, 5)]


class TestAdaptiveWorkspaceInterleavings:
    """Workspace-backed engine runs against the reference oracle,
    byte for byte, across the full controller lifecycle: block ingest,
    scheduled adaptive runs, scheduled and forced global refreshes,
    forced adaptives and a competing journal on the same graph (which
    poisons the workspace's journal and must force a rebuild)."""

    #: Steps after which the competing journal is started.
    POISON_STEPS = (5, 12)

    def _drive(self, topology, seed, poison_journal):
        from repro.core.controller import TxAlloController

        history, blocks = interleaving_traffic(topology, seed)
        graph = TransactionGraph()
        for accounts in history:
            graph.add_transaction(accounts)
        params = TxAlloParams.with_capacity_for(900, k=4, eta=2.0, tau1=1, tau2=7)
        controller = TxAlloController(params, graph=graph)
        rng = random.Random(seed + 1)
        for step, block in enumerate(blocks):
            controller.observe_block(block)
            if poison_journal and step in self.POISON_STEPS:
                graph.start_mutation_journal()
            roll = rng.random()
            if roll < 0.1:
                controller.force_adaptive()
            elif roll < 0.15:
                controller.force_global()
        controller.force_adaptive()
        return controller

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("poison_journal", (False, True))
    def test_workspace_byte_identical_across_lifecycle(
        self, topology, seed, poison_journal, any_sum, reference_kernels
    ):
        with reference_kernels():
            oracle = self._drive(topology, seed, poison_journal)
        batched = self._drive(topology, seed, poison_journal)
        assert oracle.allocation.mapping() == batched.allocation.mapping()
        assert oracle.allocation.sigma == batched.allocation.sigma        # exact
        assert oracle.allocation.lam_hat == batched.allocation.lam_hat    # exact
        assert [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in oracle.events
        ] == [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in batched.events
        ]
        stats = batched.workspace_stats
        assert stats["runs"] > 0
        assert stats["extends"] > 0, "workspace never carried across a window"
        if poison_journal:
            # Each competing journal poisons the workspace's: one rebuild
            # per poisoning beyond the first adaptive run (global
            # refreshes only reseat).
            assert stats["rebuilds"] == 1 + len(self.POISON_STEPS)
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
    to workspace-less runs.

    ``none`` is the control: the journal carries every window, one rebuild.
    """

    TRIGGERS = ("none", "competing_journal", "stopped_journal", "edge_cap_overflow")

    @staticmethod
    def _pull_trigger(trigger, alloc, rng, accounts, touched):
        g = alloc.graph
        if trigger == "competing_journal":
            g.start_mutation_journal()
        elif trigger == "stopped_journal":
            if g._journal is not None:  # a workspace-less run never subscribes
                g.stop_mutation_journal(g._journal)
        elif trigger == "edge_cap_overflow":
            # 15 window edges plus these 10 pass the patched cap of 20.
            for _ in range(10):
                accs = rng.sample(accounts, 2)
                g.add_transaction(accs)
                alloc.ingest_transaction(accs)
                touched.update(accs)

    def _run(self, trigger, seed, use_workspace):
        from repro.core.engine import AdaptiveWorkspace

        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(100)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, 600)
        params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
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
    @pytest.mark.parametrize("trigger", TRIGGERS)
    def test_trigger_rebuilds_once_and_keeps_parity(self, monkeypatch, trigger, seed):
        import repro.core.graph as graph_module

        monkeypatch.setattr(graph_module, "JOURNAL_EDGE_CAP", 20)
        snapshot, _ = self._run(trigger, seed, use_workspace=False)
        batched, workspace = self._run(trigger, seed, use_workspace=True)
        assert batched == snapshot
        stats = workspace.stats
        assert stats["runs"] == 4
        assert stats["rebuilds"] == (1 if trigger == "none" else 2)
        assert stats["extends"] == (3 if trigger == "none" else 2)
