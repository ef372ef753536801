"""Snapshot property tests: every re-freeze equals a cold lowering.

``TransactionGraph.freeze`` returns the cached snapshot while the graph
is unchanged and otherwise lowers it in full with
``CSRGraph.from_graph``.  These tests pin what callers rely on: a
re-freeze after growth is **element-identical** to a cold lowering of a
copy — same node interning, same row contents in the same order,
bit-identical ``weights`` / ``loop`` / ``ext`` (compared via
``tobytes``), same sorted permutation — every older snapshot stays
exactly as it was, and the cache and its counters behave.  They also
pin engine A-TxAllo runs against the oracle across the controller
lifecycle.
"""

import random

import pytest

from repro.core.atxallo import a_txallo
from repro.core.csr import CSRGraph
from repro.core.graph import TransactionGraph
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


def csr_fingerprint(csr: CSRGraph) -> tuple:
    """Every field of ``csr`` as values it does not share."""
    return (
        list(csr.nodes),
        dict(csr.index_of),
        csr.indptr.tobytes(),
        csr.indices.tobytes(),
        csr.weights.tobytes(),
        csr.loop.tobytes(),
        csr.ext.tobytes(),
        [list(row) for row in csr.pairs],
        csr.num_edges,
        csr.total_weight,
    )


def seed_graph(rng, graph, accounts, num_transactions):
    for _ in range(num_transactions):
        graph.add_transaction(rng.sample(accounts, rng.choice([1, 2, 2, 2, 3])))


def assert_every_refreeze_is_cold(graph, windows):
    """Ingest ``windows`` one at a time (a bare string is an isolated
    account, anything else a transaction).  After each window the
    re-freeze must be one full lowering equal to a cold lowering of a
    copy, and the previous snapshot must be unchanged."""
    older = graph.freeze()
    fingerprint = csr_fingerprint(older)
    for window in windows:
        for accounts in window:
            if isinstance(accounts, str):
                graph.add_node(accounts)
            else:
                graph.add_transaction(accounts)
        full = graph.freeze_stats["full"]
        snapshot = graph.freeze()
        assert graph.freeze_stats["full"] == full + 1
        assert snapshot is not older
        assert_csr_identical(snapshot, CSRGraph.from_graph(graph.copy()))
        assert csr_fingerprint(older) == fingerprint
        older, fingerprint = snapshot, csr_fingerprint(snapshot)


def random_windows(rng, accounts, seed, steps=25):
    """Windows of weight updates, new edges, self-loops, new connected
    accounts and new isolated accounts."""
    windows = []
    for step in range(steps):
        window = []
        for _ in range(rng.randrange(1, 10)):
            roll = rng.random()
            if roll < 0.5:
                window.append(rng.sample(accounts, 2))
            elif roll < 0.65:
                window.append([rng.choice(accounts)])  # self-loop
            elif roll < 0.9:
                window.append([f"new{seed}_{step}_{rng.randrange(3)}", rng.choice(accounts)])
            else:
                window.append(f"iso{seed}_{step}")
        windows.append(window)
    return windows


class TestRefreezeEqualsColdLowering:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_randomized_ingest_interleavings(self, seed):
        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(300)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, 1500)
        assert_every_refreeze_is_cold(g, random_windows(rng, accounts, seed))

    @pytest.mark.parametrize("topology", workload_names())
    def test_zoo_topologies(self, topology):
        history, blocks = interleaving_traffic(topology, seed=1)
        g = TransactionGraph()
        g.add_transactions(history)
        assert_every_refreeze_is_cold(g, blocks)

    def test_refreeze_after_empty_snapshot(self):
        g = TransactionGraph()
        assert_every_refreeze_is_cold(g, [[("b", "a"), ("c",)]])

    def test_new_nodes_append_ids_sorted_order_tracks(self):
        g = TransactionGraph()
        g.add_transaction(("m", "z"))
        g.freeze()
        g.add_transaction(("a", "m"))  # sorts first, but ids are stable
        csr = g.freeze()
        assert csr.index_of == {"m": 0, "z": 1, "a": 2}
        assert [csr.nodes[i] for i in csr.sorted_order] == ["a", "m", "z"]


class TestSnapshotCache:
    def big_graph(self, n=200, txs=800, seed=7):
        rng = random.Random(seed)
        accounts = [f"acc{i:03d}" for i in range(n)]
        g = TransactionGraph()
        seed_graph(rng, g, accounts, txs)
        return g, accounts

    def test_counters_are_full_delta_cached_with_delta_zero(self):
        g, accounts = self.big_graph()
        assert g.freeze_stats == {"full": 0, "delta": 0, "cached": 0}
        g.freeze()
        g.add_transaction((accounts[0], accounts[1]))  # a one-edge change
        g.freeze()
        g.freeze()
        assert g.freeze_stats == {"full": 2, "delta": 0, "cached": 1}

    def test_unchanged_graph_returns_cached_snapshot(self):
        g, _ = self.big_graph()
        first = g.freeze()
        assert g.freeze() is first
        assert g.freeze_stats["cached"] == 1

    def test_new_snapshot_is_detached_from_the_older(self):
        g, accounts = self.big_graph()
        base = g.freeze()
        g.add_transaction(("zzz_new", accounts[0]))
        newer = g.freeze()
        assert newer is not base
        assert "zzz_new" in newer.index_of
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


class TestAdaptiveInterleavings:
    """Engine runs against the reference oracle, byte for byte, across
    the full controller lifecycle: block ingest, scheduled adaptive
    runs, scheduled and forced global refreshes, forced adaptives and an
    ``Allocation.move`` applied behind the controller's back between
    runs."""

    #: Steps after which an account is moved behind the controller's back.
    FOREIGN_MOVE_STEPS = (5, 12)

    def _drive(self, topology, seed, foreign_move):
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
            if foreign_move and step in self.FOREIGN_MOVE_STEPS:
                alloc = controller.allocation
                victim = sorted(alloc.mapping())[step]
                alloc.move(victim, (alloc.shard_of(victim) + 1) % params.k)
            roll = rng.random()
            if roll < 0.1:
                controller.force_adaptive()
            elif roll < 0.15:
                controller.force_global()
        controller.force_adaptive()
        return controller

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("foreign_move", (False, True))
    def test_engine_byte_identical_across_lifecycle(
        self, topology, seed, foreign_move, any_sum, reference_kernels
    ):
        with reference_kernels():
            oracle = self._drive(topology, seed, foreign_move)
        fast = self._drive(topology, seed, foreign_move)
        assert oracle.allocation.mapping() == fast.allocation.mapping()
        assert oracle.allocation.sigma == fast.allocation.sigma        # exact
        assert oracle.allocation.lam_hat == fast.allocation.lam_hat    # exact
        assert [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in oracle.events
        ] == [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in fast.events
        ]
        fast.allocation.validate(check_caches=True)


def test_no_delta_path_or_freeze_counter_forwarding():
    """A snapshot is built one way, and the graph alone reports its
    counters: no allocator or proxy forwards them."""
    import dataclasses

    import repro.core.graph as graph_module
    from repro.chain.faults import FaultyAllocator
    from repro.chain.live import LiveReport
    from repro.core.allocator import OnlineAllocator
    from repro.core.controller import TxAlloController
    from repro.core.resilience import ResilientAllocator
    from repro.eval.matrix import _TimedAllocator

    assert not hasattr(CSRGraph, "extend")
    assert not hasattr(graph_module, "DELTA_REBUILD_FRACTION")
    assert not {"_delta_nodes", "_delta_touched"} & set(TransactionGraph.__slots__)
    assert "freeze_stats" not in {f.name for f in dataclasses.fields(LiveReport)}
    for cls in (OnlineAllocator, TxAlloController, ResilientAllocator, FaultyAllocator, _TimedAllocator):
        assert not any("freeze_stats" in vars(c) for c in cls.__mro__), cls
    assert not any("workspace_stats" in vars(c) for c in ResilientAllocator.__mro__)


def test_no_adaptive_workspace_or_mutation_journal():
    """A-TxAllo sweeps the live graph: no persistent view of it, no log
    of its mutations, and no parameter to hand either to a run."""
    import inspect
    import pathlib

    import repro.core as core
    import repro.core.engine as engine
    import repro.core.graph as graph_module
    from repro.core.controller import TxAlloController

    removed = (
        "AdaptiveWorkspace",
        "MutationJournal",
        "start_mutation_journal",
        "stop_mutation_journal",
        "JOURNAL_EDGE_CAP",
        "adjacency_dicts",
        "_kernel_views",
    )
    for owner in (core, engine, graph_module, TransactionGraph, CSRGraph):
        assert not [name for name in removed if hasattr(owner, name)], owner
    assert not set(removed) & set(core.__all__)
    assert "_journal" not in TransactionGraph.__slots__
    for run in (a_txallo, engine.a_txallo_flat):
        assert "workspace" not in inspect.signature(run).parameters
    controller = TxAlloController(TxAlloParams(k=2), seed_transactions=[("a", "b")])
    assert not hasattr(controller, "_workspace")
    src = pathlib.Path(core.__file__).resolve().parents[1]
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not [name for name in removed + ("workspace=",) if name in text], path
