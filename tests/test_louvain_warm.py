"""Warm-start quality suite — the turbo backend's gated contract.

The turbo backend is *allowed* to produce a different allocation than
fast/reference (warm-started Louvain + work-skipping sweeps land on a
different deterministic local optimum), so these tests pin what turbo
promises instead of byte-parity:

* the TxAllo objective of a turbo allocation stays within
  :data:`repro.core.engine.WARM_OBJECTIVE_TOLERANCE` of the cold
  fast-backend result on the same graph, across randomised
  ingest / refresh interleavings;
* turbo is deterministic: identical histories give identical mappings;
* turbo never contaminates the fast backend — ``backend="fast"`` stays
  byte-identical to ``"reference"`` even on a snapshot turbo already
  partitioned (separate memos);
* warm seeds ride ``CSRGraph.extend``; on full rebuilds they survive
  only when the delta log stayed intact and the frontier is still under
  ``REBUILD_SEED_CARRY_FRACTION`` (a bursty window), and die with the
  snapshot otherwise (mostly-rewritten graphs);
* the controller's ``warm_stats`` counters report the warm/cold split.
"""

import random

import pytest

from repro.core.controller import TxAlloController
from repro.core.engine import WARM_OBJECTIVE_TOLERANCE, louvain_flat_warm
from repro.core.graph import REBUILD_SEED_CARRY_FRACTION, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.core.persistence import load_allocation, save_allocation
from tests.conftest import make_random_graph


def _random_transactions(rng, nodes, count, new_prefix):
    """A mixed batch: pair txs among known nodes plus a few new accounts."""
    txs = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.15 and nodes:
            txs.append((f"{new_prefix}_{i}", rng.choice(nodes)))
        elif roll < 0.2:
            txs.append((f"{new_prefix}_solo_{i}",))
        else:
            txs.append(tuple(rng.sample(nodes, min(len(nodes), rng.choice([2, 2, 3])))))
    return txs


def _objectives_after_interleaving(graph, seed, rounds, k):
    """Ingest/refresh rounds; returns per-round (turbo_objective,
    fast_objective) pairs computed on identical graphs."""
    rng = random.Random(seed)
    params_turbo = TxAlloParams.with_capacity_for(600, k=k, backend="turbo")
    params_fast = params_turbo.replace(backend="fast")
    pairs = []
    for round_ in range(rounds):
        nodes = list(graph.nodes())
        for tx in _random_transactions(rng, nodes, 60, f"r{round_}"):
            graph.add_transaction(tx)
        # freeze() here extends (or rebuilds) the snapshot exactly as the
        # controller's adaptive steps would between global refreshes.
        graph.freeze()
        turbo = g_txallo(graph, params_turbo).allocation
        fast = g_txallo(graph, params_fast).allocation
        pairs.append((turbo.total_throughput(), fast.total_throughput()))
    return pairs


class TestObjectiveTolerance:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("k", (2, 6))
    def test_random_ingest_refresh_interleavings(self, seed, k):
        graph = make_random_graph(num_accounts=80, num_transactions=500, seed=seed)
        for turbo_obj, fast_obj in _objectives_after_interleaving(
            graph, seed, rounds=5, k=k
        ):
            assert turbo_obj >= (1.0 - WARM_OBJECTIVE_TOLERANCE) * fast_obj

    def test_turbo_is_deterministic(self):
        mappings = []
        for _ in range(2):
            graph = make_random_graph(seed=11)
            params = TxAlloParams.with_capacity_for(400, k=4, backend="turbo")
            g_txallo(graph, params)  # cold; memoises the seed partition
            graph.add_transaction(("acc001", "acc042"))
            graph.add_transaction(("fresh", "acc007"))
            graph.freeze()
            mappings.append(g_txallo(graph, params).allocation.mapping())
        assert mappings[0] == mappings[1]


class TestBackendIsolation:
    def test_turbo_does_not_poison_fast_parity(self):
        """fast must stay byte-identical to reference on a snapshot the
        turbo backend already partitioned (memo separation)."""
        graph = make_random_graph(seed=7)
        params = TxAlloParams.with_capacity_for(400, k=4)
        g_txallo(graph, params, backend="turbo")
        graph.add_transaction(("acc001", "acc002"))
        graph.freeze()
        g_txallo(graph, params, backend="turbo")  # warm run on the extend

        ref = g_txallo(graph, params, backend="reference")
        fast = g_txallo(graph, params, backend="fast")
        assert ref.allocation.mapping() == fast.allocation.mapping()
        assert ref.allocation.sigma == fast.allocation.sigma
        assert ref.allocation.lam_hat == fast.allocation.lam_hat
        assert (ref.sweeps, ref.moves) == (fast.sweeps, fast.moves)

    def test_warm_partition_is_a_complete_partition(self):
        graph = make_random_graph(seed=8)
        louvain_partition(graph, backend="turbo")
        graph.add_transaction(("acc000", "acc059"))
        partition = louvain_partition(graph, backend="turbo")
        assert set(partition) == set(graph.nodes())
        labels = set(partition.values())
        assert labels == set(range(len(labels)))  # dense, 0-based

    def test_warm_memo_serves_fresh_copies(self):
        graph = make_random_graph(seed=9)
        louvain_partition(graph, backend="turbo")
        graph.add_transaction(("acc001", "acc050"))
        p1 = louvain_partition(graph, backend="turbo")
        p1[next(iter(p1))] = 10**6
        assert louvain_partition(graph, backend="turbo") != p1


class TestWarmSeedLifecycle:
    def test_extend_carries_seed_and_flags_warm(self):
        graph = make_random_graph(seed=10)
        csr0 = graph.freeze()
        louvain_flat_warm(csr0)  # cold: nothing to seed from
        assert csr0.louvain_warm_hit is False

        graph.add_transaction(("acc003", "acc033"))
        csr1 = graph.freeze()
        assert csr1 is not csr0
        assert (32, 1.0) in csr1.warm_seeds
        louvain_flat_warm(csr1)
        assert csr1.louvain_warm_hit is True

    def test_full_rebuild_invalidates_seed(self):
        """A frontier past ``REBUILD_SEED_CARRY_FRACTION`` (hence past the
        delta-extend cutoff too) rebuilds the snapshot and drops the
        seeds at the rebuild, before any warm request."""
        graph = make_random_graph(seed=3)
        csr0 = graph.freeze()
        louvain_flat_warm(csr0)
        full0 = graph.freeze_stats["full"]

        nodes = sorted(graph.nodes())
        upto = int(len(nodes) * (REBUILD_SEED_CARRY_FRACTION + 0.1))
        for i in range(0, upto - 1, 2):
            graph.add_transaction((nodes[i], nodes[i + 1]))
        csr1 = graph.freeze()
        assert graph.freeze_stats["full"] == full0 + 1
        assert csr1.warm_seeds == {}
        louvain_flat_warm(csr1)
        assert csr1.louvain_warm_hit is False

    def test_older_snapshot_survives_shared_frontier_growth(self):
        """The chain shares one mutable frontier set; later extends may
        inject ids beyond an older snapshot's node range.  Warm Louvain
        on the older snapshot must clamp them, not crash."""
        graph = make_random_graph(seed=14)
        csr0 = graph.freeze()
        louvain_flat_warm(csr0)  # cold; memoises the seed partition
        graph.add_transaction(("acc001", "acc002"))
        csr1 = graph.freeze()  # carries a seed whose frontier is shared
        # Newer extend adds brand-new accounts: their ids are beyond
        # csr1's range but land in csr1's shared frontier set.
        graph.add_transaction(("brand_new_a", "brand_new_b"))
        graph.add_transaction(("brand_new_c", "acc003"))
        csr2 = graph.freeze()
        assert csr2.num_nodes > csr1.num_nodes

        partition = louvain_flat_warm(csr1)  # must not raise
        assert len(partition) == csr1.num_nodes
        assert csr1.louvain_warm_hit is True
        # And the newest snapshot still warm-starts correctly.
        newest = louvain_flat_warm(csr2)
        assert len(newest) == csr2.num_nodes

    def test_intact_log_full_rebuild_carries_seed(self):
        """A monotone frontier past ``DELTA_REBUILD_FRACTION`` forces the
        full O(N+E) re-lowering, but — ids being insertion-stable — the
        turbo seeds ride across it when the frontier share stays under
        ``REBUILD_SEED_CARRY_FRACTION``, so a τ₂ refresh right after a
        bursty window still warm-starts."""
        graph = make_random_graph(seed=11)
        csr0 = graph.freeze()
        louvain_flat_warm(csr0)
        full0 = graph.freeze_stats["full"]
        # Touch ~35% of the nodes: above the 25% extend cutoff, below
        # the 50% seed-carry cutoff.
        nodes = sorted(graph.nodes())
        upto = int(len(nodes) * 0.35)
        for i in range(0, upto - 1, 2):
            graph.add_transaction((nodes[i], nodes[i + 1]))
        csr1 = graph.freeze()
        assert graph.freeze_stats["full"] == full0 + 1  # rebuilt, not extended
        assert (32, 1.0) in csr1.warm_seeds
        louvain_flat_warm(csr1)
        assert csr1.louvain_warm_hit is True

    def test_oversized_frontier_falls_back_cold(self):
        graph = make_random_graph(seed=12)
        csr0 = graph.freeze()
        louvain_flat_warm(csr0)
        # Touch (nearly) every node: the accumulated frontier exceeds the
        # warm fallback fraction even though delta-freeze may still extend.
        nodes = list(graph.nodes())
        for i in range(0, len(nodes) - 1, 2):
            graph.add_transaction((nodes[i], nodes[i + 1]))
        csr1 = graph.freeze()
        louvain_flat_warm(csr1)
        assert csr1.louvain_warm_hit is False


class TestControllerWarmStats:
    def _stream(self, rng, nodes, blocks, txs_per_block):
        out = []
        for b in range(blocks):
            block = _random_transactions(rng, nodes, txs_per_block, f"b{b}")
            out.append(block)
        return out

    def test_turbo_controller_counts_warm_refreshes(self):
        # Account pool much larger than a τ₂ window's frontier, so the
        # carried seed survives the warm fallback fraction.
        rng = random.Random(0)
        accounts = [f"acc{i:03d}" for i in range(400)]
        seed_txs = [tuple(rng.sample(accounts, 2)) for _ in range(1200)]
        params = TxAlloParams.with_capacity_for(
            1200, k=4, tau1=1, tau2=5, backend="turbo"
        )
        controller = TxAlloController(params, seed_transactions=seed_txs)
        for block in self._stream(rng, accounts, blocks=15, txs_per_block=10):
            controller.observe_block(block)
        stats = controller.warm_stats
        assert stats["cold"] >= 1  # the seed run has no prior partition
        assert stats["warm"] >= 1  # scheduled refreshes warm-start
        assert len(controller.global_events) == stats["warm"] + stats["cold"]

    def test_fast_controller_counters_stay_zero(self):
        rng = random.Random(1)
        accounts = [f"acc{i:03d}" for i in range(40)]
        seed_txs = [tuple(rng.sample(accounts, 2)) for _ in range(200)]
        params = TxAlloParams.with_capacity_for(200, k=4, tau1=1, tau2=5)
        controller = TxAlloController(params, seed_transactions=seed_txs)
        for block in self._stream(rng, accounts, blocks=10, txs_per_block=10):
            controller.observe_block(block)
        assert controller.warm_stats == {"warm": 0, "cold": 0}


class TestPlumbing:
    def test_params_accept_turbo(self):
        assert TxAlloParams(k=2, backend="turbo").backend == "turbo"

    def test_persistence_roundtrip_turbo(self, tmp_path):
        path = tmp_path / "ckpt.json"
        params = TxAlloParams(k=4, backend="turbo")
        save_allocation(path, {"a": 1, "b": 0}, params)
        _, loaded, _ = load_allocation(path)
        assert loaded.backend == "turbo"

    def test_turbo_on_empty_and_tiny_graphs(self):
        params = TxAlloParams.with_capacity_for(1, k=3, backend="turbo")
        result = g_txallo(TransactionGraph(), params)
        assert result.allocation.mapping() == {}

        solo = TransactionGraph()
        solo.add_transaction(("only",))
        solo.freeze()
        solo.add_transaction(("only", "other"))
        result = g_txallo(solo, params)
        assert set(result.allocation.mapping()) == {"only", "other"}
