"""Parity property tests: flat-array engine vs reference, byte for byte.

The flat-array engine (:mod:`repro.core.engine`) behind
``louvain_partition`` / ``g_txallo`` / ``a_txallo`` is only allowed to
exist because it is *indistinguishable* from the dict-based
``louvain_reference`` / ``g_txallo_reference`` / ``a_txallo_reference``
oracles: same mapping, same ``sigma`` / ``lam_hat`` floats (exact ``==``, no
tolerance), same sweep/move counters.  These tests pin that contract
across randomised synthetic workloads, every zoo topology, shard counts
and eta values, for
all three hot paths — Louvain, G-TxAllo and A-TxAllo — plus cache
integrity after long ingest + move sequences on the engine-produced
allocation.
"""

import random

import pytest

from repro.core.allocation import Allocation
from repro.core.atxallo import a_txallo, a_txallo_reference
from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo, g_txallo_reference
from repro.core.louvain import louvain_partition, louvain_reference
from repro.core.params import TxAlloParams
from repro.data.synthetic import (
    WorkloadConfig,
    account_sets,
    make_workload_generator,
    workload_names,
)
from tests.conftest import A_TXALLO, G_TXALLO, make_random_graph

SEEDS = (1, 2, 3)
KS = (2, 5, 8)
ETAS = (1.0, 2.0, 6.0)


def synthetic_graph(seed, num_accounts=400, num_transactions=2500, topology="ethereum"):
    config = WorkloadConfig(
        num_accounts=num_accounts, num_transactions=num_transactions, seed=seed
    )
    sets_ = account_sets(make_workload_generator(topology, config).generate())
    graph = TransactionGraph()
    for s in sets_:
        graph.add_transaction(s)
    return graph, sets_


def assert_gtxallo_identical(ref, fast):
    assert ref.allocation.mapping() == fast.allocation.mapping()
    assert ref.allocation.sigma == fast.allocation.sigma          # exact floats
    assert ref.allocation.lam_hat == fast.allocation.lam_hat      # exact floats
    assert ref.sweeps == fast.sweeps
    assert ref.moves == fast.moves
    assert ref.small_nodes_absorbed == fast.small_nodes_absorbed
    assert ref.louvain_communities == fast.louvain_communities


def _name(i):
    return f"n{i:02d}"


def _ring(n):
    return [(_name(i), _name((i + 1) % n)) for i in range(n)]


def _cliques(count, size):
    edges = []
    for c in range(count):
        members = [_name(c * size + i) for i in range(size)]
        edges += [(a, b) for x, a in enumerate(members) for b in members[x + 1 :]]
    # One bridge per neighbouring pair keeps the graph connected.
    edges += [(_name(c * size), _name((c + 1) * size)) for c in range(count - 1)]
    return edges


#: Equal-weight edge lists on which Louvain's tie-break decides moves.
TIE_GRAPHS = {
    "ring12": _ring(12),
    "cliques3x4": _cliques(3, 4),
    "star": [(_name(0), _name(i)) for i in range(1, 10)],
    "path": [(_name(i), _name(i + 1)) for i in range(9)],
}


def reverse_inserted(edges):
    """A graph over ``edges`` whose accounts are inserted in descending
    identifier order, so insertion ids reverse the sorted order."""
    g = TransactionGraph()
    for v in sorted({v for edge in edges for v in edge}, reverse=True):
        g.add_node(v)
    for edge in edges:
        g.add_transaction(edge)
    return g


@pytest.mark.usefixtures("any_sum")
class TestLouvainParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed):
        g = make_random_graph(num_accounts=70, num_transactions=600, seed=seed, groups=4)
        assert louvain_reference(g) == louvain_partition(g)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_synthetic_workloads(self, seed):
        g, _ = synthetic_graph(seed)
        assert louvain_reference(g) == louvain_partition(g)

    @pytest.mark.parametrize("topology", workload_names())
    def test_zoo_topologies(self, topology):
        g, _ = synthetic_graph(1, 300, 1500, topology)
        assert louvain_reference(g) == louvain_partition(g)

    def test_edge_cases(self):
        empty = TransactionGraph()
        assert louvain_partition(empty) == {}

        solo = TransactionGraph()
        solo.add_transaction(("only",))
        assert louvain_partition(solo) == louvain_reference(solo)

        isolated = TransactionGraph()
        isolated.add_transaction(("a", "b"))
        isolated.add_node("island")
        assert louvain_partition(isolated) == louvain_reference(isolated)

    @pytest.mark.parametrize("shape", sorted(TIE_GRAPHS))
    def test_ties_on_reverse_inserted_graphs(self, shape):
        """Equal-weight graphs whose accounts arrive in reverse identifier
        order: CSR ids then run opposite to the reference's sorted
        indices, so every tie the reference breaks by index must be
        broken by sorted rank, not by id."""
        g = reverse_inserted(TIE_GRAPHS[shape])
        assert list(g.nodes()) == sorted(g.nodes(), reverse=True)
        assert louvain_reference(g) == louvain_partition(g)
        for k in (2, 3):
            params = TxAlloParams.with_capacity_for(g.num_edges, k=k, eta=2.0)
            assert_gtxallo_identical(
                g_txallo_reference(g, params),
                g_txallo(g, params),
            )

    def test_memoised_partition_is_a_fresh_copy(self):
        g = make_random_graph(seed=5)
        p1 = louvain_partition(g)
        p2 = louvain_partition(g)
        assert p1 == p2
        # Mutating a served copy must not poison the memo.
        p1[next(iter(p1))] = 10**6
        assert louvain_partition(g) == p2


@pytest.mark.usefixtures("any_sum")
class TestGTxAlloParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("eta", ETAS)
    def test_random_graph_grid(self, seed, k, eta):
        g = make_random_graph(num_accounts=70, num_transactions=600, seed=seed, groups=4)
        params = TxAlloParams.with_capacity_for(600, k=k, eta=eta)
        ref = g_txallo_reference(g, params)
        fast = g_txallo(g, params)
        assert_gtxallo_identical(ref, fast)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_synthetic_workload(self, seed):
        g, sets_ = synthetic_graph(seed)
        params = TxAlloParams.with_capacity_for(len(sets_), k=6, eta=2.0)
        assert_gtxallo_identical(
            g_txallo_reference(g, params),
            g_txallo(g, params),
        )

    @pytest.mark.parametrize("topology", workload_names())
    def test_zoo_topologies(self, topology):
        g, sets_ = synthetic_graph(1, 300, 1500, topology)
        params = TxAlloParams.with_capacity_for(len(sets_), k=6, eta=2.0)
        assert_gtxallo_identical(g_txallo_reference(g, params), g_txallo(g, params))

    def test_explicit_initial_partition(self):
        g = make_random_graph(seed=9)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0)
        rng = random.Random(0)
        init = {v: rng.randrange(7) for v in g.nodes()}
        assert_gtxallo_identical(
            g_txallo_reference(g, params, initial_partition=init),
            g_txallo(g, params, initial_partition=init),
        )

    def test_custom_node_order(self):
        g = make_random_graph(seed=10)
        params = TxAlloParams.with_capacity_for(400, k=4, eta=2.0)
        order = list(reversed(g.nodes_sorted()))
        assert_gtxallo_identical(
            g_txallo_reference(g, params, node_order=order),
            g_txallo(g, params, node_order=order),
        )

    def test_more_shards_than_communities(self):
        g = TransactionGraph()
        for pair in [("a", "b"), ("b", "c"), ("a", "c")]:
            g.add_transaction(pair)
        params = TxAlloParams.with_capacity_for(3, k=5, eta=2.0)
        assert_gtxallo_identical(
            g_txallo_reference(g, params),
            g_txallo(g, params),
        )

    def test_empty_graph(self):
        params = TxAlloParams.with_capacity_for(1, k=3, eta=2.0)
        assert_gtxallo_identical(
            g_txallo_reference(TransactionGraph(), params),
            g_txallo(TransactionGraph(), params),
        )

    def test_infinite_capacity(self):
        g = make_random_graph(seed=4)
        params = TxAlloParams(k=4, eta=2.0)  # lam = inf
        assert_gtxallo_identical(
            g_txallo_reference(g, params),
            g_txallo(g, params),
        )


def _ingest(graph, alloc, txs):
    touched = set()
    for accounts in txs:
        unique = set(accounts)
        graph.add_transaction(unique)
        alloc.ingest_transaction(unique)
        touched.update(unique)
    return touched


def _atxallo_state(seed, k, tier, rounds=3, tx_size=2):
    """Prepare + evolve one allocation on the ``tier`` kernels.

    ``tx_size`` accounts per evolving transaction; at 4 the pair weights
    are sixths, whose row totals round differently under ``math.fsum``.
    """
    g = make_random_graph(num_accounts=80, num_transactions=500, seed=seed, groups=4)
    params = TxAlloParams.with_capacity_for(500, k=k, eta=2.0)
    alloc = G_TXALLO[tier](g, params).allocation
    rng = random.Random(seed)
    stats = []
    for round_ in range(rounds):
        nodes = list(g.nodes())
        txs = [tuple(rng.sample(nodes, tx_size)) for _ in range(40)]
        txs += [(f"new{round_}_{i}", rng.choice(nodes)) for i in range(5)]
        txs.append((f"lonely{round_}",))
        touched = _ingest(g, alloc, txs)
        result = A_TXALLO[tier](alloc, touched)
        stats.append(
            (result.new_nodes, result.swept_nodes, result.sweeps, result.moves)
        )
    return alloc, stats


def _zoo_atxallo_state(topology, tier):
    """G-TxAllo over 1,000 transactions of a zoo ``topology``, then three
    A-TxAllo windows of the next 40 each."""
    config = WorkloadConfig(num_accounts=300, num_transactions=1120, seed=1)
    sets_ = account_sets(make_workload_generator(topology, config).generate())
    g = TransactionGraph()
    g.add_transactions(sets_[:1000])
    alloc = G_TXALLO[tier](g, TxAlloParams.with_capacity_for(1000, k=4, eta=2.0)).allocation
    stats = []
    for start in range(1000, 1120, 40):
        touched = _ingest(g, alloc, sets_[start : start + 40])
        result = A_TXALLO[tier](alloc, touched)
        stats.append((result.new_nodes, result.swept_nodes, result.sweeps, result.moves))
    return alloc, stats


@pytest.mark.usefixtures("any_sum")
class TestATxAlloParity:
    @pytest.mark.parametrize("tx_size", (2, 4))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", (2, 6))
    def test_evolving_allocation(self, seed, k, tx_size):
        ref_alloc, ref_stats = _atxallo_state(seed, k, "reference", tx_size=tx_size)
        fast_alloc, fast_stats = _atxallo_state(seed, k, "fast", tx_size=tx_size)
        assert ref_stats == fast_stats
        assert ref_alloc.mapping() == fast_alloc.mapping()
        assert ref_alloc.sigma == fast_alloc.sigma
        assert ref_alloc.lam_hat == fast_alloc.lam_hat

    @pytest.mark.parametrize("topology", workload_names())
    def test_zoo_topologies(self, topology):
        ref_alloc, ref_stats = _zoo_atxallo_state(topology, "reference")
        fast_alloc, fast_stats = _zoo_atxallo_state(topology, "fast")
        assert ref_stats == fast_stats
        assert ref_alloc.mapping() == fast_alloc.mapping()
        assert ref_alloc.sigma == fast_alloc.sigma
        assert ref_alloc.lam_hat == fast_alloc.lam_hat

    def test_caches_exact_after_long_ingest_move_sequences(self):
        """validate(check_caches=True) on the engine-driven allocation."""
        alloc, _ = _atxallo_state(7, 4, "fast", rounds=6)
        alloc.validate(check_caches=True)

    @pytest.mark.parametrize("new_account", (False, True))
    @pytest.mark.parametrize("tier", ("reference", "fast"))
    def test_equal_gains_break_toward_smaller_shard(self, tier, new_account):
        """``v`` ties between shards 1 and 2 (mirror-image neighbourhoods,
        shard 2 inserted first): both phases pick shard 1, as the
        reference's ascending strict-improvement scan does."""
        g = TransactionGraph()
        history = [("c", "d"), ("a", "b"), ("x", "y"), ("x", "y")]
        late = [("v", "c"), ("v", "a")]
        for accounts in history if new_account else history + late:
            g.add_transaction(accounts)
        mapping = {"a": 1, "b": 1, "c": 2, "d": 2, "x": 0, "y": 0}
        if not new_account:
            mapping["v"] = 0
        params = TxAlloParams(k=3, eta=2.0, lam=2.0)
        alloc = Allocation.from_partition(g, params, mapping)
        if new_account:
            _ingest(g, alloc, late)
        result = A_TXALLO[tier](alloc, ["v"])
        assert (result.new_nodes, result.moves) == ((1, 0) if new_account else (0, 1))
        assert alloc.shard_of("v") == 1
        alloc.validate(check_caches=True)

    def test_empty_touched_set(self):
        g = make_random_graph(seed=3)
        params = TxAlloParams.with_capacity_for(400, k=4)
        alloc = g_txallo(g, params).allocation
        before = alloc.mapping()
        result = a_txallo(alloc, [])
        assert result.moves == 0 and result.sweeps >= 1
        assert alloc.mapping() == before


class _Lockstep:
    """One evolving graph under two allocations: ``fast`` runs the engine,
    ``ref`` the oracle, and every ingest reaches both caches."""

    def __init__(self, seed, k, tx_size=2):
        self.graph = make_random_graph(num_accounts=80, num_transactions=500, seed=seed, groups=4)
        params = TxAlloParams.with_capacity_for(500, k=k, eta=2.0)
        self.fast = g_txallo(self.graph, params).allocation
        self.ref = self.fast.copy()
        self.rng = random.Random(seed)
        self.tx_size = tx_size

    def ingest(self, round_):
        nodes = list(self.graph.nodes())
        txs = [tuple(self.rng.sample(nodes, self.tx_size)) for _ in range(40)]
        txs += [(f"new{round_}_{i}", self.rng.choice(nodes)) for i in range(5)]
        txs.append((f"lonely{round_}",))
        return self.ingest_all(txs)

    def ingest_all(self, txs):
        touched = set()
        for accounts in txs:
            self.graph.add_transaction(accounts)
            self.fast.ingest_transaction(accounts)
            self.ref.ingest_transaction(accounts)
            touched.update(accounts)
        return touched

    @classmethod
    def on_graph(cls, transactions, params):
        pair = cls.__new__(cls)
        pair.graph = TransactionGraph()
        pair.graph.add_transactions(transactions)
        pair.fast = g_txallo(pair.graph, params).allocation
        pair.ref = pair.fast.copy()
        return pair

    def run(self, touched):
        got = a_txallo(self.fast, touched)
        want = a_txallo_reference(self.ref, touched)
        assert (got.new_nodes, got.swept_nodes, got.sweeps, got.moves, got.converged) == (
            want.new_nodes, want.swept_nodes, want.sweeps, want.moves, want.converged
        )
        self.assert_identical()

    def assert_identical(self):
        assert self.fast.mapping() == self.ref.mapping()
        assert self.fast.sigma == self.ref.sigma          # exact floats
        assert self.fast.lam_hat == self.ref.lam_hat      # exact floats


@pytest.mark.usefixtures("any_sum")
class TestRepeatedAdaptiveParity:
    """Repeated engine runs on one evolving allocation stay in lockstep
    with the oracle after every run, whatever happened between runs."""

    @pytest.mark.parametrize("tx_size", (2, 4))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", (2, 6))
    def test_every_run_matches_reference(self, seed, k, tx_size):
        """At ``tx_size`` 4 the pair weights are sixths, whose row totals
        round differently under ``math.fsum``."""
        pair = _Lockstep(seed, k, tx_size)
        for round_ in range(4):
            pair.run(pair.ingest(round_))

    @pytest.mark.parametrize("topology", workload_names())
    def test_zoo_topologies(self, topology):
        """Windows of a zoo ``topology`` with a global refresh after the
        first run and a foreign move after the second: every run matches
        the oracle, not only the last."""
        config = WorkloadConfig(num_accounts=300, num_transactions=1160, seed=1)
        sets_ = account_sets(make_workload_generator(topology, config).generate())
        pair = _Lockstep.on_graph(sets_[:1000], TxAlloParams.with_capacity_for(1000, k=4, eta=2.0))
        for window, start in enumerate(range(1000, 1160, 40)):
            pair.run(pair.ingest_all(sets_[start : start + 40]))
            if window == 0:
                pair.fast = g_txallo(pair.graph, pair.fast.params).allocation
                pair.ref = pair.fast.copy()
            elif window == 1:
                victim = min(pair.fast.mapping())
                target = (pair.fast.shard_of(victim) + 1) % pair.fast.params.k
                pair.fast.move(victim, target)
                pair.ref.move(victim, target)
        pair.fast.validate(check_caches=True)

    def test_caches_exact_after_repeated_runs(self):
        pair = _Lockstep(7, 4)
        for round_ in range(6):
            pair.run(pair.ingest(round_))
        pair.fast.validate(check_caches=True)

    def test_unknown_node_rejected_before_any_mutation(self):
        from repro.errors import GraphError

        pair = _Lockstep(3, 4)
        touched = pair.ingest(0)
        before = (pair.fast.mapping(), pair.fast.sigma[:], pair.fast.mutation_count)
        with pytest.raises(GraphError):
            a_txallo(pair.fast, touched | {"never-ingested"})
        assert (pair.fast.mapping(), pair.fast.sigma, pair.fast.mutation_count) == before
        pair.run(touched)

    def test_empty_touched_set_between_runs(self):
        pair = _Lockstep(3, 4)
        pair.run(pair.ingest(0))
        before = pair.fast.mapping()
        result = a_txallo(pair.fast, [])
        assert result.moves == 0 and result.sweeps >= 1
        assert pair.fast.mapping() == before
        pair.run(pair.ingest(1))

    def test_replaced_allocation_between_runs(self):
        """A global refresh hands the next run a brand-new allocation; the
        run reads that allocation's mapping, never an earlier one."""
        pair = _Lockstep(6, 4)
        pair.run(pair.ingest(0))
        pair.fast = g_txallo(pair.graph, pair.fast.params).allocation
        pair.ref = pair.fast.copy()
        pair.run(pair.ingest(1))

    def test_foreign_move_between_runs(self):
        """A move applied outside A-TxAllo between two runs is what the
        next run reads."""
        pair = _Lockstep(15, 4)
        pair.run(pair.ingest(0))
        victim = min(pair.fast.mapping())
        target = (pair.fast.shard_of(victim) + 1) % pair.fast.params.k
        pair.fast.move(victim, target)
        pair.ref.move(victim, target)
        pair.run(pair.ingest(1))
        assert pair.fast.mutation_count == pair.ref.mutation_count
