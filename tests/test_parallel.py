"""Multi-core execution layer contract suite (repro.core.parallel).

What the parallel layer *promises* (and these tests pin):

* the process-parallel evaluation grid returns records identical to a
  sequential run for any worker count — the only thing ``workers`` may
  change is wall-clock;
* the shared grid state (Louvain memo + eta-independent static
  mappings, and the freeze they read) is computed exactly once in the
  parent, never per worker, and a grid whose cells never read the
  snapshot never freezes;
* platforms without ``fork`` (and ``workers=1``) silently fall back to
  the sequential loop;
* BLAS/OpenMP thread pinning sets every knob and respects explicit
  user settings.

The A-TxAllo kernels stay serial; the cache-exactness check below runs
an adversarially overlapping window through the engine and the
reference oracle.
"""

import random

import pytest

from repro import allocators
from repro.core import parallel
from repro.core.allocation import Allocation
from repro.core.atxallo import a_txallo, a_txallo_reference
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from repro.eval import experiments
from tests.conftest import make_random_graph


@pytest.fixture(scope="module")
def small_workload():
    return experiments.build_workload(scale=0.1, seed=2022)


# ----------------------------------------------------------------------
# Process-parallel evaluation grid
# ----------------------------------------------------------------------
class TestGridParity:
    GRID = dict(ks=(2, 6), etas=(2.0, 6.0), methods=("txallo", "metis", "random"))

    def test_grid_records_identical_across_worker_counts(self, small_workload):
        baseline = None
        for workers in (1, 2, 4):
            records = experiments.sweep(small_workload, workers=workers, **self.GRID)
            canon = parallel.canonical_records(records)
            if baseline is None:
                baseline = canon
            else:
                assert canon == baseline, f"workers={workers}"

    def test_online_methods_ride_the_pool_too(self, small_workload):
        grid = dict(ks=(2, 4), etas=(2.0,), methods=("shard_scheduler",))
        seq = experiments.sweep(small_workload, workers=1, **grid)
        par = experiments.sweep(small_workload, workers=2, **grid)
        assert parallel.canonical_records(par) == parallel.canonical_records(seq)

    def test_figure4_distributions_identical(self, small_workload):
        seq = experiments.figure4(small_workload, k=4, eta=2.0, workers=1)
        par = experiments.figure4(small_workload, k=4, eta=2.0, workers=2)
        assert par.distributions == seq.distributions

    def test_record_order_is_canonical_cell_order(self, small_workload):
        records = experiments.sweep(
            small_workload, workers=2, **self.GRID
        )
        cells = [
            (m, k, eta)
            for eta in self.GRID["etas"]
            for k in self.GRID["ks"]
            for m in self.GRID["methods"]
        ]
        assert [(r.method, r.k, r.eta) for r in records] == cells


class TestGridFallbacks:
    def test_no_fork_platform_falls_back_inline(self, small_workload, monkeypatch):
        grid = dict(ks=(2,), etas=(2.0,), methods=("txallo", "metis"))
        seq = experiments.sweep(small_workload, workers=1, **grid)
        monkeypatch.setattr(parallel, "fork_available", lambda: False)

        def boom(*args, **kwargs):  # the pool must not be touched at all
            raise AssertionError("ProcessPoolExecutor used without fork")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        par = experiments.sweep(small_workload, workers=4, **grid)
        assert parallel.canonical_records(par) == parallel.canonical_records(seq)

    @pytest.mark.parametrize("entry", ["sweep", "figure4"])
    def test_one_effective_worker_never_builds_a_pool(
        self, small_workload, monkeypatch, entry
    ):
        """A single cell leaves one effective worker whatever was asked
        for, so the caller runs it inline without reaching run_grid."""

        def run(workers):
            if entry == "sweep":
                return parallel.canonical_records(experiments.sweep(
                    small_workload, ks=(2,), etas=(2.0,), methods=("txallo",),
                    workers=workers,
                ))
            return experiments.figure4(
                small_workload, k=4, eta=2.0, methods=("txallo",),
                workers=workers,
            ).distributions

        seq = run(1)

        def boom(*args, **kwargs):
            raise AssertionError("process pool built for a single cell")

        monkeypatch.setattr(parallel, "run_grid", boom)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        assert run(4) == seq

    def test_effective_workers_clamps(self):
        assert parallel.effective_workers(8, 3) == 3
        assert parallel.effective_workers(0, 3) == 1
        assert parallel.effective_workers(2, 0) == 1


class TestSharedStateComputedOnce:
    def test_static_mappings_computed_once_per_name_k(
        self, small_workload, tmp_path, monkeypatch
    ):
        """The _MappingCache satellite: at any worker count, an
        eta-independent allocator's ``allocate`` runs exactly once per
        (name, k) — in the parent — instead of once per worker process.
        The probe allocator appends to a file so forked children's calls
        are visible here."""
        from repro.core.allocator import FunctionAllocator

        count_file = tmp_path / "allocate_calls.log"
        count_file.write_text("")

        def counting_mapping(graph, params):
            with count_file.open("a") as fh:
                fh.write(f"k={params.k}\n")
            return {a: i % params.k for i, a in enumerate(graph.nodes_sorted())}

        allocators.register(
            "count_probe",
            lambda: FunctionAllocator("count_probe", counting_mapping),
            kind="static",
            eta_independent=True,
        )
        try:
            for workers in (1, 2, 4):
                count_file.write_text("")
                experiments.sweep(
                    small_workload,
                    ks=(2, 4),
                    etas=(2.0, 6.0, 10.0),
                    methods=("count_probe",),
                    workers=workers,
                )
                calls = sorted(count_file.read_text().split())
                assert calls == ["k=2", "k=4"], (workers, calls)
        finally:
            allocators.unregister("count_probe")

    def test_parent_freeze_is_shared(self, small_workload):
        graph = small_workload.graph
        before = graph.freeze_stats["full"]
        experiments.sweep(
            small_workload, ks=(2, 4), etas=(2.0, 6.0), methods=("txallo",),
            workers=2,
        )
        after = graph.freeze_stats["full"]
        # At most one (re)freeze in the parent; workers inherit it.
        assert after - before <= 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_grid_without_snapshot_readers_never_freezes(self, workers):
        """``txallo_online`` replays the stream on its own controller and
        ``hash`` reads only ``nodes_sorted()``: warming and running a grid
        of them leaves the workload graph unfrozen."""
        workload = experiments.build_workload(scale=0.05, seed=7)
        experiments.sweep(
            workload, ks=(2, 4), etas=(2.0,), methods=("txallo_online", "hash"),
            workers=workers,
        )
        assert workload.graph.freeze_stats["full"] == 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_txallo_grid_freezes_exactly_once(self, workers):
        workload = experiments.build_workload(scale=0.05, seed=7)
        experiments.sweep(
            workload, ks=(2, 4), etas=(2.0, 6.0), methods=("txallo",),
            workers=workers,
        )
        assert workload.graph.freeze_stats["full"] == 1

    def test_louvain_warmed_only_for_g_txallo_cells(self):
        """``txallo_online`` cells replay the stream on a fresh controller
        and never read the snapshot's Louvain memo, so warming a grid of
        them alone must not run Louvain."""
        workload = experiments.build_workload(scale=0.05, seed=7)
        cache = experiments._MappingCache()
        parallel.warm_grid_state(workload, [("txallo_online", 4, 2.0)], cache)
        assert workload.graph.freeze().louvain_memo == {}
        parallel.warm_grid_state(workload, [("txallo", 4, 2.0)], cache)
        assert list(workload.graph.freeze().louvain_memo) == [(32, 1.0)]


# ----------------------------------------------------------------------
# Serial A-TxAllo on an adversarially overlapping window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("run", (a_txallo, a_txallo_reference), ids=("fast", "reference"))
def test_adversarially_overlapping_window_keeps_caches_exact(run):
    """Every touched node neighbours every other (one dense clique
    spanning the shards): the sweep must still leave an exact,
    internally consistent allocation."""
    graph = make_random_graph(num_accounts=120, num_transactions=600, seed=7)
    params = TxAlloParams.with_capacity_for(600, k=4, eta=2.0)
    good = g_txallo(graph, params).allocation
    rng = random.Random(13)
    clique = sorted(rng.sample(sorted(graph.nodes()), 80))
    for i in range(len(clique) - 1):
        tx = (clique[i], clique[i + 1], clique[(i + 40) % len(clique)])
        graph.add_transaction(tx)
    # Scramble the clique across the shards so the window starts far
    # from the fixed point — every touched node then has gains.
    mapping = good.mapping()
    for i, v in enumerate(clique):
        mapping[v] = i % params.k
    alloc = Allocation.from_partition(
        graph, params, mapping, num_communities=good.num_communities
    )
    result = run(alloc, clique)
    assert result.swept_nodes == len(clique)
    assert result.moves > 0
    # Internal caches stay exact: rebuilding from the final mapping
    # reproduces sigma/lam_hat to float tolerance.
    rebuilt = Allocation.from_partition(
        graph, params, alloc.mapping(), num_communities=alloc.num_communities
    )
    for got, want in zip(alloc.sigma, rebuilt.sigma):
        assert got == pytest.approx(want, abs=1e-6)
    for got, want in zip(alloc.lam_hat, rebuilt.lam_hat):
        assert got == pytest.approx(want, abs=1e-6)


class TestBlasPinning:
    def test_pin_sets_all_knobs_and_reports(self, monkeypatch):
        for var in parallel.BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert not parallel.blas_threads_pinned()
        pins = parallel.pin_blas_threads()
        assert parallel.blas_threads_pinned()
        assert set(pins) == set(parallel.BLAS_ENV_VARS)
        assert all(v == "1" for v in pins.values())

    def test_pin_respects_explicit_user_setting(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        pins = parallel.pin_blas_threads()
        assert pins["OMP_NUM_THREADS"] == "7"
