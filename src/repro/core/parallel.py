"""Multi-core execution layer: the process-parallel evaluation grid.

Everything else in the package is single-threaded.  The one multi-core
win this module delivers is the evaluation grid; the allocation kernels
themselves stay serial (A-TxAllo sweeps only the accounts in new blocks,
where the flat engine is already cheap).

Process-parallel evaluation grid
--------------------------------
The Fig. 8 evaluation grid — every ``(method, k, eta)`` cell of
:func:`repro.eval.experiments.sweep` / ``figure4`` — is embarrassingly
parallel once the shared state exists.  :func:`run_grid` computes that
state **once in the parent** (the frozen CSR snapshot, the memoised
Louvain partition, and every eta-independent static mapping — see
:func:`warm_grid_state`), then fans the cells out to a
``ProcessPoolExecutor`` using the ``fork`` start method, so workers
inherit the warmed workload copy-on-write instead of re-deriving or
unpickling it.  Task descriptors are tiny ``(method, k, eta)`` tuples
and results come back in canonical cell order, so ``workers=N`` produces
records identical to ``workers=1`` up to wall-clock fields
(:func:`canonical_records` strips those; ``tests/test_parallel.py`` pins
the parity).  The callers decide pool vs. inline: with one effective
worker, or on a platform without ``fork``, ``sweep``/``figure4`` run
their own sequential loop and never reach :func:`run_grid`.

BLAS/OpenMP pinning
-------------------
:func:`pin_blas_threads` pins the BLAS/OpenMP thread-count environment
knobs (``OMP_NUM_THREADS`` etc.) so process-pool workers do not
oversubscribe cores through a BLAS library some other import pulls in
under the benches; every ``benchmarks/bench_*.py`` calls it at the top of
the module, and ``benchmarks/conftest.py`` asserts the pin.  The package
itself is stdlib-only and never loads numpy.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment knobs that cap BLAS/OpenMP threading.  ``setdefault``
#: semantics: an explicit user setting wins over the pin.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads(count: int = 1) -> Dict[str, str]:
    """Pin BLAS/OpenMP thread counts via the standard environment knobs.

    Must run before any BLAS library first loads to be fully effective
    (the benches call it at the top of the module, ahead of every other
    import).  Uses ``setdefault``, so explicit user settings survive.
    Returns the resulting pin map.
    """
    value = str(int(count))
    for var in BLAS_ENV_VARS:
        os.environ.setdefault(var, value)
    return {var: os.environ[var] for var in BLAS_ENV_VARS}


def blas_threads_pinned() -> bool:
    """True when every BLAS/OpenMP knob carries an explicit value."""
    return all(os.environ.get(var) for var in BLAS_ENV_VARS)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).

    Process-parallel grids require it: the warmed workload travels to
    workers by copy-on-write inheritance, not pickling.  Without it the
    grid's callers run the cells inline (``workers=1`` semantics).
    """
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(workers: int, tasks: int) -> int:
    """Clamp a ``workers`` request to something the task list can use."""
    return max(1, min(int(workers), max(1, tasks)))


# ======================================================================
# Process-parallel evaluation grid
# ======================================================================
#: Per-worker-process grid state installed by :func:`_grid_worker_init`
#: (fork-inherited workload + backend + preloaded mapping cache).
_GRID_STATE: Optional[tuple] = None


def canonical_records(records: Sequence) -> List:
    """Strip wall-clock fields from grid records for parity comparison.

    ``runtime_seconds`` is a timing measurement, inherently
    nondeterministic; every other :class:`~repro.eval.experiments.
    MethodMetrics` field is a pure function of (workload, params, method)
    and must be byte-identical across worker counts.
    """
    return [dataclasses.replace(r, runtime_seconds=0.0) for r in records]


def warm_grid_state(workload, cells: Sequence[Tuple[str, int, float]], backend: str, cache):
    """Compute the grid's shared state once, in the calling process.

    * freezes the transaction graph (the CSR snapshot every cell reads);
    * memoises the Louvain partition on that snapshot when any cell runs
      TxAllo (``g_txallo`` consults ``csr.louvain_memo`` under its
      default ``(32, 1.0)`` key — one parent-side run serves the whole
      grid);
    * computes every eta-independent static mapping (hash, prefix,
      METIS) exactly once per ``(method, k)`` into ``cache`` —
      per-process memoisation would otherwise recompute them in every
      worker.
    """
    from repro import allocators
    from repro.core.louvain import louvain_partition
    from repro.core.params import TxAlloParams

    workload.graph.freeze()
    methods = {method for method, _, _ in cells}
    if methods & {"txallo", "txallo_online"}:
        louvain_partition(workload.graph, backend=backend)
    for method, k, eta in cells:
        entry = allocators.get_entry(method)
        if entry.kind == "static" and entry.eta_independent:
            params = TxAlloParams.with_capacity_for(
                workload.num_transactions, k=k, eta=eta, backend=backend
            )
            cache.mapping_for(entry, workload, params)


def _grid_worker_init(workload, backend: str, preloaded: dict) -> None:
    """Pool initializer: adopt the fork-inherited shared grid state."""
    global _GRID_STATE
    from repro.eval.experiments import _MappingCache

    _GRID_STATE = (workload, backend, _MappingCache(preloaded=preloaded))


def _grid_cell(task: Tuple[str, int, float]):
    """Run one (method, k, eta) cell against the worker's grid state."""
    method, k, eta = task
    workload, backend, cache = _GRID_STATE
    from repro.core.params import TxAlloParams
    from repro.eval.experiments import run_method

    params = TxAlloParams.with_capacity_for(
        workload.num_transactions, k=k, eta=eta, backend=backend
    )
    return run_method(method, workload, params, cache)


def run_grid(
    workload,
    cells: Sequence[Tuple[str, int, float]],
    backend: str,
    workers: int,
) -> List:
    """Evaluate ``cells`` on a ``workers``-process pool, in canonical order.

    The shared freeze + Louvain memo + eta-independent mappings are
    computed once in the parent (:func:`warm_grid_state`); the forked
    pool inherits that state copy-on-write.  Callers run the grid inline
    instead when :func:`effective_workers` leaves one worker or
    :func:`fork_available` is False.  The returned records are identical
    to the inline loop's up to ``runtime_seconds`` (compare through
    :func:`canonical_records`).
    """
    from repro.eval.experiments import _MappingCache

    cache = _MappingCache()
    warm_grid_state(workload, cells, backend, cache)
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_grid_worker_init,
        initargs=(workload, backend, cache.export()),
    ) as pool:
        return list(pool.map(_grid_cell, cells))
