"""A-TxAllo — the adaptive allocation algorithm (paper Algorithm 2).

Where G-TxAllo sweeps every account, A-TxAllo touches only ``V̂`` — the
accounts that appear in the newly committed blocks — and reuses the previous
allocation for everyone else.  Its complexity is ``O(|V̂| k)``, constant in
the chain length because ``|V̂|`` is bounded by the update period ``τ₁``.

The caller is responsible for having already *ingested* the new
transactions into both the graph and the allocation caches (see
:meth:`repro.core.allocation.Allocation.ingest_transaction`); the
:class:`~repro.core.controller.TxAlloController` does this bookkeeping.

Two phases, mirroring Algorithm 2:

1. brand-new accounts (``v ∈ V̂ − ∪V_j``) join the shard with the best
   join gain (Eq. 6) among the shards they connect to, or any shard when
   they connect to none;
2. all of ``V̂`` is swept with the full move gain (Eq. 8) until the summed
   per-sweep gain falls below ``ε``.

:func:`a_txallo` runs the flat engine (:mod:`repro.core.engine`);
:func:`a_txallo_reference` is the dict-based executable specification it
must match byte for byte.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, List, Optional

from repro.core.allocation import Allocation
from repro.core.graph import Node
from repro.core.objective import GainComputer

#: Safety bound on optimisation sweeps (converges much earlier in practice).
MAX_SWEEPS = 100


@dataclasses.dataclass
class ATxAlloResult:
    """Outcome of an A-TxAllo run, instrumented for Fig. 10."""

    allocation: Allocation
    new_nodes: int
    swept_nodes: int
    sweeps: int
    moves: int
    seconds: float
    #: False when the run exhausted :data:`MAX_SWEEPS` before the
    #: per-sweep gain fell below ``epsilon`` — previously a truncated run
    #: was indistinguishable from a converged one.  Defaults to True so
    #: persisted results and report consumers built before this field
    #: keep working unchanged.
    converged: bool = True


def a_txallo(
    alloc: Allocation,
    touched: Iterable[Node],
    *,
    epsilon: Optional[float] = None,
    workspace=None,
) -> ATxAlloResult:
    """Run Algorithm 2 in place on ``alloc`` for the touched node set ``V̂``.

    ``touched`` is the set of accounts appearing in the newly committed
    blocks; unknown accounts among them are allocated first.  ``epsilon``
    defaults to the allocation's configured threshold.

    Sweeps flat id-keyed views of the touched neighbourhoods
    (:func:`repro.core.engine.a_txallo_flat`) and mutates ``alloc``
    exactly as :func:`a_txallo_reference` would.

    ``workspace`` (an :class:`repro.core.engine.AdaptiveWorkspace`) lets
    consecutive runs share one persistent set of views, kept current
    from the graph's mutation journal — the controller's τ₁ block loop.
    Without one, the kernel builds the views for this run from one
    freeze and never touches the journal.
    """
    # Imported here: the engine imports this module's MAX_SWEEPS.
    from repro.core.engine import a_txallo_flat

    t0 = time.perf_counter()
    if epsilon is None:
        epsilon = alloc.params.epsilon
    new_nodes, swept, sweeps, moves, converged = a_txallo_flat(
        alloc, touched, epsilon, workspace=workspace
    )
    seconds = time.perf_counter() - t0
    return ATxAlloResult(alloc, new_nodes, swept, sweeps, moves, seconds, converged)


def a_txallo_reference(
    alloc: Allocation,
    touched: Iterable[Node],
    *,
    epsilon: Optional[float] = None,
) -> ATxAlloResult:
    """The dict-based executable specification of :func:`a_txallo`.

    Rescans the dict adjacency every sweep, so it takes no workspace.
    """
    t0 = time.perf_counter()
    if epsilon is None:
        epsilon = alloc.params.epsilon
    k = alloc.params.k
    gains = GainComputer(alloc)

    hat_v: List[Node] = sorted(set(touched))

    # Phase 1 — allocate brand-new accounts (Algorithm 2, lines 1-8).
    new_nodes = [v for v in hat_v if not alloc.is_assigned(v)]
    for v in new_nodes:
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
        candidates = gains.candidate_communities(v, by_shard, exclude=None, limit=k)
        if not candidates:
            candidates = range(k)
        q, _gain = gains.best_join(v, candidates, by_shard, w_self, w_ext)
        alloc.assign(v, q, weights=(by_shard, w_self, w_ext))

    # Phase 2 — optimise the touched set (Algorithm 2, lines 9-17).
    sweeps = 0
    moves = 0
    converged = False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        sweep_gain = 0.0
        for v in hat_v:
            by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
            p = alloc.shard_of(v)
            candidates = gains.candidate_communities(v, by_shard, exclude=p)
            if not candidates:
                continue
            q, gain = gains.best_move(v, candidates, by_shard, w_self, w_ext, p)
            if q is not None and gain > 0.0:
                alloc.move(v, q, weights=(by_shard, w_self, w_ext))
                sweep_gain += gain
                moves += 1
        if sweep_gain < epsilon:
            converged = True
            break

    seconds = time.perf_counter() - t0
    return ATxAlloResult(alloc, len(new_nodes), len(hat_v), sweeps, moves, seconds, converged)
