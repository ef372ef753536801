"""G-TxAllo — the global allocation algorithm (paper Algorithm 1).

Two phases over the full transaction graph:

1. **Initialisation.**  A deterministic Louvain run yields ``l``
   communities.  When ``l > k`` the ``k`` communities with the largest
   workload ``σ`` become the shards; every node of the remaining *small*
   communities is absorbed into the shard with the largest join gain
   (Eq. 6), restricted to shards it connects to (Eq. 9) or all shards when
   it connects to none.  When ``l <= k`` the partition is padded with empty
   shards.
2. **Optimisation.**  Repeated deterministic sweeps over all nodes; each
   node moves to the candidate community with the largest total throughput
   gain (Eq. 8) if that gain is positive.  Sweeps stop when the summed gain
   of a sweep falls below ``ε``.

Complexity: ``O(N log N)`` for the initialisation plus ``O(N k)`` per sweep
(Section V-B).  Every step is deterministic given the graph content.

:func:`g_txallo` runs the flat-array sweep engine
(:mod:`repro.core.engine`) on the frozen CSR graph.  This module also
holds :func:`g_txallo_reference`, the dict-based executable
specification the engine must match byte for byte (pinned by
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.core.allocation import Allocation
from repro.core.graph import Node, TransactionGraph
from repro.core.louvain import louvain_reference
from repro.core.objective import GainComputer
from repro.core.params import TxAlloParams

#: Safety bound on optimisation sweeps; the paper's ε criterion converges
#: far earlier on every workload we have seen.
MAX_SWEEPS = 100


@dataclasses.dataclass
class GTxAlloResult:
    """Outcome of a G-TxAllo run, with instrumentation for Fig. 8/10."""

    allocation: Allocation
    louvain_communities: int
    small_nodes_absorbed: int
    sweeps: int
    moves: int
    init_seconds: float
    optimise_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.optimise_seconds


def g_txallo(
    graph: TransactionGraph,
    params: TxAlloParams,
    *,
    initial_partition: Optional[Dict[Node, int]] = None,
) -> GTxAlloResult:
    """Run Algorithm 1 and return the converged k-shard allocation.

    ``initial_partition`` overrides the Louvain initialisation (used by the
    initialisation ablation benchmark); it may contain any number of
    communities.  Nodes are swept in sorted account order, mirroring the
    paper's hash-derived ordering.

    Runs the flat-array sweep engine over the frozen CSR graph; the
    allocation, caches and sweep/move counts equal
    :func:`g_txallo_reference`'s.
    """
    # Imported here: the engine imports this module's MAX_SWEEPS.
    from repro.core.engine import g_txallo_flat

    return GTxAlloResult(
        *g_txallo_flat(graph, params, initial_partition=initial_partition)
    )


def g_txallo_reference(
    graph: TransactionGraph,
    params: TxAlloParams,
    *,
    initial_partition: Optional[Dict[Node, int]] = None,
) -> GTxAlloResult:
    """The dict-based executable specification of :func:`g_txallo`."""
    t0 = time.perf_counter()
    if initial_partition is None:
        partition = louvain_reference(graph)
    else:
        partition = dict(initial_partition)
    alloc, num_small = _initialise(graph, params, partition)
    t1 = time.perf_counter()

    sweeps, moves = _optimise(alloc, graph.nodes_sorted(), params.epsilon)
    t2 = time.perf_counter()

    num_louvain = 1 + max(partition.values(), default=-1)
    return GTxAlloResult(
        allocation=alloc,
        louvain_communities=num_louvain,
        small_nodes_absorbed=num_small,
        sweeps=sweeps,
        moves=moves,
        init_seconds=t1 - t0,
        optimise_seconds=t2 - t1,
    )


# ----------------------------------------------------------------------
# Phase 1 — initialisation (Algorithm 1, lines 1-9)
# ----------------------------------------------------------------------
def _initialise(
    graph: TransactionGraph,
    params: TxAlloParams,
    partition: Dict[Node, int],
) -> (Allocation, int):
    """Turn an ``l``-community partition into a ``k``-shard allocation."""
    k = params.k
    num_comms = 1 + max(partition.values(), default=-1)
    if num_comms <= k:
        # Uncommon case l <= k: pad with empty shards (Section V-B).
        alloc = Allocation.from_partition(graph, params, partition, num_communities=k)
        return alloc, 0

    # Rank communities by workload sigma; the top k become the shards.
    staged = Allocation.from_partition(graph, params, partition, num_communities=num_comms)
    ranked = sorted(range(num_comms), key=lambda c: (-staged.sigma[c], c))
    relabel = {c: i for i, c in enumerate(ranked)}
    relabelled = {v: relabel[c] for v, c in partition.items()}
    alloc = Allocation.from_partition(graph, params, relabelled, num_communities=num_comms)

    gains = GainComputer(alloc)
    small_nodes: List[Node] = sorted(
        v for v, c in relabelled.items() if c >= k
    )
    for v in small_nodes:
        by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
        candidates = gains.candidate_communities(v, by_shard, exclude=None, limit=k)
        if not candidates:
            # The node connects to no large community: every shard is a
            # candidate (Algorithm 1, lines 4-6).
            candidates = range(k)
        q, _gain = gains.best_join(v, candidates, by_shard, w_self, w_ext)
        alloc.move(v, q, weights=(by_shard, w_self, w_ext))
    alloc.truncate(k)
    return alloc, len(small_nodes)


# ----------------------------------------------------------------------
# Phase 2 — optimisation (Algorithm 1, lines 10-19)
# ----------------------------------------------------------------------
def _optimise(
    alloc: Allocation,
    order: Sequence[Node],
    epsilon: float,
) -> (int, int):
    """Sweep all nodes until the per-sweep gain drops below ``epsilon``."""
    gains = GainComputer(alloc)
    sweeps = 0
    moves = 0
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        sweep_gain = 0.0
        for v in order:
            by_shard, w_self, w_ext = alloc.neighbour_shard_weights(v)
            p = alloc.shard_of(v)
            candidates = gains.candidate_communities(v, by_shard, exclude=p)
            if not candidates:
                # The node connects only to its own community; it stays
                # (Algorithm 1 allows C_v = ∅ in this phase).
                continue
            q, gain = gains.best_move(v, candidates, by_shard, w_self, w_ext, p)
            if q is not None and gain > 0.0:
                alloc.move(v, q, weights=(by_shard, w_self, w_ext))
                sweep_gain += gain
                moves += 1
        if sweep_gain < epsilon:
            break
    return sweeps, moves
