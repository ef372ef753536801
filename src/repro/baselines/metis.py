"""A METIS-style multilevel k-way graph partitioner (baseline).

The graph-based prior works the paper compares against ([17]-[19],
including BrokerChain) all delegate to METIS.  METIS is a native-code
package; this module re-implements its three classic phases from scratch
so the baseline is self-contained:

1. **Coarsening** — repeated heavy-edge matching collapses the graph until
   it is small (Karypis & Kumar, 1997);
2. **Initial partitioning** — greedy balanced assignment of the coarsest
   nodes, heaviest first, to the currently lightest part;
3. **Refinement** — during uncoarsening, boundary Kernighan-Lin/FM passes
   move nodes to reduce the edge cut subject to a *node-weight* balance
   constraint.  A node that had no cut-reducing move at its last scan,
   and whose neighbours have not moved since, is skipped (see
   :func:`_refine`).

That last point is the paper's central criticism (Section II-C): METIS
balances **vertex weight** (account activity), not shard **workload**
(which depends on η and on which edges end up cut).  We keep that
objective faithfully, so the reproduction shows the same qualitative gap
to TxAllo.

Node weights default to each account's weighted degree — its share of
transaction activity — matching how prior work weights the allocation
graph.  The implementation is deterministic: nodes are visited in index
order and every tie breaks explicitly toward the smaller identifier.

Phase 1 does not depend on ``k`` except through where it stops: the
coarsening chain for a larger ``k`` is a prefix of the chain for a
smaller one.  So the lowered graph and its chain are memoised on the
frozen snapshot (``CSRGraph.metis_memo``, next to the Louvain memo
G-TxAllo shares the same way): a sweep over several ``k`` lowers and
coarsens each snapshot once, at its deepest target, and every other
``k`` walks a prefix of the same levels.  Calls with explicit
``node_weights`` run the same code on a private hierarchy.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.csr import CSRGraph
from repro.core.graph import Node, TransactionGraph
from repro.core.metrics import ordered_sum
from repro.errors import ParameterError

#: Stop coarsening once the graph has at most ``_COARSEN_TARGET_FACTOR * k``
#: nodes, or when a round shrinks the graph by less than 10 %.
_COARSEN_TARGET_FACTOR = 30
_MIN_SHRINK = 0.9


@dataclasses.dataclass
class MetisResult:
    """Partition plus diagnostics (cut weight, balance, level count)."""

    mapping: Dict[Node, int]
    edge_cut: float
    node_weight_imbalance: float
    levels: int


def metis_partition(
    graph: TransactionGraph,
    k: int,
    *,
    imbalance: float = 1.05,
    refinement_passes: int = 4,
    node_weights: Optional[Dict[Node, float]] = None,
) -> MetisResult:
    """Partition ``graph`` into ``k`` parts minimising edge cut.

    ``imbalance`` is METIS's load-imbalance tolerance: every part's node
    weight must stay below ``imbalance * total_weight / k``.

    With the default node weights the lowered graph and its coarsening
    chain are memoised on the frozen snapshot (``csr.metis_memo``), so
    calls at several ``k`` over one snapshot lower and coarsen it once.
    """
    if k < 1:
        raise ParameterError(f"number of parts k must be positive, got {k!r}")
    csr = graph.freeze()
    nodes = csr.nodes
    if not nodes:
        return MetisResult({}, 0.0, 0.0, 0)
    if k == 1:
        return MetisResult({v: 0 for v in nodes}, 0.0, 0.0, 0)

    if node_weights is None:
        levels = csr.metis_memo
        if levels is None:
            levels = csr.metis_memo = _Hierarchy(*_lower(csr, None))
    else:
        levels = _Hierarchy(*_lower(csr, node_weights))
    top = levels.level_for(max(_COARSEN_TARGET_FACTOR * k, 100))
    adjs, weights = levels.adjs, levels.weights

    max_part_weight = imbalance * ordered_sum(weights[0]) / k
    part = _initial_partition(adjs[top], weights[top], k)
    part = _refine(adjs[top], weights[top], part, k, max_part_weight, refinement_passes)
    for level in range(top - 1, -1, -1):
        coarse_of = levels.maps[level]
        part = [part[c] for c in coarse_of]
        part = _refine(adjs[level], weights[level], part, k, max_part_weight, refinement_passes)

    mapping = dict(zip(nodes, part))
    cut = _edge_cut(adjs[0], part)
    imbal = _imbalance(weights[0], part, k)
    return MetisResult(mapping, cut, imbal, top + 1)


# ----------------------------------------------------------------------
# Lowering + multilevel hierarchy
# ----------------------------------------------------------------------
def _lower(
    csr: CSRGraph,
    node_weights: Optional[Dict[Node, float]],
) -> Tuple[List[Dict[int, float]], List[float]]:
    """Index-keyed adjacency rows and node weights of a snapshot.

    Node ``i`` is CSR node ``i``, the ``i``-th account in ascending
    identifier order; its row keeps the CSR row order with the self-loop
    dropped.  Its default weight is the row's left-to-right sum,
    self-loop included (what ``TransactionGraph.strength`` returns on
    Python <= 3.11).
    """
    adj = [dict(row) for row in csr.pairs]
    if node_weights is None:
        weights = []
        for row in csr.rows:
            s = 0.0
            for _, w in row:
                s += w
            weights.append(s)
    else:
        weights = [float(node_weights[v]) for v in csr.nodes]
    # Isolated zero-weight nodes still need a home; give them unit weight
    # so the balance constraint treats them sensibly.
    return adj, [w if w > 0 else 1.0 for w in weights]


class _Hierarchy:
    """A lowered graph (level 0) plus its heavy-edge coarsening chain.

    ``maps[l]`` sends level ``l`` to level ``l + 1``.  Levels are only
    appended, never mutated, so one chain serves every ``k``: a larger
    ``k`` stops on a prefix of the levels a smaller ``k`` walks, and a
    stalled chain is never retried.
    """

    __slots__ = ("adjs", "weights", "maps", "stalled")

    def __init__(self, adj: List[Dict[int, float]], weights: List[float]) -> None:
        self.adjs = [adj]
        self.weights = [weights]
        self.maps: List[List[int]] = []  # fine index -> coarse index
        # True once a round failed to shrink the last level by 10 %.
        self.stalled = False

    def level_for(self, target: int) -> int:
        """Index of the first level with at most ``target`` nodes.

        Walks the chain built so far and coarsens past its end only when
        needed; a stalled chain stops at its last level.
        """
        level = 0
        while len(self.weights[level]) > target:
            if level + 1 == len(self.adjs) and (self.stalled or not self.coarsen_once()):
                break
            level += 1
        return level

    def coarsen_once(self) -> bool:
        """One heavy-edge-matching round on the last level.

        Returns False, and marks the chain stalled, when the round would
        shrink the level by less than 10 %.
        """
        adj = self.adjs[-1]
        n = len(adj)
        match = [-1] * n
        # Visit nodes in index order; match to the unmatched neighbour with
        # the heaviest connecting edge (ties -> smaller index).  The row is
        # scanned in dict order, so the tie-break is explicit.
        for i in range(n):
            if match[i] != -1:
                continue
            best_j = -1
            best_w = -1.0
            for j, w in adj[i].items():
                if match[j] == -1 and j != i and (
                    w > best_w or (w == best_w and j < best_j)
                ):
                    best_w = w
                    best_j = j
            if best_j != -1:
                match[i] = best_j
                match[best_j] = i
            else:
                match[i] = i  # stays single
        # Build coarse ids in order of first appearance.
        coarse_of = [-1] * n
        next_id = 0
        for i in range(n):
            if coarse_of[i] != -1:
                continue
            coarse_of[i] = next_id
            j = match[i]
            if j != i and coarse_of[j] == -1:
                coarse_of[j] = next_id
            next_id += 1
        if next_id > n * _MIN_SHRINK:
            self.stalled = True
            return False
        weights = self.weights[-1]
        new_weights = [0.0] * next_id
        new_adj: List[Dict[int, float]] = [dict() for _ in range(next_id)]
        for i in range(n):
            ci = coarse_of[i]
            new_weights[ci] += weights[i]
            row = new_adj[ci]
            for j, w in adj[i].items():
                cj = coarse_of[j]
                if ci != cj:
                    row[cj] = row.get(cj, 0.0) + w
        self.adjs.append(new_adj)
        self.weights.append(new_weights)
        self.maps.append(coarse_of)
        return True


# ----------------------------------------------------------------------
# Initial partition + refinement
# ----------------------------------------------------------------------
def _initial_partition(
    adj: List[Dict[int, float]],
    weights: List[float],
    k: int,
) -> List[int]:
    """Greedy balanced assignment: heaviest node to the lightest part."""
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    part = [0] * n
    # (load, part) min-heap: its top is the lightest part, ties -> the
    # smaller part.  Plain lightest-first is METIS-like and deterministic.
    heap = [(0.0, p) for p in range(k)]
    for i in order:
        load, target = heap[0]
        part[i] = target
        heapq.heapreplace(heap, (load + weights[i], target))
    return part


def _refine(
    adj: List[Dict[int, float]],
    weights: List[float],
    part: List[int],
    k: int,
    max_part_weight: float,
    passes: int,
) -> List[int]:
    """Boundary FM passes: move nodes to cut-reducing parts under balance.

    A node's connectivity to each part accumulates in an epoch-stamped
    scatter buffer over the ``k`` parts (``acc``/``stamp``, as in
    :func:`repro.core.engine._optimise_flat`).  A node is *settled* when
    its last scan found no other part with a strictly positive gain and no
    neighbour has moved since.  A gain depends only on the parts of the
    node's neighbours, and loads can only veto a positive gain, so a
    settled node cannot move and its scan is skipped.  A move unsettles
    the mover's neighbours (the adjacency is symmetric).  The moves are
    exactly those of scanning every node on every pass.
    """
    n = len(weights)
    loads = [0.0] * k
    for i in range(n):
        loads[part[i]] += weights[i]
    acc = [0.0] * k
    stamp = [0] * k
    epoch = 0
    touched: List[int] = []
    settled = [False] * n
    for _ in range(passes):
        moved = 0
        for i in range(n):
            if settled[i]:
                continue
            p = part[i]
            epoch += 1
            del touched[:]
            row = adj[i]
            for j, w in row.items():
                q = part[j]
                if stamp[q] == epoch:
                    acc[q] += w
                else:
                    stamp[q] = epoch
                    acc[q] = w
                    touched.append(q)
            internal = acc[p] if stamp[p] == epoch else 0.0
            wi = weights[i]
            best_q = p
            best_gain = 0.0
            positive = False
            touched.sort()
            for q in touched:
                if q == p:
                    continue
                gain = acc[q] - internal
                if gain > 0.0:
                    positive = True
                    if gain > best_gain and not loads[q] + wi > max_part_weight:
                        best_gain = gain
                        best_q = q
            if best_q != p:
                part[i] = best_q
                loads[p] -= wi
                loads[best_q] += wi
                moved += 1
                for j in row:
                    settled[j] = False
            else:
                settled[i] = not positive
        if moved == 0:
            break
    return part


def _edge_cut(adj: List[Dict[int, float]], part: List[int]) -> float:
    cut = 0.0
    for i, row in enumerate(adj):
        for j, w in row.items():
            if j > i and part[i] != part[j]:
                cut += w
    return cut


def _imbalance(weights: List[float], part: List[int], k: int) -> float:
    loads = [0.0] * k
    for i, w in enumerate(weights):
        loads[part[i]] += w
    avg = ordered_sum(loads) / k
    if avg == 0:
        return 0.0
    return max(loads) / avg
