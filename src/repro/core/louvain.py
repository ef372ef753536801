"""Deterministic Louvain community detection (Blondel et al., 2008).

G-TxAllo seeds its optimisation with a Louvain partition (paper Section V-B,
Algorithm 1 line 1).  The stock Louvain method visits nodes in random order;
TxAllo requires *determinism* so every miner derives the same allocation
without an extra consensus round (Section IV-A).  This implementation
therefore:

* visits nodes in ascending identifier order (the paper suggests ordering by
  account hash — for hex address strings these coincide);
* breaks modularity ties toward the smallest community label;
* moves a node only on a strictly positive modularity gain.

Two identical inputs produce byte-identical partitions, which the test-suite
asserts.

Self-loops follow the usual convention: a loop of weight ``w`` contributes
``2w`` to its node's degree and ``w`` to the total weight ``m``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import backends
from repro.core.graph import Node, TransactionGraph

#: Moves whose modularity gain is below this are treated as no-ops.
_MIN_GAIN = 1e-12


def louvain_partition(
    graph: TransactionGraph,
    max_levels: int = 32,
    resolution: float = 1.0,
    backend: str = "fast",
) -> Dict[Node, int]:
    """Partition ``graph`` into communities by modularity maximisation.

    Returns a mapping from every node to a community label in
    ``0 .. l-1``; labels are assigned in order of first appearance over the
    sorted node sequence, so they are deterministic and dense.

    ``resolution`` is the standard resolution parameter (1.0 reproduces
    plain modularity); ``max_levels`` bounds the aggregation recursion.

    ``backend`` names a tier in the engine-backend registry
    (:mod:`repro.core.backends`).  ``"fast"`` (the default) runs the
    flat-array implementation over the frozen CSR graph
    (:mod:`repro.core.engine`) and is bit-identical to ``"reference"``,
    the dict-based implementation below (``tests/test_engine_parity.py``
    pins it).
    """
    spec = backends.get_backend(backend)
    return spec.louvain_kernel(graph, max_levels, resolution)


def _louvain_reference_kernel(
    graph: TransactionGraph,
    max_levels: int = 32,
    resolution: float = 1.0,
) -> Dict[Node, int]:
    """The dict-based executable specification (``backend="reference"``)."""
    nodes = graph.nodes_sorted()
    if not nodes:
        return {}

    # Level-0 working copy: adjacency (without self-loops), loop weights.
    adj: Dict[int, Dict[int, float]] = {}
    loops: List[float] = []
    index_of = {v: i for i, v in enumerate(nodes)}
    for i, v in enumerate(nodes):
        row = {}
        loop = 0.0
        for u, w in graph.neighbours(v).items():
            if u == v:
                loop = w
            else:
                row[index_of[u]] = w
        adj[i] = row
        loops.append(loop)

    # membership[i] maps a level-0 node to its current coarse community.
    membership = list(range(len(nodes)))

    for _level in range(max_levels):
        community, improved = _one_level(adj, loops, resolution)
        # Renumber communities densely in order of first appearance.
        relabel: Dict[int, int] = {}
        for i in range(len(loops)):
            c = community[i]
            if c not in relabel:
                relabel[c] = len(relabel)
        community = [relabel[c] for c in community]
        membership = [community[m] for m in membership]
        if not improved or len(relabel) == len(loops):
            break
        adj, loops = _aggregate(adj, loops, community, len(relabel))

    return {v: membership[i] for i, v in enumerate(nodes)}


def _one_level(
    adj: Dict[int, Dict[int, float]],
    loops: List[float],
    resolution: float,
) -> (List[int], bool):
    """One Louvain local-moving phase.  Returns (community, any_move)."""
    n = len(loops)
    # k[i]: degree with self-loop counted twice; m: total weight.
    k = [0.0] * n
    m = 0.0
    for i in range(n):
        k[i] = sum(adj[i].values()) + 2.0 * loops[i]
        m += loops[i]
        for j, w in adj[i].items():
            if j > i:
                m += w
    if m <= 0.0:
        return list(range(n)), False

    community = list(range(n))
    comm_tot = k[:]  # Σ_tot per community (sum of member degrees)
    two_m = 2.0 * m

    any_move = False
    moved = True
    while moved:
        moved = False
        for i in range(n):
            c_old = community[i]
            # Weight from i to each neighbouring community.
            nbr_comm: Dict[int, float] = {}
            for j, w in adj[i].items():
                c = community[j]
                nbr_comm[c] = nbr_comm.get(c, 0.0) + w
            # Remove i from its community for the evaluation.
            comm_tot[c_old] -= k[i]
            norm = resolution * k[i] / two_m
            w_old = nbr_comm.get(c_old, 0.0)
            base = w_old - comm_tot[c_old] * norm
            # Deterministic min-index scan: an exact (gain, -index) argmax
            # over the neighbouring communities — no sorted() needed, the
            # exact comparison breaks ties toward the smallest label
            # independently of iteration order.  The node moves only when
            # the winner strictly improves on staying put.
            cand_c = -1
            cand_gain = 0.0
            for c, w_c in nbr_comm.items():
                if c == c_old:
                    continue
                gain = w_c - comm_tot[c] * norm
                if cand_c < 0 or gain > cand_gain or (gain == cand_gain and c < cand_c):
                    cand_gain = gain
                    cand_c = c
            best_c = c_old
            if cand_c >= 0 and cand_gain > base + _MIN_GAIN:
                best_c = cand_c
            community[i] = best_c
            comm_tot[best_c] += k[i]
            if best_c != c_old:
                moved = True
                any_move = True
    return community, any_move


def _aggregate(
    adj: Dict[int, Dict[int, float]],
    loops: List[float],
    community: List[int],
    num_comms: int,
) -> (Dict[int, Dict[int, float]], List[float]):
    """Collapse communities into super-nodes for the next level."""
    new_adj: Dict[int, Dict[int, float]] = {c: {} for c in range(num_comms)}
    new_loops = [0.0] * num_comms
    for i, row in adj.items():
        ci = community[i]
        new_loops[ci] += loops[i]
        for j, w in row.items():
            if j < i:
                continue  # handle each undirected pair once
            cj = community[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loops


def modularity(
    graph: TransactionGraph,
    partition: Dict[Node, int],
    resolution: float = 1.0,
) -> float:
    """Newman modularity of ``partition`` on ``graph``.

    Provided for tests and diagnostics; TxAllo itself optimises throughput,
    not modularity.
    """
    m = graph.total_weight
    if m <= 0:
        return 0.0
    comm_in: Dict[int, float] = {}
    comm_tot: Dict[int, float] = {}
    for v in graph.nodes():
        c = partition[v]
        loop = graph.self_loop(v)
        k_v = graph.external_strength(v) + 2.0 * loop
        comm_tot[c] = comm_tot.get(c, 0.0) + k_v
        comm_in[c] = comm_in.get(c, 0.0) + 2.0 * loop
    for u, v, w in graph.edges():
        if u != v and partition[u] == partition[v]:
            comm_in[partition[u]] = comm_in.get(partition[u], 0.0) + 2.0 * w
    two_m = 2.0 * m
    q = 0.0
    for c, tot in comm_tot.items():
        q += comm_in.get(c, 0.0) / two_m - resolution * (tot / two_m) ** 2
    return q
