"""Compiled CSR view of a :class:`~repro.core.graph.TransactionGraph`.

``TransactionGraph`` stores adjacency as a dict-of-dicts keyed by account
strings — ideal for incremental ingest, terrible for the allocation hot
paths, which pay Python string hashing and per-node dict construction on
every neighbourhood scan.  :class:`CSRGraph` is the *frozen* form the
flat-array sweep engine (:mod:`repro.core.engine`) runs on: account
strings are interned to dense integer ids and each adjacency row is
lowered into one list of ``(neighbour_id, weight)`` tuples.  A snapshot
holds:

* ``nodes``/``index_of`` — id → account and account → id;
* ``rows`` — the full row of each node, in the *exact* iteration order
  of the source dict row, the self-loop entry at its original position.
  Any float accumulation over a row therefore reproduces the reference
  implementation bit-for-bit;
* ``pairs`` — the loop-free row the sweep hot loops iterate (tuple
  unpacking is the fastest pure-Python idiom for this).  A row without a
  self-loop is the very list object in ``rows``;
* ``loop``/``ext`` — per-node self-loop weight ``w{v,v}`` and external
  strength ``w{v, V/v}`` (summed left to right in row order, hence
  bit-identical to the reference's per-scan accumulation);
* ``insertion_order`` — the ids in insertion (chronological appearance)
  order, for the one pass that replays ``TransactionGraph.edges()``
  (see below);
* ``num_edges``/``total_weight`` — the source graph's counters;
* three memos of results derived from the snapshot alone (the Louvain
  partition, its per-community intra/cut weights and the METIS
  coarsening chain).

Id scheme
---------
Node ``i`` is the ``i``-th account in **ascending identifier** order
(``TransactionGraph.nodes_sorted()``), the canonical sweep order every
miner reproduces (paper Section IV-A).  A node's id is therefore its
sorted index in the reference implementations, so the engine sweeps
``range(n)`` and compares raw ids wherever the reference compares sorted
indices.  The one pass that replays insertion order — the
``TransactionGraph.edges()`` walk of ``Allocation`` cache rebuilds — walks
``insertion_order`` instead.

A ``CSRGraph`` is immutable; mutate the source graph and call
:meth:`TransactionGraph.freeze` again (the graph caches the frozen form
against an internal version counter, so freezing an unchanged graph is
free).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.graph import Node, TransactionGraph


class CSRGraph:
    """Frozen, integer-indexed CSR snapshot of a transaction graph."""

    __slots__ = (
        "nodes",
        "index_of",
        "rows",
        "loop",
        "ext",
        "pairs",
        "num_edges",
        "total_weight",
        "louvain_memo",
        "intra_cut_memo",
        "metis_memo",
        "insertion_order",
    )

    def __init__(
        self,
        nodes: List["Node"],
        index_of: Dict["Node", int],
        rows: List[List[Tuple[int, float]]],
        loop: array,
        ext: array,
        pairs: List[List[Tuple[int, float]]],
        insertion_order: array,
        num_edges: int,
        total_weight: float,
    ) -> None:
        self.nodes = nodes
        self.index_of = index_of
        self.rows = rows
        self.loop = loop
        self.ext = ext
        self.pairs = pairs
        self.insertion_order = insertion_order
        self.num_edges = num_edges
        self.total_weight = total_weight
        # (max_levels, resolution) -> Louvain membership list.  Sound
        # because a CSRGraph is immutable: the same frozen graph always
        # yields the same deterministic partition (engine.louvain_flat
        # populates this and hands out copies).
        self.louvain_memo: Dict[Tuple[int, float], List[int]] = {}
        # Same key -> (intra, cut) per-community weights of the Louvain
        # partition; eta/k independent, so G-TxAllo parameter sweeps over
        # one frozen graph derive sigma/lam_hat per cell in O(l).
        self.intra_cut_memo: Dict[
            Tuple[int, float], Tuple[List[float], List[float]]
        ] = {}
        # The METIS baseline's lowered graph and heavy-edge coarsening
        # chain (repro.baselines.metis._Hierarchy); k independent, so a
        # sweep over several k lowers and coarsens this snapshot once.
        # Only default-weight calls read or extend it.
        self.metis_memo: Optional[object] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "TransactionGraph") -> "CSRGraph":
        """Lower ``graph`` into a snapshot (an O(N log N + E) pass).

        Node ``i`` is the ``i``-th account in ascending identifier order;
        row contents preserve the adjacency-dict iteration order so float
        accumulations stay bit-identical to the reference dict-based
        scans.
        """
        nodes = graph.nodes_sorted()
        n = len(nodes)
        index_of = {v: i for i, v in enumerate(nodes)}
        insertion_order = array("l", [index_of[v] for v in graph.nodes()])

        neighbours = graph.neighbours
        rows: List[List[Tuple[int, float]]] = []
        pairs: List[List[Tuple[int, float]]] = []
        loop = array("d", bytes(8 * n))
        ext = array("d", bytes(8 * n))
        for i, v in enumerate(nodes):
            nbrs = neighbours(v)
            row = [(index_of[u], w) for u, w in nbrs.items()]
            rows.append(row)
            e = 0.0
            if v in nbrs:
                loop[i] = nbrs[v]
                row = [t for t in row if t[0] != i]
                for _, w in row:
                    e += w
            else:
                for w in nbrs.values():
                    e += w
            ext[i] = e
            pairs.append(row)

        return cls(
            nodes=nodes,
            index_of=index_of,
            rows=rows,
            loop=loop,
            ext=ext,
            pairs=pairs,
            insertion_order=insertion_order,
            num_edges=graph.num_edges,
            total_weight=graph.total_weight,
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRGraph(nodes={len(self.nodes)}, edges={self.num_edges}, "
            f"weight={self.total_weight:.2f})"
        )

