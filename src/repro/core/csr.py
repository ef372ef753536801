"""Compiled CSR view of a :class:`~repro.core.graph.TransactionGraph`.

``TransactionGraph`` stores adjacency as a dict-of-dicts keyed by account
strings — ideal for incremental ingest, terrible for the allocation hot
paths, which pay Python string hashing and per-node dict construction on
every neighbourhood scan.  :class:`CSRGraph` is the *frozen* form the
flat-array sweep engine (:mod:`repro.core.engine`) runs on: account
strings are interned to dense integer ids and the adjacency is lowered
into flat CSR arrays:

* ``indptr``/``indices``/``weights`` — ``array('l')``/``array('d')``
  row-pointer, neighbour-id and weight vectors.  Rows keep the *exact*
  iteration order of the source dict rows (including the self-loop entry
  at its original position), so any float accumulation the engine does
  over a row reproduces the reference implementation bit-for-bit.
* ``loop``/``ext`` — per-node self-loop weight ``w{v,v}`` and external
  strength ``w{v, V/v}`` (summed in row order, hence bit-identical to the
  reference's per-scan accumulation).
* ``pairs`` — a loop-free ``[(neighbour_id, weight), ...]`` list per node,
  the hot-loop view the sweep engine iterates (tuple unpacking is the
  fastest pure-Python idiom for this).
* ``sorted_order``/``sorted_rank`` — the lazily-built permutation between
  dense ids and ascending-identifier order, the canonical sweep order of
  Section IV-A (see below).

Id scheme
---------
Node ``i`` is the ``i``-th account in **insertion** (chronological
appearance) order — for a ledger replay, the order every miner observes.
Insertion order is *stable under growth*: new accounts always take the
next free ids, so a later snapshot of the same graph never renumbers
existing rows.  The allocators' canonical ascending-identifier sweep
order is recovered through the ``sorted_order`` permutation, and
``TransactionGraph.edges()``-ordered cache walks are simply ascending-id
walks (the earlier-inserted endpoint of every pair has the smaller id).

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
        "indptr",
        "indices",
        "weights",
        "loop",
        "ext",
        "pairs",
        "num_edges",
        "total_weight",
        "louvain_memo",
        "intra_cut_memo",
        "metis_memo",
        "_sorted_order",
        "_sorted_rank",
    )

    def __init__(
        self,
        nodes: List["Node"],
        index_of: Dict["Node", int],
        indptr: array,
        indices: array,
        weights: array,
        loop: array,
        ext: array,
        pairs: List[List[Tuple[int, float]]],
        num_edges: int,
        total_weight: float,
    ) -> None:
        self.nodes = nodes
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.loop = loop
        self.ext = ext
        self.pairs = pairs
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
        # Lazy ascending-identifier permutation; only the global sweeps
        # need it, so a snapshot frozen for anything else never pays the
        # O(N log N) sort.
        self._sorted_order: Optional[array] = None
        self._sorted_rank: Optional[array] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "TransactionGraph") -> "CSRGraph":
        """Lower ``graph`` into CSR arrays (one O(N + E) pass).

        Node ``i`` is the ``i``-th account in insertion order; row
        contents preserve the adjacency-dict iteration order so float
        accumulations stay bit-identical to the reference dict-based
        scans.
        """
        nodes = list(graph.nodes())
        n = len(nodes)
        index_of = {v: i for i, v in enumerate(nodes)}

        lsize = array("l").itemsize
        indptr = array("l", bytes(lsize * (n + 1)))  # zero-initialised
        indices = array("l")
        weights = array("d")
        loop = array("d", bytes(8 * n))
        ext = array("d", bytes(8 * n))
        pairs: List[List[Tuple[int, float]]] = []

        pos = 0
        for i, v in enumerate(nodes):
            row = graph.neighbours(v)
            prs: List[Tuple[int, float]] = []
            e = 0.0
            for u, w in row.items():
                j = index_of[u]
                indices.append(j)
                weights.append(w)
                if j == i:
                    loop[i] = w
                else:
                    e += w
                    prs.append((j, w))
            ext[i] = e
            pairs.append(prs)
            pos += len(row)
            indptr[i + 1] = pos

        return cls(
            nodes=nodes,
            index_of=index_of,
            indptr=indptr,
            indices=indices,
            weights=weights,
            loop=loop,
            ext=ext,
            pairs=pairs,
            num_edges=graph.num_edges,
            total_weight=graph.total_weight,
        )

    # ------------------------------------------------------------------
    @property
    def sorted_order(self) -> array:
        """Dense ids in ascending node-identifier order (lazy).

        ``sorted_order[r]`` is the id of the ``r``-th account in sorted
        order — the canonical deterministic sweep order of Section IV-A.
        Built on first use (only the global sweeps need it) and cached
        on this immutable snapshot.
        """
        order = self._sorted_order
        if order is None:
            order = array("l", sorted(range(len(self.nodes)), key=self.nodes.__getitem__))
            self._sorted_order = order
        return order

    @property
    def sorted_rank(self) -> array:
        """Inverse of :attr:`sorted_order`: id -> ascending-order rank."""
        rank = self._sorted_rank
        if rank is None:
            order = self.sorted_order
            rank = array("l", bytes(order.itemsize * len(order)))
            for r, i in enumerate(order):
                rank[i] = r
            self._sorted_rank = rank
        return rank

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

