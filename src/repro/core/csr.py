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
next free ids, so an incremental re-freeze (:meth:`CSRGraph.extend`)
never renumbers existing rows.  The allocators' canonical
ascending-identifier sweep order is recovered through the
``sorted_order`` permutation, and ``TransactionGraph.edges()``-ordered
cache walks are simply ascending-id walks (the earlier-inserted endpoint
of every pair has the smaller id).

A ``CSRGraph`` is immutable; mutate the source graph and call
:meth:`TransactionGraph.freeze` again (the graph caches the frozen form
against an internal version counter, so freezing an unchanged graph is
free).

Delta-freeze
------------
Re-lowering the whole graph on every freeze is O(N + E) Python even when
a block only perturbed a handful of rows.  :meth:`CSRGraph.extend` is the
incremental path: given the previous snapshot and the mutation log since
its version (new nodes in insertion order, the set of nodes whose
adjacency rows changed), it copies every untouched span of the base
snapshot wholesale — ids are stable, so untouched rows are byte-reusable
— and re-lowers only the frontier.  The result is **element identical**
to a cold :meth:`CSRGraph.from_graph` of the same graph, which
``tests/test_delta_freeze.py`` pins property-style.
:meth:`TransactionGraph.freeze` drives this automatically; callers never
invoke :meth:`extend` directly.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Tuple

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
        # Lazy ascending-identifier permutation; only the global sweeps
        # need it, so the adaptive path never pays the O(N log N) sort.
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
    @classmethod
    def extend(
        cls,
        graph: "TransactionGraph",
        base: "CSRGraph",
        new_nodes: Sequence["Node"],
        touched: AbstractSet["Node"],
    ) -> "CSRGraph":
        """Incrementally lower ``graph`` on top of the snapshot ``base``.

        ``base`` is a frozen snapshot of an earlier version of ``graph``;
        ``new_nodes`` are the accounts added since, in insertion order,
        and ``touched`` the accounts whose adjacency rows changed (both
        endpoints of every added/updated edge).  The log must describe
        every change since ``base``; when it does not (delta-freeze was
        toggled in between) the graph's delta tracking requires a full
        :meth:`from_graph` rebuild instead.

        Ids are insertion-stable, so new nodes append at the tail and the
        untouched rows between consecutive frontier rows are copied from
        ``base`` as whole array/list slices (their ``pairs`` lists shared
        — both snapshots are immutable).  Python-level work is therefore
        proportional to the frontier (touched rows and their degrees),
        with the O(E) balance reduced to C-level ``memcpy``.
        """
        old_n = len(base.nodes)
        lsize = base.indptr.itemsize

        if new_nodes:
            nodes = base.nodes + list(new_nodes)
            index_of = dict(base.index_of)
            for idx, v in enumerate(new_nodes, old_n):
                index_of[v] = idx
        else:
            nodes = base.nodes
            index_of = base.index_of
        n = len(nodes)

        rebuild = set(touched)
        rebuild.update(new_nodes)

        indptr = array("l", bytes(lsize * (n + 1)))
        indices = array("l")
        weights = array("d")
        loop = array("d", bytes(8 * n))
        ext = array("d", bytes(8 * n))
        pairs: List[List[Tuple[int, float]]] = []

        base_indptr = base.indptr
        base_indices = base.indices
        base_weights = base.weights
        base_loop = base.loop
        base_ext = base.ext
        base_pairs = base.pairs

        def lower_row(i: int, v: "Node") -> None:
            # Frontier row: re-lower from the live adjacency dict,
            # identically to the from_graph inner loop.
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
            indptr[i + 1] = len(indices)

        # Untouched rows sit in contiguous spans between consecutive
        # frontier rows (every id >= old_n is frontier, so spans never
        # reach past the base).  Copy each span wholesale.
        frontier = sorted(index_of[v] for v in rebuild)
        prev = 0
        for i in frontier + [n]:
            if prev < i:
                start, end = base_indptr[prev], base_indptr[i]
                seg_offset = len(indices) - start
                indices.extend(base_indices[start:end])
                weights.extend(base_weights[start:end])
                loop[prev:i] = base_loop[prev:i]
                ext[prev:i] = base_ext[prev:i]
                pairs.extend(base_pairs[prev:i])
                if seg_offset == 0:
                    indptr[prev + 1 : i + 1] = base_indptr[prev + 1 : i + 1]
                else:
                    for t in range(prev + 1, i + 1):
                        indptr[t] = base_indptr[t] + seg_offset
            if i < n:
                lower_row(i, nodes[i])
                prev = i + 1

        csr = cls(
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
        return csr

    # ------------------------------------------------------------------
    def adjacency_dicts(self) -> Tuple[List[Dict[int, float]], List[float]]:
        """Mutable id-keyed copies of the pair rows plus the loop vector.

        This is the lowering the adaptive workspace
        (:class:`repro.core.engine.AdaptiveWorkspace`) rebuilds its
        evolving row maps from: one int-keyed dict per node whose
        iteration order matches the CSR row (and hence the source
        adjacency dict, self-loop entry excluded), and a fresh list of
        self-loop weights.  The caller owns both copies — mutating them
        never touches this immutable snapshot.
        """
        return [dict(prs) for prs in self.pairs], list(self.loop)

    # ------------------------------------------------------------------
    @property
    def sorted_order(self) -> array:
        """Dense ids in ascending node-identifier order (lazy).

        ``sorted_order[r]`` is the id of the ``r``-th account in sorted
        order — the canonical deterministic sweep order of Section IV-A.
        Built on first use (the adaptive path never needs it) and cached
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

