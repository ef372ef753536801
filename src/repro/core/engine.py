"""Flat-array sweep engine — the allocation core.

This module reimplements the three allocation hot paths on top of the
compiled CSR kernel (:mod:`repro.core.csr`):

1. :func:`louvain_flat` — Louvain local-moving/aggregation over CSR rows
   with an epoch-stamped scatter buffer instead of a fresh ``nbr_comm``
   dict (and dict sort) per node;
2. :class:`_FlatAllocation` (internal to :func:`g_txallo_flat`) — the
   int-indexed allocation state: ``sigma`` / ``lam_hat`` / membership as
   flat lists, neighbour-shard weights accumulated into a reusable
   per-shard scatter buffer;
3. :func:`g_txallo_flat` — the Algorithm 1 sweeps consuming that state;
4. :func:`a_txallo_flat` — the Algorithm 2 sweeps over the live graph.

Entry points
------------
:func:`repro.core.louvain.louvain_partition`,
:func:`repro.core.gtxallo.g_txallo` and :func:`repro.core.atxallo.a_txallo`
call this module's kernels; there is no other engine.  The dict-based
``louvain_reference`` / ``g_txallo_reference`` / ``a_txallo_reference``
beside them are the executable specification, run only by the parity
tests and the engine rows of ``benchmarks/contracts.py``.

Parity contract
---------------
The engine is an *optimisation*, not a reinterpretation: for any input it
must produce **byte-identical** allocations to the reference dict-based
path — same ``mapping()``, same ``sigma`` /
``lam_hat`` floats, same sweep and move counts.  That is achieved by
replaying the reference implementation's float accumulations in the exact
same order:

* CSR rows preserve the adjacency-dict iteration order, so per-node
  neighbourhood accumulations add the same floats in the same sequence;
* CSR ids are insertion-ordered (stable under growth), so the
  ``TransactionGraph.edges()`` insertion-order edge walk used by
  ``Allocation`` cache rebuilds is an ascending-id walk, and the
  reference's ascending-*identifier* sweep and Louvain orders are
  replayed through the frozen ``sorted_order`` permutation.  Louvain's
  level 0 runs on the CSR rows in id space, visiting nodes in
  ``sorted_order``; every comparison the reference makes between
  sorted indices (edge orientation, the smallest-label tie-break, the
  once-per-pair aggregation skip) compares ``sorted_rank`` values;
* every gain / delta expression is written with the same operand order
  and parenthesisation as :mod:`repro.core.objective` and
  :meth:`repro.core.allocation.Allocation.move`;
* ties break toward the smallest community index via an exact
  ``(gain, -index)`` argmax, matching the reference's
  ascending-candidate strict-improvement scan.

``tests/test_engine_parity.py`` enforces this contract property-style
across randomised workloads, shard counts and eta values.

A-TxAllo
--------
Algorithm 2 reads only the neighbourhoods of the touched accounts, so
:func:`a_txallo_flat` needs no snapshot: it sweeps the live adjacency
rows and the live account→shard mapping in place, adding the same
floats in the same order as the reference's dict scans.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.allocation import Allocation
from repro.core.atxallo import MAX_SWEEPS as _ADAPTIVE_MAX_SWEEPS
from repro.core.csr import CSRGraph
from repro.core.graph import Node, TransactionGraph
from repro.core.gtxallo import MAX_SWEEPS as _GLOBAL_MAX_SWEEPS
from repro.core.louvain import _MIN_GAIN
from repro.core.params import TxAlloParams
from repro.errors import AllocationError, GraphError

# The sweep bounds and Louvain gain threshold are imported from the
# reference modules (which import this engine only lazily, so there is
# no cycle) — the engine and its oracle cannot drift apart on
# convergence behaviour.


# ======================================================================
# Louvain on CSR
# ======================================================================
def louvain_fast(
    graph: TransactionGraph,
    max_levels: int = 32,
    resolution: float = 1.0,
) -> Dict[Node, int]:
    """The kernel behind :func:`repro.core.louvain.louvain_partition`."""
    csr = graph.freeze()
    membership = louvain_flat(csr, max_levels=max_levels, resolution=resolution)
    return {v: membership[i] for i, v in enumerate(csr.nodes)}


def louvain_flat(
    csr: CSRGraph,
    max_levels: int = 32,
    resolution: float = 1.0,
) -> List[int]:
    """Louvain over a frozen graph; returns per-node community labels.

    Labels are dense ints in order of first appearance over the sorted
    node sequence — identical to the reference implementation.

    Level 0 runs directly on the CSR rows, in id space: nodes are visited
    in ``csr.sorted_order`` and a community keeps the id of the node it
    started from, so node ``sorted_order[r]`` and label
    ``sorted_order[r]`` stand for the reference's sorted index ``r``.
    Every index comparison the reference makes in sorted space goes
    through ``csr.sorted_rank`` instead (edge orientation in the weight
    total, the smallest-label tie-break, the once-per-pair aggregation
    skip), so accumulations, moves, tie-breaks and relabels replay it
    exactly without copying the adjacency.  Aggregated levels number
    their super-nodes densely and use the identity order.

    Results are memoised on the (immutable) ``csr`` — the paper's
    evaluation sweeps run G-TxAllo for many ``(k, eta)`` cells over one
    graph, and the Louvain seed partition depends only on the graph.
    """
    n = csr.num_nodes
    if n == 0:
        return []

    memo_key = (max_levels, resolution)
    cached = csr.louvain_memo.get(memo_key)
    if cached is not None:
        return list(cached)

    rows: List[Sequence[Tuple[int, float]]] = csr.pairs
    loops: Sequence[float] = csr.loop
    order: Sequence[int] = csr.sorted_order
    rank: Sequence[int] = csr.sorted_rank
    membership = list(range(n))

    for _level in range(max_levels):
        community, improved = _one_level_flat(rows, loops, resolution, order, rank)
        relabel: Dict[int, int] = {}
        for i in order:
            c = community[i]
            if c not in relabel:
                relabel[c] = len(relabel)
        community = [relabel[c] for c in community]
        membership = [community[m] for m in membership]
        if not improved or len(relabel) == len(loops):
            break
        rows, loops = _aggregate_flat(rows, loops, community, len(relabel), order, rank)
        order = rank = range(len(loops))

    csr.louvain_memo[memo_key] = membership
    return list(membership)


def _one_level_flat(
    rows: List[Sequence[Tuple[int, float]]],
    loops: Sequence[float],
    resolution: float,
    order: Sequence[int],
    rank: Sequence[int],
) -> Tuple[List[int], bool]:
    """One local-moving phase on flat rows.  Returns (community, any_move).

    Mirrors ``louvain._one_level`` exactly, but accumulates the per-node
    neighbour-community weights into an epoch-stamped scatter buffer
    (``acc``/``stamp``) instead of a fresh dict, and finds the best
    destination with an exact ``(gain, -index)`` argmax instead of a
    sorted scan.

    Nodes are visited in ``order``; ``rank`` is its inverse and stands in
    for the reference's index wherever one is compared (see
    :func:`louvain_flat`).  Community labels start as node ids.
    """
    n = len(loops)
    k = [0.0] * n
    m = 0.0
    for i in order:
        ri = rank[i]
        s = 0.0
        m += loops[i]
        # One combined row pass; each running total (s, m) still adds the
        # same floats in the same order as the reference's separate passes.
        for j, w in rows[i]:
            s += w
            if rank[j] > ri:
                m += w
        k[i] = s + 2.0 * loops[i]
    if m <= 0.0:
        return list(range(n)), False

    community = list(range(n))
    comm_tot = k[:]
    two_m = 2.0 * m

    acc = [0.0] * n
    stamp = [0] * n
    epoch = 0
    touched: List[int] = []

    any_move = False
    moved = True
    while moved:
        moved = False
        for i in order:
            c_old = community[i]
            epoch += 1
            del touched[:]
            append = touched.append
            for j, w in rows[i]:
                c = community[j]
                if stamp[c] == epoch:
                    acc[c] += w
                else:
                    stamp[c] = epoch
                    acc[c] = w
                    append(c)
            ki = k[i]
            tot = comm_tot[c_old] - ki
            comm_tot[c_old] = tot
            norm = resolution * ki / two_m
            w_old = acc[c_old] if stamp[c_old] == epoch else 0.0
            base = w_old - tot * norm
            cand_c = -1
            cand_gain = 0.0
            for c in touched:
                if c == c_old:
                    continue
                gain = acc[c] - comm_tot[c] * norm
                if cand_c < 0 or gain > cand_gain or (gain == cand_gain and rank[c] < rank[cand_c]):
                    cand_gain = gain
                    cand_c = c
            if cand_c >= 0 and cand_gain > base + _MIN_GAIN:
                community[i] = cand_c
                comm_tot[cand_c] += ki
                moved = True
                any_move = True
            else:
                comm_tot[c_old] = tot + ki
    return community, any_move


def _aggregate_flat(
    rows: List[Sequence[Tuple[int, float]]],
    loops: Sequence[float],
    community: List[int],
    num_comms: int,
    order: Sequence[int],
    rank: Sequence[int],
) -> Tuple[List[Sequence[Tuple[int, float]]], List[float]]:
    """Collapse communities into super-nodes (mirrors ``louvain._aggregate``).

    Walks nodes in ``order`` and keeps each pair at its lower-``rank``
    endpoint, as the reference walks its sorted indices.
    """
    new_adj: List[Dict[int, float]] = [{} for _ in range(num_comms)]
    new_loops = [0.0] * num_comms
    for i in order:
        ci = community[i]
        ri = rank[i]
        new_loops[ci] += loops[i]
        for j, w in rows[i]:
            if rank[j] < ri:
                continue  # handle each undirected pair once
            cj = community[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                d = new_adj[ci]
                d[cj] = d.get(cj, 0.0) + w
                d = new_adj[cj]
                d[ci] = d.get(ci, 0.0) + w
    return [list(d.items()) for d in new_adj], new_loops


# ======================================================================
# Int-indexed allocation state
# ======================================================================
class _FlatAllocation:
    """Array-backed allocation state for the G-TxAllo sweeps.

    ``comm[i]`` is the community of CSR node ``i``; ``sigma`` / ``lam_hat``
    and the per-community member counts are plain lists indexed by
    community.  ``acc`` / ``stamp`` form the reusable per-shard scatter
    accumulator behind every neighbour-shard-weight scan.
    """

    __slots__ = ("csr", "params", "comm", "sigma", "lam_hat", "counts",
                 "acc", "stamp", "epoch")

    def __init__(
        self,
        csr: CSRGraph,
        params: TxAlloParams,
        comm: List[int],
        num_comms: int,
        intra_cut: Optional[Tuple[List[float], List[float]]] = None,
    ) -> None:
        self.csr = csr
        self.params = params
        self.comm = comm
        self.counts = [0] * num_comms
        for c in comm:
            self.counts[c] += 1
        if intra_cut is None:
            intra_cut = _intra_cut(csr, comm, num_comms)
        intra, cut = intra_cut
        eta = params.eta
        self.sigma = [intra[i] + eta * cut[i] for i in range(num_comms)]
        self.lam_hat = [intra[i] + cut[i] / 2.0 for i in range(num_comms)]
        self.acc = [0.0] * num_comms
        self.stamp = [0] * num_comms
        self.epoch = 0

    # ------------------------------------------------------------------
    def scan(self, i: int) -> List[int]:
        """Accumulate node ``i``'s weight toward each community.

        Scatter into ``acc`` under a fresh epoch and return the list of
        communities touched, in first-touch (row) order.  ``acc[c]`` is
        valid for exactly the returned communities until the next scan.
        """
        self.epoch += 1
        epoch = self.epoch
        acc = self.acc
        stamp = self.stamp
        comm = self.comm
        touched: List[int] = []
        for j, w in self.csr.pairs[i]:
            c = comm[j]
            if stamp[c] == epoch:
                acc[c] += w
            else:
                stamp[c] = epoch
                acc[c] = w
                touched.append(c)
        return touched

    def weight_to(self, c: int) -> float:
        """``w{v, V_c}`` from the most recent :meth:`scan` (0.0 if none)."""
        return self.acc[c] if self.stamp[c] == self.epoch else 0.0

    # ------------------------------------------------------------------
    def move(self, i: int, p: int, q: int, w_self: float, w_ext: float) -> None:
        """Apply ``Allocation.move``'s deltas for node ``i``: ``p`` → ``q``.

        Caller must have :meth:`scan`-ned ``i`` immediately before.
        """
        eta = self.params.eta
        w_p = self.weight_to(p)
        w_q = self.weight_to(q)
        half = w_self + w_ext / 2.0
        sigma = self.sigma
        lam_hat = self.lam_hat
        sigma[p] += -w_self - eta * (w_ext - w_p) + (eta - 1.0) * w_p
        lam_hat[p] -= half
        sigma[q] += w_self + eta * (w_ext - w_q) + (1.0 - eta) * w_q
        lam_hat[q] += half
        self.comm[i] = q
        self.counts[p] -= 1
        self.counts[q] += 1

    def truncate(self, k: int) -> None:
        """Drop trailing (empty) communities, as ``Allocation.truncate``."""
        for c in range(k, len(self.sigma)):
            if self.counts[c]:
                raise AllocationError(
                    f"cannot truncate: community {c} still holds {self.counts[c]} accounts"
                )
        del self.sigma[k:]
        del self.lam_hat[k:]
        del self.counts[k:]
        # Shrink the scatter buffers to match the community range.
        del self.acc[k:]
        del self.stamp[k:]

    # ------------------------------------------------------------------
    def to_allocation(self, graph: TransactionGraph) -> Allocation:
        """Materialise the final dict-backed :class:`Allocation`."""
        index_of = self.csr.index_of
        comm = self.comm
        mapping = {v: comm[index_of[v]] for v in graph.nodes()}
        return Allocation._from_compiled(
            graph, self.params, mapping, self.sigma, self.lam_hat
        )


def _intra_cut(
    csr: CSRGraph, comm: List[int], num_comms: int
) -> Tuple[List[float], List[float]]:
    """Per-community intra / cut weight for a complete partition.

    Replays ``Allocation._recompute_caches``'s edge walk exactly: the
    reference iterates ``TransactionGraph.edges()`` — insertion order
    outer, row order inner, each pair at its earlier-inserted endpoint.
    CSR ids *are* insertion ranks, so that walk is an ascending-id walk
    that skips the pair at its larger-id endpoint, and the accumulated
    floats are bit-identical.  The result is independent of ``eta`` /
    ``k``: ``sigma``/``lam_hat`` derive from it per parameter cell.
    """
    intra = [0.0] * num_comms
    cut = [0.0] * num_comms
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    for u in range(len(comm)):
        cu = comm[u]
        for t in range(indptr[u], indptr[u + 1]):
            j = indices[t]
            if j == u:
                intra[cu] += weights[t]
                continue
            if j < u:
                continue  # already handled at the earlier-inserted endpoint
            cj = comm[j]
            w = weights[t]
            if cu == cj:
                intra[cu] += w
            else:
                cut[cu] += w
                cut[cj] += w
    return intra, cut


# ======================================================================
# G-TxAllo on the flat engine
# ======================================================================
def g_txallo_flat(
    graph: TransactionGraph,
    params: TxAlloParams,
    initial_partition: Optional[Dict[Node, int]] = None,
    node_order: Optional[Sequence[Node]] = None,
) -> Tuple[Allocation, int, int, int, int, float, float]:
    """Algorithm 1 on the flat engine.

    Returns ``(allocation, louvain_communities, small_nodes_absorbed,
    sweeps, moves, init_seconds, optimise_seconds)`` — the fields
    :class:`repro.core.gtxallo.GTxAlloResult` is built from.
    """
    t0 = time.perf_counter()
    csr = graph.freeze()

    if initial_partition is None:
        memo_key = (32, 1.0)  # the louvain defaults used below
        comm = louvain_flat(csr)
        num_louvain = 1 + max(comm, default=-1)
        intra_cut = csr.intra_cut_memo.get(memo_key)
        if intra_cut is None:
            intra_cut = _intra_cut(csr, comm, num_louvain)
            csr.intra_cut_memo[memo_key] = intra_cut
    else:
        # The label count follows the partition dict (which may mention
        # accounts beyond the graph), matching the reference exactly.
        num_louvain = 1 + max(initial_partition.values(), default=-1)
        comm = _lower_partition(csr, initial_partition, num_louvain)
        intra_cut = None

    flat, num_small = _initialise_flat(csr, params, comm, num_louvain, intra_cut)
    t1 = time.perf_counter()

    if node_order is None:
        # The reference sweeps graph.nodes_sorted(); on insertion-ordered
        # CSR ids that is the sorted_order permutation.
        order: Iterable[int] = csr.sorted_order
    else:
        index_of = csr.index_of
        try:
            order = [index_of[v] for v in node_order]
        except KeyError as exc:
            raise GraphError(f"unknown node {exc.args[0]!r}") from None
    sweeps, moves = _optimise_flat(flat, order, params.epsilon)
    t2 = time.perf_counter()

    alloc = flat.to_allocation(graph)
    return alloc, num_louvain, num_small, sweeps, moves, t1 - t0, t2 - t1


def _lower_partition(
    csr: CSRGraph, partition: Dict[Node, int], num_comms: int
) -> List[int]:
    """Lower a node→community dict onto CSR ids, with reference checks."""
    comm: List[int] = []
    for v in csr.nodes:
        try:
            c = partition[v]
        except KeyError:
            raise AllocationError(f"partition misses account {v!r}") from None
        if not 0 <= c < max(num_comms, 1):
            raise AllocationError(
                f"community index {c} of account {v!r} outside [0, {num_comms})"
            )
        comm.append(c)
    return comm


def _initialise_flat(
    csr: CSRGraph,
    params: TxAlloParams,
    comm: List[int],
    num_comms: int,
    intra_cut: Optional[Tuple[List[float], List[float]]] = None,
) -> Tuple[_FlatAllocation, int]:
    """Phase 1 of Algorithm 1 (mirrors ``gtxallo._initialise``)."""
    k = params.k
    if num_comms <= k:
        # Uncommon case l <= k: pad with empty shards.  A cached
        # (intra, cut) covers communities [0, num_comms); the padding
        # shards carry exactly zero weight, as a fresh edge walk over
        # ``k`` slots would produce.
        if intra_cut is not None and k > num_comms:
            pad = [0.0] * (k - num_comms)
            intra_cut = (intra_cut[0] + pad, intra_cut[1] + pad)
        return _FlatAllocation(csr, params, comm, k, intra_cut), 0

    staged = _FlatAllocation(csr, params, comm, num_comms, intra_cut)
    ranked = sorted(range(num_comms), key=lambda c: (-staged.sigma[c], c))
    relabel = {c: i for i, c in enumerate(ranked)}
    # Relabelling permutes the caches; the float sums per community are
    # unchanged (same additions in the same order into a renamed slot).
    flat = staged
    flat.comm = [relabel[c] for c in comm]
    sigma = [0.0] * num_comms
    lam_hat = [0.0] * num_comms
    counts = [0] * num_comms
    for c in range(num_comms):
        r = relabel[c]
        sigma[r] = staged.sigma[c]
        lam_hat[r] = staged.lam_hat[c]
        counts[r] = staged.counts[c]
    flat.sigma, flat.lam_hat, flat.counts = sigma, lam_hat, counts

    lam = params.lam
    eta = params.eta
    comm = flat.comm
    loop = csr.loop
    ext = csr.ext
    num_small = 0
    # Small-community nodes in ascending identifier order, as the
    # reference's sorted() scan visits them.
    for i in csr.sorted_order:
        p = comm[i]
        if p < k:
            continue
        num_small += 1
        touched = flat.scan(i)
        w_self = loop[i]
        w_ext = ext[i]
        candidates: Iterable[int] = sorted(
            c for c in touched if c < k and flat.acc[c] > 0.0
        )
        if not candidates:
            # The node connects to no large community: every shard is a
            # candidate (Algorithm 1, lines 4-6).
            candidates = range(k)
        q = _best_join(flat, candidates, w_self, w_ext, eta, lam)[0]
        flat.move(i, p, q, w_self, w_ext)
    flat.truncate(k)
    return flat, num_small


def _best_join(
    flat: _FlatAllocation,
    candidates: Iterable[int],
    w_self: float,
    w_ext: float,
    eta: float,
    lam: float,
) -> Tuple[Optional[int], float]:
    """Argmax of Eq. (6) over ``candidates`` (ascending; ties → smallest).

    Bit-identical to ``GainComputer.best_join`` /
    ``capped_throughput``: same expressions, same operand order.
    """
    sigma = flat.sigma
    lam_hat = flat.lam_hat
    best_q: Optional[int] = None
    best_gain = -float("inf")
    for q in candidates:
        w_q = flat.weight_to(q)
        sigma_q = sigma[q]
        lam_hat_q = lam_hat[q]
        sigma_new = sigma_q + w_self + eta * (w_ext - w_q) + (1.0 - eta) * w_q
        lam_hat_new = lam_hat_q + w_self + w_ext / 2.0
        if sigma_q <= lam or sigma_q == 0.0:
            before = lam_hat_q
        else:
            before = lam / sigma_q * lam_hat_q
        if sigma_new <= lam or sigma_new == 0.0:
            after = lam_hat_new
        else:
            after = lam / sigma_new * lam_hat_new
        gain = after - before
        if gain > best_gain:
            best_gain = gain
            best_q = q
    if best_q is None:
        return None, 0.0
    return best_q, best_gain


def _optimise_flat(
    flat: _FlatAllocation,
    order: Iterable[int],
    epsilon: float,
) -> Tuple[int, int]:
    """Phase 2 of Algorithm 1 (mirrors ``gtxallo._optimise``).

    This is the hottest loop of the whole system, so the scatter scan and
    the gain evaluations are inlined with every array bound to a local —
    no method calls, no per-node allocations beyond the reused ``touched``
    list.  The arithmetic is the reference's, expression for expression.
    """
    params = flat.params
    eta = params.eta
    lam = params.lam
    one_minus_eta = 1.0 - eta
    eta_minus_one = eta - 1.0
    comm = flat.comm
    pairs = flat.csr.pairs
    loop = flat.csr.loop
    ext = flat.csr.ext
    sigma = flat.sigma
    lam_hat = flat.lam_hat
    acc = flat.acc
    stamp = flat.stamp
    epoch = flat.epoch
    counts = flat.counts
    neg_inf = -float("inf")

    order = list(order)
    touched: List[int] = []
    # Cached capped throughput per community: a pure function of
    # (sigma[c], lam_hat[c], lam), refreshed on the two communities a move
    # touches — reading the cache is bit-identical to recomputing.
    thpt = [0.0] * len(sigma)
    for c in range(len(sigma)):
        sigma_c = sigma[c]
        if sigma_c <= lam or sigma_c == 0.0:
            thpt[c] = lam_hat[c]
        else:
            thpt[c] = lam / sigma_c * lam_hat[c]

    sweeps = 0
    moves = 0
    while sweeps < _GLOBAL_MAX_SWEEPS:
        sweeps += 1
        sweep_gain = 0.0
        for i in order:
            p = comm[i]
            epoch += 1
            del touched[:]
            append = touched.append
            for j, w in pairs[i]:
                c = comm[j]
                if stamp[c] == epoch:
                    acc[c] += w
                else:
                    stamp[c] = epoch
                    acc[c] = w
                    append(c)
            # Candidate communities (Eq. 9): neighbours' communities minus
            # our own.  Accumulated weights are sums of positive edge
            # weights, so the reference's w > 0 filter is always true.
            if not touched or (len(touched) == 1 and touched[0] == p):
                # The node connects only to its own community; it stays.
                continue
            touched.sort()
            w_self = loop[i]
            w_ext = ext[i]
            half_ext = w_ext / 2.0
            # Leave gain (evaluated once; independent of the destination).
            w_p = acc[p] if stamp[p] == epoch else 0.0
            sigma_p = sigma[p]
            lam_hat_p = lam_hat[p]
            sigma_new = sigma_p - w_self - eta * (w_ext - w_p) + eta_minus_one * w_p
            lam_hat_new = lam_hat_p - w_self - half_ext
            if sigma_new <= lam or sigma_new == 0.0:
                after = lam_hat_new
            else:
                after = lam / sigma_new * lam_hat_new
            leave = after - thpt[p]
            best_q = -1
            best_gain = neg_inf
            for q in touched:
                if q == p:
                    continue
                w_q = acc[q]
                sigma_q = sigma[q]
                sigma_new = sigma_q + w_self + eta * (w_ext - w_q) + one_minus_eta * w_q
                # NB: left-associated like GainComputer.join_gain; the
                # move application below uses Allocation.move's
                # ``half``-grouped form instead — they can differ in the
                # last ulp and parity tracks each reference site exactly.
                lam_hat_new = lam_hat[q] + w_self + half_ext
                if sigma_new <= lam or sigma_new == 0.0:
                    join_after = lam_hat_new
                else:
                    join_after = lam / sigma_new * lam_hat_new
                gain = leave + (join_after - thpt[q])
                if gain > best_gain:
                    best_gain = gain
                    best_q = q
            if best_q >= 0 and best_gain > 0.0:
                # Apply Allocation.move's deltas in place (its ``half`` is
                # the grouped ``w_self + w_ext / 2.0``).
                half = w_self + half_ext
                w_q = acc[best_q] if stamp[best_q] == epoch else 0.0
                sigma_p = sigma[p] + (-w_self - eta * (w_ext - w_p) + eta_minus_one * w_p)
                sigma[p] = sigma_p
                lam_hat_p = lam_hat[p] - half
                lam_hat[p] = lam_hat_p
                sigma_q = sigma[best_q] + (w_self + eta * (w_ext - w_q) + one_minus_eta * w_q)
                sigma[best_q] = sigma_q
                lam_hat_q = lam_hat[best_q] + half
                lam_hat[best_q] = lam_hat_q
                if sigma_p <= lam or sigma_p == 0.0:
                    thpt[p] = lam_hat_p
                else:
                    thpt[p] = lam / sigma_p * lam_hat_p
                if sigma_q <= lam or sigma_q == 0.0:
                    thpt[best_q] = lam_hat_q
                else:
                    thpt[best_q] = lam / sigma_q * lam_hat_q
                comm[i] = best_q
                counts[p] -= 1
                counts[best_q] += 1
                sweep_gain += best_gain
                moves += 1
        if sweep_gain < epsilon:
            break
    flat.epoch = epoch
    return sweeps, moves


# ======================================================================
# A-TxAllo (Algorithm 2) on the live graph
# ======================================================================
def a_txallo_flat(
    alloc: Allocation, touched: Iterable[Node], epsilon: float
) -> Tuple[int, int, int, int, bool]:
    """Algorithm 2 on the allocation's own state, mutating ``alloc`` in place.

    Returns ``(new_nodes, swept_nodes, sweeps, moves, converged)`` —
    ``converged`` is ``False`` when the run exhausted the sweep cap
    before the per-sweep gain dropped below ``epsilon``.

    The run reads only the touched neighbourhoods, so it sweeps the live
    adjacency rows (``alloc.graph.neighbours``) and the live mapping
    (``alloc._shard_of``) in place: no freeze, no copied view.  The graph
    cannot change during a run, and :meth:`Allocation.assign` /
    :meth:`Allocation.move` keep the mapping current.  Per-node ``w_ext``
    is summed left to right over the row in dict order, skipping the
    self-loop — the reference's own float sequence — and assignments and
    moves pass the accumulated weights, so the cache arithmetic is the
    reference's and the run is byte-identical to ``a_txallo_reference``.
    """
    params = alloc.params
    k = params.k
    eta = params.eta
    lam = params.lam
    num_comms = alloc.num_communities

    hat_v: List[Node] = sorted(set(touched))
    nv = len(hat_v)
    neighbours = alloc.graph.neighbours
    shard_of = alloc._shard_of
    # Raises GraphError for an unknown account before anything mutates.
    rows = [neighbours(v) for v in hat_v]

    # Left to right in row order, skipping the self-loop: the
    # reference's accumulation (sum() rounds differently from 3.12 on).
    self_w = []
    ext_w = []
    for v, row in zip(hat_v, rows):
        self_w.append(row.get(v, 0.0))
        e = 0.0
        for u, w in row.items():
            if u != v:
                e += w
        ext_w.append(e)

    acc = [0.0] * num_comms
    stamp = [0] * num_comms
    epoch = 0

    def scan(s: int) -> List[int]:
        nonlocal epoch
        epoch += 1
        touched_comms: List[int] = []
        v = hat_v[s]
        for u, w in rows[s].items():
            if u == v:
                continue
            c = shard_of.get(u)
            if c is None:
                continue  # unassigned neighbour carries no shard weight
            if stamp[c] == epoch:
                acc[c] += w
            else:
                stamp[c] = epoch
                acc[c] = w
                touched_comms.append(c)
        return touched_comms

    # Assign/move below pass *minimal* weight triples — only the source
    # and destination communities are ever read (``by_shard.get(p)`` /
    # ``.get(q)``), and the values are the same stamped accumulator reads
    # the full per-community dict would carry, so the cache arithmetic is
    # bit-identical to the reference's ``neighbour_shard_weights``.
    def join_gain(q: int, w_q: float, w_self: float, w_ext: float) -> float:
        sigma_q = alloc.sigma[q]
        lam_hat_q = alloc.lam_hat[q]
        sigma_new = sigma_q + w_self + eta * (w_ext - w_q) + (1.0 - eta) * w_q
        lam_hat_new = lam_hat_q + w_self + w_ext / 2.0
        if sigma_q <= lam or sigma_q == 0.0:
            before = lam_hat_q
        else:
            before = lam / sigma_q * lam_hat_q
        if sigma_new <= lam or sigma_new == 0.0:
            after = lam_hat_new
        else:
            after = lam / sigma_new * lam_hat_new
        return after - before

    # --- Phase 1: brand-new accounts (Algorithm 2, lines 1-8) -----------
    new_slots = [s for s in range(nv) if hat_v[s] not in shard_of]
    for s in new_slots:
        touched_comms = scan(s)
        w_self = self_w[s]
        w_ext = ext_w[s]
        candidates: Iterable[int] = sorted(
            c for c in touched_comms if c < k and acc[c] > 0.0
        )
        if not candidates:
            candidates = range(k)
        best_q = -1
        best_gain = -float("inf")
        for q in candidates:
            w_q = acc[q] if stamp[q] == epoch else 0.0
            gain = join_gain(q, w_q, w_self, w_ext)
            if gain > best_gain:
                best_gain = gain
                best_q = q
        w_q = acc[best_q] if stamp[best_q] == epoch else 0.0
        alloc.assign(hat_v[s], best_q, weights=({best_q: w_q}, w_self, w_ext))

    # --- Phase 2: optimise the touched set (lines 9-17) -----------------
    sigma = alloc.sigma
    lam_hat = alloc.lam_hat
    one_minus_eta = 1.0 - eta
    eta_minus_one = eta - 1.0
    neg_inf = -float("inf")
    thpt = [0.0] * num_comms
    for c in range(num_comms):
        sigma_c = sigma[c]
        if sigma_c <= lam or sigma_c == 0.0:
            thpt[c] = lam_hat[c]
        else:
            thpt[c] = lam / sigma_c * lam_hat[c]

    touched_comms: List[int] = []
    sweeps = 0
    moves = 0
    converged = False
    while sweeps < _ADAPTIVE_MAX_SWEEPS:
        sweeps += 1
        sweep_gain = 0.0
        for s in range(nv):
            v = hat_v[s]
            p = shard_of[v]
            epoch += 1
            del touched_comms[:]
            append = touched_comms.append
            for u, w in rows[s].items():
                if u == v:
                    continue
                c = shard_of.get(u)
                if c is None:
                    continue  # unassigned neighbour carries no shard weight
                if stamp[c] == epoch:
                    acc[c] += w
                else:
                    stamp[c] = epoch
                    acc[c] = w
                    append(c)
            if not touched_comms or (
                len(touched_comms) == 1 and touched_comms[0] == p
            ):
                continue
            touched_comms.sort()
            w_self = self_w[s]
            w_ext = ext_w[s]
            half_ext = w_ext / 2.0
            w_p = acc[p] if stamp[p] == epoch else 0.0
            sigma_new = sigma[p] - w_self - eta * (w_ext - w_p) + eta_minus_one * w_p
            lam_hat_new = lam_hat[p] - w_self - half_ext
            if sigma_new <= lam or sigma_new == 0.0:
                after = lam_hat_new
            else:
                after = lam / sigma_new * lam_hat_new
            leave = after - thpt[p]
            best_q = -1
            best_gain = neg_inf
            for q in touched_comms:
                if q == p:
                    continue
                w_q = acc[q]
                sigma_new = sigma[q] + w_self + eta * (w_ext - w_q) + one_minus_eta * w_q
                lam_hat_new = lam_hat[q] + w_self + half_ext
                if sigma_new <= lam or sigma_new == 0.0:
                    join_after = lam_hat_new
                else:
                    join_after = lam / sigma_new * lam_hat_new
                gain = leave + (join_after - thpt[q])
                if gain > best_gain:
                    best_gain = gain
                    best_q = q
            if best_q >= 0 and best_gain > 0.0:
                alloc.move(v, best_q, weights=({p: w_p, best_q: acc[best_q]}, w_self, w_ext))
                sigma_p = sigma[p]
                if sigma_p <= lam or sigma_p == 0.0:
                    thpt[p] = lam_hat[p]
                else:
                    thpt[p] = lam / sigma_p * lam_hat[p]
                sigma_q = sigma[best_q]
                if sigma_q <= lam or sigma_q == 0.0:
                    thpt[best_q] = lam_hat[best_q]
                else:
                    thpt[best_q] = lam / sigma_q * lam_hat[best_q]
                sweep_gain += best_gain
                moves += 1
        if sweep_gain < epsilon:
            converged = True
            break

    return len(new_slots), nv, sweeps, moves, converged
