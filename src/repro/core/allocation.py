"""Account-shard mapping with incrementally maintained workloads.

:class:`Allocation` is the mutable state shared by G-TxAllo, A-TxAllo and
the baselines.  It keeps, per community ``i``:

* ``sigma[i]``   — the workload ``σ_i`` of Eq. (5):
  ``σ_i = (intra weight incl. self-loops) + η · (cut weight from i's side)``;
* ``lam_hat[i]`` — the capacity-unconstrained throughput ``Λ̂_i``:
  ``Λ̂_i = (intra weight) + (cut weight) / 2``;
* ``members[i]`` — the account set of the community.

Moving a node updates only the two affected communities (Lemma 1), in time
proportional to the node's degree.  The caches can always be re-derived from
scratch with :meth:`Allocation.recompute`, which the test-suite uses to prove
the incremental deltas exact.

During G-TxAllo's initialisation the number of communities may exceed the
shard count ``k`` (Louvain produces ``l > k`` communities); communities with
index ``>= k`` are temporary and are emptied before :meth:`truncate` reduces
the mapping to exactly ``k`` shards.

Unassigned nodes
----------------
A node present in the graph but not yet in the mapping is treated as
*external*: every edge from an assigned node to it counts as cut weight.
Assigning it later with :meth:`assign` applies exactly the paper's join
delta, so caches stay consistent (see ``tests/test_allocation.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.graph import Node, TransactionGraph, pair_count
from repro.core.params import TxAlloParams
from repro.errors import AllocationError


def capped_throughput(sigma: float, lam_hat: float, lam: float) -> float:
    """Per-shard throughput ``Λ_i`` of Eq. (3).

    ``Λ_i = Λ̂_i`` when the workload fits the capacity (``σ_i <= λ``),
    otherwise only the fraction ``λ / σ_i`` of the workload is processed.
    """
    if sigma <= lam or sigma == 0.0:
        return lam_hat
    return lam / sigma * lam_hat


class Allocation:
    """A mutable account→community mapping over a transaction graph."""

    __slots__ = (
        "graph", "params", "_shard_of", "sigma", "lam_hat", "members", "mutation_count"
    )

    def __init__(
        self,
        graph: TransactionGraph,
        params: TxAlloParams,
        num_communities: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.params = params
        n = params.k if num_communities is None else num_communities
        if n < params.k:
            raise AllocationError(
                f"cannot create {n} communities for {params.k} shards"
            )
        self._shard_of: Dict[Node, int] = {}
        self.sigma: List[float] = [0.0] * n
        self.lam_hat: List[float] = [0.0] * n
        self.members: List[Set[Node]] = [set() for _ in range(n)]
        # Bumped by every mapping mutation (assign/move/truncate).  It
        # feeds the controller's idle-refresh mark: a scheduled G-TxAllo
        # is reused only while neither the graph nor this count changed
        # (a bare count of assigned accounts cannot see a move).
        self.mutation_count: int = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_partition(
        cls,
        graph: TransactionGraph,
        params: TxAlloParams,
        partition: Dict[Node, int],
        num_communities: Optional[int] = None,
    ) -> "Allocation":
        """Build an allocation (and its caches) from a complete partition.

        ``partition`` maps every graph node to a community index.  Caches
        are computed in a single O(E) pass.
        """
        if num_communities is None:
            num_communities = max(params.k, 1 + max(partition.values(), default=-1))
        alloc = cls(graph, params, num_communities)
        shard_of = alloc._shard_of
        for v in graph.nodes():
            try:
                i = partition[v]
            except KeyError:
                raise AllocationError(f"partition misses account {v!r}") from None
            if not 0 <= i < num_communities:
                raise AllocationError(
                    f"community index {i} of account {v!r} outside [0, {num_communities})"
                )
            shard_of[v] = i
            alloc.members[i].add(v)
        alloc._recompute_caches()
        return alloc

    @classmethod
    def _from_compiled(
        cls,
        graph: TransactionGraph,
        params: TxAlloParams,
        mapping: Dict[Node, int],
        sigma: List[float],
        lam_hat: List[float],
    ) -> "Allocation":
        """Adopt the state produced by the flat sweep engine.

        ``mapping`` must cover every graph node with communities in
        ``[0, len(sigma))`` and ``sigma`` / ``lam_hat`` must be the caches
        the engine maintained for exactly that mapping — the engine's
        parity contract (see :mod:`repro.core.engine`) guarantees both.
        """
        alloc = cls(graph, params, len(sigma))
        shard_of = alloc._shard_of
        members = alloc.members
        for v, c in mapping.items():
            shard_of[v] = c
            members[c].add(v)
        alloc.sigma = list(sigma)
        alloc.lam_hat = list(lam_hat)
        return alloc

    def recompute(self) -> Tuple[List[float], List[float]]:
        """Return freshly computed ``(sigma, lam_hat)`` — side-effect free.

        One O(E) pass over the graph; the allocation's own caches are
        left untouched.  Used by tests and by :meth:`validate` to check
        cache integrity, and by :meth:`_recompute_caches` to install the
        result.
        """
        eta = self.params.eta
        n = len(self.sigma)
        intra = [0.0] * n
        cut = [0.0] * n
        shard_of = self._shard_of
        for u, v, w in self.graph.edges():
            iu = shard_of.get(u)
            if u == v:
                if iu is not None:
                    intra[iu] += w
                continue
            iv = shard_of.get(v)
            if iu is not None and iu == iv:
                intra[iu] += w
            else:
                if iu is not None:
                    cut[iu] += w
                if iv is not None:
                    cut[iv] += w
        sigma = [intra[i] + eta * cut[i] for i in range(n)]
        lam_hat = [intra[i] + cut[i] / 2.0 for i in range(n)]
        return sigma, lam_hat

    def _recompute_caches(self) -> None:
        """Install a fresh O(E) rebuild of ``sigma`` and ``lam_hat``."""
        self.sigma, self.lam_hat = self.recompute()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_communities(self) -> int:
        return len(self.sigma)

    def shard_of(self, v: Node) -> int:
        """Community of ``v``; raises if unassigned (completeness check)."""
        try:
            return self._shard_of[v]
        except KeyError:
            raise AllocationError(f"account {v!r} is not allocated to any shard") from None

    def shard_of_or_none(self, v: Node) -> Optional[int]:
        """Community of ``v`` or ``None`` when ``v`` is unassigned."""
        return self._shard_of.get(v)

    def is_assigned(self, v: Node) -> bool:
        return v in self._shard_of

    def __len__(self) -> int:
        return len(self._shard_of)

    def mapping(self) -> Dict[Node, int]:
        """A snapshot copy of the account→community dictionary."""
        return dict(self._shard_of)

    def community_sizes(self) -> List[int]:
        return [len(m) for m in self.members]

    # ------------------------------------------------------------------
    # Neighbourhood summaries (the inputs of Eqs. 6-9)
    # ------------------------------------------------------------------
    def neighbour_shard_weights(self, v: Node) -> Tuple[Dict[int, float], float, float]:
        """Summarise ``v``'s incident weights by community.

        Returns ``(by_shard, w_self, w_ext)`` where ``by_shard[j]`` is
        ``w{v, V_j}`` restricted to *assigned* neighbours, ``w_self`` is the
        self-loop weight and ``w_ext`` is ``w{v, V/v}`` over **all**
        neighbours (assigned or not) — exactly the quantities the paper's
        throughput deltas consume.
        """
        by_shard: Dict[int, float] = {}
        w_self = 0.0
        w_ext = 0.0
        shard_of = self._shard_of
        for u, w in self.graph.neighbours(v).items():
            if u == v:
                w_self = w
                continue
            w_ext += w
            j = shard_of.get(u)
            if j is not None:
                if j in by_shard:
                    by_shard[j] += w
                else:
                    by_shard[j] = w
        return by_shard, w_self, w_ext

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, v: Node, q: int, *, weights=None) -> None:
        """Assign the unassigned node ``v`` to community ``q``.

        Applies the paper's join delta (Section V-B): self-loops become
        intra workload, edges to ``V_q`` flip from cut to intra, all other
        incident edges become cut from ``q``'s side.  ``weights`` may carry
        a precomputed :meth:`neighbour_shard_weights` triple to avoid a
        second neighbourhood scan.
        """
        if v in self._shard_of:
            raise AllocationError(f"account {v!r} is already allocated; use move()")
        if not 0 <= q < len(self.sigma):
            raise AllocationError(f"community {q} out of range")
        by_shard, w_self, w_ext = (
            weights if weights is not None else self.neighbour_shard_weights(v)
        )
        eta = self.params.eta
        w_q = by_shard.get(q, 0.0)
        # The join delta is the same as for a paper-style move: edges v-V_q
        # flip from eta-cut to intra ((1-eta)*w_q), the self-loop becomes
        # intra workload, and v's remaining incident edges become cut from
        # q's side (eta each).
        self.sigma[q] += w_self + eta * (w_ext - w_q) + (1.0 - eta) * w_q
        self.lam_hat[q] += w_self + w_ext / 2.0
        self._shard_of[v] = q
        self.members[q].add(v)
        self.mutation_count += 1

    def move(self, v: Node, q: int, *, weights=None) -> None:
        """Move the assigned node ``v`` to community ``q`` (Section V-B).

        Only the source and destination caches change (Lemma 1).
        """
        p = self.shard_of(v)
        if p == q:
            return
        if not 0 <= q < len(self.sigma):
            raise AllocationError(f"community {q} out of range")
        by_shard, w_self, w_ext = (
            weights if weights is not None else self.neighbour_shard_weights(v)
        )
        eta = self.params.eta
        w_p = by_shard.get(p, 0.0)
        w_q = by_shard.get(q, 0.0)
        half = w_self + w_ext / 2.0
        # Leave p: sigma'_p = sigma_p - w{v,v} - eta*w{v,V/V_p} + (eta-1)*w{v,V_p/v}
        self.sigma[p] += -w_self - eta * (w_ext - w_p) + (eta - 1.0) * w_p
        self.lam_hat[p] -= half
        # Join q: sigma'_q = sigma_q + w{v,v} + eta*(w{v,V/V_q}-w{v,v}) + (1-eta)*w{v,V_q}
        self.sigma[q] += w_self + eta * (w_ext - w_q) + (1.0 - eta) * w_q
        self.lam_hat[q] += half
        self._shard_of[v] = q
        self.members[p].discard(v)
        self.members[q].add(v)
        self.mutation_count += 1

    def ingest_transaction(self, accounts: Iterable[Node]) -> None:
        """Update caches for a transaction already added to the graph.

        Mirrors :meth:`TransactionGraph.add_transaction`'s pair expansion.
        Call this *after* the graph itself was updated so that subsequent
        moves see consistent neighbourhoods.
        """
        unique = sorted(set(accounts))
        if len(unique) == 1:
            v = unique[0]
            i = self._shard_of.get(v)
            if i is not None:
                self.sigma[i] += 1.0
                self.lam_hat[i] += 1.0
            return
        share = 1.0 / pair_count(len(unique))
        for a in range(len(unique)):
            for b in range(a + 1, len(unique)):
                self._ingest_edge(unique[a], unique[b], share)

    def _ingest_edge(self, u: Node, v: Node, w: float) -> None:
        """Account for a new pair-edge of weight ``w`` between ``u != v``."""
        eta = self.params.eta
        iu = self._shard_of.get(u)
        iv = self._shard_of.get(v)
        if iu is not None and iu == iv:
            self.sigma[iu] += w
            self.lam_hat[iu] += w
            return
        if iu is not None:
            self.sigma[iu] += eta * w
            self.lam_hat[iu] += w / 2.0
        if iv is not None:
            self.sigma[iv] += eta * w
            self.lam_hat[iv] += w / 2.0

    def truncate(self, k: Optional[int] = None) -> None:
        """Drop trailing communities, which must be empty.

        G-TxAllo calls this once its initialisation phase has absorbed all
        small Louvain communities into the top ``k``.
        """
        k = self.params.k if k is None else k
        for i in range(k, len(self.sigma)):
            if self.members[i]:
                raise AllocationError(
                    f"cannot truncate: community {i} still holds {len(self.members[i])} accounts"
                )
        del self.sigma[k:]
        del self.lam_hat[k:]
        del self.members[k:]
        self.mutation_count += 1

    # ------------------------------------------------------------------
    # Throughput (Eqs. 2-3)
    # ------------------------------------------------------------------
    def community_throughput(self, i: int) -> float:
        """``Λ_i`` with the capacity cap of Eq. (3)."""
        return capped_throughput(self.sigma[i], self.lam_hat[i], self.params.lam)

    def total_throughput(self) -> float:
        """System throughput ``Λ = Σ_i Λ_i`` (Eq. 2)."""
        lam = self.params.lam
        # Left to right, never sum(): it is compensated from Python 3.12.
        total = 0.0
        for s, lh in zip(self.sigma, self.lam_hat):
            total += capped_throughput(s, lh, lam)
        return total

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self, *, check_caches: bool = True, tolerance: float = 1e-6) -> None:
        """Check Definition 1 (uniqueness + completeness) and cache integrity.

        Uniqueness is structural (a dict key maps to one community); this
        verifies membership sets agree with the dict, that every graph node
        is assigned, and — when ``check_caches`` — that the incremental
        ``sigma`` / ``lam_hat`` agree with an O(E) recomputation.
        """
        for v in self.graph.nodes():
            if v not in self._shard_of:
                raise AllocationError(f"completeness violated: account {v!r} unassigned")
        total_members = 0
        for i, member_set in enumerate(self.members):
            total_members += len(member_set)
            for v in member_set:
                if self._shard_of.get(v) != i:
                    raise AllocationError(
                        f"uniqueness violated: {v!r} in members[{i}] but mapped to "
                        f"{self._shard_of.get(v)!r}"
                    )
        if total_members != len(self._shard_of):
            raise AllocationError(
                f"membership sets hold {total_members} accounts but the mapping has "
                f"{len(self._shard_of)}"
            )
        if check_caches:
            fresh_sigma, fresh_lam = self.recompute()
            scale = max(1.0, self.graph.total_weight)
            for i in range(len(self.sigma)):
                if abs(self.sigma[i] - fresh_sigma[i]) > tolerance * scale:
                    raise AllocationError(
                        f"sigma[{i}] cache drift: {self.sigma[i]!r} vs {fresh_sigma[i]!r}"
                    )
                if abs(self.lam_hat[i] - fresh_lam[i]) > tolerance * scale:
                    raise AllocationError(
                        f"lam_hat[{i}] cache drift: {self.lam_hat[i]!r} vs {fresh_lam[i]!r}"
                    )

    def copy(self) -> "Allocation":
        """Deep copy sharing the (immutable from our side) graph object."""
        clone = Allocation(self.graph, self.params, len(self.sigma))
        clone._shard_of = dict(self._shard_of)
        clone.sigma = self.sigma[:]
        clone.lam_hat = self.lam_hat[:]
        clone.members = [set(m) for m in self.members]
        clone.mutation_count = self.mutation_count
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Allocation(communities={self.num_communities}, "
            f"accounts={len(self._shard_of)}, throughput={self.total_throughput():.2f})"
        )
