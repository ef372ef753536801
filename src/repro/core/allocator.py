"""The unified allocator protocol — one allocation interface for every method.

The paper's whole evaluation (Section VI-B) is a comparison harness:
TxAllo against hash allocation, METIS-style partitioning and the online
Shard Scheduler.  This module gives all of them a single two-level
shape, so the chain simulators, the figure runners and the CLI dispatch
through one seam instead of per-method special cases:

* :class:`StaticAllocator` — one-shot methods that read a transaction
  graph and emit a complete account→shard mapping (G-TxAllo, METIS,
  hash/prefix allocation).  ``allocate(graph, params) -> mapping``.
* :class:`OnlineAllocator` — stateful methods that watch blocks arrive
  and answer routing queries while the system runs
  (:class:`~repro.core.controller.TxAlloController`, the Shard
  Scheduler, and any static mapping frozen into a
  :class:`FixedMappingAllocator`).  ``observe_block(block)`` ingests one
  block and may update the allocation; ``shard_of(account)`` routes.

Fallback routing is part of the protocol: ``shard_of`` is **total**.  An
account the allocator has never seen is routed deterministically — by
``SHA256(address) mod k`` for static mappings
(:func:`hash_fallback_shard`), or by the allocator's own policy for
online methods (the TxAllo controller co-locates an unassigned account
with its heaviest assigned neighbourhood).  Routing unknown accounts to
a hard-coded shard 0 — the old ``LiveShardedNetwork`` behaviour — is
exactly the silent load skew this protocol removes.

Static methods ride in the online world through
:meth:`StaticAllocator.as_online`, which allocates once over a graph of
the seed history and freezes the result; online methods ride in the
analytic world through :meth:`OnlineAllocator.run_stream`, which
replays a chronological stream with processing-time workload accounting
(the Shard Scheduler's native accounting, generalised).

The string-keyed registry over these protocols lives in
:mod:`repro.allocators` (``get("metis")``, ``register(...)``,
``available()``); adding a new allocation method is one registration,
not a four-layer surgery.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.allocation import capped_throughput
from repro.core.graph import Node, TransactionGraph
from repro.core.metrics import ordered_sum
from repro.core.params import TxAlloParams
from repro.errors import AllocationError


def hash_fallback_shard(account: Node, k: int) -> int:
    """The protocol's default fallback: ``SHA256(address) mod k``.

    Deterministic, stateless and uniform — the same rule deployed
    protocols use for *all* routing (Section II-C), demoted here to a
    fallback for accounts the allocator has not placed yet.
    """
    # Imported lazily: core must stay importable before repro.baselines
    # (whose hash module is the single source of the digest rule).
    from repro.baselines.hash_allocation import hash_shard

    return hash_shard(account, k)


# ----------------------------------------------------------------------
# Protocol results
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AllocationUpdate:
    """A visible allocation change reported by ``observe_block``.

    ``kind`` names the mechanism (``"global"``, ``"adaptive"``,
    ``"migration"``, ...); ``moves`` counts accounts that changed shard.
    :class:`~repro.core.controller.UpdateEvent` is a richer drop-in with
    the same ``kind`` attribute.
    """

    kind: str
    moves: int = 0


@dataclasses.dataclass
class OnlineRunResult:
    """Processing-time accounting of one chronological stream replay.

    Loads are charged when each transaction is processed, against the
    mapping *at that moment* — so a migrating account's traffic is
    smeared over the shards it visited, which is the Shard Scheduler's
    native accounting (paper Section VI-B1) generalised to any
    :class:`OnlineAllocator`.
    """

    mapping: Dict[Node, int]
    shard_loads: Tuple[float, ...]
    shard_lam_hat: Tuple[float, ...]
    num_transactions: int
    num_cross_shard: int

    @property
    def cross_shard_ratio(self) -> float:
        if self.num_transactions == 0:
            return 0.0
        return self.num_cross_shard / self.num_transactions

    def throughput(self, lam: float) -> float:
        """Capacity-capped system throughput over the accumulated loads."""
        return ordered_sum(
            capped_throughput(s, lh, lam)
            for s, lh in zip(self.shard_loads, self.shard_lam_hat)
        )


# ----------------------------------------------------------------------
# The two protocol levels
# ----------------------------------------------------------------------
class AllocatorBase:
    """Common surface of every allocator: a name plus metadata."""

    #: Registry-style identifier (``"metis"``, ``"txallo_online"``, ...).
    name: str = "allocator"
    #: ``"static"`` or ``"online"``.
    kind: str = "?"

    @property
    def metadata(self) -> Dict[str, str]:
        doc = (self.__doc__ or "").strip()
        return {
            "name": self.name,
            "kind": self.kind,
            "description": doc.splitlines()[0] if doc else "",
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"


class StaticAllocator(AllocatorBase):
    """A one-shot allocator: graph in, complete account→shard mapping out."""

    kind = "static"

    def allocate(
        self, graph: TransactionGraph, params: TxAlloParams
    ) -> Dict[Node, int]:
        """Compute a mapping covering every node of ``graph``."""
        raise NotImplementedError

    def default_shard(self, account: Node, k: int) -> int:
        """Fallback shard for accounts outside the computed mapping."""
        return hash_fallback_shard(account, k)

    def as_online(
        self,
        params: TxAlloParams,
        *,
        seed_transactions: Optional[Iterable[Sequence[Node]]] = None,
    ) -> "FixedMappingAllocator":
        """Freeze one allocation over seed history into the online protocol.

        Allocates once over a graph it builds from ``seed_transactions``
        and wraps the mapping so a live network can drive this method
        tick by tick.  Accounts that later appear outside the seed
        history route via :meth:`default_shard`.
        """
        graph = TransactionGraph()
        if seed_transactions is not None:
            for accounts in seed_transactions:
                graph.add_transaction(accounts)
        mapping = self.allocate(graph, params)
        return FixedMappingAllocator(
            mapping, params, name=self.name, fallback=self.default_shard
        )


class FunctionAllocator(StaticAllocator):
    """Adapter: any ``(graph, params) -> mapping`` callable as an allocator."""

    def __init__(
        self,
        name: str,
        fn: Callable[[TransactionGraph, TxAlloParams], Dict[Node, int]],
        *,
        fallback: Optional[Callable[[Node, int], int]] = None,
        description: str = "",
    ) -> None:
        self.name = name
        self._fn = fn
        self._fallback = fallback
        self._description = description

    @property
    def metadata(self) -> Dict[str, str]:
        meta = super().metadata
        if self._description:
            meta["description"] = self._description
        return meta

    def allocate(
        self, graph: TransactionGraph, params: TxAlloParams
    ) -> Dict[Node, int]:
        return self._fn(graph, params)

    def default_shard(self, account: Node, k: int) -> int:
        if self._fallback is not None:
            return self._fallback(account, k)
        return hash_fallback_shard(account, k)


class OnlineAllocator(AllocatorBase):
    """A stateful allocator driven block by block while the system runs.

    Implementations must set :attr:`params` and provide
    :meth:`observe_block`, :meth:`shard_of` and :meth:`mapping`.
    ``shard_of`` must be *total*: every account gets a deterministic
    shard, placed or not (see the module docstring on fallbacks).
    """

    kind = "online"
    #: The hyperparameters the allocator was built for (k, eta, ...).
    params: TxAlloParams

    def observe_block(
        self, transactions: Iterable[Sequence[Node]]
    ) -> Optional[AllocationUpdate]:
        """Ingest one block of account-sets; may update the allocation.

        Returns an object with a ``kind`` attribute when the allocation
        visibly changed (``AllocationUpdate`` or richer), else ``None``.
        """
        raise NotImplementedError

    def shard_of(self, account: Node) -> int:
        """Current shard of ``account`` — total, never raises."""
        raise NotImplementedError

    def mapping(self) -> Dict[Node, int]:
        """Snapshot of the accounts the allocator has explicitly placed."""
        raise NotImplementedError

    @property
    def degraded(self) -> bool:
        """True while the allocator serves a frozen last-good mapping.

        Part of the degradation-reporting surface of the protocol: the
        live network stamps this onto every :class:`TickStats`.  Only
        supervised wrappers (:class:`repro.core.resilience.ResilientAllocator`)
        ever degrade; plain allocators are always healthy.
        """
        return False

    @property
    def resilience_stats(self) -> Optional[Dict[str, int]]:
        """Supervision counters (failures/retries/trips/...), or ``None``.

        ``None`` for unsupervised allocators.
        """
        return None

    def run_stream(
        self, transactions: Iterable[Sequence[Node]]
    ) -> OnlineRunResult:
        """Replay a chronological stream with processing-time accounting.

        Each transaction is observed as its own one-transaction block
        (placement/migration happens first), then charged against the
        mapping of that moment: cost 1 intra, ``η`` per involved shard
        cross; throughput credit 1 intra, ``1/m`` per shard cross — the
        workload model of Section III-A at processing time.
        """
        k, eta = self.params.k, self.params.eta
        loads = [0.0] * k
        lam_hat = [0.0] * k
        total = 0
        cross = 0
        for accounts in transactions:
            unique = sorted(set(accounts))
            self.observe_block([unique])
            shards = {self.shard_of(a) for a in unique}
            total += 1
            m = len(shards)
            if m == 1:
                (i,) = shards
                loads[i] += 1.0
                lam_hat[i] += 1.0
            else:
                cross += 1
                share = 1.0 / m
                for i in shards:
                    loads[i] += eta
                    lam_hat[i] += share
        return OnlineRunResult(
            mapping=self.mapping(),
            shard_loads=tuple(loads),
            shard_lam_hat=tuple(lam_hat),
            num_transactions=total,
            num_cross_shard=cross,
        )


class FixedMappingAllocator(OnlineAllocator):
    """A static mapping frozen into the online protocol.

    ``observe_block`` is a no-op (the mapping never changes); unknown
    accounts route through the protocol's hash fallback (or the wrapped
    static method's own ``default_shard``), so a live network can run a
    static allocation without the old shard-0 skew.

    The fallback is called once per distinct account: ``shard_of``
    memoises its answer, which is exact because the protocol requires a
    deterministic, stateless fallback.  :meth:`mapping` reports only the
    explicit mapping, never memoised fallback routes — so the live forms
    of the per-account rules (hash, prefix), built with an empty mapping
    and their rule as the fallback, report ``{}``.
    """

    def __init__(
        self,
        mapping: Mapping[Node, int],
        params: TxAlloParams,
        *,
        name: str = "static-mapping",
        fallback: Optional[Callable[[Node, int], int]] = None,
    ) -> None:
        self.params = params
        self.name = name
        self._mapping = dict(mapping)
        self._fallback = fallback or hash_fallback_shard
        # Every route answered so far: the explicit mapping plus memoised
        # fallback shards.
        self._routes = dict(self._mapping)
        for account, shard in self._mapping.items():
            if not 0 <= shard < params.k:
                raise AllocationError(
                    f"account {account!r} mapped to invalid shard {shard!r} "
                    f"(k={params.k})"
                )

    def observe_block(
        self, transactions: Iterable[Sequence[Node]]
    ) -> Optional[AllocationUpdate]:
        return None

    def shard_of(self, account: Node) -> int:
        shard = self._routes.get(account)
        if shard is None:
            shard = self._routes[account] = self._fallback(account, self.params.k)
        return shard

    def mapping(self) -> Dict[Node, int]:
        return dict(self._mapping)


def ensure_online(allocator, params: TxAlloParams) -> OnlineAllocator:
    """Coerce ``allocator`` into the online protocol.

    * an :class:`OnlineAllocator` passes through untouched;
    * a plain account→shard mapping is frozen into a
      :class:`FixedMappingAllocator` (hash fallback for unknowns);
    * a bare :class:`StaticAllocator` is rejected — it needs a graph to
      allocate from, so call :meth:`StaticAllocator.as_online` (or use
      :func:`repro.allocators.get_online`) first.
    """
    if isinstance(allocator, OnlineAllocator):
        return allocator
    if isinstance(allocator, StaticAllocator):
        raise AllocationError(
            f"static allocator {allocator.name!r} needs a graph to allocate "
            "from; call .as_online(params, seed_transactions=...) or "
            "repro.allocators.get_online(...) before handing it to the live "
            "network"
        )
    if isinstance(allocator, Mapping):
        return FixedMappingAllocator(allocator, params)
    raise AllocationError(
        f"cannot adapt {type(allocator).__name__!s} to the allocator "
        "protocol; expected an OnlineAllocator or an account->shard mapping"
    )
