"""String-keyed allocator registry — every allocation method, one lookup.

This is the integration layer over :mod:`repro.core.allocator`: the
built-in methods of the paper's evaluation (Section VI-B) are registered
here under stable names, and every consumer — the figure runners, the
live network harness, the CLI's ``--methods`` flag — resolves allocators
through :func:`get` / :func:`get_online` instead of string-switching.

Built-in names
--------------
``txallo``
    One-shot G-TxAllo (static).  Its online form (via
    :func:`get_online`) is the dynamic :class:`TxAlloController`.
``txallo_online``
    The τ₁/τ₂ controller itself (online), for direct use.
``random`` (alias ``hash``)
    Chainspace-style ``SHA256(address) mod k`` (static).  A per-account
    rule needs no history, so its online form routes every account by
    the rule itself and reads no seed transactions.
``prefix``
    Monoxide-style hash-prefix allocation (static); online like
    ``random``.
``metis``
    METIS-style multilevel partitioning (static).
``shard_scheduler``
    The online Shard Scheduler of Krol et al. (AFT'21).
``txallo_resilient``
    The τ₁/τ₂ controller under a supervised wrapper
    (:class:`repro.core.resilience.ResilientAllocator`): exception
    isolation, block-clocked retry/backoff, circuit breaker with
    degraded routing (online).

Adding an allocator
-------------------
A new method is one registration, not a four-layer surgery::

    from repro import allocators
    from repro.core.allocator import FunctionAllocator

    allocators.register(
        "round_robin",
        lambda: FunctionAllocator(
            "round_robin",
            lambda graph, params: {
                a: i % params.k
                for i, a in enumerate(graph.nodes_sorted())
            },
        ),
        kind="static",
        description="index-order round robin (toy)",
    )

After that, ``repro.allocators.get("round_robin")`` works everywhere:
``run_method`` / ``sweep`` / ``figure4`` accept the name, ``live_compare``
and the live network drive it through
:meth:`~repro.core.allocator.StaticAllocator.as_online`, and the CLI's
``--methods`` flag admits it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.baselines.hash_allocation import (
    hash_partition,
    prefix_partition,
    prefix_shard,
)
from repro.baselines.metis import metis_partition
from repro.baselines.shard_scheduler import ShardScheduler
from repro.core.allocator import (
    AllocationUpdate,
    AllocatorBase,
    FixedMappingAllocator,
    FunctionAllocator,
    OnlineAllocator,
    OnlineRunResult,
    hash_fallback_shard,
)
from repro.core.controller import TxAlloController
from repro.core.graph import Node, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from repro.core.resilience import ResilientAllocator
from repro.errors import ParameterError


# ----------------------------------------------------------------------
# Online adapter for the Shard Scheduler baseline
# ----------------------------------------------------------------------
class ShardSchedulerAllocator(OnlineAllocator):
    """The online Shard Scheduler (Krol et al.) behind the protocol.

    ``observe_block`` feeds each transaction through the scheduler's
    placement/migration rule; ``seed_transactions`` warm the scheduler
    with history so live comparisons start from the same knowledge as
    the graph methods.
    """

    name = "shard_scheduler"

    def __init__(
        self,
        params: TxAlloParams,
        seed_transactions: Optional[Iterable[Sequence[Node]]] = None,
        *,
        buffer_ratio: float = 1.0,
    ) -> None:
        self.params = params
        self.scheduler = ShardScheduler(params, buffer_ratio=buffer_ratio)
        if seed_transactions is not None:
            for accounts in seed_transactions:
                self.scheduler.observe(accounts)

    def observe_block(self, transactions) -> Optional[AllocationUpdate]:
        before = self.scheduler.num_migrations
        for accounts in transactions:
            self.scheduler.observe(accounts)
        moves = self.scheduler.num_migrations - before
        if moves:
            return AllocationUpdate(kind="migration", moves=moves)
        return None

    def shard_of(self, account: Node) -> int:
        shard = self.scheduler.mapping.get(account)
        if shard is not None:
            return shard
        return hash_fallback_shard(account, self.params.k)

    def mapping(self) -> Dict[Node, int]:
        return dict(self.scheduler.mapping)

    def run_stream(self, transactions) -> OnlineRunResult:
        # The scheduler charges loads internally at processing time —
        # its native accounting is exactly the protocol's contract.  Its
        # counters are cumulative over the instance's lifetime, so on a
        # seed-warmed allocator the pre-stream state must be subtracted:
        # run_stream reports the replayed stream only.
        scheduler = self.scheduler
        loads_before = list(scheduler.loads)
        lam_hat_before = list(scheduler.lam_hat)
        txs_before = scheduler.num_transactions
        cross_before = scheduler.num_cross_shard
        result = scheduler.run(transactions)
        return OnlineRunResult(
            mapping=dict(result.mapping),
            shard_loads=tuple(
                a - b for a, b in zip(result.shard_loads, loads_before)
            ),
            shard_lam_hat=tuple(
                a - b for a, b in zip(result.shard_lam_hat, lam_hat_before)
            ),
            num_transactions=result.num_transactions - txs_before,
            num_cross_shard=result.num_cross_shard - cross_before,
        )


# ----------------------------------------------------------------------
# Registry machinery
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AllocatorEntry:
    """One registered allocation method.

    ``factory`` builds the base form (no-arg for static allocators;
    ``(params, seed_transactions=None)`` keywords for online ones).
    ``online_factory`` — ``(params, seed_transactions=None)`` —
    overrides how :func:`get_online` builds the method's live form and
    builds from the seed history only the view that form reads (e.g.
    ``txallo`` upgrades to the dynamic controller, which ingests the
    seed history into its own graph; ``random`` and ``prefix`` route by
    their rule and read none of it); when absent, static entries freeze
    one allocation over a graph of the seed history via ``as_online``
    and online entries use ``factory`` directly.
    ``eta_independent`` marks mappings that depend only on ``k``, which
    the sweep cache exploits (hash, METIS).
    """

    name: str
    kind: str  # "static" | "online"
    factory: Callable[..., AllocatorBase]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    eta_independent: bool = False
    online_factory: Optional[Callable[..., OnlineAllocator]] = None


_REGISTRY: Dict[str, AllocatorEntry] = {}
_ALIASES: Dict[str, str] = {}


def register(
    name: str,
    factory: Callable[..., AllocatorBase],
    *,
    kind: str,
    description: str = "",
    aliases: Sequence[str] = (),
    eta_independent: bool = False,
    online_factory: Optional[Callable[..., OnlineAllocator]] = None,
    overwrite: bool = False,
) -> AllocatorEntry:
    """Register an allocation method under ``name`` (plus ``aliases``)."""
    if kind not in ("static", "online"):
        raise ParameterError(
            f"allocator kind must be 'static' or 'online', got {kind!r}"
        )
    taken = set(_REGISTRY) | set(_ALIASES)
    clashes = ({name} | set(aliases)) & taken
    if clashes:
        if not overwrite:
            raise ParameterError(
                f"allocator name(s) already registered: {sorted(clashes)}; "
                "pass overwrite=True to replace"
            )
        # Displace whatever owned the clashing names, aliases included,
        # so no stale alias keeps pointing at a removed (or replaced)
        # entry.
        for clash in sorted(clashes):
            if clash in _REGISTRY:
                _remove_entry(clash)
            else:
                _ALIASES.pop(clash, None)
    entry = AllocatorEntry(
        name=name,
        kind=kind,
        factory=factory,
        description=description,
        aliases=tuple(aliases),
        eta_independent=eta_independent,
        online_factory=online_factory,
    )
    _REGISTRY[name] = entry
    for alias in entry.aliases:
        _ALIASES[alias] = name
    return entry


def _remove_entry(canonical: str) -> None:
    entry = _REGISTRY.pop(canonical)
    for alias in entry.aliases:
        # Only drop aliases this entry still owns — an overwrite may
        # have re-pointed one at a different entry.
        if _ALIASES.get(alias) == canonical:
            del _ALIASES[alias]


def unregister(name: str) -> None:
    """Remove a registered allocator (and the aliases it still owns)."""
    _remove_entry(get_entry(name).name)


def available() -> Tuple[str, ...]:
    """Canonical names of every registered allocator, sorted."""
    return tuple(sorted(_REGISTRY))


def get_entry(name: str) -> AllocatorEntry:
    """Resolve ``name`` (or an alias) to its registry entry."""
    key = _ALIASES.get(name, name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ParameterError(
            f"unknown allocator {name!r}; available: "
            f"{', '.join(available())}"
        ) from None


def get(name: str, **kwargs) -> AllocatorBase:
    """Build a fresh allocator instance by registered name.

    Static allocators take no arguments; online ones require
    ``params=...`` (and accept ``seed_transactions=...``).
    """
    return get_entry(name).factory(**kwargs)


def get_online(
    name: str,
    params: TxAlloParams,
    *,
    seed_transactions: Optional[Iterable[Sequence[Node]]] = None,
) -> OnlineAllocator:
    """Build the method's live form, seeded with history.

    Each form builds from ``seed_transactions`` only what it reads: the
    online methods are constructed warm (the controller ingests the seed
    history into a graph it owns, the Shard Scheduler observes it), the
    per-account rules (``random``, ``prefix``) read none of it, and the
    other static methods allocate once over a graph of the seed history
    and are frozen via ``as_online``.  No two calls share state.  The
    result plugs straight into :class:`repro.chain.live.LiveShardedNetwork`.
    """
    entry = get_entry(name)
    if entry.online_factory is not None:
        return entry.online_factory(params, seed_transactions=seed_transactions)
    if entry.kind == "online":
        return entry.factory(params=params, seed_transactions=seed_transactions)
    allocator = entry.factory()
    return allocator.as_online(params, seed_transactions=seed_transactions)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
def _g_txallo_mapping(graph: TransactionGraph, params: TxAlloParams) -> Dict[Node, int]:
    return g_txallo(graph, params).allocation.mapping()


def _controller_factory(
    params: TxAlloParams, seed_transactions=None
) -> TxAlloController:
    return TxAlloController(params, seed_transactions=seed_transactions)


register(
    "txallo",
    lambda: FunctionAllocator(
        "txallo",
        _g_txallo_mapping,
        description="G-TxAllo one-shot global allocation (Algorithm 1)",
    ),
    kind="static",
    description="G-TxAllo one-shot global allocation (Algorithm 1)",
    online_factory=_controller_factory,
)

register(
    "txallo_online",
    _controller_factory,
    kind="online",
    description="dynamic TxAllo controller: A-TxAllo every tau1 blocks, "
    "G-TxAllo every tau2 (Section V-A)",
)


def _rule_online(factory: Callable[[], FunctionAllocator]):
    """The live form of a per-account rule: route every account by it.

    The seed mapping the static form would freeze is the rule applied to
    every seed account, so the live form starts from an empty mapping and
    routes through the rule's own ``default_shard`` (memoised by
    :class:`FixedMappingAllocator`); its ``mapping()`` is ``{}``.
    """

    def online_factory(params: TxAlloParams, seed_transactions=None) -> FixedMappingAllocator:
        rule = factory()
        return FixedMappingAllocator({}, params, name=rule.name, fallback=rule.default_shard)

    return online_factory


def _hash_allocator() -> FunctionAllocator:
    return FunctionAllocator(
        "random",
        lambda graph, params: hash_partition(graph.nodes_sorted(), params.k),
        description="Chainspace-style SHA256(address) mod k",
    )


def _prefix_allocator() -> FunctionAllocator:
    return FunctionAllocator(
        "prefix",
        lambda graph, params: prefix_partition(graph.nodes_sorted(), params.k),
        fallback=prefix_shard,
        description="Monoxide-style hash-prefix allocation",
    )


register(
    "random",
    _hash_allocator,
    kind="static",
    description="hash-based random allocation (Chainspace style)",
    aliases=("hash",),
    eta_independent=True,
    online_factory=_rule_online(_hash_allocator),
)

register(
    "prefix",
    _prefix_allocator,
    kind="static",
    description="hash-prefix allocation (Monoxide style)",
    eta_independent=True,
    online_factory=_rule_online(_prefix_allocator),
)

register(
    "metis",
    lambda: FunctionAllocator(
        "metis",
        lambda graph, params: metis_partition(graph, params.k).mapping,
        description="METIS-style multilevel k-way partitioning",
    ),
    kind="static",
    description="METIS-style multilevel partitioning (graph-based prior work)",
    eta_independent=True,
)

register(
    "shard_scheduler",
    lambda params, seed_transactions=None: ShardSchedulerAllocator(
        params, seed_transactions
    ),
    kind="online",
    description="online Shard Scheduler of Krol et al. (AFT'21)",
)


def _resilient_controller_factory(
    params: TxAlloParams, seed_transactions=None
) -> ResilientAllocator:
    return ResilientAllocator(_controller_factory(params, seed_transactions))


register(
    "txallo_resilient",
    _resilient_controller_factory,
    kind="online",
    description="supervised TxAllo controller: exception isolation, "
    "block-clocked backoff, circuit breaker with degraded routing "
    "(repro.core.resilience)",
)


__all__ = [
    "AllocatorEntry",
    "ShardSchedulerAllocator",
    "available",
    "get",
    "get_entry",
    "get_online",
    "register",
    "unregister",
]
