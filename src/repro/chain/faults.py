"""Deterministic, seeded fault injection for the live network.

Robustness claims are only worth what can be *reproduced*: a fault plan
here is a frozen, seed-derived value object, so the same plan injects
the same faults at the same blocks on every machine — degradation
becomes measurable (TPS retention, recovery blocks) instead of
anecdotal, exactly like the replication-protocol run tables this repo
already follows for performance.

Four fault families, all driven by the tick/block clock (never wall
clock):

* **Allocator raise** (:class:`AllocatorFault`, ``kind="raise"``): the
  allocator's ``observe_block`` raises :class:`~repro.errors.AllocatorError`
  at the given call index — *instead of* reaching the wrapped allocator,
  which therefore never sees the block (the supervisor's buffered replay
  re-delivers it, so no history is lost).
* **Slow update** (``kind="slow"``): the update runs, but the proxy
  reports a simulated duration via ``last_update_seconds`` — the
  supervisor's deadline budget sees a deterministic overrun without any
  actual sleeping.
* **Shard stall** (:class:`ShardStall`): a shard processes zero
  capacity for a window of ticks, then drains its accrued backlog at
  normal capacity (the network simply skips its ``step`` during the
  window; nothing is dropped).
* **Delivery faults** (:class:`DeliveryFault`): the network receives
  duplicated transactions (re-stamped and processed as independent
  arrivals — extra load, no lost invariants) or malformed objects
  (dropped at validation with a counter, never shown to the allocator).

**Determinism contract.**  Like ``shard_of``, fault injection is
miner-reproducible: :meth:`FaultPlan.seeded` derives every fault from
``random.Random(seed)`` at plan-*construction* time; nothing random
happens while the network runs.  :meth:`FaultPlan.standard` is the
fixed plan the resilience benchmark and acceptance tests share (an
allocator raise burst at the first τ₂ refresh plus one 5-tick shard
stall).

Injection order matters: :func:`with_faults` installs the allocator
faults *inside* a :class:`~repro.core.resilience.ResilientAllocator` when
one is supplied (so the supervisor absorbs them) and around the bare
allocator otherwise (so an unsupervised run visibly crashes — the
contrast the tests pin).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chain.types import Transaction
from repro.core.allocator import OnlineAllocator
from repro.core.graph import Node
from repro.core.resilience import ResilientAllocator
from repro.errors import AllocatorError, ParameterError


@dataclasses.dataclass(frozen=True)
class AllocatorFault:
    """One injected allocator failure at an ``observe_block`` call index.

    ``at_block`` is 1-based over the faulty proxy's lifetime (i.e. the
    live stream, drain ticks included).  ``seconds`` is the simulated
    duration reported for ``kind="slow"``.
    """

    at_block: int
    kind: str = "raise"  # "raise" | "slow"
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.at_block < 1:
            raise ParameterError(
                f"allocator fault block index must be >= 1, got {self.at_block!r}"
            )
        if self.kind not in ("raise", "slow"):
            raise ParameterError(
                f"allocator fault kind must be 'raise' or 'slow', got {self.kind!r}"
            )
        if self.seconds < 0:
            raise ParameterError(
                f"simulated duration must be >= 0, got {self.seconds!r}"
            )


@dataclasses.dataclass(frozen=True)
class ShardStall:
    """Shard ``shard`` processes nothing for ticks [start, start+ticks)."""

    shard: int
    start_tick: int
    ticks: int

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ParameterError(f"stall shard must be >= 0, got {self.shard!r}")
        if self.start_tick < 0 or self.ticks < 1:
            raise ParameterError(
                f"stall window must satisfy start >= 0, ticks >= 1; got "
                f"start={self.start_tick!r} ticks={self.ticks!r}"
            )

    def covers(self, shard: int, tick: int) -> bool:
        return (
            shard == self.shard
            and self.start_tick <= tick < self.start_tick + self.ticks
        )


@dataclasses.dataclass(frozen=True)
class DeliveryFault:
    """Duplicate or malformed deliveries appended to one tick's block."""

    tick: int
    kind: str = "duplicate"  # "duplicate" | "malformed"
    count: int = 1

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ParameterError(f"delivery tick must be >= 0, got {self.tick!r}")
        if self.kind not in ("duplicate", "malformed"):
            raise ParameterError(
                f"delivery fault kind must be 'duplicate' or 'malformed', "
                f"got {self.kind!r}"
            )
        if self.count < 1:
            raise ParameterError(f"delivery count must be >= 1, got {self.count!r}")


class MalformedDelivery:
    """A garbage object the delivery layer hands the network.

    Deliberately *not* a :class:`~repro.chain.types.Transaction` (one
    cannot be constructed with empty account sets): the network's
    validation must drop it with a counter, never crash on it and never
    show it to the allocator.
    """

    tx_id = "malformed"
    accounts: frozenset = frozenset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "MalformedDelivery()"


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A frozen schedule of faults; value-equal plans inject identically."""

    allocator_faults: Tuple[AllocatorFault, ...] = ()
    stalls: Tuple[ShardStall, ...] = ()
    delivery_faults: Tuple[DeliveryFault, ...] = ()
    #: Provenance only (the seed :meth:`seeded` derived the plan from).
    seed: Optional[int] = None

    @property
    def empty(self) -> bool:
        return not (self.allocator_faults or self.stalls or self.delivery_faults)

    def allocator_fault_at(self, call_index: int) -> Optional[AllocatorFault]:
        for fault in self.allocator_faults:
            if fault.at_block == call_index:
                return fault
        return None

    def stalled(self, shard: int, tick: int) -> bool:
        return any(stall.covers(shard, tick) for stall in self.stalls)

    def injected_deliveries(
        self, tick: int, block: Sequence[Transaction]
    ) -> List[object]:
        """Extra deliveries for this tick: duplicates of the block's own
        transactions (cycled in order) and/or malformed objects."""
        extras: List[object] = []
        for fault in self.delivery_faults:
            if fault.tick != tick:
                continue
            if fault.kind == "malformed":
                extras.extend(MalformedDelivery() for _ in range(fault.count))
            elif block:
                extras.extend(
                    block[i % len(block)] for i in range(fault.count)
                )
        return extras

    # ------------------------------------------------------------------
    @classmethod
    def standard(
        cls,
        tau2: int,
        *,
        burst: int = 3,
        stall_shard: int = 0,
        stall_start: int = 5,
        stall_ticks: int = 5,
    ) -> "FaultPlan":
        """The fixed plan of the resilience benchmark and acceptance tests.

        An allocator raise *burst* starting at the first τ₂ refresh of
        the live stream (``burst`` consecutive raises — enough to trip a
        default-threshold circuit breaker, not just a single retry) plus
        one ``stall_ticks``-tick stall of ``stall_shard``.
        """
        if tau2 < 1:
            raise ParameterError(f"tau2 must be >= 1, got {tau2!r}")
        faults = tuple(
            AllocatorFault(at_block=tau2 + i) for i in range(burst)
        )
        return cls(
            allocator_faults=faults,
            stalls=(ShardStall(stall_shard, stall_start, stall_ticks),),
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        ticks: int,
        k: int,
        max_raise_bursts: int = 2,
        max_burst: int = 4,
        max_stalls: int = 2,
        max_stall_ticks: int = 6,
        max_delivery_faults: int = 4,
    ) -> "FaultPlan":
        """A deterministic random plan over a ``ticks``-long run.

        All randomness happens here, at construction, from
        ``random.Random(seed)`` — two miners building the plan from the
        same seed inject byte-identical fault schedules.
        """
        if ticks < 1 or k < 1:
            raise ParameterError(
                f"seeded plan needs ticks >= 1 and k >= 1, got "
                f"ticks={ticks!r} k={k!r}"
            )
        rng = random.Random(seed)
        allocator_faults: List[AllocatorFault] = []
        for _ in range(rng.randint(0, max_raise_bursts)):
            start = rng.randint(1, ticks)
            for offset in range(rng.randint(1, max_burst)):
                allocator_faults.append(AllocatorFault(at_block=start + offset))
        if rng.random() < 0.5:
            allocator_faults.append(
                AllocatorFault(
                    at_block=rng.randint(1, ticks), kind="slow", seconds=1e9
                )
            )
        # Distinct call indices: two faults on one block would shadow
        # each other in allocator_fault_at.
        unique: Dict[int, AllocatorFault] = {}
        for fault in allocator_faults:
            unique.setdefault(fault.at_block, fault)
        stalls = tuple(
            ShardStall(
                shard=rng.randrange(k),
                start_tick=rng.randint(0, ticks - 1),
                ticks=rng.randint(1, max_stall_ticks),
            )
            for _ in range(rng.randint(0, max_stalls))
        )
        deliveries = tuple(
            DeliveryFault(
                tick=rng.randint(0, ticks - 1),
                kind=rng.choice(("duplicate", "malformed")),
                count=rng.randint(1, 3),
            )
            for _ in range(rng.randint(0, max_delivery_faults))
        )
        return cls(
            allocator_faults=tuple(
                sorted(unique.values(), key=lambda f: f.at_block)
            ),
            stalls=stalls,
            delivery_faults=deliveries,
            seed=seed,
        )


class FaultyAllocator(OnlineAllocator):
    """Delegating proxy that injects a plan's allocator faults.

    A ``"raise"`` fault fires *before* the wrapped allocator is called,
    modelling a crash at update time: the inner allocator never sees the
    block, so a supervisor's buffered replay is exact (no double
    ingest).  A ``"slow"`` fault lets the update run and then reports
    the simulated duration via :attr:`last_update_seconds`.
    """

    def __init__(self, inner: OnlineAllocator, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.params = inner.params
        self.name = f"faulty({inner.name})"
        self.calls = 0
        self.last_update_seconds: Optional[float] = None
        self.injected: Dict[str, int] = {"raise": 0, "slow": 0}

    def observe_block(self, transactions: Iterable[Sequence[Node]]):
        self.calls += 1
        self.last_update_seconds = None
        fault = self.plan.allocator_fault_at(self.calls)
        if fault is not None and fault.kind == "raise":
            self.injected["raise"] += 1
            raise AllocatorError(
                f"injected allocator fault at observe call {self.calls}"
            )
        event = self.inner.observe_block(transactions)
        if fault is not None and fault.kind == "slow":
            self.injected["slow"] += 1
            self.last_update_seconds = fault.seconds
        return event

    def shard_of(self, account: Node) -> int:
        return self.inner.shard_of(account)

    def mapping(self) -> Dict[Node, int]:
        return self.inner.mapping()

    @property
    def freeze_stats(self) -> Optional[Dict[str, int]]:
        return self.inner.freeze_stats

    def __getattr__(self, name: str):
        # Transparent stand-in for the wrapped allocator (allocation,
        # block_height, workspace_stats, ...).  Only reached for attributes
        # this proxy does not define itself; guard against recursion
        # before __init__ has bound ``inner``.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


def with_faults(allocator: OnlineAllocator, plan: FaultPlan) -> OnlineAllocator:
    """Install ``plan``'s allocator faults at the right layer.

    A supervised allocator gets the faulty proxy *inside* its wrapper
    (the supervisor absorbs the injected failures); a bare allocator is
    wrapped directly, so the faults propagate to the caller — the
    unsupervised crash the robustness tests contrast against.  Plans
    with no allocator faults install nothing.
    """
    if not plan.allocator_faults:
        return allocator
    if isinstance(allocator, ResilientAllocator):
        allocator.inner = FaultyAllocator(allocator.inner, plan)
        return allocator
    return FaultyAllocator(allocator, plan)


def parse_fault_name(name: str) -> Tuple[str, Optional[int]]:
    """Split a matrix-spec fault-plan name into ``(kind, seed)``.

    The spec vocabulary: ``"none"`` and ``"standard"`` (seed ``None``)
    and ``"seeded:<int>"`` (kind ``"seeded"``).  Anything else raises
    :class:`ParameterError`; :class:`~repro.eval.matrix.MatrixSpec`
    validates its names here, so a spec accepts exactly the names
    :func:`resolve_fault_plan` can resolve.
    """
    if name in ("none", "standard"):
        return name, None
    if name.startswith("seeded:"):
        try:
            return "seeded", int(name.split(":", 1)[1])
        except ValueError:
            raise ParameterError(
                f"bad seeded fault plan {name!r}; expected 'seeded:<int>'"
            ) from None
    raise ParameterError(
        f"unknown fault plan {name!r}; expected 'none', 'standard' or 'seeded:<int>'"
    )


def resolve_fault_plan(
    name: str, *, ticks: int, k: int, tau2: int
) -> Optional[FaultPlan]:
    """Resolve a matrix-spec fault-plan name to a :class:`FaultPlan`.

    ``"none"`` is no plan, ``"standard"`` is :meth:`FaultPlan.standard`
    at the run's ``tau2`` and ``"seeded:<int>"`` is
    :meth:`FaultPlan.seeded` over the run's ``ticks``/``k``; other names
    raise :class:`ParameterError` (see :func:`parse_fault_name`).
    """
    kind, seed = parse_fault_name(name)
    if kind == "none":
        return None
    if kind == "standard":
        return FaultPlan.standard(tau2)
    return FaultPlan.seeded(seed, ticks=ticks, k=k)


__all__ = [
    "AllocatorFault",
    "DeliveryFault",
    "FaultPlan",
    "FaultyAllocator",
    "MalformedDelivery",
    "ShardStall",
    "parse_fault_name",
    "resolve_fault_plan",
    "with_faults",
]
