"""The dynamic TxAllo controller — periodic A-TxAllo with G-TxAllo refreshes.

The paper runs A-TxAllo every ``τ₁`` blocks and G-TxAllo every ``τ₂`` blocks
(``τ₁ < τ₂``, Section V-A); the adaptive runs are cheap and keep the
allocation fresh, while the periodic global runs bound the approximation
loss (evaluated in Figs. 9-10).

:class:`TxAlloController` implements exactly that loop over any source of
blocks, where a *block* is simply an iterable of transactions and a
transaction an iterable of account identifiers.  It owns the transaction
graph, the current :class:`~repro.core.allocation.Allocation` and an update
log with per-update wall-clock timings.

Each periodic G-TxAllo refresh runs on a full CSR lowering of the
cumulative graph (:meth:`repro.core.graph.TransactionGraph.freeze`).
A-TxAllo reads only the touched neighbourhoods of the live graph, so
the τ₁ loop never freezes and keeps no state between runs.

A scheduled G-TxAllo refresh whose inputs have not changed since the
last installed G-TxAllo result is not re-run: when the graph's
:attr:`~repro.core.graph.TransactionGraph.version` and the allocation's
:attr:`~repro.core.allocation.Allocation.mutation_count` both still
match what that result left behind, the controller keeps the current
allocation and still records the refresh as a ``"global"`` event.  This
is exact, not an approximation: G-TxAllo is deterministic in the graph,
so a re-run would rebuild the very allocation already installed.  Long
runs of empty blocks (a live network draining its backlog) thus cost
nothing at the τ₂ ticks.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.allocation import Allocation
from repro.core.allocator import OnlineAllocator, hash_fallback_shard
from repro.core.atxallo import a_txallo
from repro.core.graph import Node, TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams


@dataclasses.dataclass(frozen=True)
class UpdateEvent:
    """One allocation update: which algorithm ran, when, and how long."""

    kind: str  # "global" or "adaptive"
    block_height: int
    seconds: float
    moves: int
    touched: int
    #: False when an adaptive run hit the A-TxAllo sweep cap before the
    #: ε criterion — Fig. 10 replays can now tell a truncated sweep from
    #: real convergence.  Global runs (and events persisted before this
    #: field existed) default to True.
    converged: bool = True


class TxAlloController(OnlineAllocator):
    """Drives TxAllo over a stream of blocks (the online allocator).

    Typical use::

        controller = TxAlloController(params, seed_transactions=history)
        for block in chain:
            controller.observe_block(block)
        mapping = controller.allocation.mapping()

    ``observe_block`` ingests the block's transactions, and — at the
    configured periods — triggers the adaptive or global algorithm.  The
    global algorithm takes precedence when both are due, and resets the
    adaptive touched-set, exactly as a fresh global allocation subsumes any
    pending adaptive work.

    ``graph`` adopts a pre-built transaction graph (the controller owns
    and mutates it from then on); ``initial_mapping`` starts from a given
    partition instead of running a seed G-TxAllo — together they let
    replay/evaluation harnesses (Figs. 9-10) resume the exact state a
    previous global run produced, through the same code path the live
    network exercises.

    As an :class:`~repro.core.allocator.OnlineAllocator`,
    :meth:`shard_of` is total: an account awaiting its first A-TxAllo
    assignment is co-located with its heaviest assigned neighbourhood
    (ties toward the smaller shard), falling back to the protocol's hash
    rule for accounts with no placed neighbours.
    """

    name = "txallo_online"

    def __init__(
        self,
        params: TxAlloParams,
        seed_transactions: Optional[Iterable[Sequence[Node]]] = None,
        *,
        graph: Optional[TransactionGraph] = None,
        initial_mapping: Optional[dict] = None,
        global_enabled: bool = True,
    ) -> None:
        self.params = params
        self.graph = graph if graph is not None else TransactionGraph()
        self.block_height = 0
        self.events: List[UpdateEvent] = []
        self._touched: Set[Node] = set()
        self._global_enabled = global_enabled
        # (graph.version, allocation.mutation_count) right after the last
        # installed G-TxAllo result, and that run's move count; None until
        # G-TxAllo has run (an initial_mapping= start must still refresh).
        self._global_mark: Optional[tuple] = None
        self._global_moves = 0
        if seed_transactions is not None:
            for accounts in seed_transactions:
                self.graph.add_transaction(accounts)
        if initial_mapping is None:
            # The seed G-TxAllo run is the global refresh at height 0.
            self._run_global()
            return
        # Same timing semantics as _run_global: wall-clock around the
        # whole call, so the seed event is comparable to scheduled ones.
        t0 = time.perf_counter()
        self.allocation: Allocation = Allocation.from_partition(self.graph, params, initial_mapping)
        self.events.append(
            UpdateEvent(
                kind="global",
                block_height=0,
                seconds=time.perf_counter() - t0,
                moves=0,
                touched=self.graph.num_nodes,
            )
        )

    # ------------------------------------------------------------------
    def observe_block(self, transactions: Iterable[Sequence[Node]]) -> Optional[UpdateEvent]:
        """Ingest one block; run an update if one is due.

        Returns the update event when an algorithm ran, else ``None``.
        """
        for accounts in transactions:
            # Sorted, deduplicated ingest order: iterating a raw ``set``
            # here would feed the allocation caches' float accumulations
            # in PYTHONHASHSEED-dependent order, breaking the
            # "canonical order every miner can reproduce" contract.
            unique = sorted(set(accounts))
            self.graph.add_transaction(unique)
            self.allocation.ingest_transaction(unique)
            self._touched.update(unique)
        self.block_height += 1

        if self._global_enabled and self.block_height % self.params.tau2 == 0:
            return self._run_global()
        if self.block_height % self.params.tau1 == 0:
            return self._run_adaptive()
        return None

    # ------------------------------------------------------------------
    def shard_of(self, account: Node) -> int:
        """Current shard of ``account`` — total (protocol contract).

        Accounts A-TxAllo has not assigned yet are routed by the
        controller itself: to the shard holding the largest share of the
        account's already-assigned neighbourhood (ties toward the
        smaller shard id), or by the hash fallback when the account has
        no placed neighbours.  Deterministic either way, so every miner
        routes identically between scheduled updates.
        """
        shard = self.allocation.shard_of_or_none(account)
        if shard is not None:
            return shard
        if account in self.graph:
            by_shard, _, _ = self.allocation.neighbour_shard_weights(account)
            if by_shard:
                return min(by_shard.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        return hash_fallback_shard(account, self.params.k)

    def mapping(self) -> dict:
        """Snapshot of the accounts the allocation has explicitly placed."""
        return self.allocation.mapping()

    def force_global(self) -> UpdateEvent:
        """Run G-TxAllo immediately, regardless of the schedule."""
        return self._run_global()

    def force_adaptive(self) -> UpdateEvent:
        """Run A-TxAllo immediately on the accumulated touched set."""
        return self._run_adaptive()

    # ------------------------------------------------------------------
    def _run_global(self) -> UpdateEvent:
        """Run G-TxAllo, or reuse its last result when nothing changed.

        The refresh is skipped when neither the graph (``version``) nor
        the allocation (``mutation_count``: an A-TxAllo move, a foreign
        ``Allocation.move``) changed since the last installed G-TxAllo
        result.  G-TxAllo is deterministic in the graph, so the skipped
        run would have produced exactly the installed allocation; the
        event it records carries that run's ``moves`` and ``touched``,
        and only ``seconds`` differs.
        """
        t0 = time.perf_counter()
        mark = self._global_mark
        # None short-circuits the seed run, before any allocation exists.
        if mark is None or mark != (self.graph.version, self.allocation.mutation_count):
            result = g_txallo(self.graph, self.params)
            self.allocation = result.allocation
            self._global_mark = (self.graph.version, self.allocation.mutation_count)
            self._global_moves = result.moves
        self._touched.clear()
        event = UpdateEvent(
            kind="global",
            block_height=self.block_height,
            seconds=time.perf_counter() - t0,
            moves=self._global_moves,
            touched=self.graph.num_nodes,
        )
        self.events.append(event)
        return event

    def _run_adaptive(self) -> UpdateEvent:
        # The touched-set is replaced only after the run succeeds:
        # clearing it up front silently dropped the accumulated accounts
        # whenever a_txallo raised, so the next adaptive run swept
        # nothing (regression-tested in tests/test_controller.py).
        touched = self._touched
        result = a_txallo(self.allocation, touched)
        self._touched = set()
        event = UpdateEvent(
            kind="adaptive",
            block_height=self.block_height,
            seconds=result.seconds,
            moves=result.moves,
            touched=result.swept_nodes,
            converged=result.converged,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    @property
    def adaptive_events(self) -> List[UpdateEvent]:
        return [e for e in self.events if e.kind == "adaptive"]

    @property
    def global_events(self) -> List[UpdateEvent]:
        return [e for e in self.events if e.kind == "global"]

    @property
    def workspace_stats(self) -> dict:
        # Always zero: A-TxAllo keeps no workspace; perfbench/tracing.py still reads it.
        return {"rebuilds": 0, "reseats": 0, "extends": 0, "runs": 0}
