"""Core TxAllo machinery: transaction graph, metrics and the two algorithms.

Besides the graph/objective/algorithm stack, this package owns the
**unified allocator protocol** (:mod:`repro.core.allocator`): every
allocation method — TxAllo itself and every baseline — is either a
:class:`StaticAllocator` (``allocate(graph, params) -> mapping``, plus a
deterministic ``default_shard`` fallback) or an :class:`OnlineAllocator`
(``observe_block(block)`` / total ``shard_of(account)`` / ``mapping()``,
with ``run_stream`` for processing-time analytic accounting).  The chain
simulators, the figure runners and the CLI all dispatch through that
protocol; the string-keyed registry over it lives in
:mod:`repro.allocators`.

To add an allocation method: implement one of the two protocol classes
(or wrap a ``(graph, params) -> mapping`` function in
:class:`FunctionAllocator`) and register it with
``repro.allocators.register(...)`` — every harness, comparison figure
and CLI flag picks it up by name.
"""

from repro.core.allocation import Allocation, capped_throughput
from repro.core.allocator import (
    AllocationUpdate,
    AllocatorBase,
    FixedMappingAllocator,
    FunctionAllocator,
    OnlineAllocator,
    OnlineRunResult,
    StaticAllocator,
    ensure_online,
    hash_fallback_shard,
)
from repro.core.atxallo import ATxAlloResult, a_txallo
from repro.core.controller import TxAlloController, UpdateEvent
from repro.core.csr import CSRGraph
from repro.core.engine import AdaptiveWorkspace
from repro.core.graph import MutationJournal, Node, TransactionGraph, pair_count
from repro.core.gtxallo import GTxAlloResult, g_txallo
from repro.core.louvain import louvain_partition, modularity
from repro.core.metrics import (
    MetricsReport,
    average_latency,
    evaluate_allocation,
    graph_cross_shard_ratio,
    graph_shard_workloads,
    graph_throughput,
    is_cross_shard,
    mu,
    shard_latency,
    workload_balance,
    worst_case_latency,
)
from repro.core.objective import GainComputer
from repro.core.persistence import (
    AllocationCheckpoint,
    allocation_digest,
    load_allocation,
    save_allocation,
)
from repro.core.resilience import ResilientAllocator
from repro.core.params import TxAlloParams

__all__ = [
    "AdaptiveWorkspace",
    "Allocation",
    "AllocationCheckpoint",
    "AllocationUpdate",
    "AllocatorBase",
    "CSRGraph",
    "MutationJournal",
    "FixedMappingAllocator",
    "FunctionAllocator",
    "OnlineAllocator",
    "OnlineRunResult",
    "ResilientAllocator",
    "StaticAllocator",
    "ensure_online",
    "hash_fallback_shard",
    "allocation_digest",
    "load_allocation",
    "save_allocation",
    "ATxAlloResult",
    "GTxAlloResult",
    "GainComputer",
    "MetricsReport",
    "Node",
    "TransactionGraph",
    "TxAlloController",
    "TxAlloParams",
    "UpdateEvent",
    "a_txallo",
    "average_latency",
    "capped_throughput",
    "evaluate_allocation",
    "g_txallo",
    "graph_cross_shard_ratio",
    "graph_shard_workloads",
    "graph_throughput",
    "is_cross_shard",
    "louvain_partition",
    "modularity",
    "mu",
    "pair_count",
    "shard_latency",
    "workload_balance",
    "worst_case_latency",
]
