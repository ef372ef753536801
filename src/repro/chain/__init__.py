"""Sharded-blockchain substrate: chain primitives, shard queues, the live
network, its fault plans and the event-level simulator."""

from repro.chain.faults import (
    AllocatorFault,
    DeliveryFault,
    FaultPlan,
    FaultyAllocator,
    MalformedDelivery,
    ShardStall,
    with_faults,
)
from repro.chain.live import LiveReport, LiveShardedNetwork, TickStats
from repro.chain.shard import ShardState, WorkItem
from repro.chain.simulator import (
    ShardedChainSimulator,
    SimulationReport,
    simulate_allocation,
)
from repro.chain.types import Address, Block, Transaction, address_from_int, is_address

__all__ = [
    "Address",
    "AllocatorFault",
    "DeliveryFault",
    "FaultPlan",
    "FaultyAllocator",
    "MalformedDelivery",
    "ShardStall",
    "with_faults",
    "Block",
    "LiveReport",
    "LiveShardedNetwork",
    "TickStats",
    "ShardState",
    "ShardedChainSimulator",
    "SimulationReport",
    "Transaction",
    "WorkItem",
    "address_from_int",
    "is_address",
    "simulate_allocation",
]
