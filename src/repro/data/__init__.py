"""Workload substrate: synthetic Ethereum generator, loaders, streaming."""

from repro.data.loader import (
    group_into_blocks,
    load_transactions_csv,
    load_transactions_jsonl,
)
from repro.data.stream import BlockStream
from repro.data.synthetic import (
    AdversarialWorkloadGenerator,
    CommunityDriftWorkloadGenerator,
    DatasetCard,
    EthereumWorkloadGenerator,
    ExchangeHubWorkloadGenerator,
    HotSpotWorkloadGenerator,
    MintBurstWorkloadGenerator,
    WorkloadConfig,
    WorkloadEntry,
    account_sets,
    card_from_sets,
    chunk_blocks,
    get_workload_entry,
    make_workload_generator,
    register_workload,
    workload_names,
)

__all__ = [
    "AdversarialWorkloadGenerator",
    "BlockStream",
    "CommunityDriftWorkloadGenerator",
    "DatasetCard",
    "EthereumWorkloadGenerator",
    "ExchangeHubWorkloadGenerator",
    "HotSpotWorkloadGenerator",
    "MintBurstWorkloadGenerator",
    "WorkloadConfig",
    "WorkloadEntry",
    "account_sets",
    "card_from_sets",
    "chunk_blocks",
    "get_workload_entry",
    "group_into_blocks",
    "load_transactions_csv",
    "load_transactions_jsonl",
    "make_workload_generator",
    "register_workload",
    "workload_names",
]
