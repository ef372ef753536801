#!/usr/bin/env python3
"""Integrating TxAllo into a sharded protocol (paper Sections IV & VII).

Three steps a type-1 sharded blockchain (fully replicated state, sharded
processing) relies on:

1. allocate accounts with G-TxAllo — resolved by name through the
   allocator registry (:mod:`repro.allocators`), the same seam every
   harness and the CLI dispatch through — and verify determinism: two
   independent "miners" compute byte-identical mappings, which is what
   lets the protocol skip an extra consensus round (Section IV-A);
2. run the discrete-time shard simulator and check the analytic
   throughput/latency formulas (Eqs. 2-4) against observed behaviour;
3. persist the allocation as a checkpoint, verify it round-trips, and
   compare miners by 32-byte digests instead of whole mappings.

Run with::

    python examples/protocol_integration.py --k 8
"""

import argparse
import tempfile
from pathlib import Path

from repro import TransactionGraph, TxAlloParams, allocators, evaluate_allocation
from repro.chain import simulate_allocation
from repro.core import allocation_digest, load_allocation, save_allocation
from repro.data import EthereumWorkloadGenerator, WorkloadConfig, account_sets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args()

    # 1. Allocate with G-TxAllo; verify two miners agree bit-for-bit.
    config = WorkloadConfig(
        num_accounts=int(10_000 * args.scale),
        num_transactions=int(60_000 * args.scale),
        seed=args.seed,
    )
    transactions = EthereumWorkloadGenerator(config).generate()
    sets_ = account_sets(transactions)

    def miner_computes_allocation():
        graph = TransactionGraph()
        for s in sets_:
            graph.add_transaction(s)
        params = TxAlloParams.with_capacity_for(len(sets_), k=args.k)
        # Registry dispatch: the same lookup the eval harness and the
        # CLI use; swapping the method name swaps the whole pipeline.
        allocator = allocators.get("txallo")
        return params, allocator.allocate(graph, params)

    params, mapping_miner_a = miner_computes_allocation()
    _, mapping_miner_b = miner_computes_allocation()
    assert mapping_miner_a == mapping_miner_b
    print(f"two miners computed identical allocations for "
          f"{len(mapping_miner_a)} accounts — no extra consensus round needed ✔")

    # 2. Cross-validate the analytic model against the event simulator.
    analytic = evaluate_allocation(sets_, mapping_miner_a, params)
    simulated = simulate_allocation(transactions, mapping_miner_a, params)
    print(f"\nanalytic vs simulated (eta = {params.eta}):")
    print(f"  cross-shard ratio : {analytic.cross_shard_ratio:.3f} vs "
          f"{simulated.cross_shard_ratio:.3f}")
    print(f"  throughput        : {analytic.throughput:.0f} vs "
          f"{simulated.first_unit_throughput:.0f} (first block interval)")
    print(f"  worst-case latency: {analytic.worst_case_latency:.0f} vs "
          f"{simulated.worst_case_latency} blocks")
    assert analytic.cross_shard_ratio == simulated.cross_shard_ratio
    assert abs(analytic.worst_case_latency - simulated.worst_case_latency) <= 1
    print("Eqs. 2-4 agree with the event-level simulation ✔")

    # 3. Checkpoint round-trip + digest agreement.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "allocation.json"
        digest = save_allocation(path, mapping_miner_a, params, block_height=1234)
        loaded_mapping, loaded_params, height = load_allocation(path)
        assert loaded_mapping == mapping_miner_a and loaded_params == params
        assert allocation_digest(mapping_miner_b) == digest
        print(f"\ncheckpoint round-trips (height {height}); an independent "
              f"miner's digest matches: {digest[:16]}... ✔")


if __name__ == "__main__":
    main()
