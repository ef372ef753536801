#!/usr/bin/env python3
"""Replay an Ethereum-like workload and compare all four allocators.

This is the paper's core experiment (Figs. 2-5) as a script: build the
transaction graph from a (synthetic or real) Ethereum history, allocate
with TxAllo / hash / METIS-style / Shard Scheduler, and print the
Section III-B metrics side by side.

To run on real data, export transactions with ethereum-etl and pass the
CSV path::

    python examples/ethereum_replay.py --csv transactions.csv --k 20
    python examples/ethereum_replay.py --scale 0.5 --k 60 --eta 4
"""

import argparse

from repro import TransactionGraph, TxAlloParams, evaluate_allocation, g_txallo
from repro.baselines import hash_partition, metis_partition, shard_scheduler_partition
from repro.core.metrics import average_latency, workload_balance, worst_case_latency
from repro.data import (
    EthereumWorkloadGenerator,
    WorkloadConfig,
    account_sets,
    card_from_sets,
    load_transactions_csv,
)
from repro.eval.reporting import format_table
from repro.eval.timing import time_call


def load_workload(args):
    if args.csv:
        rows = load_transactions_csv(args.csv)
        transactions = [tx for _, tx in rows]
        print(f"loaded {len(transactions)} transactions from {args.csv}")
        return account_sets(transactions)
    config = WorkloadConfig(
        num_accounts=int(10_000 * args.scale),
        num_transactions=int(60_000 * args.scale),
        seed=args.seed,
    )
    generator = EthereumWorkloadGenerator(config)
    sets_ = account_sets(generator.generate())
    card = card_from_sets(sets_)
    print(
        f"synthetic workload: {card.num_transactions} txs, "
        f"{card.num_accounts} accounts, hub share {card.top_account_share:.1%}"
    )
    return sets_


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="ethereum-etl transactions CSV (optional)")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--eta", type=float, default=2.0)
    args = parser.parse_args()

    sets_ = load_workload(args)
    graph = TransactionGraph()
    for s in sets_:
        graph.add_transaction(s)
    params = TxAlloParams.with_capacity_for(len(sets_), k=args.k, eta=args.eta)

    rows = []

    result, seconds = time_call(g_txallo, graph, params)
    report = evaluate_allocation(sets_, result.allocation, params)
    rows.append(("TxAllo (ours)", report.cross_shard_ratio, report.workload_balance,
                 report.normalized_throughput, report.average_latency,
                 report.worst_case_latency, seconds))

    mapping, seconds = time_call(hash_partition, graph.nodes_sorted(), args.k)
    report = evaluate_allocation(sets_, mapping, params)
    rows.append(("hash/random", report.cross_shard_ratio, report.workload_balance,
                 report.normalized_throughput, report.average_latency,
                 report.worst_case_latency, seconds))

    metis, seconds = time_call(metis_partition, graph, args.k)
    report = evaluate_allocation(sets_, metis.mapping, params)
    rows.append(("METIS-style", report.cross_shard_ratio, report.workload_balance,
                 report.normalized_throughput, report.average_latency,
                 report.worst_case_latency, seconds))

    sched, seconds = time_call(shard_scheduler_partition, sets_, params)
    rows.append((
        "Shard Scheduler",
        sched.cross_shard_ratio,
        workload_balance(sched.shard_loads, params.lam),
        sched.throughput(params.lam) / params.lam,
        average_latency(sched.shard_loads, params.lam),
        worst_case_latency(sched.shard_loads, params.lam),
        seconds,
    ))

    print()
    print(format_table(
        ["method", "gamma", "rho", "thpt (x)", "latency", "worst", "seconds"],
        rows,
    ))
    print("\nExpected shape (paper Figs. 2-7): TxAllo has the lowest gamma,")
    print("the highest throughput and the lowest average latency; Shard")
    print("Scheduler has the flattest workloads and best worst-case latency.")


if __name__ == "__main__":
    main()
