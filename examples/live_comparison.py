#!/usr/bin/env python3
"""Every allocation method, one live network, one registry lookup.

The allocator registry (:mod:`repro.allocators`) is the single seam all
harnesses dispatch through — this example shows the whole loop in a few
lines:

1. list what is registered (``available()``), with each entry's kind;
2. build the live form of every method with ``get_online`` — the
   dynamic TxAllo controller, the online Shard Scheduler, the static
   graph methods frozen over the same seed history, and the hash rules
   routing every account by the rule itself;
3. drive each one through the tick-driven
   :class:`~repro.chain.live.LiveShardedNetwork` on identical traffic
   and print the committed-TPS / cross-shard / latency table (the
   deployed-setting counterpart of the paper's Figs. 5-7);
4. register a tiny custom allocator and show it runs through the exact
   same harness — adding a method is one registration, not a
   four-layer surgery.

Run with::

    python examples/live_comparison.py --k 4 --scale 0.1
"""

import argparse

from repro import allocators
from repro.core.allocator import FunctionAllocator
from repro.eval import experiments


def register_round_robin() -> str:
    """A deliberately naive custom allocator: index-order round robin."""
    name = "round_robin"
    if name not in allocators.available():
        allocators.register(
            name,
            lambda: FunctionAllocator(
                name,
                lambda graph, params: {
                    a: i % params.k
                    for i, a in enumerate(graph.nodes_sorted())
                },
            ),
            kind="static",
            description="index-order round robin (example)",
        )
    return name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--eta", type=float, default=2.0)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--methods", default=None,
        help="comma-separated registered allocator names "
             "(default: the paper's four plus the example's round robin)",
    )
    args = parser.parse_args()

    print("registered allocators:")
    for name in allocators.available():
        entry = allocators.get_entry(name)
        print(f"  {name:<16} [{entry.kind}] {entry.description}")

    custom = register_round_robin()
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    else:
        methods = experiments.METHODS + (custom,)

    workload = experiments.build_workload(scale=args.scale, seed=args.seed)
    print(
        f"\nworkload: {workload.num_transactions} transactions over "
        f"{len(workload.blocks)} blocks; comparing {', '.join(methods)}\n"
    )

    comparison = experiments.live_compare(
        workload, k=args.k, eta=args.eta, methods=methods
    )
    print(comparison.render())

    txallo = comparison.reports.get("txallo")
    rr = comparison.reports.get(custom)
    if txallo is not None and rr is not None:
        print(
            f"\nTxAllo vs round robin: "
            f"{txallo.committed_per_tick:.1f} vs {rr.committed_per_tick:.1f} "
            "committed/tick — a registered allocator is instantly comparable ✔"
        )


if __name__ == "__main__":
    main()
