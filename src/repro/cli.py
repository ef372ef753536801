"""Command-line interface: regenerate any paper figure from a terminal.

Examples::

    txallo fig2 --scale 0.5 --ks 2,10,20 --etas 2,6
    txallo fig4 --methods txallo,metis,prefix
    txallo fig9 --k 20 --gaps 20,100
    txallo live-compare --k 8 --scale 0.25
    txallo matrix --spec spec.json --out results/
    txallo all --scale 0.25

``--methods`` accepts any allocator name registered in
:mod:`repro.allocators` (``txallo``, ``random``/``hash``, ``prefix``,
``metis``, ``shard_scheduler``, ``txallo_online``, plus anything you
register yourself); ``live-compare`` runs the selected methods through
the tick-driven :class:`~repro.chain.live.LiveShardedNetwork` and prints
a per-method committed-TPS / cross-shard / latency table.

Every command prints a table plus an ASCII chart; no plotting stack is
required.  ``python -m repro`` is an alias for the ``txallo`` script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import allocators
from repro.errors import ParameterError
from repro.eval import experiments

_SWEEP_FIGURES = {
    "fig2": experiments.figure2,
    "fig3": experiments.figure3,
    "fig5": experiments.figure5,
    "fig6": experiments.figure6,
    "fig7": experiments.figure7,
    "fig8": experiments.figure8,
}


def _parse_int_list(text: str) -> List[int]:
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def _parse_float_list(text: str) -> List[float]:
    return [float(chunk) for chunk in text.split(",") if chunk.strip()]


def _parse_str_list(text: str) -> List[str]:
    return [chunk.strip() for chunk in text.split(",") if chunk.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txallo",
        description="Reproduce the TxAllo (ICDE 2023) evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(_SWEEP_FIGURES)
        + ["fig1", "fig4", "fig9", "fig10", "live-compare", "matrix", "all"],
        help="which figure to regenerate ('all' runs every figure; "
        "'live-compare' runs the method set through the live network; "
        "'matrix' expands a declared-factors scenario spec)",
    )
    parser.add_argument(
        "--spec", default=None,
        help="matrix only: JSON experiment spec (factors over workload "
             "topology, scale, allocator, tau cadence, fault "
             "plan, plus reps/base_seed/k/eta; default: the built-in "
             "smoke spec)",
    )
    parser.add_argument(
        "--out", default=None,
        help="matrix only: artifact directory (spec.json, per-run "
             "folders, aggregated run_table.csv); default: print the "
             "table without writing artifacts",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="workload scale factor (1.0 = ~60k transactions; default 0.5)",
    )
    parser.add_argument(
        "--seed", type=int, default=2022, help="workload seed (default 2022)"
    )
    parser.add_argument(
        "--ks", type=_parse_int_list, default=None,
        help="comma-separated shard counts (default 2,10,20,40,60)",
    )
    parser.add_argument(
        "--etas", type=_parse_float_list, default=None,
        help="comma-separated eta values (default 2,4,6,8,10)",
    )
    parser.add_argument(
        "--k", type=int, default=20, help="shard count for fig4/fig9/fig10"
    )
    parser.add_argument(
        "--eta", type=float, default=2.0, help="eta for fig4/fig9/fig10"
    )
    parser.add_argument(
        "--gaps", type=_parse_int_list, default=[20, 40, 100, 200],
        help="global updating gaps for fig9 (default 20,40,100,200)",
    )
    parser.add_argument(
        "--steps", type=int, default=0,
        help="max adaptive steps for fig9/fig10 (0 = all windows)",
    )
    parser.add_argument(
        "--methods", type=_parse_str_list, default=None,
        help="comma-separated allocator names from the registry "
             f"(default {','.join(experiments.METHODS)}; "
             "see repro.allocators.available())",
    )
    parser.add_argument(
        "--lam", type=float, default=None,
        help="per-shard capacity per tick for live-compare "
             "(default: auto from the live block size)",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="live-compare only: inject the deterministic standard fault "
             "plan (allocator-raise burst at the first tau2 refresh plus a "
             "shard stall window), supervising every allocator with "
             "ResilientAllocator",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="with --faults: derive a seeded FaultPlan instead of the "
             "standard one",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="process count for the evaluation grid: >1 fans the "
             "sweep/fig4 grid and the matrix cells out to a process pool "
             "(records identical to --workers 1; requires fork, "
             "otherwise runs sequentially; default 1)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fault_seed is not None and not args.faults:
        parser.error("--fault-seed requires --faults")
    if args.figure == "matrix":
        # The matrix builds its own workloads per cell; none of the
        # figure plumbing below applies.
        from repro.eval import matrix

        try:
            spec = matrix.load_spec(args.spec) if args.spec else matrix.smoke_spec()
            result = matrix.run_matrix(spec, out_dir=args.out, workers=args.workers)
        except ParameterError as exc:
            print(f"txallo: {exc}", file=sys.stderr)
            return 2
        print(result.render())
        return 0
    methods = tuple(args.methods) if args.methods else experiments.METHODS
    try:
        for method in methods:
            allocators.get_entry(method)  # fail fast with the known names
    except ParameterError as exc:
        print(f"txallo: {exc}", file=sys.stderr)
        return 2
    workload = experiments.build_workload(scale=args.scale, seed=args.seed)
    ks = args.ks or list(experiments.DEFAULT_KS)
    etas = args.etas or list(experiments.DEFAULT_ETAS)

    wanted = sorted(_SWEEP_FIGURES) + ["fig1", "fig4", "fig9", "fig10"] \
        if args.figure == "all" else [args.figure]

    records = None
    for figure in wanted:
        if figure == "live-compare":
            print(
                experiments.live_compare(
                    workload, k=args.k, eta=args.eta,
                    methods=methods, lam=args.lam,
                    faults=args.faults, fault_seed=args.fault_seed,
                ).render()
            )
        elif figure == "fig1":
            print(experiments.figure1(workload).render())
        elif figure == "fig4":
            print(
                experiments.figure4(
                    workload, k=args.k, eta=args.eta, methods=methods,
                    workers=args.workers,
                ).render()
            )
        elif figure == "fig9":
            print(
                experiments.figure9(
                    workload, k=args.k, eta=args.eta,
                    gaps=args.gaps, max_steps=args.steps,
                ).render()
            )
        elif figure == "fig10":
            print(
                experiments.figure10(
                    workload, k=args.k, eta=args.eta, max_steps=args.steps,
                ).render()
            )
        else:
            if records is None:
                records = experiments.sweep(
                    workload, ks=ks, etas=etas, methods=methods,
                    workers=args.workers,
                )
            print(_SWEEP_FIGURES[figure](records).render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
