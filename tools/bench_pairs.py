"""Paired end-to-end benchmark runs: a base git ref against the working tree.

Stdlib only.  Exports ``REF`` with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` from that copy and from this
checkout in interleaved pairs, so slow and fast spells of a shared host
fall on both sides alike.  Pair ``i`` uses seed ``SEED + i``; the base runs
first in even pairs and second in odd ones.

Usage::

    python tools/bench_pairs.py --base HEAD~1 --workload live_hash --pairs 10 --seed 11

Each run lasts ``BENCHMARK.json``'s ``run_seconds``.  For every
end-to-end metric declared there it prints both sides' medians and
quartiles, the base's interquartile range and how many pairs the change
won (a tie counts for neither side).  A change "clears" a metric when it
wins at least 90% of the pairs and its median beats the base median by
more than the base's IQR.  The working tree, uncommitted edits
included, is the change side.

Exits 1 when any run reports ``correct: false``, prints no result, or
when the change fails more operations than the base in the same pair;
0 otherwise.  The tool runs ``perfbench/run.py`` as a program and never
imports or edits anything under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win to clear a metric.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` of ``values``, inclusive method (within the data)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(base: Sequence[float], change: Sequence[float], better: str) -> Dict[str, object]:
    """Paired summary of one metric; ``better`` is ``"higher"`` or ``"lower"``.

    ``base[i]`` and ``change[i]`` come from the same pair.  ``wins`` counts
    pairs where the change is strictly better, ``losses`` pairs where the
    base is; equal values count for neither.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of base and change values")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    base_q = quartiles(base)
    change_q = quartiles(change)
    base_iqr = base_q[2] - base_q[0]
    gain = sign * (change_q[1] - base_q[1])
    return {
        "pairs": len(base),
        "base_quartiles": base_q,
        "change_quartiles": change_q,
        "base_iqr": base_iqr,
        "wins": wins,
        "losses": losses,
        "clears": wins >= WIN_SHARE * len(base) and gain > base_iqr,
    }


def run_problems(pair: int, base: Optional[dict], change: Optional[dict]) -> List[str]:
    """Why one pair's runs make the comparison fail (empty when they don't)."""
    problems = []
    for side, result in (("base", base), ("change", change)):
        if result is None:
            problems.append(f"pair {pair}: {side} run printed no JSON result")
        elif not result.get("correct", False):
            problems.append(f"pair {pair}: {side} run reported correct: false")
    if base is not None and change is not None:
        if change.get("failed", 0) > base.get("failed", 0):
            problems.append(
                f"pair {pair}: change failed {change['failed']} operations, "
                f"base {base['failed']}"
            )
    return problems


def export_ref(ref: str, dest: Path) -> None:
    """Extract the committed tree of ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=REPO, check=True, capture_output=True
    ).stdout
    # The "data" filter refuses absolute paths and links out of dest;
    # interpreters that predate extraction filters lack it.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One ``perfbench/run.py`` run from ``tree``; its JSON result or None."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None


def load_benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def render(metrics: List[dict], summaries: Dict[str, Dict[str, object]]) -> List[str]:
    lines = [
        f"{'metric':<22} {'base q1 / median / q3':>36} {'change q1 / median / q3':>36}"
        f" {'base IQR':>11} {'wins':>6} {'losses':>6}  clears"
    ]
    for metric in metrics:
        s = summaries.get(metric["name"])
        if s is None:
            continue
        base = " / ".join(f"{v:.6g}" for v in s["base_quartiles"])
        change = " / ".join(f"{v:.6g}" for v in s["change_quartiles"])
        lines.append(
            f"{metric['name']:<22} {base:>36} {change:>36} {s['base_iqr']:>11.4g}"
            f" {s['wins']:>3}/{s['pairs']:<2} {s['losses']:>6}  {'yes' if s['clears'] else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = load_benchmark()
    metrics = benchmark["end_to_end"]
    values: Dict[str, Dict[str, List[float]]] = {
        m["name"]: {"base": [], "change": []} for m in metrics
    }
    problems: List[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp)
        export_ref(args.base, base_tree)
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            results = {}
            for side in order:
                tree = base_tree if side == "base" else REPO
                results[side] = run_once(tree, args.workload, seed, benchmark["run_seconds"])
            base, change = results["base"], results["change"]
            problems.extend(run_problems(pair, base, change))
            if base is None or change is None:
                continue
            for name, sides in values.items():
                if name in base["metrics"] and name in change["metrics"]:
                    sides["base"].append(base["metrics"][name]["value"])
                    sides["change"].append(change["metrics"][name]["value"])
            print(
                f"pair {pair} seed {seed}, {order[0]} first: tx_per_s "
                f"base {base['metrics']['tx_per_s']['value']:.6g} "
                f"change {change['metrics']['tx_per_s']['value']:.6g}",
                flush=True,
            )

    summaries = {
        m["name"]: summarise(values[m["name"]]["base"], values[m["name"]]["change"], m["better"])
        for m in metrics
        if values[m["name"]]["base"]
    }
    print(f"{args.workload}: {args.base} vs working tree, {args.pairs} pairs from seed {args.seed}")
    print("\n".join(render(metrics, summaries)))
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
