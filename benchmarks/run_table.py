"""Emit one perf run-table row from the committed/regenerated BENCH files.

ROADMAP's "track absolute seconds across PRs" item: every CI perf run
appends one row — commit, scale, absolute grid/loop seconds, the
gated speedups and the resilience retention/recovery pair — to
a tab-separated table uploaded as a build
artifact, so the trajectory across PRs is a download away instead of an
archaeology dig through old logs.

Usage::

    python benchmarks/run_table.py --header            # print the header
    python benchmarks/run_table.py --commit $SHA       # print one row
    python benchmarks/run_table.py --commit $SHA --append runs.tsv
    python benchmarks/run_table.py --local-scale 2     # extra non-toy row

Missing BENCH files render as ``-`` so a partial regeneration still
produces a row.

``--local-scale S`` (ROADMAP's non-toy coverage item) regenerates every
benchmark at scale ``S`` (>= 2 is the intended use) into
``BENCH_*.scaleS.json`` side files and emits a *second* row from them,
so the perf trajectory also covers a graph several times the default.
It is a local knob: the regeneration takes minutes at scale 2 and CI
stays at ``BENCH_SCALE=0.5`` for runner budget.  Gates are *not*
enforced on the extra row — they are calibrated at the default scale —
but each bench's internal parity assertions still run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

COLUMNS = (
    "commit",
    "scale",
    "engine_grid_ref_s",
    "engine_grid_fast_s",
    "engine_grid_speedup",
    "delta_loop_full_s",
    "delta_loop_delta_s",
    "delta_loop_speedup",
    "adaptive_loop_base_s",
    "adaptive_loop_ws_s",
    "adaptive_loop_speedup",
    "resilience_tps_retention",
    "resilience_recovery_blocks",
    "parallel_grid_w1_s",
    "parallel_grid_speedup_w4",
    "matrix_s",
    "matrix_cells",
    "matrix_txallo_tps",
    "matrix_hash_tps",
)

#: (bench script, BENCH json stem) pairs behind the row columns — also
#: what ``--local-scale`` regenerates.
BENCHES = (
    ("bench_engine_speedup.py", "BENCH_engine"),
    ("bench_delta_freeze.py", "BENCH_delta"),
    ("bench_adaptive.py", "BENCH_adaptive"),
    ("bench_resilience.py", "BENCH_resilience"),
    ("bench_parallel.py", "BENCH_parallel"),
    ("bench_matrix.py", "BENCH_matrix"),
)


def _load(bench_dir: Path, name: str) -> dict:
    path = bench_dir / name
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def build_row(bench_dir: Path, commit: str, suffix: str = "") -> dict:
    engine = _load(bench_dir, f"BENCH_engine{suffix}.json")
    delta = _load(bench_dir, f"BENCH_delta{suffix}.json")
    adaptive = _load(bench_dir, f"BENCH_adaptive{suffix}.json")
    resilience = _load(bench_dir, f"BENCH_resilience{suffix}.json")
    par = _load(bench_dir, f"BENCH_parallel{suffix}.json")
    matrix = _load(bench_dir, f"BENCH_matrix{suffix}.json")
    scale = engine.get("scale", delta.get("scale", adaptive.get("scale")))
    return {
        "commit": commit,
        "scale": scale,
        "engine_grid_ref_s": engine.get("ref_seconds"),
        "engine_grid_fast_s": engine.get("fast_seconds"),
        "engine_grid_speedup": engine.get("speedup"),
        "delta_loop_full_s": delta.get("full_loop_seconds"),
        "delta_loop_delta_s": delta.get("delta_loop_seconds"),
        "delta_loop_speedup": delta.get("speedup"),
        "adaptive_loop_base_s": adaptive.get("base_loop_seconds"),
        "adaptive_loop_ws_s": adaptive.get("workspace_loop_seconds"),
        "adaptive_loop_speedup": adaptive.get("speedup"),
        "resilience_tps_retention": resilience.get("tps_retention"),
        "resilience_recovery_blocks": resilience.get("recovery_blocks"),
        "parallel_grid_w1_s": (par.get("grid_seconds") or {}).get("1"),
        "parallel_grid_speedup_w4": par.get("grid_speedup_w4"),
        "matrix_s": matrix.get("matrix_seconds"),
        "matrix_cells": matrix.get("cells"),
        "matrix_txallo_tps": matrix.get("txallo_tps_ethereum"),
        "matrix_hash_tps": matrix.get("hash_tps_ethereum"),
    }


def _scale_suffix(scale: float) -> str:
    return f".scale{scale:g}"


def regenerate_at_scale(bench_dir: Path, scale: float) -> None:
    """Run every bench's ``run_bench`` at ``scale`` into side files.

    Gates are not checked here — they are calibrated at the default
    scale — but each bench's internal parity assertions still apply.
    """
    suffix = _scale_suffix(scale)
    for script, stem in BENCHES:
        path = bench_dir / script
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out_path = bench_dir / f"{stem}{suffix}.json"
        print(f"[run_table] {script} --scale {scale} -> {out_path.name}")
        module.run_bench(scale=scale, out_path=out_path)


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=BENCH_DIR, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir", type=Path, default=BENCH_DIR,
        help="directory holding the BENCH_*.json files (default: benchmarks/)",
    )
    parser.add_argument(
        "--commit", default=None,
        help="commit id for the row (default: git rev-parse --short HEAD)",
    )
    parser.add_argument(
        "--header", action="store_true", help="print the header line too"
    )
    parser.add_argument(
        "--append", type=Path, default=None,
        help="append the row(s) (with a header when creating) to this file",
    )
    parser.add_argument(
        "--local-scale", type=float, default=None,
        help="also regenerate every bench at this scale (>= 2 intended) "
             "into BENCH_*.scaleS.json and emit a second row — local "
             "only, CI keeps the default scale",
    )
    args = parser.parse_args(argv)

    commit = args.commit or _git_head()
    rows = [build_row(args.bench_dir, commit)]
    if args.local_scale is not None:
        regenerate_at_scale(args.bench_dir, args.local_scale)
        rows.append(
            build_row(args.bench_dir, commit, suffix=_scale_suffix(args.local_scale))
        )

    header = "\t".join(COLUMNS)
    lines = ["\t".join(_fmt(row[c]) for c in COLUMNS) for row in rows]

    if args.append is not None:
        existing = args.append.read_text() if args.append.exists() else ""
        fresh = not existing.strip()
        if not fresh and existing.splitlines()[0] != header:
            # An old-schema table (e.g. pre-adaptive columns): appending
            # would silently misalign every new row against its header.
            print(
                f"error: {args.append} has a different column set; move it "
                "aside (or delete it) to start a fresh table",
                file=sys.stderr,
            )
            return 1
        with args.append.open("a") as fh:
            if fresh:
                fh.write(header + "\n")
            for line in lines:
                fh.write(line + "\n")
    if args.header:
        print(header)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
