"""Resilience run-table: committed TPS retention and recovery under the
standard fault plan.

PR 6 made live allocation survivable: a
:class:`repro.core.resilience.ResilientAllocator` supervises the TxAllo
controller with exception isolation, block-clocked retry/backoff, a
circuit breaker with degraded last-good routing, and checkpoint-based
crash recovery.  This benchmark quantifies what the supervision buys.

The same live stream runs twice through
:class:`repro.chain.live.LiveShardedNetwork`:

* **baseline** — a bare :class:`TxAlloController`, no faults;
* **faulted** — the same controller wrapped in ``ResilientAllocator``,
  under :func:`repro.chain.faults.FaultPlan.standard` (an
  allocator-raise burst at the first τ₂ refresh plus a 5-tick shard
  stall window).

Both runs drain fully, so ``committed`` is equal by construction and the
damage shows up as extra ticks; the headline number is **TPS retention**
(faulted committed-per-tick over baseline).  Recovery is the degraded
block count plus the assertion that the circuit re-closed.  Writes
``BENCH_resilience.json`` next to this file:

``{"scale", "tps_retention", "recovery_blocks", "degraded_ticks",
"circuit_state", "resilience_stats", ...}``

Gates (enforced by :func:`check_gates`, ``tests/test_bench_gate.py`` and
the CI perf job):

* committed TPS retention ≥ 0.7 under the standard plan;
* the circuit tripped (``trips`` ≥ 1) **and** recovered
  (``recoveries`` ≥ 1, final state ``closed``);
* no transaction lost (``committed == arrived`` in both runs).

Scale knob: ``--scale`` / the ``BENCH_SCALE`` env crank the workload
(CI pins 0.5 for runner budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

try:  # script mode from a clean checkout: resolve the src layout
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.parallel import pin_blas_threads

# Explicit thread ownership for honest timings: pin the BLAS/OpenMP
# knobs before any other import (the multi-core
# layer owns its parallelism -- see repro.core.parallel).
pin_blas_threads()

from repro.chain.faults import FaultPlan
from repro.chain.live import LiveShardedNetwork
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.core.resilience import ResilientAllocator
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

K = 8
ETA = 2.0
TAU1 = 2
TAU2 = 10
BLOCK_SIZE = 100
#: Total capacity k·λ relative to the mean live block size; headroom so
#: the fault-free baseline keeps up and the stall window is the
#: bottleneck being measured.
CAPACITY_FACTOR = 1.5

#: Acceptance gate from ISSUE: the supervised run keeps ≥ 70% of the
#: fault-free committed TPS under the standard plan.
TPS_RETENTION_GATE = 0.7

OUT_PATH = Path(__file__).resolve().parent / "BENCH_resilience.json"


def _blocks(scale: float, seed: int = 2023):
    config = WorkloadConfig(
        num_accounts=max(100, int(4_000 * scale)),
        num_transactions=max(1_000, int(20_000 * scale)),
        block_size=BLOCK_SIZE,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [list(block.transactions) for block in gen.blocks()]


def _make_params(blocks) -> TxAlloParams:
    mean_block = sum(len(b) for b in blocks) / len(blocks)
    lam = max(1.0, CAPACITY_FACTOR * mean_block / K)
    return TxAlloParams(
        k=K,
        eta=ETA,
        lam=lam,
        epsilon=1e-5 * sum(len(b) for b in blocks),
        tau1=TAU1,
        tau2=TAU2,
    )


def _seed_sets(blocks):
    return [tuple(tx.accounts) for block in blocks for tx in block]


def run_bench(scale: float = BENCH_SCALE, out_path: Path = OUT_PATH) -> dict:
    blocks = _blocks(scale)
    split = max(1, len(blocks) // 3)
    seed_blocks, live_blocks = blocks[:split], blocks[split:]
    params = _make_params(live_blocks)
    seed = _seed_sets(seed_blocks)
    plan = FaultPlan.standard(params.tau2)

    baseline_net = LiveShardedNetwork(
        params, TxAlloController(params, seed_transactions=seed)
    )
    baseline = baseline_net.run(live_blocks, drain=True)

    supervised = ResilientAllocator(TxAlloController(params, seed_transactions=seed))
    faulted_net = LiveShardedNetwork(params, supervised, fault_plan=plan)
    faulted = faulted_net.run(live_blocks, drain=True)

    assert baseline.committed == baseline.arrived, "baseline lost transactions"
    assert faulted.committed == faulted.arrived, "faulted run lost transactions"

    stats = dict(supervised.resilience_stats)
    retention = (
        faulted.committed_per_tick / baseline.committed_per_tick
        if baseline.committed_per_tick > 0
        else 0.0
    )
    payload = {
        "scale": scale,
        "k": K,
        "eta": ETA,
        "lam": params.lam,
        "tau1": TAU1,
        "tau2": TAU2,
        "seed_blocks": len(seed_blocks),
        "live_blocks": len(live_blocks),
        "fault_plan": {
            "allocator_raise_burst": len(plan.allocator_faults),
            "stalls": [
                {"shard": s.shard, "start_tick": s.start_tick, "ticks": s.ticks}
                for s in plan.stalls
            ],
        },
        "baseline_committed": baseline.committed,
        "baseline_ticks": len(baseline.ticks),
        "baseline_tps": baseline.committed_per_tick,
        "faulted_committed": faulted.committed,
        "faulted_ticks": len(faulted.ticks),
        "faulted_tps": faulted.committed_per_tick,
        "tps_retention": retention,
        "recovery_blocks": stats["degraded_blocks"],
        "degraded_ticks": faulted.degraded_ticks,
        "failovers": faulted.failovers,
        "circuit_state": supervised.circuit_state,
        "resilience_stats": stats,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"== resilience under the standard fault plan (scale={scale}) ==")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return payload


def check_gates(payload: dict) -> list:
    """Return the list of failed gate descriptions (empty = all green)."""
    failures = []
    if payload["tps_retention"] < TPS_RETENTION_GATE:
        failures.append(
            f"committed TPS retention {payload['tps_retention']:.3f} "
            f"< {TPS_RETENTION_GATE} under the standard fault plan"
        )
    stats = payload["resilience_stats"]
    if stats["trips"] < 1:
        failures.append("circuit breaker never tripped (fault plan not exercised)")
    if stats["recoveries"] < 1 or payload["circuit_state"] != "closed":
        failures.append(
            f"circuit did not recover (state={payload['circuit_state']!r}, "
            f"recoveries={stats['recoveries']})"
        )
    if payload["faulted_committed"] != payload["baseline_committed"]:
        failures.append("faulted run lost transactions relative to baseline")
    return failures


def test_resilience_run_table(bench_scale):
    payload = run_bench(scale=bench_scale)
    failures = check_gates(payload)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=BENCH_SCALE,
        help="workload scale factor (default: BENCH_SCALE env or 0.5)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"output run-table path (default {OUT_PATH.name} next to this file)",
    )
    args = parser.parse_args()
    result = run_bench(scale=args.scale, out_path=args.out)
    problems = check_gates(result)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)
