"""End-to-end integration tests: the full pipeline across modules.

These tests exercise the path a real deployment would take: generate (or
load) a ledger, build the graph, allocate with each method, evaluate
analytically, and cross-check on the event simulator.  The package
layering those modules rely on is pinned here too.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.baselines import hash_partition, metis_partition, shard_scheduler_partition
from repro.chain.simulator import simulate_allocation
from repro.core.controller import TxAlloController
from repro.core.gtxallo import g_txallo
from repro.core.metrics import evaluate_allocation
from repro.core.params import TxAlloParams
from repro.data.stream import BlockStream
from repro.data.synthetic import chunk_blocks


@pytest.fixture(scope="module")
def pipeline(small_workload):
    params = TxAlloParams.with_capacity_for(len(small_workload["sets"]), k=8, eta=2.0)
    result = g_txallo(small_workload["graph"], params)
    return small_workload, params, result


class TestFullPipeline:
    def test_txallo_dominates_baselines_on_throughput(self, pipeline):
        workload, params, result = pipeline
        ours = evaluate_allocation(workload["sets"], result.allocation, params)
        random_rep = evaluate_allocation(
            workload["sets"],
            hash_partition(workload["graph"].nodes_sorted(), params.k),
            params,
        )
        metis_rep = evaluate_allocation(
            workload["sets"], metis_partition(workload["graph"], params.k).mapping, params
        )
        assert ours.normalized_throughput > random_rep.normalized_throughput
        assert ours.normalized_throughput >= metis_rep.normalized_throughput * 0.95

    def test_txallo_lowest_cross_shard_ratio(self, pipeline):
        workload, params, result = pipeline
        ours = evaluate_allocation(workload["sets"], result.allocation, params)
        scheduler = shard_scheduler_partition(workload["sets"], params)
        random_rep = evaluate_allocation(
            workload["sets"],
            hash_partition(workload["graph"].nodes_sorted(), params.k),
            params,
        )
        assert ours.cross_shard_ratio < scheduler.cross_shard_ratio
        assert ours.cross_shard_ratio < random_rep.cross_shard_ratio

    def test_simulator_confirms_analytic_ordering(self, pipeline):
        """The event simulator agrees with Eqs. 2-3 on who wins."""
        workload, params, result = pipeline
        ours = simulate_allocation(
            workload["transactions"], result.allocation.mapping(), params
        )
        hashed = simulate_allocation(
            workload["transactions"],
            hash_partition(workload["graph"].nodes_sorted(), params.k),
            params,
        )
        assert ours.first_unit_throughput > hashed.first_unit_throughput
        assert ours.cross_shard_ratio < hashed.cross_shard_ratio

    def test_analytic_gamma_matches_simulator_exactly(self, pipeline):
        workload, params, result = pipeline
        analytic = evaluate_allocation(workload["sets"], result.allocation, params)
        simulated = simulate_allocation(
            workload["transactions"], result.allocation.mapping(), params
        )
        assert analytic.cross_shard_ratio == pytest.approx(
            simulated.cross_shard_ratio
        )
        assert analytic.shard_workloads == pytest.approx(
            simulated.per_shard_workload
        )


def generated_blocks(workload) -> BlockStream:
    """The fixture's materialised stream, chunked into linked blocks."""
    return BlockStream(chunk_blocks(workload["transactions"], workload["config"].block_size))


class TestDynamicPipeline:
    def test_controller_over_generated_blocks(self, small_workload):
        blocks = generated_blocks(small_workload)
        train, evaluation = blocks.split(0.8)
        params = TxAlloParams(
            k=6, eta=2.0, lam=len(small_workload["sets"]) / 6, tau1=2, tau2=8
        )
        controller = TxAlloController(
            params,
            seed_transactions=train.account_sets(),
        )
        for block in evaluation:
            controller.observe_block([tuple(tx.accounts) for tx in block])
        controller.force_adaptive()
        controller.allocation.validate()
        report = evaluate_allocation(
            small_workload["sets"], controller.allocation, params
        )
        assert report.cross_shard_ratio < 0.6

    def test_adaptive_tracks_global_quality(self, small_workload):
        blocks = generated_blocks(small_workload)
        train, evaluation = blocks.split(0.8)
        params = TxAlloParams(
            k=6, eta=2.0, lam=len(small_workload["sets"]) / 6, tau1=1, tau2=10_000
        )
        controller = TxAlloController(params, seed_transactions=train.account_sets())
        for block in evaluation:
            controller.observe_block([tuple(tx.accounts) for tx in block])
        adaptive_thpt = controller.allocation.total_throughput()
        fresh = g_txallo(controller.graph, params)
        assert adaptive_thpt >= 0.9 * fresh.allocation.total_throughput()


class TestPackageLayering:
    def test_core_does_not_import_chain(self):
        """The allocation core stands alone: importing it in a fresh
        interpreter must not load the chain substrate."""
        probe = "import sys, repro.core; print('repro.chain' in sys.modules)"
        # Import the same copy of the package this process is testing.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("package", ("repro.chain", "repro.core"))
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
        assert len(set(module.__all__)) == len(module.__all__)
