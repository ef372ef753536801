"""Tests for the scenario-matrix harness (repro.eval.matrix)."""

import csv
import json

import pytest

from repro.chain.faults import resolve_fault_plan
from repro.chain.live import LiveShardedNetwork
from repro.eval import experiments
from repro.eval.experiments import build_workload, live_cadence, live_compare
from repro.eval.matrix import (
    RUN_TABLE_COLUMNS,
    RUNTIME_COLUMNS,
    MatrixSpec,
    load_spec,
    run_cell,
    run_matrix,
    smoke_spec,
)
from repro.errors import ParameterError

#: One tiny grid shared by most tests: 2 topologies x 2 allocators x
#: 2 reps at the smallest workload the generator supports.
TINY = MatrixSpec(
    topologies=("ethereum", "adversarial"),
    scales=(0.02,),
    allocators=("txallo", "hash"),
    reps=2,
    k=4,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_matrix(TINY)


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
class TestSpec:
    def test_cells_cross_product_with_reps(self):
        spec = MatrixSpec(
            topologies=("ethereum", "hotspot"),
            scales=(0.05, 0.1),
            allocators=("txallo",),
            cadences=((0, 0), (2, 8)),
            faults=("none", "standard"),
            reps=3,
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 1 * 2 * 2 * 3
        # Repetition r uses workload seed base_seed + r.
        seeds = {cell.rep: cell.seed for cell in cells}
        assert seeds == {0: 2022, 1: 2023, 2: 2024}

    def test_cell_ids_unique(self):
        cells = smoke_spec().cells()
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids)
        for cell_id in ids:
            assert ":" not in cell_id  # filesystem-safe

    def test_round_trip_via_dict(self):
        spec = MatrixSpec(cadences=((2, 8),), faults=("seeded:7",))
        assert MatrixSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown spec keys"):
            MatrixSpec.from_dict({"topologys": ["ethereum"]})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            MatrixSpec(topologies=("nope",))

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ParameterError):
            MatrixSpec(allocators=("nope",))

    def test_bad_cadence_rejected(self):
        with pytest.raises(ParameterError, match="tau1 must not exceed"):
            MatrixSpec(cadences=((8, 2),))

    def test_bad_fault_rejected(self):
        with pytest.raises(ParameterError, match="fault plan"):
            MatrixSpec(faults=("chaos",))
        with pytest.raises(ParameterError, match="fault plan"):
            MatrixSpec(faults=("seeded:x",))

    @pytest.mark.parametrize(
        "name", ("seeded:", "seeded:x", "Standard", "chaos", "seeded:3", "none", "standard")
    )
    def test_spec_and_resolver_accept_the_same_fault_names(self, name):
        def accepts(entry_point):
            try:
                entry_point()
            except ParameterError:
                return False
            return True

        in_spec = accepts(lambda: MatrixSpec(faults=(name,)))
        resolved = accepts(lambda: resolve_fault_plan(name, ticks=10, k=4, tau2=5))
        assert in_spec == resolved == (name in ("seeded:3", "none", "standard"))

    def test_empty_factor_rejected(self):
        with pytest.raises(ParameterError, match="at least one level"):
            MatrixSpec(topologies=())

    def test_load_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scales": [0.05], "reps": 1, "cadences": [[2, 8]]}))
        spec = load_spec(path)
        assert spec.scales == (0.05,)
        assert spec.cadences == ((2, 8),)

    def test_load_spec_rejects_non_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParameterError, match="JSON object"):
            load_spec(path)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestRunMatrix:
    def test_all_cells_complete_in_grid_order(self, tiny_result):
        cells = TINY.cells()
        assert len(tiny_result.results) == len(cells)
        for cell, res in zip(cells, tiny_result.results):
            assert res.cell_id == cell.cell_id
            assert res.ticks > 0
            assert res.committed == res.arrived  # drained fully

    def test_deterministic_rerun(self, tiny_result):
        again = run_matrix(TINY)
        assert again.comparable_rows() == tiny_result.comparable_rows()

    def test_workers_do_not_change_rows(self, tiny_result):
        pooled = run_matrix(TINY, workers=4)
        assert pooled.comparable_rows() == tiny_result.comparable_rows()

    def test_rows_have_fixed_column_order(self, tiny_result):
        for row in tiny_result.rows():
            assert tuple(row) == RUN_TABLE_COLUMNS
        for row in tiny_result.comparable_rows():
            assert tuple(row) == tuple(
                c for c in RUN_TABLE_COLUMNS if c not in RUNTIME_COLUMNS
            )

    def test_cadence_resolved_like_live_compare(self, tiny_result):
        # Auto cadence: tau1 = live_blocks // 25 floor 1, tau2 = 10*tau1.
        for res in tiny_result.results:
            assert res.tau1 >= 1
            assert res.tau2 == 10 * res.tau1

    def test_explicit_cadence_lands_in_params(self):
        spec = MatrixSpec(
            topologies=("ethereum",), scales=(0.02,), allocators=("txallo",),
            cadences=((2, 8),), reps=1,
        )
        res = run_matrix(spec).results[0]
        assert (res.tau1, res.tau2) == (2, 8)

    def test_select(self, tiny_result):
        txallo = tiny_result.select(topology="ethereum", allocator="txallo")
        assert len(txallo) == TINY.reps
        assert all(r.allocator == "txallo" for r in txallo)

    def test_txallo_reports_updates_hash_does_not(self, tiny_result):
        for res in tiny_result.select(allocator="txallo"):
            assert res.global_updates + res.adaptive_updates > 0
        for res in tiny_result.select(allocator="hash"):
            assert res.global_updates == res.adaptive_updates == 0
            assert res.moves == 0
            assert res.allocator_seconds >= 0.0

    def test_faulted_cell_reports_degradation(self):
        spec = MatrixSpec(
            topologies=("ethereum",), scales=(0.02,), allocators=("txallo",),
            cadences=((2, 8),), faults=("standard",), reps=1,
        )
        res = run_matrix(spec).results[0]
        assert res.fault == "standard"
        assert res.degraded_ticks > 0
        assert res.failovers >= 1
        assert res.committed == res.arrived  # supervision loses nothing

    def test_run_cell_single(self):
        cell = TINY.cells()[0]
        res = run_cell(cell)
        assert res.cell_id == cell.cell_id
        assert res.committed_tps > 0
        assert len(res.tick_stats) == res.ticks

    def test_render_mentions_every_cell(self, tiny_result):
        text = tiny_result.render()
        for res in tiny_result.results:
            assert res.cell_id in text


# ----------------------------------------------------------------------
# Cadence: one tau1/tau2 rule for live_compare and the matrix
# ----------------------------------------------------------------------
class TestCadence:
    def test_derivation(self):
        assert live_cadence(60) == (2, 20)
        assert live_cadence(10) == (1, 10)  # tau1 floors at 1
        assert live_cadence(60, tau1=3) == (3, 30)
        assert live_cadence(300, tau2=5) == (5, 5)  # derived 12 clamped
        assert live_cadence(60, tau1=3, tau2=1) == (3, 1)  # explicit kept

    def test_live_compare_clamps_derived_tau1_like_run_cell(self, monkeypatch):
        # 60 live blocks derive tau1 = 2, above the explicit tau2 = 1.
        seen = []

        class Recording(LiveShardedNetwork):
            def __init__(self, params, *args, **kwargs):
                seen.append((params.tau1, params.tau2))
                super().__init__(params, *args, **kwargs)

        monkeypatch.setattr(experiments, "LiveShardedNetwork", Recording)
        live_compare(build_workload(0.25, seed=1), k=4, methods=("hash",), tau2=1)
        cell = MatrixSpec(
            topologies=("ethereum",), scales=(0.25,), allocators=("hash",),
            cadences=((0, 1),), reps=1, base_seed=1, k=4,
        ).cells()[0]
        res = run_cell(cell)
        assert seen == [(res.tau1, res.tau2)] == [(1, 1)]

    def test_live_compare_rejects_explicit_tau1_above_tau2(self):
        with pytest.raises(ParameterError, match="must not exceed"):
            live_compare(
                build_workload(0.02, seed=1), k=4, methods=("hash",), tau1=3, tau2=1
            )


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_artifact_tree(self, tmp_path):
        spec = MatrixSpec(
            topologies=("ethereum",), scales=(0.02,), allocators=("txallo", "hash"),
            reps=1,
        )
        result = run_matrix(spec, out_dir=str(tmp_path / "out"))
        out = tmp_path / "out"
        assert json.loads((out / "spec.json").read_text()) == spec.to_dict()
        with open(out / "run_table.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(RUN_TABLE_COLUMNS)
        assert len(rows) == 1 + len(result.results)
        for res in result.results:
            run_dir = out / "runs" / res.cell_id
            payload = json.loads((run_dir / "result.json").read_text())
            assert payload["committed"] == res.committed
            with open(run_dir / "ticks.csv", newline="") as handle:
                ticks = list(csv.reader(handle))
            assert len(ticks) == 1 + res.ticks

    def test_rerun_byte_identical_modulo_runtime_columns(self, tmp_path):
        spec = MatrixSpec(
            topologies=("ethereum",), scales=(0.02,), allocators=("hash",), reps=2,
        )
        run_matrix(spec, out_dir=str(tmp_path / "a"))
        run_matrix(spec, out_dir=str(tmp_path / "b"))

        def stripped(path):
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            drop = {rows[0].index(c) for c in RUNTIME_COLUMNS}
            return [
                [v for i, v in enumerate(row) if i not in drop] for row in rows
            ]

        assert stripped(tmp_path / "a" / "run_table.csv") == stripped(
            tmp_path / "b" / "run_table.csv"
        )
        # The per-run tick traces carry no wall-clock at all.
        for run_dir in (tmp_path / "a" / "runs").iterdir():
            mirror = tmp_path / "b" / "runs" / run_dir.name
            assert (run_dir / "ticks.csv").read_bytes() == (
                mirror / "ticks.csv"
            ).read_bytes()
