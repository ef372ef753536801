"""Tier-1 slice of ``benchmarks/contracts.py``, the standing-contracts run.

Runs every contract at a small scale and checks that each exact row
holds on every topology it covers, that the committed
``benchmarks/contracts.csv`` still satisfies the bounds, and that the
CLI exits non-zero when a gated row fails.  Timing rows do not bind at
this scale; CI's perf job gates them at scale 0.5.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

from repro.data.synthetic import workload_names

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
SCALE = 0.05


def _load_contracts():
    path = BENCH_DIR / "contracts.py"
    spec = importlib.util.spec_from_file_location("contracts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


contracts = _load_contracts()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contracts")


@pytest.fixture(scope="module")
def rows(out_dir):
    return contracts.run_table(SCALE, out_dir)


def _read(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("name", sorted(contracts.CONTRACTS))
def test_contract_holds_wherever_it_binds(rows, name):
    mine = [row for row in rows if row["contract"] == name]
    assert mine, f"no row measured {name}"
    for row in mine:
        assert row["passed"] or not row["gated"], row
        if row["kind"] == "exact":
            assert row["gated"] and row["passed"], row
        if row["kind"] == "timing":
            assert not row["gated"], f"timing rows do not bind at scale {SCALE}"


@pytest.mark.parametrize("name", ["engine_mismatched_cells", "parallel_mismatched_workers"])
def test_exact_rows_cover_every_topology(rows, name):
    covered = {row["topology"] for row in rows if row["contract"] == name}
    assert covered == set(workload_names())


def test_run_table_and_matrix_artifacts_are_written(rows, out_dir):
    on_disk = _read(out_dir / "run_table.csv")
    assert tuple(on_disk[0]) == contracts.COLUMNS
    assert [row["contract"] for row in on_disk] == [row["contract"] for row in rows]
    matrix = out_dir / "matrix"
    assert (matrix / "spec.json").exists()
    assert (matrix / "run_table.csv").exists()
    for run_dir in (matrix / "runs").iterdir():
        assert (run_dir / "result.json").exists()
        assert (run_dir / "ticks.csv").exists()


def test_committed_contracts_csv_meets_every_bound():
    rows = _read(BENCH_DIR / "contracts.csv")
    assert {float(row["scale"]) for row in rows} == {0.5, 2.0}
    for row in rows:
        contract = contracts.CONTRACTS[row["contract"]]
        assert row["kind"] == contract.kind, row
        assert row["bound"] == contract.bound_text, row
        gated = contract.binds(row["topology"], float(row["scale"]), int(row["cpus"]))
        assert row["gated"] == str(gated), row
        assert row["passed"] == str(contract.holds(float(row["value"]))), row
        assert row["passed"] == "True" or not gated, row
    for scale in (0.5, 2.0):
        names = {row["contract"] for row in rows if float(row["scale"]) == scale}
        assert names == set(contracts.CONTRACTS), scale


@pytest.mark.parametrize(
    ("value", "scale", "code"),
    [
        (3.2, 0.5, 0),  # gated and met
        (2.9, 0.5, 1),  # gated and missed
        (2.9, 0.25, 0),  # missed below the scale where it binds
    ],
)
def test_cli_exit_code_follows_gated_rows(monkeypatch, tmp_path, capsys, value, scale, code):
    def measure(scale, out_dir):
        yield "engine_mismatched_cells", "ethereum", 0
        yield "engine_grid_speedup", "ethereum", value

    monkeypatch.setattr(contracts, "measure", measure)
    argv = ["--scale", str(scale), "--out", str(tmp_path)]
    assert contracts.main(argv) == code
    assert ("GATE FAILED: engine_grid_speedup" in capsys.readouterr().err) == bool(code)
    assert len(_read(tmp_path / "run_table.csv")) == 2
