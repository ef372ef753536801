"""One engine, one oracle: the engine-backend knob is gone.

The flat-array engine is the only allocation core; the dict-based
reference kernels are reached by calling them by name, never through an
option.  Covers the knob's absence at every place it could be set
(params, the three entry points, the CLI, the matrix spec), checkpoints
written while it existed (``"fast"`` / ``"reference"`` still load, any
other name is malformed data), the byte-identical parity of each
reference kernel against the engine after an ingest, and the
stdlib-only runtime contract both keep.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from repro.core.atxallo import a_txallo, a_txallo_reference
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.core.persistence import load_allocation, save_allocation
from repro.errors import DataError, ParameterError
from tests.conftest import G_TXALLO, LOUVAIN, make_random_graph

#: Tiers this build no longer has; their names must stay unknown.
RETIRED_TIERS = ("parallel", "vector", "turbo")

#: Every engine-tier name a caller or a checkpoint may still carry.
TIER_NAMES = ("fast", "reference", *RETIRED_TIERS)

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_backend_module_or_field():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.backends")
    fields = {f.name for f in dataclasses.fields(TxAlloParams)}
    assert fields.isdisjoint({"backend", "workers"})


class TestKnobIsGone:
    """No surface accepts an engine tier any more."""

    @pytest.mark.parametrize("name", TIER_NAMES)
    def test_params_reject_backend(self, name):
        with pytest.raises(TypeError):
            TxAlloParams(k=2, backend=name)
        with pytest.raises(TypeError):
            TxAlloParams.with_capacity_for(400, k=2, backend=name)

    def test_entry_points_reject_backend(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        with pytest.raises(TypeError):
            louvain_partition(g, backend="fast")
        with pytest.raises(TypeError):
            g_txallo(g, params, backend="fast")
        alloc = g_txallo(g, params).allocation
        with pytest.raises(TypeError):
            a_txallo(alloc, [], backend="fast")

    @pytest.mark.parametrize("name", TIER_NAMES)
    def test_cli_has_no_backend_flag(self, name, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fig2", "--backend", name])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("backends", (["fast"], ["fast", "reference"], ["turbo"]))
    def test_matrix_spec_rejects_backends_key(self, backends):
        from repro.eval.matrix import MatrixSpec

        with pytest.raises(ParameterError, match=r"unknown spec keys \['backends'\]"):
            MatrixSpec.from_dict({"backends": backends})


class TestPersistenceRoundTrip:
    """Checkpoints written with a tier name still load; junk degrades."""

    def test_new_checkpoints_omit_backend(self, tmp_path):
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params, block_height=7)
        assert "backend" not in json.loads(path.read_text())["params"]
        assert load_allocation(path) == (mapping, params, 7)

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_legacy_backend_key_loads_to_the_same_params(self, tmp_path, name):
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params, block_height=7)
        payload = json.loads(path.read_text())
        payload["params"]["backend"] = name
        path.write_text(json.dumps(payload))
        assert load_allocation(path) == (mapping, params, 7)

    def test_unregistered_backend_raises_dataerror(self, tmp_path):
        """A checkpoint naming a backend this build doesn't know is
        malformed *data*, not a KeyError escaping the loader."""
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params)
        payload = json.loads(path.read_text())
        payload["params"]["backend"] = "from-the-future"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_allocation(path)

    @pytest.mark.parametrize("name", RETIRED_TIERS)
    def test_retired_backend_raises_dataerror(self, tmp_path, name):
        """Checkpoints written by a retired tier name a backend this
        build no longer registers: malformed data."""
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params)
        payload = json.loads(path.read_text())
        payload["params"]["backend"] = name
        if name == "parallel":
            # The shard-parallel tier's checkpoints carried its pool size.
            payload["params"]["workers"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_allocation(path)


def _refresh_after_ingest(tier, seed, k, eta):
    """A cold G-TxAllo, a small ingest, then the refresh under test."""
    run = G_TXALLO[tier]
    graph = make_random_graph(num_accounts=150, num_transactions=900, seed=seed)
    params = TxAlloParams.with_capacity_for(900, k=k, eta=eta)
    run(graph, params)
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    for i in range(12):
        accounts = rng.sample(nodes, 2) if i % 4 else [f"new{i}", rng.choice(nodes)]
        graph.add_transaction(accounts)
    graph.freeze()
    return run(graph, params)


class TestDeclaredContracts:
    """The reference kernels are byte-identical to the engine on an
    identical history."""

    @pytest.mark.parametrize("seed", (3, 8, 11, 21))
    @pytest.mark.parametrize("k,eta", ((2, 2.0), (4, 2.0), (6, 6.0)))
    def test_refresh_meets_declared_parity(self, k, eta, seed):
        ref = _refresh_after_ingest("reference", seed, k, eta)
        fast = _refresh_after_ingest("fast", seed, k, eta)
        ref.allocation.validate(check_caches=True)
        assert ref.allocation.mapping() == fast.allocation.mapping()
        assert ref.allocation.sigma == fast.allocation.sigma
        assert ref.allocation.lam_hat == fast.allocation.lam_hat
        assert (ref.sweeps, ref.moves) == (fast.sweeps, fast.moves)

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_deterministic_with_exact_caches(self, name):
        runs = [_refresh_after_ingest(name, 11, 4, 2.0) for _ in range(2)]
        runs[0].allocation.validate(check_caches=True)
        assert runs[0].allocation.mapping() == runs[1].allocation.mapping()
        assert runs[0].allocation.sigma == runs[1].allocation.sigma
        assert (runs[0].sweeps, runs[0].moves) == (runs[1].sweeps, runs[1].moves)

    @pytest.mark.parametrize("name", ("fast", "reference"))
    def test_louvain_is_a_dense_partition(self, name):
        g = make_random_graph(seed=8)
        part = LOUVAIN[name](g)
        assert set(part) == set(g.nodes())
        labels = sorted(set(part.values()))
        assert labels == list(range(len(labels)))
        assert part == LOUVAIN[name](g)

    def test_a_txallo_byte_identical_to_fast(self):
        """Given the same allocation and block window, the reference
        A-TxAllo sweep matches the engine's exactly."""
        results = {}
        for tier, run in (("fast", a_txallo), ("reference", a_txallo_reference)):
            g = make_random_graph(seed=7)
            alloc = g_txallo(g, TxAlloParams.with_capacity_for(400, k=4)).allocation
            rng = random.Random(7)
            nodes = sorted(g.nodes())
            txs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
            txs += [(f"new_{i}", rng.choice(nodes)) for i in range(5)]
            touched = set()
            for accounts in txs:
                unique = set(accounts)
                g.add_transaction(unique)
                alloc.ingest_transaction(unique)
                touched.update(unique)
            result = run(alloc, touched)
            results[tier] = (
                alloc.mapping(),
                alloc.sigma,
                alloc.lam_hat,
                (result.new_nodes, result.swept_nodes, result.sweeps, result.moves),
            )
        assert results["reference"] == results["fast"]


_STDLIB_PROBE = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    import repro
    from repro.core.graph import TransactionGraph
    from repro.core.gtxallo import g_txallo, g_txallo_reference
    from repro.core.params import TxAlloParams

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    txs = [(f"a{i}", f"a{(i * 7 + 3) % 30}") for i in range(120)]
    for name, run in (("fast", g_txallo), ("reference", g_txallo_reference)):
        graph = TransactionGraph()
        graph.add_transactions(txs)
        params = TxAlloParams.with_capacity_for(len(txs), k=3)
        run(graph, params).allocation.validate(check_caches=True)
        print(name)
    assert "numpy" not in sys.modules, "numpy was imported"
    """
)


def test_every_module_and_tier_runs_without_numpy():
    """The runtime is stdlib-only: importing every ``repro`` submodule and
    running the engine's and the reference's G-TxAllo never loads numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fast", "reference"]
