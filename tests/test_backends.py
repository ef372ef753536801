"""Engine-backend strategy registry (repro.core.backends).

Covers the registry's jobs end to end: the one canonical
unknown-backend error shared by every dispatch surface (retired tiers
included), checkpoint round-trips carrying backend names (unregistered
ones degrading to DataError), extensibility (a throwaway extra tier
dispatching through the same public entry points), the byte-identical
parity every tier keeps against ``fast``, and the stdlib-only runtime
contract every built-in tier keeps.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest

from repro.core import backends
from repro.core.atxallo import a_txallo
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.core.persistence import load_allocation, save_allocation
from repro.errors import DataError, ParameterError
from tests.conftest import make_random_graph

#: Tiers this build no longer registers; their names must stay unknown.
RETIRED_TIERS = ("parallel", "vector", "turbo")

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def _canonical_unknown(name):
    return re.escape(
        f"unknown backend {name!r}, available: [{', '.join(backends.names())}]"
    )


def test_built_in_tiers_in_registration_order():
    assert backends.names() == ("fast", "reference")
    fields = {f.name for f in dataclasses.fields(TxAlloParams)}
    assert "workers" not in fields
    spec_fields = {f.name for f in dataclasses.fields(backends.BackendSpec)}
    assert spec_fields.isdisjoint({"parity", "tolerance", "warm_louvain"})


class TestCanonicalUnknownBackendError:
    """Satellite 1: every dispatcher raises the one registry message."""

    def test_params_validation(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            TxAlloParams(k=2, backend="warp")

    def test_louvain_partition(self):
        g = make_random_graph(seed=8)
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            louvain_partition(g, backend="warp")

    def test_g_txallo_override(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            g_txallo(g, params, backend="warp")

    def test_a_txallo_override(self):
        g = make_random_graph(seed=8)
        params = TxAlloParams.with_capacity_for(400, k=3)
        alloc = g_txallo(g, params).allocation
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            a_txallo(alloc, [], backend="warp")

    def test_get_backend_direct(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("warp")):
            backends.get_backend("warp")

    @pytest.mark.parametrize("name", RETIRED_TIERS)
    def test_retired_tier_is_unknown(self, name):
        with pytest.raises(ParameterError, match=_canonical_unknown(name)):
            backends.get_backend(name)
        with pytest.raises(ParameterError, match=_canonical_unknown(name)):
            TxAlloParams(k=2, backend=name)

    @pytest.mark.parametrize("name", RETIRED_TIERS)
    def test_retired_tier_rejected_by_cli(self, name, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--backend", name])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", RETIRED_TIERS)
    def test_retired_tier_rejected_by_matrix_spec(self, name):
        from repro.eval.matrix import MatrixSpec

        with pytest.raises(ParameterError, match=_canonical_unknown(name)):
            MatrixSpec(backends=("fast", name))


class TestPersistenceRoundTrip:
    """Satellite 2: backend names survive checkpoints; junk degrades."""

    @pytest.mark.parametrize("name", backends.names())
    def test_backend_round_trips(self, tmp_path, name):
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4, backend=name)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params, block_height=7)
        loaded_mapping, loaded_params, height = load_allocation(path)
        assert loaded_mapping == mapping
        assert loaded_params == params
        assert height == 7

    def test_unregistered_backend_raises_dataerror(self, tmp_path):
        """A checkpoint naming a backend this build doesn't register is
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


class TestRegistryExtensibility:
    """Satellite 6: a fourth tier is one register_backend call."""

    @pytest.fixture
    def dummy_backend(self):
        calls = {"louvain": 0, "gtxallo": 0, "atxallo": 0}
        fast = backends.get_backend("fast")

        def louvain(graph, max_levels, resolution):
            calls["louvain"] += 1
            return fast.louvain_kernel(graph, max_levels, resolution)

        def gtxallo(graph, params, initial_partition, node_order):
            calls["gtxallo"] += 1
            return fast.gtxallo_kernel(graph, params, initial_partition, node_order)

        def atxallo(alloc, touched, epsilon, workspace):
            calls["atxallo"] += 1
            return fast.atxallo_kernel(alloc, touched, epsilon, workspace)

        backends.register_backend(backends.BackendSpec(
            name="dummy",
            description="fast kernels behind a call counter (test tier)",
            louvain_kernel=louvain,
            gtxallo_kernel=gtxallo,
            atxallo_kernel=atxallo,
        ))
        try:
            yield calls
        finally:
            backends.unregister_backend("dummy")

    def test_dispatches_through_public_entry_points(self, dummy_backend):
        g = make_random_graph(seed=8)
        assert "dummy" in backends.names()
        params = TxAlloParams.with_capacity_for(400, k=3, backend="dummy")
        part = louvain_partition(g, backend="dummy")
        result = g_txallo(g, params)
        a_txallo(result.allocation, [], backend="dummy")
        assert dummy_backend == {"louvain": 1, "gtxallo": 1, "atxallo": 1}
        assert part == louvain_partition(g, backend="fast")
        fast = g_txallo(g, params, backend="fast")
        assert result.allocation.mapping() == fast.allocation.mapping()

    def test_cli_choices_follow_the_registry(self, dummy_backend):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig2", "--backend", "dummy"])
        assert args.backend == "dummy"

    def test_duplicate_registration_rejected(self, dummy_backend):
        with pytest.raises(ParameterError, match="already registered"):
            backends.register_backend(backends.get_backend("dummy"))



def _refresh_after_ingest(backend, seed, k, eta):
    """A cold G-TxAllo, a small ingest, then the refresh under test."""
    graph = make_random_graph(num_accounts=150, num_transactions=900, seed=seed)
    params = TxAlloParams.with_capacity_for(900, k=k, eta=eta, backend=backend)
    g_txallo(graph, params)
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    for i in range(12):
        accounts = rng.sample(nodes, 2) if i % 4 else [f"new{i}", rng.choice(nodes)]
        graph.add_transaction(accounts)
    graph.freeze()
    return g_txallo(graph, params)


class TestDeclaredContracts:
    """Every registered tier is byte-identical to ``fast`` on an
    identical history."""

    @pytest.mark.parametrize("seed", (3, 8, 11, 21))
    @pytest.mark.parametrize("k,eta", ((2, 2.0), (4, 2.0), (6, 6.0)))
    @pytest.mark.parametrize("name", [n for n in backends.names() if n != "fast"])
    def test_refresh_meets_declared_parity(self, name, k, eta, seed):
        tier = _refresh_after_ingest(name, seed, k, eta)
        fast = _refresh_after_ingest("fast", seed, k, eta)
        tier.allocation.validate(check_caches=True)
        assert tier.allocation.mapping() == fast.allocation.mapping()
        assert tier.allocation.sigma == fast.allocation.sigma
        assert tier.allocation.lam_hat == fast.allocation.lam_hat
        assert (tier.sweeps, tier.moves) == (fast.sweeps, fast.moves)

    @pytest.mark.parametrize("name", backends.names())
    def test_deterministic_with_exact_caches(self, name):
        runs = [_refresh_after_ingest(name, 11, 4, 2.0) for _ in range(2)]
        runs[0].allocation.validate(check_caches=True)
        assert runs[0].allocation.mapping() == runs[1].allocation.mapping()
        assert runs[0].allocation.sigma == runs[1].allocation.sigma
        assert (runs[0].sweeps, runs[0].moves) == (runs[1].sweeps, runs[1].moves)

    @pytest.mark.parametrize("name", backends.names())
    def test_louvain_is_a_dense_partition(self, name):
        g = make_random_graph(seed=8)
        part = louvain_partition(g, backend=name)
        assert set(part) == set(g.nodes())
        labels = sorted(set(part.values()))
        assert labels == list(range(len(labels)))
        assert part == louvain_partition(g, backend=name)

    @pytest.mark.parametrize("name", [n for n in backends.names() if n != "fast"])
    def test_a_txallo_byte_identical_to_fast(self, name):
        """A-TxAllo is byte-identical on every tier: given the same
        allocation and block window, the sweep matches ``fast`` exactly."""
        results = {}
        for backend in ("fast", name):
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
            result = a_txallo(alloc, touched, backend=backend)
            results[backend] = (
                alloc.mapping(),
                alloc.sigma,
                alloc.lam_hat,
                (result.new_nodes, result.swept_nodes, result.sweeps, result.moves),
            )
        assert results[name] == results["fast"]


_STDLIB_PROBE = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    import repro
    from repro.core import backends
    from repro.core.graph import TransactionGraph
    from repro.core.gtxallo import g_txallo
    from repro.core.params import TxAlloParams

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    txs = [(f"a{i}", f"a{(i * 7 + 3) % 30}") for i in range(120)]
    for name in backends.names():
        graph = TransactionGraph()
        graph.add_transactions(txs)
        params = TxAlloParams.with_capacity_for(len(txs), k=3, backend=name)
        g_txallo(graph, params).allocation.validate(check_caches=True)
        print(name)
    assert "numpy" not in sys.modules, "numpy was imported"
    """
)


def test_every_module_and_tier_runs_without_numpy():
    """The runtime is stdlib-only: importing every ``repro`` submodule and
    running G-TxAllo on every registered tier never loads numpy."""
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
    assert proc.stdout.split() == list(backends.names())
