"""Engine-backend strategy registry (repro.core.backends).

Covers the registry's four jobs end to end: the one canonical
unknown-backend error shared by every dispatch surface, checkpoint
round-trips carrying backend names (including unregistered ones
degrading to DataError), the optional-dependency fallback walk when
numpy is absent, extensibility (a throwaway extra tier dispatching
through the same public entry points), and the numpy vector tier's
objective-gated contract against the fast backend.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import warnings

import pytest

from repro.core import backends
from repro.core.atxallo import a_txallo
from repro.core.gtxallo import g_txallo
from repro.core.louvain import louvain_partition
from repro.core.params import TxAlloParams
from repro.core.persistence import load_allocation, save_allocation
from repro.errors import DataError, ParameterError
from tests.conftest import make_random_graph

HAVE_NUMPY = backends.numpy_available()


def _canonical_unknown(name):
    return re.escape(
        f"unknown backend {name!r}, available: [{', '.join(backends.names())}]"
    )


def test_built_in_tiers_in_registration_order():
    assert backends.names() == ("fast", "reference", "turbo", "vector")
    fields = {f.name for f in dataclasses.fields(TxAlloParams)}
    assert "workers" not in fields


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

    def test_retired_parallel_tier_is_unknown(self):
        with pytest.raises(ParameterError, match=_canonical_unknown("parallel")):
            backends.get_backend("parallel")
        with pytest.raises(ParameterError, match=_canonical_unknown("parallel")):
            TxAlloParams(k=2, backend="parallel")


class TestPersistenceRoundTrip:
    """Satellite 2: backend names survive checkpoints; junk degrades."""

    def test_vector_backend_round_trips(self, tmp_path):
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="vector")
        mapping = g_txallo(g, params, backend="fast").allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params, block_height=7)
        loaded_mapping, loaded_params, height = load_allocation(path)
        assert loaded_mapping == mapping
        assert loaded_params.backend == "vector"
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

    def test_retired_parallel_backend_raises_dataerror(self, tmp_path):
        """Checkpoints written by the retired shard-parallel tier name a
        backend this build no longer registers: malformed data."""
        g = make_random_graph(seed=11)
        params = TxAlloParams.with_capacity_for(400, k=4)
        mapping = g_txallo(g, params).allocation.mapping()
        path = tmp_path / "ckpt.json"
        save_allocation(path, mapping, params)
        payload = json.loads(path.read_text())
        payload["params"]["backend"] = "parallel"
        payload["params"]["workers"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_allocation(path)


class TestNumpyAbsentFallback:
    """Satellite 3: without numpy the vector tier degrades to fast."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        # None in sys.modules makes ``import numpy`` raise ImportError,
        # which is exactly what the availability predicate probes.
        monkeypatch.setitem(sys.modules, "numpy", None)
        backends.reset_fallback_warnings()
        yield
        backends.reset_fallback_warnings()

    def test_resolves_to_fast_with_one_warning(self, no_numpy):
        assert not backends.numpy_available()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = backends.resolve_backend("vector")
            again = backends.resolve_backend("vector")
        assert spec.name == "fast"
        assert again.name == "fast"
        fallback_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback_warnings) == 1, "fallback must warn exactly once"
        assert "falling back to 'fast'" in str(fallback_warnings[0].message)

    def test_results_identical_to_fast(self, no_numpy):
        g_vec = make_random_graph(seed=21)
        g_fast = make_random_graph(seed=21)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="vector")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vec = g_txallo(g_vec, params)
        fast = g_txallo(g_fast, params, backend="fast")
        assert vec.allocation.mapping() == fast.allocation.mapping()
        assert vec.allocation.sigma == fast.allocation.sigma
        assert vec.allocation.lam_hat == fast.allocation.lam_hat
        assert (vec.sweeps, vec.moves) == (fast.sweeps, fast.moves)

    def test_unavailable_without_fallback_raises(self):
        spec = backends.BackendSpec(
            name="doomed",
            description="always unavailable, no fallback",
            parity=backends.BYTE_IDENTICAL,
            louvain_kernel=lambda *a: None,
            gtxallo_kernel=lambda *a: None,
            atxallo_kernel=lambda *a: None,
            available=lambda: False,
        )
        backends.register_backend(spec)
        try:
            with pytest.raises(ParameterError, match="declares no fallback"):
                backends.resolve_backend("doomed")
        finally:
            backends.unregister_backend("doomed")


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
            parity=backends.BYTE_IDENTICAL,
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

    def test_bad_parity_rejected(self):
        with pytest.raises(ParameterError, match="parity"):
            backends.register_backend(backends.BackendSpec(
                name="sloppy",
                description="",
                parity="vibes",
                louvain_kernel=lambda *a: None,
                gtxallo_kernel=lambda *a: None,
                atxallo_kernel=lambda *a: None,
            ))


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable (repro[vector])")
class TestVectorBackend:
    """The numpy tier's objective-gated contract on the true vector path."""

    @pytest.fixture(autouse=True)
    def force_vector_path(self, monkeypatch):
        # Below the crossover the vector tier delegates wholesale to the
        # flat engine; pin it to 0 so these small graphs exercise the
        # batched numpy sweeps themselves.
        import repro.core.vector as vector

        monkeypatch.setattr(vector, "MIN_VECTOR_NODES", 0)

    @pytest.mark.parametrize("seed", (3, 8, 11, 21))
    @pytest.mark.parametrize("k,eta", ((2, 2.0), (4, 2.0), (6, 6.0)))
    def test_objective_within_tolerance_of_fast(self, seed, k, eta):
        g_vec = make_random_graph(seed=seed)
        g_fast = make_random_graph(seed=seed)
        params = TxAlloParams.with_capacity_for(400, k=k, eta=eta, backend="vector")
        vec = g_txallo(g_vec, params)
        fast = g_txallo(g_fast, params, backend="fast")
        tolerance = backends.get_backend("vector").tolerance
        assert vec.allocation.total_throughput() >= (
            (1.0 - tolerance) * fast.allocation.total_throughput()
        )

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            g = make_random_graph(seed=11)
            params = TxAlloParams.with_capacity_for(400, k=4, backend="vector")
            runs.append(g_txallo(g, params))
        assert runs[0].allocation.mapping() == runs[1].allocation.mapping()
        assert runs[0].allocation.sigma == runs[1].allocation.sigma
        assert (runs[0].sweeps, runs[0].moves) == (runs[1].sweeps, runs[1].moves)

    def test_caches_exact(self):
        g = make_random_graph(seed=3)
        params = TxAlloParams.with_capacity_for(400, k=4, backend="vector")
        alloc = g_txallo(g, params).allocation
        alloc.validate(check_caches=True)

    def test_louvain_vector_is_a_valid_partition(self):
        g = make_random_graph(seed=8)
        part = louvain_partition(g, backend="vector")
        assert set(part) == set(g.nodes())
        labels = sorted(set(part.values()))
        assert labels == list(range(len(labels)))
        assert part == louvain_partition(g, backend="vector")

    def test_atxallo_byte_identical_to_fast(self):
        """The vector tier registers the flat A-TxAllo kernel: given the
        same allocation, adaptive sweeps match the fast backend exactly."""
        import random

        results = {}
        for backend in ("fast", "vector"):
            g = make_random_graph(seed=7)
            params = TxAlloParams.with_capacity_for(400, k=4, backend="fast")
            alloc = g_txallo(g, params).allocation
            rng = random.Random(7)
            nodes = list(g.nodes())
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
        assert results["fast"] == results["vector"]

    def test_controller_runs_on_vector_backend(self):
        import random

        from repro.core.controller import TxAlloController

        rng = random.Random(5)
        accounts = [f"acc{i:03d}" for i in range(40)]
        seed_txs = [tuple(rng.sample(accounts, 2)) for _ in range(120)]
        params = TxAlloParams.with_capacity_for(
            200, k=3, backend="vector", tau1=2, tau2=4
        )
        controller = TxAlloController(params, seed_transactions=seed_txs)
        for _ in range(5):
            block = [tuple(rng.sample(accounts, 2)) for _ in range(10)]
            controller.observe_block(block)
        controller.allocation.validate(check_caches=True)
        assert controller.adaptive_events, "tau1 cadence never fired"
        assert controller.global_events, "tau2 cadence never fired"
