"""Registry + protocol parity suite.

Every allocator registered in :mod:`repro.allocators` must run through
**both** chain substrates — the analytic :class:`ShardedChainSimulator`
and the tick-driven :class:`LiveShardedNetwork` — on one shared
synthetic workload, and satisfy the report invariants: cross-shard
ratio in [0, 1], committed ≤ arrived, bit-identical results across two
runs, and TxAllo ≥ hash on committed TPS.  A method that registers but
cannot survive this suite is not integrated.
"""

import pytest

from repro import allocators
from repro.chain.live import LiveShardedNetwork
from repro.chain.simulator import simulate_allocation
from repro.core.allocator import (
    FixedMappingAllocator,
    FunctionAllocator,
    OnlineAllocator,
    StaticAllocator,
    ensure_online,
)
from repro.core.controller import TxAlloController
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig, chunk_blocks
from repro.errors import AllocationError, ParameterError

BUILTINS = (
    "metis",
    "prefix",
    "random",
    "shard_scheduler",
    "txallo",
    "txallo_online",
    "txallo_resilient",
)


@pytest.fixture(scope="module")
def shared_workload():
    """One synthetic workload every registered allocator is judged on."""
    config = WorkloadConfig(
        num_accounts=300, num_transactions=2400, block_size=40, seed=11
    )
    generator = EthereumWorkloadGenerator(config)
    transactions = generator.generate()
    blocks = [list(b) for b in chunk_blocks(transactions, config.block_size)]
    seed_blocks, live_blocks = blocks[:30], blocks[30:]
    seed_sets = [tuple(sorted(t.accounts)) for b in seed_blocks for t in b]
    live_sets = [tuple(sorted(t.accounts)) for b in live_blocks for t in b]
    accounts = sorted({a for t in transactions for a in t.accounts})
    params = TxAlloParams(
        k=4, eta=2.0, lam=30.0, epsilon=1e-5 * len(transactions), tau1=3, tau2=30
    )
    return {
        "transactions": transactions,
        "seed_sets": seed_sets,
        "live_sets": live_sets,
        "live_blocks": live_blocks,
        "accounts": accounts,
        "params": params,
    }


class TestRegistry:
    def test_builtins_available(self):
        assert set(BUILTINS) <= set(allocators.available())

    def test_alias_resolves(self):
        assert allocators.get_entry("hash").name == "random"

    def test_unknown_name_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="available"):
            allocators.get_entry("quantum")

    def test_get_builds_fresh_instances(self):
        a = allocators.get("metis")
        b = allocators.get("metis")
        assert a is not b
        assert isinstance(a, StaticAllocator)
        assert a.metadata["kind"] == "static"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            allocators.register(
                "random", lambda: None, kind="static"
            )

    def test_register_and_unregister_custom_allocator(self):
        name = "_test_round_robin"
        allocators.register(
            name,
            lambda: FunctionAllocator(
                name,
                lambda graph, params: {
                    a: i % params.k
                    for i, a in enumerate(graph.nodes_sorted())
                },
            ),
            kind="static",
            description="index-order round robin (test only)",
        )
        try:
            assert name in allocators.available()
            allocator = allocators.get(name)
            assert isinstance(allocator, StaticAllocator)
        finally:
            allocators.unregister(name)
        assert name not in allocators.available()

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            allocators.register("_bad", lambda: None, kind="quantum")

    def test_overwrite_repoints_alias_and_unregister_respects_ownership(self):
        factory = lambda: FunctionAllocator("_t", lambda g, p: {})
        allocators.register("_t_first", factory, kind="static", aliases=("_t_alias",))
        try:
            allocators.register(
                "_t_second", factory, kind="static", aliases=("_t_alias",),
                overwrite=True,
            )
            try:
                assert allocators.get_entry("_t_alias").name == "_t_second"
                # Removing the old entry must not steal the alias the
                # overwrite re-pointed at the new one.
                allocators.unregister("_t_first")
                assert allocators.get_entry("_t_alias").name == "_t_second"
            finally:
                allocators.unregister("_t_second")
        finally:
            if "_t_first" in allocators.available():
                allocators.unregister("_t_first")
        assert "_t_alias" not in set(allocators.available())
        with pytest.raises(ParameterError):
            allocators.get_entry("_t_alias")


class TestEnsureOnline:
    def test_mapping_wraps_with_hash_fallback(self):
        params = TxAlloParams(k=3, eta=2.0, lam=10.0)
        online = ensure_online({"a": 2}, params)
        assert isinstance(online, FixedMappingAllocator)
        assert online.shard_of("a") == 2
        assert 0 <= online.shard_of("unknown") < 3

    def test_invalid_mapping_value_rejected(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        with pytest.raises(AllocationError):
            ensure_online({"a": 5}, params)

    def test_bare_static_allocator_rejected_with_guidance(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        with pytest.raises(AllocationError, match="as_online"):
            ensure_online(allocators.get("metis"), params)

    def test_online_allocator_passes_through(self):
        params = TxAlloParams(k=2, eta=2.0, lam=10.0)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert ensure_online(controller, params) is controller


class TestParityAcrossSubstrates:
    """Every registered allocator, both substrates, shared workload."""

    def _online(self, name, shared):
        return allocators.get_online(
            name,
            shared["params"],
            seed_transactions=shared["seed_sets"],
        )

    @pytest.mark.parametrize("name", BUILTINS)
    def test_analytic_simulator_invariants(self, shared_workload, name):
        allocator = self._online(name, shared_workload)
        for block in shared_workload["live_blocks"]:
            allocator.observe_block([tuple(t.accounts) for t in block])
        # shard_of is total, so the simulator gets a complete mapping.
        mapping = {
            a: allocator.shard_of(a) for a in shared_workload["accounts"]
        }
        assert all(0 <= s < shared_workload["params"].k for s in mapping.values())
        report = simulate_allocation(
            shared_workload["transactions"], mapping, shared_workload["params"]
        )
        assert report.num_transactions == len(shared_workload["transactions"])
        assert 0.0 <= report.cross_shard_ratio <= 1.0
        assert report.worst_case_latency >= 1

    @pytest.mark.parametrize("name", BUILTINS)
    def test_live_network_invariants_and_determinism(self, shared_workload, name):
        reports = []
        for _ in range(2):
            allocator = self._online(name, shared_workload)
            net = LiveShardedNetwork(shared_workload["params"], allocator)
            reports.append(net.run(shared_workload["live_blocks"], drain=True))
        first, second = reports
        assert 0.0 <= first.cross_shard_ratio <= 1.0
        assert first.committed <= first.arrived + 0  # never over-commit
        assert first.committed == first.arrived  # drained runs commit all
        assert first == second, f"{name} is not deterministic across runs"

    def test_txallo_at_least_hash_on_committed_tps(self, shared_workload):
        def tps(name):
            allocator = self._online(name, shared_workload)
            net = LiveShardedNetwork(shared_workload["params"], allocator)
            return net.run(
                shared_workload["live_blocks"], drain=True
            ).committed_per_tick

        assert tps("txallo") >= tps("random")

    @pytest.mark.parametrize("name", BUILTINS)
    def test_run_stream_accounting_is_consistent(self, shared_workload, name):
        params = shared_workload["params"]
        allocator = allocators.get_online(name, params)
        assert isinstance(allocator, OnlineAllocator)
        result = allocator.run_stream(shared_workload["live_sets"])
        assert result.num_transactions == len(shared_workload["live_sets"])
        assert 0.0 <= result.cross_shard_ratio <= 1.0
        assert len(result.shard_loads) == params.k
        assert result.throughput(params.lam) >= 0.0

    @pytest.mark.parametrize("name", ("shard_scheduler", "txallo_online"))
    def test_run_stream_on_warmed_allocator_counts_only_the_stream(
        self, shared_workload, name
    ):
        """Seed history warms the allocator's state but must not leak
        into the replayed stream's accounting."""
        params = shared_workload["params"]
        allocator = allocators.get_online(
            name, params, seed_transactions=shared_workload["seed_sets"]
        )
        result = allocator.run_stream(shared_workload["live_sets"])
        assert result.num_transactions == len(shared_workload["live_sets"])
        assert result.num_cross_shard <= result.num_transactions
        # eta bounds per-transaction load: total charged load for the
        # stream alone can never exceed eta * k * |stream|.
        assert sum(result.shard_loads) <= (
            params.eta * params.k * len(shared_workload["live_sets"])
        )
