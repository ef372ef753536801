"""Live runs build only the seed state their allocator reads.

``experiments.live_setup`` hands every allocator the seed history as
account sets and builds no graph: the TxAllo controller and the static
graph methods each build their own, the Shard Scheduler observes the
history, and the per-account rules (hash, prefix) route by the rule and
read none of it.  These tests pin that split: no graph work for the
history-free methods, exact rule routing, an exact fallback memo, and
no state shared between the methods of one comparison.
"""

import pytest

from repro import allocators
from repro.baselines.hash_allocation import hash_shard, prefix_shard
from repro.core.allocator import FixedMappingAllocator
from repro.core.graph import TransactionGraph
from repro.core.params import TxAlloParams
from repro.data.synthetic import workload_names
from repro.eval.experiments import build_workload, live_compare, live_setup


def setup_for(workload, k=4):
    return live_setup(
        workload,
        k=k,
        eta=2.0,
        seed_fraction=0.4,
        capacity_factor=1.5,
        no_live_blocks="no live blocks",
    )


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale=0.05, seed=3)


class TestNoGraphForHistoryFreeMethods:
    def count_ingests(self, monkeypatch, workload, methods):
        calls = []
        original = TransactionGraph.add_transaction

        def add_transaction(graph, accounts):
            calls.append(accounts)
            return original(graph, accounts)

        monkeypatch.setattr(TransactionGraph, "add_transaction", add_transaction)
        live_compare(workload, k=4, tau1=2, tau2=20, methods=methods)
        return len(calls)

    @pytest.mark.parametrize("method", ["random", "hash", "prefix", "shard_scheduler"])
    def test_live_run_ingests_no_transaction(self, monkeypatch, workload, method):
        assert self.count_ingests(monkeypatch, workload, (method,)) == 0

    def test_the_counter_sees_graph_methods(self, monkeypatch, workload):
        # The controller ingests the seed history into its own graph.
        seed_sets = setup_for(workload).seed_sets
        assert self.count_ingests(monkeypatch, workload, ("txallo",)) >= len(seed_sets)


class TestRuleFormsRouteByTheirRule:
    @pytest.mark.parametrize("topology", workload_names())
    @pytest.mark.parametrize(
        "method, rule", [("hash", hash_shard), ("random", hash_shard), ("prefix", prefix_shard)]
    )
    def test_every_account_routes_by_the_rule(self, topology, method, rule):
        workload = build_workload(scale=0.05, seed=1, topology=topology)
        setup = setup_for(workload, k=8)
        allocator = allocators.get_online(method, setup.params, seed_transactions=setup.seed_sets)
        accounts = sorted({a for accounts in workload.account_sets for a in accounts})
        expected = [rule(a, 8) for a in accounts]
        assert [allocator.shard_of(a) for a in accounts] == expected
        # Memoised routes answer the same on the second pass.
        assert [allocator.shard_of(a) for a in accounts] == expected
        assert allocator.mapping() == {}


class TestFixedMappingFallbackMemo:
    def make(self, mapping):
        calls = []

        def fallback(account, k):
            calls.append(account)
            return hash_shard(account, k)

        params = TxAlloParams(k=4, eta=2.0, lam=10.0)
        return FixedMappingAllocator(mapping, params, fallback=fallback), calls

    def test_fallback_runs_once_per_distinct_account(self):
        allocator, calls = self.make({"a": 3})
        accounts = ["a", "b", "c", "b", "a", "c", "d", "b"]
        first = [allocator.shard_of(x) for x in accounts]
        second = [allocator.shard_of(x) for x in accounts]
        assert first == second
        assert first == [3 if x == "a" else hash_shard(x, 4) for x in accounts]
        assert sorted(calls) == ["b", "c", "d"]

    def test_mapping_excludes_fallback_routed_accounts(self):
        allocator, _ = self.make({"a": 3, "b": 0})
        for x in ("a", "x", "y", "b", "z"):
            allocator.shard_of(x)
        assert allocator.mapping() == {"a": 3, "b": 0}


class TestNoStateSharedAcrossMethods:
    @pytest.mark.parametrize("faults", [False, True])
    def test_comparison_equals_single_method_runs(self, workload, faults):
        kwargs = dict(k=4, tau1=2, tau2=20, faults=faults, fault_seed=3 if faults else None)
        methods = allocators.available()
        together = live_compare(workload, methods=methods, **kwargs).reports
        assert sorted(together) == sorted(methods)
        for method in methods:
            alone = live_compare(workload, methods=(method,), **kwargs).reports[method]
            assert together[method] == alone, method
