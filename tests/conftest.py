"""Shared fixtures for the test suite.

Heavy objects (the synthetic workload, its transaction graph) are
session-scoped; tests must treat them as read-only and copy before
mutating.
"""

from __future__ import annotations

import builtins
import contextlib
import math
import random

import pytest

from repro.baselines import metis, shard_scheduler
from repro.core import allocator, controller, engine, louvain, metrics
from repro.core.atxallo import a_txallo, a_txallo_reference
from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo, g_txallo_reference
from repro.core.louvain import louvain_partition, louvain_reference
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig, account_sets


#: Modules whose float totals feed a golden digest or a fast == reference
#: parity contract.  Each must accumulate in explicit left-to-right loops.
SUM_SENSITIVE_MODULES = (engine, louvain, metrics, metis, allocator, shard_scheduler)

#: Each engine entry point and its reference oracle, by tier name.
LOUVAIN = {"fast": louvain_partition, "reference": louvain_reference}
G_TXALLO = {"fast": g_txallo, "reference": g_txallo_reference}
A_TXALLO = {"fast": a_txallo, "reference": a_txallo_reference}


@pytest.fixture(params=[builtins.sum, math.fsum], ids=["sum", "fsum"])
def any_sum(request, monkeypatch):
    """Shadow ``sum`` in :data:`SUM_SENSITIVE_MODULES` with each variant.

    From Python 3.12 ``sum()`` of floats is compensated; ``math.fsum``
    (correctly rounded) stands in for it on any interpreter, so a test
    taking this fixture proves its figures do not hang on how ``sum()``
    rounds.
    """
    for module in SUM_SENSITIVE_MODULES:
        monkeypatch.setattr(module, "sum", request.param, raising=False)
    return request.param


@pytest.fixture
def reference_kernels():
    """A context manager that runs :class:`TxAlloController` on the oracle.

    Inside it the controller's ``g_txallo`` / ``a_txallo`` names — the
    ones perfbench's tracer patches too — are the dict-based reference
    kernels.  It yields its :class:`pytest.MonkeyPatch`, so a test can
    stack patches of its own that are undone first.
    """

    @contextlib.contextmanager
    def patched():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(controller, "g_txallo", g_txallo_reference)
            mp.setattr(controller, "a_txallo", a_txallo_reference)
            yield mp

    return patched


@pytest.fixture
def triangle_graph() -> TransactionGraph:
    """Two triangles joined by one bridge edge, plus a self-loop."""
    graph = TransactionGraph()
    for pair in [("a", "b"), ("b", "c"), ("a", "c"),
                 ("x", "y"), ("y", "z"), ("x", "z"),
                 ("c", "x")]:
        graph.add_transaction(pair)
    graph.add_transaction(("a", "a"))
    return graph


@pytest.fixture
def params2() -> TxAlloParams:
    return TxAlloParams(k=2, eta=2.0, lam=10.0, epsilon=1e-9)


@pytest.fixture
def params4() -> TxAlloParams:
    return TxAlloParams(k=4, eta=2.0, lam=100.0, epsilon=1e-9)


def make_random_graph(
    num_accounts: int = 60,
    num_transactions: int = 400,
    seed: int = 11,
    groups: int = 3,
) -> TransactionGraph:
    """A small clustered random graph for exactness/property tests."""
    rng = random.Random(seed)
    accounts = [f"acc{i:03d}" for i in range(num_accounts)]
    per_group = num_accounts // groups
    graph = TransactionGraph()
    for _ in range(num_transactions):
        g = rng.randrange(groups)
        pool = accounts[g * per_group:(g + 1) * per_group]
        size = rng.choice([1, 2, 2, 2, 2, 3])
        accs = rng.sample(pool, min(size, len(pool)))
        if rng.random() < 0.15:
            accs.append(rng.choice(accounts))
        graph.add_transaction(set(accs))
    return graph


@pytest.fixture
def clustered_graph() -> TransactionGraph:
    return make_random_graph()


@pytest.fixture(scope="session")
def small_workload():
    """A session-scoped synthetic workload: ~6k transactions."""
    config = WorkloadConfig(num_accounts=1500, num_transactions=6000, seed=5)
    generator = EthereumWorkloadGenerator(config)
    transactions = generator.generate()
    sets_ = account_sets(transactions)
    graph = TransactionGraph()
    for s in sets_:
        graph.add_transaction(s)
    return {
        "config": config,
        "generator": generator,
        "transactions": transactions,
        "sets": sets_,
        "graph": graph,
    }
