"""Shared fixtures for the benchmark suite.

One session-scoped workload is shared by every figure benchmark.  The
scale is chosen so the whole suite finishes in a few minutes while every
comparative shape of the paper still holds; crank ``BENCH_SCALE`` up via
the environment to stress the allocators.

Each ``bench_fig*.py`` file does two things:

* prints the regenerated figure (tables + ASCII charts) so the run's
  stdout is the reproduction artefact; and
* registers a pytest-benchmark measurement of the figure's core
  computation, plus shape assertions tying the output to the paper's
  qualitative claims.
"""

from __future__ import annotations

import os

import pytest

# Pin BLAS/OpenMP thread counts before any import can pull a BLAS library
# in: bench timings must not be skewed by library-level oversubscription
# (the multi-core layer owns its parallelism explicitly — see
# repro.core.parallel).  The import is deliberately placed ahead of
# repro.eval below.
from repro.core.parallel import blas_threads_pinned, pin_blas_threads

pin_blas_threads()

from repro.eval import experiments  # noqa: E402

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))
#: TxAllo engine backend for the whole suite ("fast"/"reference" are
#: byte-identical, so figures cannot depend on that choice).
BENCH_BACKEND = os.environ.get("BENCH_BACKEND", "fast")
BENCH_KS = (2, 10, 20, 40, 60)
BENCH_ETAS = (2.0, 6.0, 10.0)


def pytest_addoption(parser):
    """``--scale`` mirrors the run-table scripts' flag (beats the env).

    Consumed via the ``bench_scale`` fixture by the figure benchmarks
    *and* the ``test_*_run_table`` gate tests — note the latter then
    rewrite their committed ``BENCH_*.json`` at that scale, exactly as
    the env var always did.
    """
    parser.addoption(
        "--scale", action="store", type=float, default=None,
        help=f"workload scale factor (default: BENCH_SCALE env or {BENCH_SCALE})",
    )


@pytest.fixture(autouse=True)
def _assert_blas_pinned():
    """Every bench test runs under an explicit BLAS/OpenMP thread pin.

    The pin itself happens at module import above (before any other import);
    this just fails loudly if some future import shuffle drops it.
    """
    assert blas_threads_pinned(), (
        "BLAS/OpenMP thread knobs are unpinned — pin_blas_threads() must "
        "run at benchmarks/conftest.py import, before any other import"
    )
    yield


@pytest.fixture(scope="session")
def bench_scale(request) -> float:
    option = request.config.getoption("--scale")
    return BENCH_SCALE if option is None else option


@pytest.fixture(scope="session")
def workload(bench_scale):
    return experiments.build_workload(scale=bench_scale, seed=2022)


@pytest.fixture(scope="session")
def sweep_records(workload):
    """The shared (method x k x eta) grid behind Figs. 2,3,5,6,7,8."""
    return experiments.sweep(
        workload, ks=BENCH_KS, etas=BENCH_ETAS, backend=BENCH_BACKEND
    )
