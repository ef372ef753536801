"""The package's float totals accumulate left to right, never with ``sum()``.

From Python 3.12 the builtin ``sum()`` of floats is compensated, so a
total it computes can differ in the last bits from the plain in-order
accumulation the figures, goldens and fast == reference parity are
defined by.  Float totals go through :func:`repro.core.metrics.ordered_sum`
or an explicit loop; this test walks the source and fails on any call
to the builtin ``sum`` outside the allowlist below, where each site is
an integer total or a timing figure that feeds no golden.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: ``file:function`` -> why its builtin ``sum()`` calls are exact.
ALLOWED = {
    "chain/live.py:LiveShardedNetwork.report": "integer totals of the latency histogram",
    "data/stream.py:BlockStream.num_transactions": "integer transaction count",
    "data/synthetic.py:card_from_sets": "integer account and transaction counts",
    "eval/experiments.py:Figure1Report.render": "integer degree-histogram count",
    "eval/experiments.py:AdaptiveRun.mean_adaptive_runtime": "timing mean; feeds no golden",
    "eval/experiments.py:Figure10Report.render": "timing total; feeds no golden",
    "eval/experiments.py:LiveComparison.render": "integer count of update ticks",
}


def sum_calls(node, scope=()):
    """``(qualified function name, line)`` of each bare ``sum(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from sum_calls(child, scope + (child.name,))
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "sum"
        ):
            yield ".".join(scope) or "<module>", child.lineno
        yield from sum_calls(child, scope)


def sum_call_sites():
    """``(file:function, line)`` of every builtin ``sum`` call in the package."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        sites.extend((f"{relative}:{where}", line) for where, line in sum_calls(tree))
    return sites


def test_no_builtin_sum_outside_the_allowlist():
    stray = [f"{site} (line {line})" for site, line in sum_call_sites() if site not in ALLOWED]
    assert not stray, "float totals must use ordered_sum: " + ", ".join(stray)


def test_allowlist_has_no_stale_entries():
    used = {site for site, _ in sum_call_sites()}
    assert set(ALLOWED) <= used, sorted(set(ALLOWED) - used)
