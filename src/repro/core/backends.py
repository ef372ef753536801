"""Backend strategy registry — every engine tier, one lookup.

This is the engine-side sibling of :mod:`repro.allocators`: where that
registry maps allocator *names* to allocator factories, this one maps
``TxAlloParams.backend`` names to a :class:`BackendSpec` declaring, per
tier, the three kernels the allocation stack dispatches to — Louvain,
the G-TxAllo sweep, the A-TxAllo sweep.  ``louvain_partition``,
``g_txallo``, ``a_txallo``, ``TxAlloParams`` validation, the
controller's workspace decision, the CLI's ``--backend`` choices and
the benchmarks all look backends up through :func:`get_backend` instead
of string-switching, so a new tier (numba, a C extension, ...) is one :func:`register_backend`
call, not a multi-file surgery.

Built-in tiers
--------------
``reference``
    The dict-based executable specification (`louvain.py` / `gtxallo.py`
    / `atxallo.py` module bodies).  Slow, readable, the parity anchor.
``fast`` (default)
    The flat-array CSR sweep engine (:mod:`repro.core.engine`).
    **Byte-identical** to the reference — same mapping, same cache
    floats, same sweep/move counts.

Every tier must be byte-identical to the reference; the retired
``parallel``, ``vector`` and ``turbo`` names are unknown backends.
Every built-in tier is pure stdlib, so every tier is always available.
Every tier runs A-TxAllo on a serial kernel: the adaptive sweeps touch
only the accounts in new blocks, where the flat engine is already cheap.

Kernel signatures
-----------------
* ``louvain_kernel(graph, max_levels, resolution) -> Dict[Node, int]``
* ``gtxallo_kernel(graph, params, initial_partition, node_order) ->
  (allocation, louvain_communities, small_nodes_absorbed, sweeps, moves,
  init_seconds, optimise_seconds)``
* ``atxallo_kernel(alloc, touched, epsilon, workspace) ->
  (new_nodes, swept_nodes, sweeps, moves, converged)``

The spec callables below import their implementation modules lazily:
this module sits *under* ``params``/``louvain``/``gtxallo``/``atxallo``
in the import graph, and the engine imports those reference modules —
eager kernel imports here would close the cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple

from repro.errors import ParameterError

@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """One engine tier: its kernels.

    ``uses_workspace`` tells the controller the tier's A-TxAllo kernel
    runs on the flat engine and accepts an
    :class:`~repro.core.engine.AdaptiveWorkspace`.
    """

    name: str
    description: str
    louvain_kernel: Callable
    gtxallo_kernel: Callable
    atxallo_kernel: Callable
    uses_workspace: bool = False


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register ``spec`` under ``spec.name``; returns it for chaining."""
    if spec.name in _REGISTRY:
        raise ParameterError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a backend (for tests registering throwaway tiers)."""
    _REGISTRY.pop(name, None)


def names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    """The spec registered under ``name``.

    Raises :class:`~repro.errors.ParameterError` (a ``ValueError``) with
    the one canonical unknown-backend message — every dispatcher and
    ``TxAlloParams`` validation surface this same text.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown backend {name!r}, available: [{', '.join(names())}]"
        ) from None


# ======================================================================
# Built-in tiers.  Kernels import their modules lazily (see module
# docstring); each wrapper normalises to the registry signatures.
# ======================================================================
def _louvain_reference(graph, max_levels, resolution):
    from repro.core.louvain import _louvain_reference_kernel

    return _louvain_reference_kernel(graph, max_levels, resolution)


def _gtxallo_reference(graph, params, initial_partition, node_order):
    from repro.core.gtxallo import _g_txallo_reference

    return _g_txallo_reference(graph, params, initial_partition, node_order)


def _atxallo_reference(alloc, touched, epsilon, workspace):
    # The reference path scans the live dicts every sweep — the
    # workspace cache has nothing to offer it.
    from repro.core.atxallo import _a_txallo_reference

    return _a_txallo_reference(alloc, touched, epsilon)


def _louvain_fast(graph, max_levels, resolution):
    from repro.core.engine import louvain_fast

    return louvain_fast(graph, max_levels=max_levels, resolution=resolution)


def _gtxallo_fast(graph, params, initial_partition, node_order):
    from repro.core.engine import g_txallo_flat

    return g_txallo_flat(graph, params, initial_partition=initial_partition, node_order=node_order)


def _atxallo_flat(alloc, touched, epsilon, workspace):
    from repro.core.engine import a_txallo_flat

    return a_txallo_flat(alloc, touched, epsilon, workspace=workspace)


register_backend(BackendSpec(
    name="fast",
    description="flat-array CSR sweep engine; byte-identical to the reference",
    louvain_kernel=_louvain_fast,
    gtxallo_kernel=_gtxallo_fast,
    atxallo_kernel=_atxallo_flat,
    uses_workspace=True,
))

register_backend(BackendSpec(
    name="reference",
    description="dict-based executable specification (the parity anchor)",
    louvain_kernel=_louvain_reference,
    gtxallo_kernel=_gtxallo_reference,
    atxallo_kernel=_atxallo_reference,
))
