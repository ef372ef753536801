"""Backend strategy registry — every engine tier, one lookup.

This is the engine-side sibling of :mod:`repro.allocators`: where that
registry maps allocator *names* to allocator factories, this one maps
``TxAlloParams.backend`` names to a :class:`BackendSpec` declaring, per
tier, the three kernels the allocation stack dispatches to — Louvain,
the G-TxAllo sweep, the A-TxAllo sweep — together with the tier's parity
contract and its availability predicate.  ``louvain_partition``,
``g_txallo``, ``a_txallo``, ``TxAlloParams`` validation, the controller's
workspace/warm-stats decisions, the CLI's ``--backend`` choices and the
benchmarks all resolve backends through :func:`get_backend` /
:func:`resolve_backend` instead of string-switching, so a new tier
(numba, a C extension, ...) is one :func:`register_backend` call, not a
multi-file surgery.

Built-in tiers
--------------
``reference``
    The dict-based executable specification (`louvain.py` / `gtxallo.py`
    / `atxallo.py` module bodies).  Slow, readable, the parity anchor.
``fast`` (default)
    The flat-array CSR sweep engine (:mod:`repro.core.engine`).
    **Byte-identical** to the reference — same mapping, same cache
    floats, same sweep/move counts.
``turbo``
    Fast plus warm-started Louvain and work-skipping sweeps.
    **Objective-gated**: allowed to land on a different local optimum as
    long as its total capped throughput stays within
    :data:`OBJECTIVE_TOLERANCE` of the cold fast result.
``vector``
    numpy segment-op kernels over the CSR arrays
    (:mod:`repro.core.vector`).  Objective-gated like turbo (float
    summation order differs from the reference by construction), and
    *optional*: numpy is the ``repro[vector]`` extra, and when the
    import is unavailable the tier falls back to ``fast`` at resolve
    time with a single warning (:func:`resolve_backend`).

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
import warnings
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ParameterError

#: Relative tolerance of the objective gate shared by every
#: ``objective_gated`` tier: the tier's total capped throughput must be
#: ``>= (1 - OBJECTIVE_TOLERANCE) *`` the cold fast-backend result on
#: the same graph and parameters.  ``repro.core.engine`` re-exports this
#: as ``WARM_OBJECTIVE_TOLERANCE`` (the historical name tests and
#: benchmarks gate against).
OBJECTIVE_TOLERANCE = 0.02

#: ``BackendSpec.parity`` values.
BYTE_IDENTICAL = "byte_identical"
OBJECTIVE_GATED = "objective_gated"


def _always_available() -> bool:
    return True


def numpy_available() -> bool:
    """True when ``import numpy`` succeeds — the vector tier's predicate."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """One engine tier: its kernels, parity contract and availability.

    ``parity`` is :data:`BYTE_IDENTICAL` (the tier must reproduce the
    reference bit-for-bit; ``tolerance`` is 0) or
    :data:`OBJECTIVE_GATED` (the tier may land on a different local
    optimum, gated on total capped throughput within ``tolerance``).

    ``available`` is checked by :func:`resolve_backend` before
    dispatching; when it returns False the resolver walks ``fallback``
    (warning once per process) instead of failing — optional-dependency
    tiers degrade, they do not break the run.

    ``uses_workspace`` tells the controller the tier's A-TxAllo kernel
    runs on the flat engine and accepts an
    :class:`~repro.core.engine.AdaptiveWorkspace`; ``warm_louvain``
    that its global runs stamp ``louvain_warm_hit`` for the warm/cold
    counters.
    """

    name: str
    description: str
    parity: str
    louvain_kernel: Callable
    gtxallo_kernel: Callable
    atxallo_kernel: Callable
    tolerance: float = 0.0
    available: Callable[[], bool] = _always_available
    fallback: Optional[str] = None
    uses_workspace: bool = False
    warm_louvain: bool = False


_REGISTRY: Dict[str, BackendSpec] = {}

#: Backend names that already warned about an unavailable tier this
#: process — the fallback is taken silently afterwards.
_FALLBACK_WARNED: set = set()


def register_backend(spec: BackendSpec, *, overwrite: bool = False) -> BackendSpec:
    """Register ``spec`` under ``spec.name``; returns it for chaining."""
    if spec.parity not in (BYTE_IDENTICAL, OBJECTIVE_GATED):
        raise ParameterError(
            f"backend parity must be {BYTE_IDENTICAL!r} or "
            f"{OBJECTIVE_GATED!r}, got {spec.parity!r}"
        )
    if spec.name in _REGISTRY and not overwrite:
        raise ParameterError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a backend (for tests registering throwaway tiers)."""
    _REGISTRY.pop(name, None)
    _FALLBACK_WARNED.discard(name)


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


def resolve_backend(name: str) -> BackendSpec:
    """Like :func:`get_backend`, but walks unavailable tiers' fallbacks.

    An optional-dependency tier (``vector`` without numpy) resolves to
    its declared fallback with one ``RuntimeWarning`` per process; a
    tier that is unavailable *and* has no fallback raises.
    """
    spec = get_backend(name)
    seen = set()
    while not spec.available():
        if spec.fallback is None:
            raise ParameterError(
                f"backend {spec.name!r} is unavailable and declares no fallback"
            )
        if spec.name in seen:
            raise ParameterError(
                f"backend fallback cycle at {spec.name!r}"
            )
        seen.add(spec.name)
        if spec.name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(spec.name)
            warnings.warn(
                f"backend {spec.name!r} is unavailable "
                f"({spec.description.split(';')[0]}); falling back to "
                f"{spec.fallback!r}",
                RuntimeWarning,
                stacklevel=3,
            )
        spec = get_backend(spec.fallback)
    return spec


def reset_fallback_warnings() -> None:
    """Re-arm the once-per-process fallback warnings (tests only)."""
    _FALLBACK_WARNED.clear()


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

    return louvain_fast(graph, max_levels=max_levels, resolution=resolution, warm=False)


def _gtxallo_fast(graph, params, initial_partition, node_order):
    from repro.core.engine import g_txallo_flat

    return g_txallo_flat(
        graph, params, initial_partition=initial_partition,
        node_order=node_order, warm=False,
    )


def _atxallo_flat(alloc, touched, epsilon, workspace):
    from repro.core.engine import a_txallo_flat

    return a_txallo_flat(alloc, touched, epsilon, workspace=workspace)


def _louvain_turbo(graph, max_levels, resolution):
    from repro.core.engine import louvain_fast

    return louvain_fast(graph, max_levels=max_levels, resolution=resolution, warm=True)


def _gtxallo_turbo(graph, params, initial_partition, node_order):
    from repro.core.engine import g_txallo_flat

    return g_txallo_flat(
        graph, params, initial_partition=initial_partition,
        node_order=node_order, warm=True,
    )


def _louvain_vector(graph, max_levels, resolution):
    from repro.core.vector import louvain_vector

    return louvain_vector(graph, max_levels=max_levels, resolution=resolution)


def _gtxallo_vector(graph, params, initial_partition, node_order):
    from repro.core.vector import g_txallo_vector

    return g_txallo_vector(
        graph, params, initial_partition=initial_partition, node_order=node_order
    )


register_backend(BackendSpec(
    name="fast",
    description="flat-array CSR sweep engine; byte-identical to the reference",
    parity=BYTE_IDENTICAL,
    louvain_kernel=_louvain_fast,
    gtxallo_kernel=_gtxallo_fast,
    atxallo_kernel=_atxallo_flat,
    uses_workspace=True,
))

register_backend(BackendSpec(
    name="reference",
    description="dict-based executable specification (the parity anchor)",
    parity=BYTE_IDENTICAL,
    louvain_kernel=_louvain_reference,
    gtxallo_kernel=_gtxallo_reference,
    atxallo_kernel=_atxallo_reference,
))

register_backend(BackendSpec(
    name="turbo",
    description="warm-started Louvain + work-skipping sweeps on the flat engine",
    parity=OBJECTIVE_GATED,
    tolerance=OBJECTIVE_TOLERANCE,
    louvain_kernel=_louvain_turbo,
    gtxallo_kernel=_gtxallo_turbo,
    atxallo_kernel=_atxallo_flat,
    uses_workspace=True,
    warm_louvain=True,
))

register_backend(BackendSpec(
    name="vector",
    description="numpy segment-op kernels (requires the repro[vector] extra)",
    parity=OBJECTIVE_GATED,
    tolerance=OBJECTIVE_TOLERANCE,
    available=numpy_available,
    fallback="fast",
    louvain_kernel=_louvain_vector,
    gtxallo_kernel=_gtxallo_vector,
    # A-TxAllo stays on the byte-identical flat kernel: the adaptive
    # sweeps touch O(|V̂|) nodes, where the flat engine is already
    # optimal and the AdaptiveWorkspace batching applies unchanged.
    atxallo_kernel=_atxallo_flat,
    uses_workspace=True,
))
