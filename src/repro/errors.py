"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so that callers can catch
one base class.  Errors are deliberately specific: an invalid hyperparameter
raises :class:`ParameterError`, a malformed transaction raises
:class:`TransactionError`, and so on.  The library never silences an error or
returns a sentinel value where an exception is the clearer signal.

Hierarchy::

    ReproError
    ├── ParameterError      (ValueError)   invalid hyperparameter
    ├── TransactionError    (ValueError)   malformed transaction
    ├── AllocationError     (ValueError)   mapping violates Definition 1
    ├── GraphError          (ValueError)   inconsistent graph operation
    ├── DataError           (ValueError)   malformed external dataset
    ├── SimulationError     (RuntimeError) simulator state inconsistency
    └── AllocatorError      (RuntimeError) allocator-side runtime failure
        └── DegradedModeError              operation needs a healthy allocator

The two runtime branches are deliberately distinct so fault-injection
tests can assert on exact types: a :class:`SimulationError` means the
*chain substrate* broke an invariant, an :class:`AllocatorError` means
the *allocation service* failed while the substrate is fine — the
latter is what :class:`repro.core.resilience.ResilientAllocator`
isolates, and what :mod:`repro.chain.faults` injects.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """A hyperparameter is outside its valid domain (e.g. ``k < 1``)."""


class TransactionError(ReproError, ValueError):
    """A transaction violates the model of Section III-A of the paper.

    For example an empty input or output account set.
    """


class AllocationError(ReproError, ValueError):
    """An account-shard mapping violates Definition 1 of the paper.

    Raised on duplicate assignment (uniqueness) or on access to an account
    that is missing from the mapping (completeness).
    """


class GraphError(ReproError, ValueError):
    """An operation on the transaction graph is inconsistent.

    For example requesting the neighbourhood of an unknown node.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-time shard simulator reached an inconsistent state."""


class DataError(ReproError, ValueError):
    """An external dataset (CSV/JSONL export) is malformed."""


class AllocatorError(ReproError, RuntimeError):
    """An online allocator failed at runtime (observe/update/query).

    Base class for allocator-side failures, as opposed to
    :class:`SimulationError` (the chain substrate itself).  Injected
    allocator faults (:mod:`repro.chain.faults`) raise exactly this
    type, so tests can distinguish an isolated allocator crash from a
    broken simulator.
    """


class DegradedModeError(AllocatorError):
    """An operation requires a healthy allocator, but routing is degraded.

    Raised e.g. by :meth:`repro.core.resilience.ResilientAllocator.checkpoint_now`
    while the supervisor serves the frozen last-good mapping — a degraded
    snapshot must never overwrite the last durable *good* checkpoint.
    """
