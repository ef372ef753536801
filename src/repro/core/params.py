"""Hyperparameters of the TxAllo allocation scheme (paper Section V-A).

The paper exposes six hyperparameters:

* ``k``      — number of shards.
* ``eta``    — workload of processing a cross-shard transaction, relative to
  the unit workload of an intra-shard transaction (``eta > 1`` normally).
* ``lam``    — per-shard processing capacity ``λ``.  The paper's evaluation
  sets ``λ = |T| / k`` so the ideal all-intra allocation saturates the
  system exactly; :func:`TxAlloParams.with_capacity_for` applies that rule.
* ``epsilon``— convergence threshold ``ε`` for the optimisation sweeps.  The
  evaluation uses ``ε = 1e-5 * |T|``.
* ``tau1``   — adaptive (A-TxAllo) update period, in blocks.
* ``tau2``   — global (G-TxAllo) update period, in blocks (``tau1 < tau2``).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ParameterError

#: Relative convergence threshold used by the paper: ``ε = 1e-5 * |T|``.
EPSILON_RATIO = 1e-5


@dataclasses.dataclass(frozen=True)
class TxAlloParams:
    """Immutable bundle of TxAllo hyperparameters.

    Instances validate themselves on construction, so any
    :class:`TxAlloParams` that exists is internally consistent.

    >>> TxAlloParams(k=4, eta=2.0, lam=100.0).k
    4
    """

    k: int
    eta: float = 2.0
    lam: float = math.inf
    epsilon: float = 1e-9
    tau1: int = 300
    tau2: int = 6000

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ParameterError(f"number of shards k must be a positive int, got {self.k!r}")
        if not self.eta >= 1.0:
            raise ParameterError(f"cross-shard workload eta must be >= 1, got {self.eta!r}")
        if not self.lam > 0:
            raise ParameterError(f"shard capacity lam must be positive, got {self.lam!r}")
        if not self.epsilon >= 0:
            raise ParameterError(
                f"convergence threshold epsilon must be >= 0, got {self.epsilon!r}"
            )
        if self.tau1 < 1 or self.tau2 < 1:
            raise ParameterError(
                f"update periods must be positive, got tau1={self.tau1!r} tau2={self.tau2!r}"
            )
        if self.tau1 > self.tau2:
            raise ParameterError(
                f"adaptive period tau1 ({self.tau1}) must not exceed "
                f"global period tau2 ({self.tau2})"
            )

    @classmethod
    def with_capacity_for(
        cls,
        num_transactions: int,
        k: int,
        eta: float = 2.0,
        tau1: int = 300,
        tau2: int = 6000,
    ) -> "TxAlloParams":
        """Build parameters using the paper's evaluation conventions.

        Sets ``λ = |T| / k`` and ``ε = 1e-5 * |T|`` (Section VI-B1).
        """
        if num_transactions < 1:
            raise ParameterError(
                f"num_transactions must be positive, got {num_transactions!r}"
            )
        return cls(
            k=k,
            eta=eta,
            lam=num_transactions / k,
            epsilon=EPSILON_RATIO * num_transactions,
            tau1=tau1,
            tau2=tau2,
        )

    def replace(self, **changes) -> "TxAlloParams":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def shard_ids(self) -> range:
        """The valid shard identifiers ``0 .. k-1``."""
        return range(self.k)
