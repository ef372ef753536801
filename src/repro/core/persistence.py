"""Persisting and fingerprinting allocations.

Two operational needs around the paper's determinism argument
(Section IV-A):

* miners should be able to *checkpoint* an allocation (mapping +
  hyperparameters) and reload it after a restart — :func:`save_allocation`
  / :func:`load_allocation` use a stable JSON layout;
* miners should be able to *compare* allocations cheaply: rather than
  exchanging 12M-entry mappings, they exchange a 32-byte digest —
  :func:`allocation_digest` hashes the canonically ordered mapping, so
  equal allocations give equal digests on every machine.

Checkpoints record ``params.backend`` verbatim — any name in the engine
backend registry (:mod:`repro.core.backends`) round-trips.  A checkpoint
naming a backend this build does *not* register — including a retired
tier such as ``parallel``, ``vector`` or ``turbo`` — fails parameter
validation inside :func:`load_allocation` and therefore surfaces as
:class:`~repro.errors.DataError` (malformed checkpoint), the same as any
other bad field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Tuple

from repro.core.params import TxAlloParams
from repro.errors import AllocationError, DataError

_FORMAT = "txallo-allocation-v1"


def allocation_digest(mapping: Dict[str, int]) -> str:
    """SHA-256 over the canonically sorted mapping (hex).

    Stable across Python versions and dict insertion orders; two miners
    with byte-identical allocations always produce the same digest.
    """
    hasher = hashlib.sha256()
    for account in sorted(mapping):
        hasher.update(str(account).encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(str(int(mapping[account])).encode("ascii"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


def save_allocation(
    path,
    mapping: Dict[str, int],
    params: TxAlloParams,
    block_height: int = 0,
) -> str:
    """Write a checkpoint; returns the allocation digest it records."""
    digest = allocation_digest(mapping)
    payload = {
        "format": _FORMAT,
        "digest": digest,
        "block_height": block_height,
        "params": {
            "k": params.k,
            "eta": params.eta,
            "lam": None if math.isinf(params.lam) else params.lam,
            "epsilon": params.epsilon,
            "tau1": params.tau1,
            "tau2": params.tau2,
            "backend": params.backend,
        },
        "mapping": {str(a): int(s) for a, s in sorted(mapping.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return digest


def load_allocation(path) -> Tuple[Dict[str, int], TxAlloParams, int]:
    """Read a checkpoint; verifies format and digest integrity.

    Returns ``(mapping, params, block_height)``.  A digest mismatch
    means the file was corrupted or hand-edited and raises.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read allocation checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise DataError(f"{path}: not a {_FORMAT} checkpoint")
    try:
        mapping = {str(a): int(s) for a, s in payload["mapping"].items()}
        raw = payload["params"]
        params = TxAlloParams(
            k=int(raw["k"]),
            eta=float(raw["eta"]),
            lam=math.inf if raw["lam"] is None else float(raw["lam"]),
            epsilon=float(raw["epsilon"]),
            tau1=int(raw["tau1"]),
            tau2=int(raw["tau2"]),
            # Checkpoints written before the engine switch carry no
            # backend; the result is the same either way, so default fast.
            backend=str(raw.get("backend", "fast")),
        )
        height = int(payload.get("block_height", 0))
        recorded = payload["digest"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc})") from None
    actual = allocation_digest(mapping)
    if actual != recorded:
        raise DataError(
            f"{path}: digest mismatch — recorded {recorded[:12]}..., "
            f"computed {actual[:12]}... (corrupted checkpoint)"
        )
    for shard in mapping.values():
        if not 0 <= shard < params.k:
            raise AllocationError(
                f"{path}: checkpoint maps an account to shard {shard} "
                f"outside [0, {params.k})"
            )
    return mapping, params, height


@dataclasses.dataclass(frozen=True)
class AllocationCheckpoint:
    """Convenience bundle mirroring the on-disk layout."""

    mapping: Dict[str, int]
    params: TxAlloParams
    block_height: int

    @property
    def digest(self) -> str:
        return allocation_digest(self.mapping)

    @classmethod
    def load(cls, path) -> "AllocationCheckpoint":
        mapping, params, height = load_allocation(path)
        return cls(mapping=mapping, params=params, block_height=height)

    def save(self, path) -> str:
        return save_allocation(path, self.mapping, self.params, self.block_height)
