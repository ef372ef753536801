"""Chain primitives of the blockchain model (paper Section III-A).

The paper models a totally ordered account-based permissionless blockchain
``L = {B_1, ..., B_n}`` where each block is a sequence of transactions and
a transaction is the pair of its input and output account sets
``Tx = (A_in, A_out)``.  These dataclasses make that model concrete enough
for the simulator, the workload generator and the loaders, while staying
lean: value, gas and scripts are irrelevant to allocation (Section III-A
drops them explicitly), so we carry only what ``μ(Tx)`` needs plus minimal
provenance (identifiers, heights, hashes).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.errors import TransactionError

#: Account addresses are lowercase hex strings (Ethereum style).
Address = str


def address_from_int(value: int) -> Address:
    """Deterministic synthetic address: 20 bytes of the integer's digest.

    Used by the workload generator so synthetic accounts look and hash
    like real Ethereum addresses.
    """
    digest = hashlib.sha256(value.to_bytes(8, "big", signed=False)).digest()
    return "0x" + digest[:20].hex()


def is_address(value: object) -> bool:
    """Loose structural check for an Ethereum-style address string."""
    if not isinstance(value, str) or not value.startswith("0x"):
        return False
    body = value[2:]
    if len(body) != 40:
        return False
    try:
        int(body, 16)
    except ValueError:
        return False
    return True


def transaction_id(inputs: Tuple[Address, ...], outputs: Tuple[Address, ...]) -> str:
    """The content-derived id of ``Tx = (inputs, outputs)``: 16 hex
    characters of a SHA-256 over both account lists."""
    digest = hashlib.sha256(("|".join(inputs) + "->" + "|".join(outputs)).encode())
    return digest.hexdigest()[:16]


def block_digest(height: int, parent_hash: str, tx_ids: Iterable[str]) -> str:
    """A block's content hash: SHA-256 over its header and its tx ids."""
    hasher = hashlib.sha256()
    hasher.update(str(height).encode())
    hasher.update(parent_hash.encode())
    for tx_id in tx_ids:
        hasher.update(tx_id.encode())
    return hasher.hexdigest()


class _DerivedField:
    """A string dataclass field that is derived on first read.

    The field's default, ``""``, means "derive it": ``__init__`` stores
    only a non-empty value, and the first read of an unset field calls
    ``derive(instance)`` and caches the result in the instance
    ``__dict__``.  Frozen instances refuse every other write, and a
    pickle carries ``__dict__`` as it is, so a field still unset when
    pickled is derived after the round trip, to the same value.
    """

    def __init__(self, derive: Callable[[object], str]) -> None:
        self._derive = derive

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: object, owner: Optional[type] = None) -> str:
        if instance is None:
            return ""  # read by @dataclass as the field default
        state = instance.__dict__
        value = state.get(self._name)
        if value is None:
            value = state[self._name] = self._derive(instance)
        return value

    def __set__(self, instance: object, value: str) -> None:
        if value:
            instance.__dict__[self._name] = value


def _tx_id_of(tx: "Transaction") -> str:
    return transaction_id(tx.inputs, tx.outputs)


@dataclasses.dataclass(frozen=True)
class Transaction:
    """``Tx = (A_in, A_out)`` with both sets non-empty (Section III-A).

    ``tx_id`` defaults to :func:`transaction_id` of the account lists,
    computed on first read; an explicit id (a loader's recorded hash) is
    kept as given.
    """

    inputs: Tuple[Address, ...]
    outputs: Tuple[Address, ...]
    tx_id: str = _DerivedField(_tx_id_of)

    def __post_init__(self) -> None:
        if not self.inputs:
            raise TransactionError("a transaction needs at least one input account")
        if not self.outputs:
            raise TransactionError("a transaction needs at least one output account")

    @property
    def accounts(self) -> FrozenSet[Address]:
        """``A_Tx = A_in ∪ A_out`` — what allocation cares about."""
        return frozenset(self.inputs) | frozenset(self.outputs)

    @property
    def is_self_loop(self) -> bool:
        """True when all inputs and outputs collapse to one account.

        E.g. an Ethereum self-send used to replace a pending transaction
        (Section V-B's motivating example for self-loops).
        """
        return len(self.accounts) == 1

    @classmethod
    def transfer(cls, sender: Address, receiver: Address) -> "Transaction":
        """The common case: one input, one output."""
        return cls(inputs=(sender,), outputs=(receiver,))


def _parent_hash_of(block: "Block") -> str:
    parent = block.__dict__.pop("_parent", None)
    return "" if parent is None else parent.block_hash


def _block_hash_of(block: "Block") -> str:
    # Walk the unresolved parent links back to the first block whose
    # parent hash is known, then hash forward, caching every block_hash
    # on the way: a chain of any length resolves without recursion.
    pending = [block]
    parent = block.__dict__.get("_parent")
    while parent is not None and "block_hash" not in parent.__dict__:
        pending.append(parent)
        parent = parent.__dict__.get("_parent")
    for b in reversed(pending):
        b.__dict__["block_hash"] = block_digest(
            b.height, b.parent_hash, (tx.tx_id for tx in b.transactions)
        )
    return block.__dict__["block_hash"]


@dataclasses.dataclass(frozen=True)
class Block:
    """A block: height, parent link and an ordered transaction tuple.

    A block made by :meth:`child_of` holds a reference to its parent
    instead of the parent's hash; ``parent_hash`` and ``block_hash`` are
    derived on first read.  An explicit ``parent_hash`` is kept as given.
    """

    height: int
    transactions: Tuple[Transaction, ...]
    parent_hash: str = _DerivedField(_parent_hash_of)

    def __post_init__(self) -> None:
        if self.height < 0:
            raise TransactionError(f"block height must be non-negative, got {self.height}")

    @classmethod
    def child_of(
        cls,
        parent: Optional["Block"],
        height: int,
        transactions: Tuple[Transaction, ...],
    ) -> "Block":
        """The block after ``parent`` (``None``: a chain root), linked
        without hashing either block."""
        block = cls(height=height, transactions=transactions)
        if parent is not None:
            block.__dict__["_parent"] = parent
        return block

    @functools.cached_property
    def block_hash(self) -> str:
        """Deterministic content hash (header + tx ids), see :func:`block_digest`."""
        return _block_hash_of(self)

    def __getstate__(self) -> dict:
        # Resolve the parent link so a pickle carries the parent's hash,
        # never the parent block (and through it the whole chain).
        self.parent_hash
        return self.__dict__

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def account_set(self) -> FrozenSet[Address]:
        """All accounts appearing in this block (the block's slice of V̂)."""
        accounts: set = set()
        for tx in self.transactions:
            accounts |= tx.accounts
        return frozenset(accounts)
