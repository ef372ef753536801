"""Loaders for real Ethereum transaction exports.

The paper collects its dataset with ethereum-etl / BigQuery (reference
[37]).  These loaders accept the two common export shapes so users with
access to real data can run every experiment on it:

* **CSV** with (at least) the ethereum-etl ``transactions`` columns
  ``hash, from_address, to_address, block_number``;
* **JSON Lines**, one transaction object per line with the same keys.

Contract creations have a null ``to_address``; like the paper's
self-replacement example, we model them as self-loops on the sender (the
new contract's address is unknown to the allocator at creation time).
Rows missing a sender are rejected — silently dropping data would bias
every downstream metric.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.chain.types import Block, Transaction
from repro.errors import DataError

REQUIRED_COLUMNS = ("hash", "from_address", "to_address", "block_number")


def _row_to_transaction(row: Dict[str, object], where: str) -> Tuple[int, Transaction]:
    sender = (row.get("from_address") or "")
    sender = str(sender).strip().lower()
    if not sender:
        raise DataError(f"{where}: missing from_address")
    receiver = (row.get("to_address") or "")
    receiver = str(receiver).strip().lower()
    if not receiver:
        receiver = sender  # contract creation -> self-loop
    raw_height = row.get("block_number")
    try:
        height = int(str(raw_height))
    except (TypeError, ValueError):
        raise DataError(f"{where}: invalid block_number {raw_height!r}") from None
    tx_id = str(row.get("hash") or "").strip()
    tx = Transaction(inputs=(sender,), outputs=(receiver,), tx_id=tx_id or "")
    return height, tx


def load_transactions_csv(path) -> Iterator[Tuple[int, Transaction]]:
    """Yield ``(block_number, Transaction)`` from an ethereum-etl CSV."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            yield _row_to_transaction(row, f"{path}:{lineno}")


def load_transactions_jsonl(path) -> Iterator[Tuple[int, Transaction]]:
    """Yield ``(block_number, Transaction)`` from a JSON-lines export."""
    path = Path(path)
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(row, dict):
                raise DataError(f"{path}:{lineno}: expected an object per line")
            yield _row_to_transaction(row, f"{path}:{lineno}")


def group_into_blocks(
    rows: Iterator[Tuple[int, Transaction]],
) -> List[Block]:
    """Group ``(height, tx)`` rows into linked :class:`Block` objects.

    Heights are re-based to start at 0 and must be non-decreasing (exports
    are block-ordered); gaps are tolerated and collapsed.  Each block is
    linked to its predecessor by :meth:`Block.child_of`, so no block is
    hashed here; ``parent_hash`` and ``block_hash`` are derived on first
    read.
    """
    blocks: List[Block] = []
    current_height: int = -1
    batch: List[Transaction] = []

    def flush() -> None:
        nonlocal batch
        if batch:
            parent = blocks[-1] if blocks else None
            blocks.append(Block.child_of(parent, height=len(blocks), transactions=tuple(batch)))
            batch = []

    last_seen = None
    for height, tx in rows:
        if last_seen is not None and height < last_seen:
            raise DataError(
                f"transactions out of block order: {height} after {last_seen}"
            )
        if height != current_height:
            flush()
            current_height = height
        batch.append(tx)
        last_seen = height
    flush()
    return blocks
