"""Tests for chain primitives: addresses, transactions, blocks."""

import dataclasses
import hashlib
import pickle
import sys

import pytest

from repro.chain import types
from repro.chain.types import (
    Block,
    Transaction,
    address_from_int,
    is_address,
    transaction_id,
)
from repro.data.loader import group_into_blocks
from repro.errors import TransactionError
from repro.eval.experiments import build_workload


class TestAddress:
    def test_address_shape(self):
        addr = address_from_int(7)
        assert is_address(addr)

    def test_deterministic(self):
        assert address_from_int(42) == address_from_int(42)

    def test_distinct(self):
        assert address_from_int(1) != address_from_int(2)

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("0x" + "ab" * 20, True),
            ("0x" + "AB" * 20, True),  # checksum-cased hex is still hex
            (address_from_int(0), True),
            ("0x" + "a" * 39, False),
            ("0x" + "a" * 41, False),
            ("1x" + "a" * 40, False),
            ("0x", False),
            ("", False),
            (None, False),
            (b"0x" + b"a" * 40, False),
        ],
        ids=[
            "lower",
            "upper",
            "synthetic",
            "39-hex",
            "41-hex",
            "bad-prefix",
            "prefix-only",
            "empty",
            "none",
            "bytes",
        ],
    )
    def test_is_address_cases(self, value, expected):
        assert is_address(value) is expected

    def test_is_address_rejects_garbage(self):
        assert not is_address("hello")
        assert not is_address("0x123")           # too short
        assert not is_address("0x" + "zz" * 20)  # not hex
        assert not is_address(1234)


class TestTransaction:
    def test_accounts_union(self):
        tx = Transaction(inputs=("a",), outputs=("b", "c"))
        assert tx.accounts == frozenset({"a", "b", "c"})

    def test_self_loop_detection(self):
        assert Transaction(inputs=("a",), outputs=("a",)).is_self_loop
        assert not Transaction(inputs=("a",), outputs=("b",)).is_self_loop

    def test_empty_inputs_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(inputs=(), outputs=("b",))

    def test_empty_outputs_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(inputs=("a",), outputs=())

    def test_auto_tx_id(self):
        tx = Transaction(inputs=("a",), outputs=("b",))
        assert tx.tx_id and len(tx.tx_id) == 16

    def test_auto_tx_id_deterministic(self):
        t1 = Transaction(inputs=("a",), outputs=("b",))
        t2 = Transaction(inputs=("a",), outputs=("b",))
        assert t1.tx_id == t2.tx_id

    def test_explicit_tx_id_kept(self):
        tx = Transaction(inputs=("a",), outputs=("b",), tx_id="custom")
        assert tx.tx_id == "custom"

    def test_transfer_helper(self):
        tx = Transaction.transfer("a", "b")
        assert tx.inputs == ("a",) and tx.outputs == ("b",)

    def test_frozen(self):
        tx = Transaction.transfer("a", "b")
        with pytest.raises(Exception):
            tx.inputs = ("x",)  # type: ignore[misc]


class TestBlock:
    def txs(self, n=3):
        return tuple(Transaction.transfer(f"s{i}", f"r{i}") for i in range(n))

    def test_len_and_iter(self):
        block = Block(height=0, transactions=self.txs(3))
        assert len(block) == 3
        assert [tx.inputs[0] for tx in block] == ["s0", "s1", "s2"]

    def test_negative_height_rejected(self):
        with pytest.raises(TransactionError):
            Block(height=-1, transactions=())

    def test_hash_depends_on_content(self):
        b1 = Block(height=0, transactions=self.txs(2))
        b2 = Block(height=0, transactions=self.txs(3))
        assert b1.block_hash != b2.block_hash

    def test_hash_depends_on_parent(self):
        b1 = Block(height=1, transactions=self.txs(1), parent_hash="x")
        b2 = Block(height=1, transactions=self.txs(1), parent_hash="y")
        assert b1.block_hash != b2.block_hash

    def test_hash_deterministic(self):
        b1 = Block(height=2, transactions=self.txs(2), parent_hash="p")
        b2 = Block(height=2, transactions=self.txs(2), parent_hash="p")
        assert b1.block_hash == b2.block_hash

    def test_account_set(self):
        block = Block(height=0, transactions=self.txs(2))
        assert block.account_set() == frozenset({"s0", "r0", "s1", "r1"})


# ----------------------------------------------------------------------
# Ids and hashes derived on first read
# ----------------------------------------------------------------------
def eager_chain_hashes(blocks):
    """Every block hash of the chain, rebuilt by hand: each tx id and each
    block hash computed eagerly, in chain order, from the raw contents."""
    hashes = []
    parent = ""
    for block in blocks:
        hasher = hashlib.sha256()
        hasher.update(str(block.height).encode())
        hasher.update(parent.encode())
        for tx in block.transactions:
            raw = "|".join(tx.inputs) + "->" + "|".join(tx.outputs)
            hasher.update(hashlib.sha256(raw.encode()).hexdigest()[:16].encode())
        parent = hasher.hexdigest()
        hashes.append(parent)
    return hashes


@pytest.fixture
def resolutions(monkeypatch):
    """Counts every tx id and block hash the chain types derive."""
    counts = {"tx_id": 0, "block_hash": 0}
    derive_id, derive_hash = types.transaction_id, types.block_digest

    def counted_id(*args):
        counts["tx_id"] += 1
        return derive_id(*args)

    def counted_hash(*args):
        counts["block_hash"] += 1
        return derive_hash(*args)

    monkeypatch.setattr(types, "transaction_id", counted_id)
    monkeypatch.setattr(types, "block_digest", counted_hash)
    return counts


def linked_chain(n=5, per_block=2):
    rows = [(h, Transaction.transfer(f"s{h}_{i}", f"r{h}_{i}"))
            for h in range(n) for i in range(per_block)]
    return group_into_blocks(iter(rows))


class TestDerivedOnFirstRead:
    def test_build_workload_derives_no_id_or_hash(self, resolutions):
        workload = build_workload(scale=0.05, seed=2022)
        assert resolutions == {"tx_id": 0, "block_hash": 0}
        blocks = list(workload.blocks)
        last_hash = blocks[-1].block_hash
        # One read resolves the whole chain, each id and hash once.
        assert resolutions == {"tx_id": workload.num_transactions, "block_hash": len(blocks)}
        assert last_hash == eager_chain_hashes(blocks)[-1]
        assert [b.block_hash for b in blocks] == eager_chain_hashes(blocks)
        assert resolutions["block_hash"] == len(blocks)

    def test_chain_longer_than_the_recursion_limit_resolves_from_its_tip(self):
        workload = build_workload(scale=0.05, seed=1, block_size=1)
        blocks = list(workload.blocks)
        assert len(blocks) > sys.getrecursionlimit()
        tip = blocks[-1].block_hash
        assert tip == eager_chain_hashes(blocks)[-1]
        assert blocks[-1].parent_hash == blocks[-2].block_hash

    def test_pickling_the_unresolved_tip_of_a_long_chain(self):
        blocks = list(build_workload(scale=0.05, seed=1, block_size=1).blocks)
        assert len(blocks) > sys.getrecursionlimit()
        copy = pickle.loads(pickle.dumps(blocks[-1]))
        assert copy == blocks[-1]
        assert copy.block_hash == eager_chain_hashes(blocks)[-1]

    @pytest.mark.parametrize("resolve_first", (False, True), ids=("lazy", "resolved"))
    def test_pickle_round_trip_keeps_every_id_and_hash(self, resolve_first):
        blocks = linked_chain()
        if resolve_first:
            blocks[-1].block_hash
        copies = pickle.loads(pickle.dumps(blocks))
        expected = eager_chain_hashes(blocks)
        assert [b.block_hash for b in copies] == expected
        assert [b.block_hash for b in blocks] == expected
        assert [b.parent_hash for b in copies] == [""] + expected[:-1]
        assert [tx.tx_id for b in copies for tx in b] == [
            tx.tx_id for b in blocks for tx in b
        ]
        assert copies == blocks

    def test_pickle_round_trip_of_an_unresolved_transaction(self):
        tx = Transaction(inputs=("a",), outputs=("b", "c"))
        copy = pickle.loads(pickle.dumps(tx))
        assert copy.tx_id == transaction_id(("a",), ("b", "c"))
        assert copy == tx and hash(copy) == hash(tx)

    def test_derived_id_equals_the_explicit_one(self):
        derived = Transaction(inputs=("a",), outputs=("b",))
        explicit = Transaction(inputs=("a",), outputs=("b",), tx_id=transaction_id(("a",), ("b",)))
        assert derived == explicit
        assert hash(derived) == hash(explicit)
        assert repr(derived) == repr(explicit)
        assert Transaction(inputs=("a",), outputs=("b",)) != Transaction(
            inputs=("a",), outputs=("b",), tx_id="other"
        )

    def test_replace_carries_the_derived_id(self):
        tx = Transaction(inputs=("a",), outputs=("b",))
        moved = dataclasses.replace(tx, outputs=("c",))
        assert moved.tx_id == tx.tx_id == transaction_id(("a",), ("b",))

    def test_explicit_tx_id_is_never_overwritten(self, resolutions):
        tx = Transaction(inputs=("a",), outputs=("b",), tx_id="0xrecorded")
        block = Block(height=0, transactions=(tx,))
        block.block_hash
        assert tx.tx_id == "0xrecorded" == pickle.loads(pickle.dumps(tx)).tx_id
        assert resolutions["tx_id"] == 0

    def test_explicit_parent_hash_is_never_overwritten(self):
        txs = (Transaction.transfer("a", "b"),)
        root = Block(height=3, transactions=txs, parent_hash="p")
        child = Block.child_of(root, height=4, transactions=txs)
        child.block_hash
        assert root.parent_hash == "p"
        assert child.parent_hash == root.block_hash
        assert root == Block(height=3, transactions=txs, parent_hash="p")
        assert dataclasses.replace(child, parent_hash="q").parent_hash == "q"

    def test_lazy_link_compares_equal_to_the_eager_block(self):
        blocks = linked_chain(3)
        eager = Block(
            height=2, transactions=blocks[2].transactions, parent_hash=blocks[1].block_hash
        )
        assert blocks[2] == eager
        assert hash(blocks[2]) == hash(eager)
        assert repr(blocks[2]) == repr(eager)
