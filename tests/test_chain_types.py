"""Tests for chain primitives: addresses, transactions, blocks."""

import pytest

from repro.chain.types import Block, Transaction, address_from_int, is_address
from repro.errors import TransactionError


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
