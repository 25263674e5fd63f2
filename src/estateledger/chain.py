"""Append-only hash-chained block log plus the native coin ledger.

Block hash layout (all integers big-endian):

    index     8 bytes
    timestamp 8 bytes
    nonce     8 bytes
    prevHash  32 bytes
    for each transaction blob, in order:
        length  4 bytes
        blob    variable

The genesis block has index 0, no transactions, and a prevHash of 32
zero bytes. Nonces are a monotone counter: genesis gets 0, each later
block gets the previous nonce plus one.
"""

import json
from dataclasses import dataclass, field

from .addresses import ZERO_ADDRESS, require_nonzero
from .canonical import canonical_json_bytes, sha256, u32be, u64be
from .errors import err
from .records import read_object, reader, to_json

GENESIS_PREV_HASH = b"\x00" * 32
BLOCK_KEYS = frozenset(
    ("index", "timestamp", "nonce", "transactions", "prevHash", "hash"))
read_int, read_hex, read_dicts = reader(int), reader(bytes), reader(list[dict])


@dataclass
class Transaction:
    caller: str
    operation: str
    params: dict
    attached_value: int = 0
    result_status: str = "success"

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(to_json(self))


def block_payload(index: int, timestamp: int, nonce: int, prev_hash: bytes,
                  tx_blobs: list) -> bytes:
    parts = [u64be(index), u64be(timestamp), u64be(nonce), prev_hash]
    for blob in tx_blobs:
        parts.append(u32be(len(blob)))
        parts.append(blob)
    return b"".join(parts)


@dataclass
class Block:
    index: int
    timestamp: int
    nonce: int
    data: list  # transaction blobs, bytes each
    prev_hash: bytes
    hash: bytes = b""

    def compute_hash(self) -> bytes:
        return sha256(block_payload(
            self.index, self.timestamp, self.nonce, self.prev_hash, self.data))

    def seal(self) -> "Block":
        self.hash = self.compute_hash()
        return self

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "timestamp": self.timestamp,
            "nonce": self.nonce,
            "transactions": [json.loads(blob.decode("utf-8")) for blob in self.data],
            "prevHash": self.prev_hash.hex(),
            "hash": self.hash.hex(),
        }

    def canonical_json(self) -> bytes:
        """``canonical_json_bytes(self.to_dict())``, spliced: each stored
        blob already is its transaction's canonical JSON."""
        head = (f'{{"hash":"{self.hash.hex()}","index":{self.index},'
                f'"nonce":{self.nonce},"prevHash":"{self.prev_hash.hex()}",'
                f'"timestamp":{self.timestamp},"transactions":[')
        return head.encode("utf-8") + b",".join(self.data) + b"]}"

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        read_object(d, BLOCK_KEYS)
        return cls(
            index=read_int(d["index"]),
            timestamp=read_int(d["timestamp"]),
            nonce=read_int(d["nonce"]),
            data=[canonical_json_bytes(tx)
                  for tx in read_dicts(d["transactions"])],
            prev_hash=read_hex(d["prevHash"]),
            hash=read_hex(d["hash"]),
        )


@dataclass
class Chain:
    blocks: list = field(default_factory=list)

    def append_genesis(self, timestamp: int) -> Block:
        if self.blocks:
            raise err("AlreadyInitialized", "chain already has a genesis block")
        block = Block(index=0, timestamp=timestamp, nonce=0, data=[],
                      prev_hash=GENESIS_PREV_HASH).seal()
        self.blocks.append(block)
        return block

    def append_block(self, blobs: list, timestamp: int) -> Block:
        """Seal and append a block of encoded transactions."""
        if not self.blocks:
            raise err("Uninitialized", "no genesis block")
        prev = self.blocks[-1]
        block = Block(index=prev.index + 1, timestamp=timestamp,
                      nonce=prev.nonce + 1, data=blobs,
                      prev_hash=prev.hash).seal()
        self.blocks.append(block)
        return block

    def verify(self) -> bool:
        """Recompute every hash and check the prev-hash linkage."""
        if not self.blocks:
            return False
        g = self.blocks[0]
        if g.index != 0 or g.prev_hash != GENESIS_PREV_HASH or g.nonce != 0 or g.data:
            return False
        if g.hash != g.compute_hash():
            return False
        for i in range(1, len(self.blocks)):
            b, prev = self.blocks[i], self.blocks[i - 1]
            if b.index != prev.index + 1:
                return False
            if b.nonce != prev.nonce + 1:
                return False
            if b.prev_hash != prev.hash:
                return False
            if b.hash != b.compute_hash():
                return False
        return True

    def to_dict(self) -> dict:
        return {"blocks": [b.to_dict() for b in self.blocks]}

    def canonical_json(self) -> bytes:
        """``canonical_json_bytes(self.to_dict())`` without decoding a
        single transaction."""
        return (b'{"blocks":['
                + b",".join(b.canonical_json() for b in self.blocks) + b"]}")

    @classmethod
    def from_dict(cls, d: dict) -> "Chain":
        blocks = read_dicts(read_object(d, {"blocks"})["blocks"])
        return cls(blocks=[Block.from_dict(b) for b in blocks])


@dataclass
class NativeLedger:
    """Native coin balances. Zero balances stay as existence markers."""

    accounts: dict[str, int] = field(default_factory=dict)

    def ensure_account(self, addr: str):
        require_nonzero(addr, "account")
        self.accounts.setdefault(addr, 0)

    def balance(self, addr: str) -> int:
        if addr not in self.accounts:
            raise err("UnknownAccount", addr)
        return self.accounts[addr]

    def credit(self, addr: str, amount: int):
        require_nonzero(addr, "credit target")
        if amount < 0:
            raise err("ParseError", "negative amount")
        self.accounts[addr] = self.accounts.get(addr, 0) + amount

    def debit(self, addr: str, amount: int):
        if addr not in self.accounts:
            raise err("UnknownAccount", addr)
        if amount < 0:
            raise err("ParseError", "negative amount")
        if self.accounts[addr] < amount:
            raise err("InsufficientFunds",
                      f"{addr} holds {self.accounts[addr]}, needs {amount}")
        self.accounts[addr] -= amount

    def transfer(self, src: str, dst: str, amount: int):
        # strict: both ends must already be known accounts
        require_nonzero(dst, "transfer target")
        if src == ZERO_ADDRESS:
            raise err("ZeroAddress", "transfer source may not be the zero address")
        if dst not in self.accounts:
            raise err("UnknownAccount", dst)
        self.debit(src, amount)
        self.credit(dst, amount)
