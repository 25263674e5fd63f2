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
block gets the previous nonce plus one. ``Block.compute_hash`` streams
these fields into SHA-256, ``transaction_bytes`` encodes every blob, and
``decode_command`` decodes the command a block records, with one parse.
``Chain.to_dict`` decodes every blob of the log with one parse too.
``Chain.from_dict`` with `prev` is the checked read of a log: each block
must match its hash and link to the block before it.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field

from .addresses import ZERO_ADDRESS, require_nonzero
from .canonical import canonical_json_bytes, raw_decode, u32be
from .errors import err
from .records import read, read_object, read_u64, reader

GENESIS_PREV_HASH = b"\x00" * 32
BLOCK_KEYS = frozenset(
    ("index", "timestamp", "nonce", "transactions", "prevHash", "hash"))
TRANSACTION_KEYS = frozenset(
    ("attachedValue", "caller", "operation", "params", "resultStatus"))
read_hex, read_dicts = reader(bytes), reader(list[dict])
_HEADER = struct.Struct(">QQQ").pack


def transaction_bytes(caller, operation, params, attached_value=0,
                      result_status="success") -> bytes:
    """A transaction's blob, encoded straight from its fields."""
    return canonical_json_bytes({
        "attachedValue": attached_value, "caller": caller,
        "operation": operation, "params": params,
        "resultStatus": result_status})


@dataclass
class Transaction:
    """A command or an event. ``Node.execute`` encodes a command with
    ``transaction_bytes``, so `canonical_bytes` must stay that encoder."""
    caller: str
    operation: str
    params: dict
    attached_value: int = 0
    result_status: str = "success"

    def canonical_bytes(self) -> bytes:
        return transaction_bytes(self.caller, self.operation, self.params,
                                 self.attached_value, self.result_status)


def decode_blob(blob: bytes) -> tuple:
    """``json.loads(blob)``, and whether one raw decode of its UTF-8 text
    fits it exactly, as it fits every blob a ``Block`` holds."""
    try:
        text = blob.decode("utf-8")
        value, end = raw_decode(text)
    except ValueError:  # not UTF-8, or no JSON value at its start
        return json.loads(blob), False  # words the refusal
    return (value, True) if end == len(text) else (json.loads(blob), False)


def decode_command(blob: bytes) -> tuple:
    """The ``Transaction`` the blob `blob` encodes, and whether
    ``decode_blob`` fits it exactly, with one parse. Exact-type tests of
    its five keys accept what ``transaction_bytes`` writes; the record
    reader runs only on what they refuse, to word the refusal. Raises
    ValueError for a blob that is not JSON, or holds trailing bytes."""
    v, held = decode_blob(blob)
    if (type(v) is dict and v.keys() == TRANSACTION_KEYS
            and type(v["caller"]) is str and type(v["operation"]) is str
            and type(v["params"]) is dict
            and type(v["attachedValue"]) is int
            and type(v["resultStatus"]) is str):
        return Transaction(v["caller"], v["operation"], v["params"],
                           v["attachedValue"], v["resultStatus"]), held
    return read(Transaction, v), held


@dataclass(slots=True)
class Block:
    """A held blob is the canonical encoding of what it decodes to, as
    ``from_dict`` and ``transaction_bytes`` make each: ``canonical_json``
    splices the blobs, and ``Node.redo`` seals them as they are held."""
    index: int
    timestamp: int
    nonce: int
    data: list  # transaction blobs, bytes each
    prev_hash: bytes
    hash: bytes = b""

    def compute_hash(self) -> bytes:
        h = hashlib.sha256(_HEADER(self.index, self.timestamp, self.nonce))
        h.update(self.prev_hash)  # hashed as it is, whatever its length
        for blob in self.data:
            h.update(u32be(len(blob)))
            h.update(blob)
        return h.digest()

    def seal(self) -> "Block":
        self.hash = self.compute_hash()
        return self

    def to_dict(self, transactions: list = None) -> dict:
        """The block as JSON; `transactions`, if given, are its blobs
        decoded already, as ``Chain.to_dict`` decodes them."""
        if transactions is None:
            transactions = [decode_blob(blob)[0] for blob in self.data]
        return {"index": self.index, "timestamp": self.timestamp,
                "nonce": self.nonce, "transactions": transactions,
                "prevHash": self.prev_hash.hex(), "hash": self.hash.hex()}

    def canonical_json(self) -> bytes:
        """``canonical_json_bytes(self.to_dict())``, spliced."""
        head = (f'{{"hash":"{self.hash.hex()}","index":{self.index},'
                f'"nonce":{self.nonce},"prevHash":"{self.prev_hash.hex()}",'
                f'"timestamp":{self.timestamp},"transactions":[')
        return head.encode("utf-8") + b",".join(self.data) + b"]}"

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        """Exact-type tests accept what `to_dict` writes; the readers run
        only on what they refuse, to word the refusal. Each transaction
        is re-encoded, which also normalizes a hand-edited file."""
        read_object(d, BLOCK_KEYS)
        index, timestamp, nonce = d["index"], d["timestamp"], d["nonce"]
        if not (type(index) is int and 0 <= index < 2 ** 64
                and type(timestamp) is int and 0 <= timestamp < 2 ** 64
                and type(nonce) is int and 0 <= nonce < 2 ** 64):
            for value in (index, timestamp, nonce):
                read_u64(value)
        txs = d["transactions"]
        if type(txs) is not list or any(type(tx) is not dict for tx in txs):
            read_dicts(txs)
        try:
            data = [canonical_json_bytes(tx) for tx in txs]
        except UnicodeEncodeError as exc:  # a lone surrogate's \u escape
            raise err("CorruptSnapshot", f"block {index} holds a string "
                      f"that is not UTF-8: {exc}") from exc
        except ValueError as exc:  # NaN or an infinity, which JSON lacks
            raise err("CorruptSnapshot", f"block {index} holds a number "
                      f"that is not JSON: {exc}") from exc
        except RecursionError as exc:  # parsed, but too deep to encode here
            raise err("CorruptSnapshot", f"block {index} holds a value "
                      f"nested too deep: {exc}") from exc
        prev, hash_ = d["prevHash"], d["hash"]
        try:
            prev_b, hash_b = bytes.fromhex(prev), bytes.fromhex(hash_)
        except (TypeError, ValueError):
            prev_b = hash_b = b""
        if prev_b.hex() != prev or hash_b.hex() != hash_:
            prev_b, hash_b = read_hex(prev), read_hex(hash_)
        return cls(index, timestamp, nonce, data, prev_b, hash_b)


class Chain:
    """The block log. `held` lists the blocks in memory: the whole log,
    or, for a chain loaded from a state dir, its checkpoint's block and
    the blocks after it. `log` is ``persistence``'s record of where a dir
    stores the chain. Appending needs only `held` and `height`; `blocks`,
    the whole log, has `log` read the blocks before `held` once, while
    the first held block is not genesis."""

    def __init__(self, blocks: list = None, log=None):
        self.held = [] if blocks is None else blocks
        self.log = log
        # the leading blocks of `held` whose hash and link were checked as
        # they were read (``from_dict`` with `prev`), which ``verify``
        # does not hash again
        self.checked = 0

    @property
    def blocks(self) -> list:
        if self.log is not None and self.held[0].index > 0:
            before = self.log.before(self.held[0])
            self.held[:0] = before
            self.checked = len(before)
        return self.held

    def joined(self) -> bytes:
        """Every block's ``Block.canonical_json()``, joined by commas: the
        blocks before `held` as the bytes ``log.certified`` checks by one
        SHA-256, if it can, else as ``blocks`` reads them."""
        before = None
        if self.log is not None and self.held[0].index > 0:
            before = self.log.certified(self.held[0])
        held = b",".join([block.canonical_json() for block in (
            self.blocks if before is None else self.held)])
        return held if before is None else before + b"," + held

    @property
    def height(self) -> int:
        """The number of blocks in the log, counted from its tip."""
        return self.held[-1].index + 1

    def __eq__(self, other):
        return type(other) is Chain and self.blocks == other.blocks

    def append_genesis(self, timestamp: int) -> Block:
        if self.held:
            raise err("AlreadyInitialized", "chain already has a genesis block")
        block = Block(0, timestamp, 0, [], GENESIS_PREV_HASH).seal()
        self.held.append(block)
        return block

    def append_block(self, blobs: list, timestamp: int) -> Block:
        """Seal and append a block of encoded transactions."""
        if not self.held:
            raise err("Uninitialized", "no genesis block")
        prev = self.held[-1]
        block = Block(prev.index + 1, timestamp, prev.nonce + 1, blobs,
                      prev.hash).seal()
        self.held.append(block)
        return block

    def verify(self) -> bool:
        """Recompute every hash and check the prev-hash linkage, but for
        the blocks the checked read of a loaded chain checked already."""
        blocks = self.blocks
        if not blocks:
            return False
        g = blocks[0]
        if (g.index != 0 or g.prev_hash != GENESIS_PREV_HASH or g.nonce != 0
                or g.data or not self.checked and g.hash != g.compute_hash()):
            return False
        start = max(self.checked, 1) - 1
        for prev, b in zip(blocks[start:], blocks[start + 1:]):
            if (b.index != prev.index + 1 or b.nonce != prev.nonce + 1
                    or b.prev_hash != prev.hash or b.hash != b.compute_hash()):
                return False
        return True

    def to_dict(self) -> dict:
        """The log as JSON. One parse of all its blobs, joined in a list,
        hands each ``Block.to_dict`` its slice: a held blob is one JSON
        value (``Block``), so the list holds the blobs' values in order.
        If that parse fails (a blob nested too deep to sit in a list
        one level down, say) or counts other than the blobs, each block
        decodes its own, which reads or refuses as it always has."""
        blocks = self.blocks
        blobs = [blob for b in blocks for blob in b.data]
        try:
            values = json.loads((b"[%b]" % b",".join(blobs)).decode("utf-8"))
        except (ValueError, RecursionError):  # UnicodeDecodeError included
            values = None
        if values is None or len(values) != len(blobs):
            return {"blocks": [b.to_dict() for b in blocks]}
        out, at = [], 0
        for b in blocks:
            out.append(b.to_dict(values[at:at + len(b.data)]))
            at += len(b.data)
        return {"blocks": out}

    def canonical_json(self) -> bytes:
        """``canonical_json_bytes(self.to_dict())`` without decoding a
        single transaction."""
        return (b'{"blocks":['
                + b",".join(b.canonical_json() for b in self.blocks) + b"]}")

    @classmethod
    def from_dict(cls, d: dict, first: int = 0, prev: bytes = None) -> "Chain":
        """Decode a block log, or its blocks from block `first` on; each
        block's index and nonce must equal its position, so the next
        append cannot overflow its header. Given `prev`, the hash of the
        block before, the read is checked: each block must match its hash
        and link to the block before it, else HashMismatch, naming it."""
        blocks = read_dicts(read_object(d, {"blocks"})["blocks"])
        chain = cls(blocks=[Block.from_dict(b) for b in blocks])
        for i, b in enumerate(chain.held, first):
            if b.index != i or b.nonce != i:
                raise err("CorruptSnapshot", f"block {i} records index "
                          f"{b.index} and nonce {b.nonce}")
            if prev is not None:
                if b.hash != b.compute_hash():
                    raise err("HashMismatch",
                              f"block {i} does not match its hash")
                if b.prev_hash != prev:
                    raise err("HashMismatch", f"block {i} does not link to "
                              f"block {i - 1}")
                prev = b.hash
        if prev is not None:
            chain.checked = len(chain.held)
        return chain


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
