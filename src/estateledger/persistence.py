"""State directory layout, the commit point of a write, snapshot
export/import, and ``LedgerDir``, which holds a dir for one command.

Layout inside a state directory:

    chain.json   the block log, canonical JSON: {"blocks":[...]}
    state.json   the checkpoint: ``LedgerState.state_dict()`` (accounts,
                 stakeholders, factory, properties, config) plus its tag
                 "block", the index and hash of the block it reflects
    objects/     one <hex-digest>.bin file per stored object
    .lock        flock target guarding against concurrent writers

``LedgerDir(path)`` is one command's hold on a state dir: its ``node``
calls ``load_state`` on first use, ``writing()`` holds the flock on
``.lock``, once per hold, so a script's lines share it, and ``commit()``
calls ``save_state``. A read takes no lock.

``save_state`` encodes the checkpoint before its first write. When the
chain was loaded from, or last saved to, the same dir, it appends only
the new blocks to ``chain.json`` in place: it writes ``,<block>...]}``
over the closing ``]}`` and fsyncs. That fsync is the one commit point.
Only then does it write the new object files and the checkpoint, each to
a temp name that is fsynced and renamed. A dir that holds no log of this
chain (``init``, ``state import``) gets the whole log the same way, then
the objects and the checkpoint, and then loses each object file of a
ledger it held before. Which objects a dir holds is the listing of
``objects/`` that the node's store was loaded with, or last saved to;
another dir is listed once.

``load_state`` reads the checkpoint, then lists the objects, then reads
the log from its end back to the tag's block: it finds that block's
header, decodes it and the blocks after it, checks its hash, index and
nonce, and redoes the blocks after it (``Node.redo``). So a write that
stops before its commit point leaves the state before the command, and
one that stops after it the state after. The loaded ``Chain`` holds the
tag's block and those after it. Its ``log``, a ``StoredLog``, records
where the log stores them: ``save_state`` appends after them, and a
reader of the whole history (verify, replay, the full digest, a
snapshot) has it decode the blocks before them once. Only a log that
ends in ``]}`` right after those blocks is read so; a torn log, a header
not found, a failed check or a tag-less ``state.json`` (a checkpoint at
the log's tip) read the log whole. That read refuses a tag past the log
or with a hash the log does not hold at that index, and drops a torn
last append if what remains still holds the checkpoint's block; it
writes nothing, and the next write overwrites the tail.

A snapshot is ``state_dict(objects=True)`` with the block log under
``chain``, plus a ``digest`` of that body. The digest is
``state_digest``, taken over the body's encoding with the log's stored
bytes spliced in; ``write_snapshot`` writes the same pieces, digest
included, and never decodes a stored block. Import decodes the log once
and checks the digest over the bytes it splices back. Loading a
directory and importing a snapshot feed the one decoder: it reads every
record through ``records.read`` and alone checks what no command can
break. It checks each of a snapshot's objects against its digest; the
store checks an object file so when it first reads it, which only a
reader of that object's bytes does (``object get``, ``chain verify``,
the digests, a snapshot). It refuses a ledger with no active
administrator, or whose stored contracts are not exactly the factory's
proxies, each initialized at its own address.
"""

import contextlib
import fcntl
import json
import os
import re
from dataclasses import dataclass
from typing import Optional

from .canonical import canonical_json_bytes, sha256_hex
from .chain import Block, Chain, NativeLedger
from .errors import LedgerError, err
from .factory import Factory
from .identity import StakeholderRegistry
from .node import (STATE_VERSION, LedgerState, Node, state_digest,
                   state_pieces)
from .property_contract import PropertyContract
from .records import read, read_object, to_json
from .storage import ObjectStore

STATE_KEYS = frozenset(("version", "config", "accounts", "stakeholders",
                        "factory", "properties"))
LOG_HEAD = b'{"blocks":['
TAIL_WINDOW = 1 << 14  # bytes a load first reads back from the log's end
_SCAN = json.JSONDecoder().raw_decode
# where a block starts in a log; a param's {"hash": ...} matches only if
# it copies a whole header
_BLOCK_HEADER = re.compile(r',\{"hash":"[0-9a-f]{64}","index":')


@dataclass
class Checkpoint:
    """The tag of ``state.json``: the block whose state it holds."""
    index: int
    hash: bytes


@dataclass
class StoredLog:
    """Where a chain sits in a dir's log: the file at `path` holds its
    first `blocks` blocks, the last ending at byte `end` (None unless
    stored canonically) before ``]}`` or a torn tail. Unless the chain
    holds the whole log, its first held block is `first` from `start`."""
    path: str
    blocks: int
    end: Optional[int]
    start: int = 0
    first: bytes = b""

    def before(self, index: int) -> list:
        """The `index` blocks before held block `index`, read once: the
        bytes before `first`, which must still be at `start`."""
        with open(self.path, "rb") as fh:
            data = fh.read(self.start + len(self.first))
        if data[self.start - 1:] != b"," + self.first:
            raise err("CorruptSnapshot", f"{self.path} no longer holds "
                      f"block {index} at byte {self.start}")
        blocks = Chain.from_dict(_json_object(
            self.path, data[:self.start - 1] + b"]}", "surrogateescape")).held
        if len(blocks) != index:
            raise err("CorruptSnapshot", f"{self.path} holds {len(blocks)} "
                      f"blocks before block {index}")
        self.first = b""  # the chain now holds the whole log
        return blocks


def _write_atomic(path: str, data: bytes):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _append(stored, path: str, held: list) -> Optional[int]:
    """Write the blocks of `held` after the first `stored.blocks` of the
    log at `path` over its closing ``]}`` and fsync it: the commit point.
    Returns where the new ``]}`` begins; None, having written nothing,
    unless `stored` is that log and it still ends block
    ``stored.blocks - 1`` at `stored.end`."""
    if stored is None or stored.path != path or stored.end is None:
        return None
    i = stored.blocks - 1 - held[0].index  # the stored tip's place in held
    if not 0 <= i < len(held):
        return None
    last = held[i].canonical_json()
    tail = b"".join(b"," + block.canonical_json()
                    for block in held[i + 1:]) + b"]}"
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return None
    with fh:
        fh.seek(stored.end - len(last))
        if fh.read(len(last)) != last:
            return None
        if os.fstat(fh.fileno()).st_size != stored.end + 2:  # a torn tail
            fh.truncate(stored.end)
        fh.write(tail)
        fh.flush()
        os.fsync(fh.fileno())
    return stored.end + len(tail) - 2


def save_state(state_dir: str, node: Node):
    """Write `node` to `state_dir`: append its new blocks to a log that
    holds the rest of its chain, else write the log whole; then the new
    objects and the checkpoint. The checkpoint is encoded first, so a
    state it cannot encode leaves the dir untouched."""
    state, chain = node.state, node.state.chain
    tip = chain.held[-1]
    checkpoint = canonical_json_bytes(state.state_dict() | {
        "block": to_json(Checkpoint(tip.index, tip.hash))})
    store = state.store
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    # content-addressed: a file once written is never rewritten
    on_disk = (store.listed if store.path == objects_dir
               else _listing(objects_dir))
    objects = {digest: store.read(digest)
               for digest in sorted(store.digests() - on_disk)}
    chain_path = os.path.abspath(os.path.join(state_dir, "chain.json"))
    end = _append(chain.log, chain_path, chain.held)
    os.makedirs(objects_dir, exist_ok=True)
    whole = end is None  # the dir holds no log of this chain
    if whole:
        log = chain.canonical_json()
        _write_atomic(chain_path, log)
        chain.log = StoredLog(chain_path, chain.height, len(log) - 2)
    else:
        chain.log.blocks, chain.log.end = chain.height, end
    for digest, data in objects.items():
        _write_atomic(os.path.join(objects_dir, digest + ".bin"), data)
    _write_atomic(os.path.join(state_dir, "state.json"), checkpoint)
    held = store.digests()
    if whole:  # the objects of a ledger this one replaced
        for digest in on_disk - held:
            os.remove(os.path.join(objects_dir, digest + ".bin"))
    store.path, store.listed = objects_dir, held


def _listing(objects_dir: str) -> set:
    """The digests `objects_dir` holds a ``<digest>.bin`` file of."""
    if not os.path.isdir(objects_dir):
        return set()
    return {name[:-len(".bin")] for name in os.listdir(objects_dir)
            if name.endswith(".bin")}


def _json_object(path: str, data: bytes, errors: str = "strict") -> dict:
    try:  # JSON text is UTF-8
        value = json.loads(data.decode("utf-8", errors))
    except (ValueError, RecursionError):
        value = None
    if not isinstance(value, dict):
        raise err("CorruptSnapshot", f"{path} is not a JSON object")
    return value


def _read_json_object(path: str) -> dict:
    """The JSON object in the file at `path`; a string in it that holds a
    lone surrogate, which no UTF-8 text can, is refused here."""
    with open(path, "rb") as fh:
        data = fh.read()
    value = _json_object(path, data)
    # a \u escape of a surrogate? A file with no backslash holds no escape
    if b"\\" in data and (b"\\ud" in data or b"\\uD" in data):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise err("CorruptSnapshot", f"{path} holds a string that is "
                      f"not UTF-8: {exc}") from exc
    return value


def _scan_blocks(text: str, pos: int) -> tuple:
    """The JSON values stored one after another from `pos` in `text`, a
    comma between each two, and where each ends; the scan stops at a
    value that does not parse or that no comma follows."""
    values, ends = [], []
    while True:
        try:
            value, end = _SCAN(text, pos)
        except (ValueError, RecursionError):
            return values, ends
        values.append(value)
        ends.append(end)
        if text[end:end + 1] != ",":
            return values, ends
        pos = end + 1


def _whole_blocks(data: bytes) -> Optional[tuple]:
    """The blocks of a log whose last append was torn, and the byte where
    the last whole one ends; None unless what follows that block is one
    torn block at most."""
    if not data.startswith(LOG_HEAD):
        return None
    text = data.decode("utf-8", "surrogateescape")
    blocks, ends = _scan_blocks(text, len(LOG_HEAD))
    if not blocks or _BLOCK_HEADER.search(text, ends[-1] + 1):
        return None
    return blocks, len(text[:ends[-1]].encode("utf-8", "surrogateescape"))


def _read_log(path: str, need: Optional[int]) -> tuple:
    """The block log at `path`, and the byte where its closing ``]}``
    begins if its last block is stored in canonical form (else None). A
    log that does not parse loads without its torn tail if it still holds
    block `need`; a `need` of None allows no torn tail."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # bytes that are not UTF-8 reach Block.from_dict, naming a block
        value, end = _json_object(path, data, "surrogateescape"), len(data) - 2
    except LedgerError:  # not JSON: torn or broken
        whole = None if need is None else _whole_blocks(data)
        if whole is None or len(whole[0]) <= need:
            raise
        value, end = {"blocks": whole[0]}, whole[1]
    chain = Chain.from_dict(value)
    if not chain.held:
        raise err("CorruptSnapshot", f"{path} holds no block")
    if not data.endswith(chain.held[-1].canonical_json(), 0, end):
        end = None
    return chain, end


def _read_tail(path: str, tag: Checkpoint) -> Optional[tuple]:
    """The log at `path` read back from its end to the block `tag` names:
    a chain holding that block, which records where the log stores it,
    and the blocks after it. None unless the log stores that block after
    a comma, with the tag's hash, index and nonce, and only whole blocks
    and ``]}`` after it."""
    header = (f'{{"hash":"{tag.hash.hex()}","index":{tag.index},'
              .encode("utf-8"))
    with open(path, "rb") as fh:
        size, window = os.fstat(fh.fileno()).st_size, TAIL_WINDOW
        while True:
            start = max(0, size - window)
            fh.seek(start)
            data = fh.read(size - start)
            at = data.rfind(header, 1)  # and the byte before it
            if at >= 0 or start == 0:
                break
            window *= 4
    if at < 0 or data[at - 1:at] != b",":
        return None
    text = data[at:].decode("utf-8", "surrogateescape")
    found, ends = _scan_blocks(text, 0)
    # only the log's own list of blocks ends the file with "]}": a scan
    # that stops elsewhere began at a block-shaped value nested in a
    # transaction, or the log is torn, and the whole log tells which
    if not found or text[ends[-1]:] != "]}":
        return None
    try:
        blocks = [Block.from_dict(d) for d in found]
    except LedgerError:
        return None
    if blocks[0].compute_hash() != tag.hash or any(
            b.index != tag.index + i or b.nonce != tag.index + i
            for i, b in enumerate(blocks)):
        return None
    first = text[:ends[0]].encode("utf-8", "surrogateescape")
    end = (size - 2 if data.endswith(blocks[-1].canonical_json(), 0,
                                     len(data) - 2) else None)
    log = StoredLog(path, blocks[-1].index + 1, end, start + at, first)
    return Chain(blocks[:1], log), blocks[1:]


def _check_version(body: dict, what: str):
    version = body.get("version")  # a mistyped one is no version at all
    if type(version) is not int or version != STATE_VERSION:
        raise err("VersionMismatch" if type(version) is int else
                  "CorruptSnapshot", f"{what} version {version!r}, "
                  f"expected {STATE_VERSION}")


def _state_from_dicts(d: dict, chain: Chain, store: ObjectStore = None
                     ) -> Node:
    """Decode a ``state_dict()`` beside its `chain` and `store`, or its
    hex ``objects``; refuse what no command produces."""
    read_object(d, STATE_KEYS | ({"objects"} if store is None else set()))
    if store is None:
        store = ObjectStore(read(dict[str, bytes], d["objects"]))
        for digest, data in store.objects.items():
            if sha256_hex(data) != digest:
                raise err("CorruptSnapshot",
                          f"object {digest} does not match its digest")
    state = LedgerState(
        config=read(dict[str, Optional[str]], d["config"]),
        chain=chain,
        native=read(NativeLedger, d["accounts"]),
        registry=read(StakeholderRegistry, d["stakeholders"]),
        store=store,
        factory=read(Factory, d["factory"]),
        properties=read(dict[str, PropertyContract], d["properties"]),
    )
    if not state.registry.active_admins():
        raise err("CorruptSnapshot", "no active administrator")
    if sorted(state.properties) != sorted(state.factory.proxies):
        raise err("CorruptSnapshot", "properties differ from proxies")
    for address, prop in state.properties.items():
        if not prop.initialized or prop.address != address:
            raise err("CorruptSnapshot", f"the contract at {address} is "
                      "uninitialized or records another address")
    return Node(state)


def _uninitialized(state_dir: str):
    return err("Uninitialized", f"{state_dir} holds no ledger; run init")


def holds_ledger(state_dir: str) -> bool:
    """Whether `state_dir` holds a ledger file; either one counts, so a
    block log without its state is never overwritten."""
    return any(os.path.exists(os.path.join(state_dir, name))
               for name in ("state.json", "chain.json"))


def load_state(state_dir: str) -> Node:
    """The checkpoint in `state_dir` brought up to the tip of its log."""
    state_path = os.path.join(state_dir, "state.json")
    chain_path = os.path.join(state_dir, "chain.json")
    if not holds_ledger(state_dir):
        raise _uninitialized(state_dir)
    for path in (state_path, chain_path):
        if not os.path.exists(path):
            raise err("CorruptSnapshot", f"{path} is missing; "
                      "`state import --force` restores the dir")
    state_d = _read_json_object(state_path)
    _check_version(state_d, "state")
    tag = state_d.pop("block", None)
    if tag is not None:
        tag = read(Checkpoint, tag)
    read_object(state_d, STATE_KEYS)
    # objects before the log: a write adds them only after its append
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    store = ObjectStore(path=objects_dir, listed=_listing(objects_dir))
    log_path = os.path.abspath(chain_path)
    tail = None if tag is None else _read_tail(log_path, tag)
    if tail is None:  # the whole log
        need = None if tag is None else tag.index
        chain, end = _read_log(chain_path, need)
        blocks = chain.held
        if tag is None:  # written before checkpoints were tagged
            tag = Checkpoint(len(blocks) - 1, blocks[-1].hash)
        if not 0 <= tag.index < len(blocks):
            raise err("CorruptSnapshot", f"{state_path} reflects block "
                      f"{tag.index}; the log holds {len(blocks)} blocks")
        if blocks[tag.index].hash != tag.hash:
            raise err("CorruptSnapshot", f"{state_path} reflects a block "
                      f"{tag.index} the log does not hold")
        chain.log = StoredLog(log_path, len(blocks), end)
        later = blocks[tag.index + 1:]
        del blocks[tag.index + 1:]
    else:
        chain, later = tail
    node = _state_from_dicts(state_d, chain, store)
    try:
        node.redo(later)
    except LedgerError as exc:
        raise err("CorruptSnapshot", f"the blocks after {state_path} "
                  f"do not redo: {exc}") from exc
    return node


class LedgerDir:
    """One command's hold on the state dir at `path`, which reads nothing
    until its `node` is first used; `writing()` holds the dir's flock and
    `commit()` saves the ledger."""

    def __init__(self, path: str):
        self.path = path
        self._node = None
        self._locked = False  # whether this hold has the flock

    @property
    def node(self) -> Node:
        if self._node is None:
            self._node = load_state(self.path)
        return self._node

    @contextlib.contextmanager
    def writing(self, create: bool = False, overwrite: bool = False):
        """Hold the flock on ``.lock``; inside a hold that has it, a no-op.
        With `create`, make a missing dir and refuse a ledger in it unless
        `overwrite`; a failure then removes the lock and a dir it made."""
        if self._locked:
            yield
            return
        created = not os.path.isdir(self.path)
        if created and not create:  # the lock creates nothing
            raise _uninitialized(self.path)
        os.makedirs(self.path, exist_ok=True)
        lock = os.path.join(self.path, ".lock")
        with open(lock, "a+") as fh:  # closing it releases the flock
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                raise err("StateLocked", f"another process holds {lock}")
            self._locked = True
            try:
                if create and not overwrite and holds_ledger(self.path):
                    raise err("AlreadyInitialized",
                              f"{self.path} already holds a ledger; "
                              "`state import --force` overwrites it")
                yield
            except BaseException:
                if created:
                    os.remove(lock)
                    with contextlib.suppress(OSError):  # others' files stay
                        os.rmdir(self.path)
                raise
            finally:
                self._locked = False

    def commit(self, node: Node = None):
        """Save `node`, from now on this hold's ledger, or the loaded one."""
        if node is not None:
            self._node = node
        save_state(self.path, self.node)


# -- snapshots -------------------------------------------------------------


def export_snapshot(node: Node) -> dict:
    body, chain = node.state.state_dict(objects=True), node.state.chain
    return body | {"chain": chain.to_dict(),
                   "digest": state_digest(body, chain)}


def import_snapshot(snapshot: dict) -> Node:
    _check_version(snapshot, "snapshot")
    chain = Chain.from_dict(snapshot.get("chain"))
    body = {k: v for k, v in snapshot.items() if k not in ("chain", "digest")}
    if state_digest(body, chain) != snapshot.get("digest"):
        raise err("CorruptSnapshot", "snapshot digest does not match")
    return _state_from_dicts(body, chain)


def write_snapshot(path: str, node: Node):
    """``canonical_json_bytes(export_snapshot(node))``, written from the
    digest's own pieces."""
    body, chain = node.state.state_dict(objects=True), node.state.chain
    body["digest"] = state_digest(body, chain)
    _write_atomic(path, b"".join(state_pieces(body, chain)))


def read_snapshot(path: str) -> Node:
    if not os.path.exists(path):
        raise err("NotFound", path)
    return import_snapshot(_read_json_object(path))
