"""State directory layout, the commit point of a write, snapshot
export/import, and ``LedgerDir``, which holds a dir for one command.

Layout inside a state directory:

    chain.json   the block log, canonical JSON: {"blocks":[...]}
    config.json  the config, written once by a whole write; read only to
                 rebuild a lost checkpoint
    state.json   the checkpoint, a cache of the log:
                 ``LedgerState.state_dict()`` (accounts, stakeholders,
                 factory, properties, config), the sorted digests of the
                 objects the ledger holds, "store", and its tag "block",
                 the index and hash of the block it reflects and the
                 file's own digest, "state"
    objects/     one <hex-digest>.bin file per stored object, a cache of
                 the log, which records every object's bytes
    .lock        flock target guarding against concurrent writers

``LedgerDir(path)`` is one command's hold on a state dir: its ``node``
calls ``load_state`` on first use, ``writing()`` holds the flock on
``.lock``, once per hold, so a script's lines share it, and ``commit()``
calls ``save_state``. A read takes no lock.

When the chain was loaded from, or last saved to, the same dir, and the
file still ends with the chain's stored tip in canonical form and
``]}``, ``save_state`` appends only the new blocks to ``chain.json`` in
place: it writes ``,<block>...]}`` over the closing ``]}`` and fsyncs.
That fsync is the one commit point, and the write's only fsync. The new
object files and the checkpoint commit nothing: each goes to a temp
name renamed with no fsync, the objects first. The checkpoint bounds
the blocks a load redoes and lists the objects the ledger holds. Inside
a hold, an append leaves it to the hold, which encodes and writes it
once, as the hold ends, returned or raised, before it lets the flock
go, if the last commit left the ledger at a committed tip. So a lone
write and ``object put`` fsync once, and a script of ten writes ten
times; a line that fails leaves a checkpoint at the last block
committed, and a reader that loads while a script runs redoes the lines
committed so far. A dir that holds no log of this chain (``init``,
``state import``), or a log torn or stored in another form, gets a
whole write: the log and ``config.json``, both fsynced, then the old
checkpoint removed, so a crash before the new one lands rebuilds from
whichever log is in place, then both renamed in that order; then the
object files and the checkpoint, as above; then the removal of each
object file of no object the ledger holds, the one listing of
``objects/``, and an fsync of the dir. That is three fsyncs at any
object count. A dir an older version made, which holds no
``config.json``, gets it, fsynced with the dir, before an append. A
write stores the file of each object its store holds that the dir's
files do not: the ones new since the load or the last write. Outside a
hold, ``save_state`` encodes the checkpoint before its first write.

The tag's digest is the SHA-256 of ``state.json`` with the digest's own
hex digits zeroed: ``save_state`` hashes the one encoding it writes, and
``load_state`` recomputes the digest over the bytes it read and refuses
a mismatch before it decodes a section. A tag with no digest, as written
before tags held one, loads unchecked. A checkpoint whose digest checks
before anything is parsed is cut at the last ``,"store":`` before its
fixed suffix ``,"version":1}``, the last ``,"stakeholders":`` before
that and the last ``,"factory":`` before that, and only the head before
the contracts (accounts, tag, config) is parsed at load. The contracts
slice (factory, properties), the registry slice (stakeholders) and the
store slice (the object digests) are each parsed when a command first
uses them; a slice that holds a key of the head or of another slice
is refused, and one that does not otherwise parse to exactly its keys,
because a key nested in a value cut it wrong or its bytes are broken,
is read from a parse of the whole file. A file with no digest, a
digest that does not match, a surrogate escape, no suffix or key to cut
at, or a head not exactly its keys is parsed whole at load, as before;
a file whose slices each parse to exactly their keys, as every file
``save_state`` writes does, loads to the values a whole parse gives.
Each section (accounts, stakeholders, factory with properties, store)
is decoded, and its invariants checked, when a command first uses it: the
loaded state is a ``PendingState``, and ``Node.execute`` decodes every
section before it admits a command.

A write encodes the head whole, and a slice only if an op of a block
since the checkpoint was read or last written declares a section of
that slice (``@op(writes=...)``): the ops are read from each block's
first transaction, so blocks a load redid count. Each other slice is
written back as the bytes the file held, once they parsed to exactly
their keys, or as the last write wrote them: ``Slices``, kept beside
the chain's log. A checkpoint parsed whole, ``init`` and ``state
import`` keep none, so their next write encodes every slice. Every
section is still decoded and checked before a write; read from a file
a write left, the file the next write leaves is the one
``_checkpoint_bytes`` encodes from the whole state.

``load_state`` reads the checkpoint, then the log from its end back to
the tag's block, and lists no dir: it finds that block's
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
writes nothing, and the next write rewrites the log whole. Cyclic GC is
paused while a whole log is decoded: the decode frees nothing, so a
collection would only scan the objects it builds.

A ``state.json`` that is missing, or does not parse as one JSON object,
as a crash can leave a file written without an fsync, is rebuilt: the
load drops a torn last append, replays the log from genesis
(``Node.from_log``) with the config of ``config.json``, prints one
notice on stderr and writes nothing; the next write stores the
checkpoint whole, and every object file. A complete checkpoint that
fails its digest or a check is refused as before.

A loaded store starts from the digests the checkpoint lists, and the
blocks a load redoes add theirs. It reads an object's file when a
command first needs its bytes. A file that does not match its digest
goes to ``_LogObjects``: one missing, empty or holding a prefix of the
object's bytes, or such a prefix followed by NUL bytes, as a crash can
leave a file written without an fsync, is rebuilt from a replay of the
log from genesis (``Node.from_log``, once per load), with one notice on
stderr per file, and stored again, by a temp name of the reader's own
renamed in, so one crash costs one replay. A complete file holding
other bytes is refused. A checkpoint an older version wrote
lists no objects: when a command first uses its store, the store is
replayed from the log, with one notice, and the next write stores the
list.

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
import gc
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

from .canonical import canonical_json_bytes, raw_decode, sha256_hex
from .chain import Block, Chain, NativeLedger
from .errors import LedgerError, err
from .factory import Factory
from .identity import Role, StakeholderRegistry
from .node import (OPS, SECTIONS, STATE_VERSION, LedgerState, Node,
                   PendingState, state_digest, state_pieces)
from .property_contract import PropertyContract
from .records import read, read_object, to_json
from .storage import ObjectStore

STATE_KEYS = frozenset(("version", "config", "accounts", "stakeholders",
                        "factory", "properties"))
# a checked checkpoint is split at three keys: the head before the
# contracts is parsed at load, each slice after it on first use
HEAD_KEYS = frozenset(("accounts", "block", "config"))
STATE_END = b',"version":%d}' % STATE_VERSION
_CONTRACT_KEYS = frozenset(("factory", "properties"))


def _members(state) -> dict:
    """The store section of a checkpoint: the sorted digests of the
    objects the ledger holds. It is no key of ``state_dict``, so no digest
    of the state covers it."""
    return {"store": sorted(state.store.digests())}


# each slice after the head, in file order: the key it starts at, the
# top-level keys it holds, the ``LedgerState`` sections they encode, and
# its encoder, a dict of those keys
SLICES = ((b',"factory":', _CONTRACT_KEYS, _CONTRACT_KEYS,
           lambda state: state.state_dict(keys=_CONTRACT_KEYS)),
          (b',"stakeholders":', frozenset(("stakeholders",)),
           frozenset(("registry",)),
           lambda state: state.state_dict(keys=("stakeholders",))),
          (b',"store":', frozenset(("store",)), frozenset(("store",)),
           _members))
SECTION_KEYS = HEAD_KEYS.union(*(keys for _, keys, _, _ in SLICES))
# a tag with its digest, as a canonical checkpoint holds it
_SIGNED_TAG = re.compile(rb',"block":\{"hash":"([0-9a-f]{64})","index":'
                         rb'(0|[1-9][0-9]*),"state":"([0-9a-f]{64})"\},')
LOG_HEAD = b'{"blocks":['
TAIL_WINDOW = 1 << 14  # bytes a load first reads back from the log's end
# where a block starts in a log; a param's {"hash": ...} matches only if
# it copies a whole header
_BLOCK_HEADER = re.compile(r',\{"hash":"[0-9a-f]{64}","index":')


@dataclass
class Checkpoint:
    """The tag of ``state.json``: the block whose state it holds, and the
    SHA-256 of the file with the digest's own hex digits zeroed; None in a
    tag written before tags held one."""
    index: int
    hash: bytes
    state: Optional[bytes] = None


def _tag_json(tag: Checkpoint) -> bytes:
    """`tag` as the bytes of a checkpoint hold it."""
    return b'"block":' + canonical_json_bytes(to_json(tag))


def _sign(data: bytes, tag: Checkpoint) -> bytes:
    """The checkpoint `data`, which holds `tag` with its digest zeroed,
    with the digest: the SHA-256 of `data`."""
    zeroed, tag.state = _tag_json(tag), hashlib.sha256(data).digest()
    return data.replace(zeroed, _tag_json(tag), 1)


def _checkpoint_bytes(body: dict, index: int, hash_: bytes) -> bytes:
    """`body`, a ``state_dict()`` with its ``_members``, tagged with
    block `index` of hash `hash_` as ``state.json`` holds it, encoded
    whole: its digest is the SHA-256 of these bytes with the digest's hex
    digits zeroed."""
    tag = Checkpoint(index, hash_, bytes(32))  # the digest zeroed
    return _sign(canonical_json_bytes(body | {"block": to_json(tag)}), tag)


def _whole_checkpoint(state, index: int, hash_: bytes) -> bytes:
    """The checkpoint of `state` at block `index` of hash `hash_`, encoded
    whole: the bytes every ``state.json`` a write leaves holds."""
    return _checkpoint_bytes(state.state_dict() | _members(state), index,
                             hash_)


def _signed(data: bytes, tag: Checkpoint) -> bool:
    """Whether the checkpoint bytes `data` hold `tag`, and its digest is
    the SHA-256 of `data` with the digest's hex digits zeroed."""
    signed = _tag_json(tag)
    zeroed = _tag_json(Checkpoint(tag.index, tag.hash, bytes(len(tag.state))))
    return signed in data and hashlib.sha256(
        data.replace(signed, zeroed, 1)).digest() == tag.state


@dataclass
class Slices:
    """The checkpoint slices after the head, in ``SLICES`` order, that
    reflect the state at block `index`, of hash `hash`, of a chain: each
    one's bytes, or the ``_Slice`` of a loaded checkpoint, whose bytes
    count once it parsed to exactly its keys."""
    index: int
    hash: bytes
    pieces: list


@dataclass
class StoredLog:
    """Where a chain sits in a dir's log: the file at `path` holds its
    first `blocks` blocks. Unless the chain holds the whole log, its first
    held block is `first` from `start`. `slices`, the checkpoint slices
    last read or written beside the log, are what a write carries over
    of each slice no op since has changed."""
    path: str
    blocks: int
    start: int = 0
    first: bytes = b""
    slices: Optional[Slices] = None

    def before(self, index: int) -> list:
        """The `index` blocks before held block `index`, read once: the
        bytes before `first`, which must still be at `start`."""
        with open(self.path, "rb") as fh:
            data = fh.read(self.start + len(self.first))
        if data[self.start - 1:] != b"," + self.first:
            raise err("CorruptSnapshot", f"{self.path} no longer holds "
                      f"block {index} at byte {self.start}")
        with _gc_paused():
            blocks = Chain.from_dict(_json_object(
                self.path, data[:self.start - 1] + b"]}",
                "surrogateescape")).held
        if len(blocks) != index:
            raise err("CorruptSnapshot", f"{self.path} holds {len(blocks)} "
                      f"blocks before block {index}")
        self.first = b""  # the chain now holds the whole log
        return blocks


def _write_atomic(files: dict, durable: bool = True):
    """Write each of `files`, path -> bytes, to a temp name and rename it
    to its path, in order. If `durable`, each temp file is fsynced before
    the first rename: written first, all of them, so the first fsync's
    journal commit can carry the rest."""
    for path, data in files.items():
        with open(path + ".tmp", "wb") as fh:
            fh.write(data)
    if durable:
        for path in files:
            _fsync(path + ".tmp")
    for path in files:
        os.replace(path + ".tmp", path)


def _fsync(path: str):
    """fsync the file or dir `path`; a dir, so the renames into it
    survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _append(stored, path: str, held: list) -> bool:
    """Write the blocks of `held` after the first `stored.blocks` of the
    log at `path` over its closing ``]}`` and fsync it: the commit point.
    False, having written nothing, unless `stored` is that log and the
    file ends with block ``stored.blocks - 1`` in canonical form and
    ``]}``."""
    if stored is None or stored.path != path:
        return False
    i = stored.blocks - 1 - held[0].index  # the stored tip's place in held
    if not 0 <= i < len(held):
        return False
    end = held[i].canonical_json() + b"]}"
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return False
    with fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(max(0, size - len(end)))
        if fh.read(len(end)) != end:
            return False
        fh.seek(size - 2)
        fh.write(b"".join(b"," + block.canonical_json()
                          for block in held[i + 1:]) + b"]}")
        fh.flush()
        os.fsync(fh.fileno())
    return True


def _writes(block) -> frozenset:
    """The sections the op of `block`, its first transaction, may change;
    every section, for a block whose op is not known."""
    try:
        decl = OPS.get(json.loads(block.data[0])["operation"])
    except (IndexError, ValueError, TypeError, KeyError):
        decl = None
    return SECTIONS if decl is None else decl.writes


def _carried(chain: Chain) -> list:
    """For each slice in ``SLICES``, its stored bytes if no block after
    the one they reflect may have changed it, else None."""
    slices = chain.log.slices if chain.log is not None else None
    at = -1 if slices is None else slices.index - chain.held[0].index
    if not 0 <= at < len(chain.held) or chain.held[at].hash != slices.hash:
        return [None] * len(SLICES)
    written = frozenset().union(*map(_writes, chain.held[at + 1:]))
    return [None if sections & written else
            piece.stored if isinstance(piece, _Slice) else piece
            for (_, _, sections, _), piece in zip(SLICES, slices.pieces)]


def _encode(state, chain) -> tuple:
    """The checkpoint of `state` at its chain's tip, as ``state.json``
    holds it, and its slices: the head whole, and each slice whole unless
    no op since it was last read or written may have changed it, which is
    then its stored bytes."""
    tip = chain.held[-1]
    pieces = [stored or canonical_json_bytes(encode(state))[1:-1]
              for (*_, encode), stored in zip(SLICES, _carried(chain))]
    tag = Checkpoint(tip.index, tip.hash, bytes(32))  # the digest zeroed
    head = canonical_json_bytes(state.state_dict(keys=("accounts", "config"))
                                | {"block": to_json(tag)})
    return _sign(b",".join([head[:-1], *pieces]) + STATE_END, tag), pieces


def _store_checkpoint(state_dir: str, chain: Chain, encoded: tuple):
    """Write the checkpoint `encoded` of `chain`'s tip without an fsync:
    it commits nothing, and a load rebuilds what a crash loses of it."""
    checkpoint, pieces = encoded
    _write_atomic({os.path.join(state_dir, "state.json"): checkpoint},
                  durable=False)
    tip = chain.held[-1]
    chain.log.slices = Slices(tip.index, tip.hash, pieces)


def save_state(state_dir: str, node: Node, defer: bool = False):
    """Write `node` to `state_dir`: append its new blocks to a log that
    holds the rest of its chain, else write the log whole, and
    ``config.json``; then the new object files and the checkpoint. The
    checkpoint is encoded before the first write, so a state it cannot
    encode leaves the dir untouched. With `defer`, a write that appended
    leaves the checkpoint to its caller and returns True; any other
    returns None."""
    state, chain = node.state, node.state.chain
    if isinstance(state, PendingState):  # a write checks every section
        state.decode()
    encoded = None if defer else _encode(state, chain)
    store = state.store
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    # content-addressed: a file the dir holds is never rewritten
    cached = store.stored if store.path == objects_dir else set()
    objects = {digest: store.read(digest)
               for digest in sorted(store.digests() - cached)}
    chain_path = os.path.abspath(os.path.join(state_dir, "chain.json"))
    config_path = os.path.join(state_dir, "config.json")
    if (chain.log is not None and chain.log.path == chain_path
            and not os.path.exists(config_path)):  # an older version's dir
        _write_atomic({config_path: canonical_json_bytes(state.config)})
        _fsync(state_dir)
    whole = not _append(chain.log, chain_path, chain.held)
    if whole:  # the dir holds no log of this chain, or a torn one
        encoded = encoded or _encode(state, chain)
        os.makedirs(state_dir, exist_ok=True)
        # the old checkpoint goes first: a crash before the new one lands
        # rebuilds from whichever log is in place
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(state_dir, "state.json"))
        _write_atomic({chain_path: chain.canonical_json(),
                       config_path: canonical_json_bytes(state.config)})
        chain.log = StoredLog(chain_path, chain.height)
    else:
        chain.log.blocks = chain.height
    os.makedirs(objects_dir, exist_ok=True)
    _write_atomic({os.path.join(objects_dir, digest + ".bin"): data
                   for digest, data in objects.items()}, durable=False)
    if encoded is not None:
        _store_checkpoint(state_dir, chain, encoded)
    held = store.digests()
    if whole:  # the files of no object this ledger holds
        for name in os.listdir(objects_dir):
            if name.endswith(".bin") and name[:-len(".bin")] not in held:
                os.remove(os.path.join(objects_dir, name))
        _fsync(state_dir)
    store.path, store.stored = objects_dir, held
    return True if encoded is None else None


@contextlib.contextmanager
def _gc_paused():
    """Cyclic GC off while a decode allocates many objects and frees
    none, so no collection scans them; the caller's setting after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse(data: bytes, errors: str = "strict"):
    """The JSON value `data` holds, None if it holds none."""
    try:  # JSON text is UTF-8
        return json.loads(data.decode("utf-8", errors))
    except (ValueError, RecursionError):
        return None


def _json_object(path: str, data: bytes, errors: str = "strict") -> dict:
    value = _parse(data, errors)
    if not isinstance(value, dict):
        raise err("CorruptSnapshot", f"{path} is not a JSON object")
    return value


def _may_hold_surrogate(data: bytes) -> bool:
    """Whether `data` holds a \\u escape of a surrogate; a file with no
    backslash holds no escape."""
    return b"\\" in data and (b"\\ud" in data or b"\\uD" in data)


def _utf8_json_object(path: str, data: bytes) -> dict:
    """The JSON object `data`, the bytes of the file at `path`, holds; a
    string in it that holds a lone surrogate, which no UTF-8 text can, is
    refused here."""
    value = _json_object(path, data)
    if _may_hold_surrogate(data):
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
            value, end = raw_decode(text, pos)
        except (ValueError, RecursionError):
            return values, ends
        values.append(value)
        ends.append(end)
        if text[end:end + 1] != ",":
            return values, ends
        pos = end + 1


def _whole_blocks(data: bytes) -> Optional[list]:
    """The blocks of a log whose last append was torn; None unless what
    follows the last whole one is one torn block at most."""
    if not data.startswith(LOG_HEAD):
        return None
    text = data.decode("utf-8", "surrogateescape")
    blocks, ends = _scan_blocks(text, len(LOG_HEAD))
    if not blocks or _BLOCK_HEADER.search(text, ends[-1] + 1):
        return None
    return blocks


def _read_log(path: str, need: Optional[int]) -> Chain:
    """The block log at `path`. A log that does not parse loads without
    its torn tail if it still holds block `need`; a `need` of None allows
    no torn tail."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _gc_paused():
        try:  # bytes not UTF-8 reach Block.from_dict, naming a block
            value = _json_object(path, data, "surrogateescape")
        except LedgerError:  # not JSON: torn or broken
            whole = None if need is None else _whole_blocks(data)
            if whole is None or len(whole) <= need:
                raise
            value = {"blocks": whole}
        chain = Chain.from_dict(value)
    if not chain.held:
        raise err("CorruptSnapshot", f"{path} holds no block")
    return chain


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
    log = StoredLog(path, blocks[-1].index + 1, start + at, first)
    return Chain(blocks[:1], log), blocks[1:]


def _check_version(body: dict, what: str):
    version = body.get("version")  # a mistyped one is no version at all
    if type(version) is not int or version != STATE_VERSION:
        raise err("VersionMismatch" if type(version) is int else
                  "CorruptSnapshot", f"{what} version {version!r}, "
                  f"expected {STATE_VERSION}")


def _accounts(raw) -> dict:
    return {"native": read(NativeLedger, raw)}


def _stakeholders(part) -> dict:
    registry = read(StakeholderRegistry, part()["stakeholders"])
    if not any(record.active and Role.ADMINISTRATOR.value in record.roles
               for record in registry.stakeholders.values()):
        raise err("CorruptSnapshot", "no active administrator")
    return {"registry": registry}


def _contracts(part) -> dict:
    d = part()
    factory = read(Factory, d["factory"])
    properties = read(dict[str, PropertyContract], d["properties"])
    if sorted(properties) != sorted(factory.proxies):
        raise err("CorruptSnapshot", "properties differ from proxies")
    for address, prop in properties.items():
        if not prop.initialized or prop.address != address:
            raise err("CorruptSnapshot", f"the contract at {address} is "
                      "uninitialized or records another address")
    return {"factory": factory, "properties": properties}


def _replay(blocks: list, state: LedgerState, chain_path: str) -> Node:
    """``Node.from_log(blocks, state)``; a log that does not replay is
    ``CorruptSnapshot``."""
    try:
        return Node.from_log(blocks, state)
    except LedgerError as exc:
        raise err("CorruptSnapshot", f"{chain_path} does not replay: "
                  f"{exc}") from exc


class _LogObjects:
    """The objects of a loaded ledger as its log stores them: a replay of
    `chain` from genesis, run once, when its store first needs it.
    Called, it is that store's ``ObjectStore.rebuild``."""

    def __init__(self, chain: Chain):
        self.chain, self.replayed = chain, None

    def objects(self) -> dict:
        if self.replayed is None:
            self.replayed = _replay(self.chain.blocks, LedgerState(),
                                    self.chain.log.path).state.store.objects
        return self.replayed

    def __call__(self, digest: str, path: str, cached: bytes) -> bytes:
        """The bytes of the object `digest`, whose file at `path` holds
        `cached`, if `cached` is a prefix of them followed by NUL bytes
        at most: what a crash can leave of a file written without an
        fsync. One notice on stderr, and the file stored again."""
        data = self.objects().get(digest)
        if data is None:
            raise err("CorruptSnapshot", f"object {digest} is listed, but "
                      f"no block of {self.chain.log.path} stores it")
        if len(cached) > len(data) or not data.startswith(
                cached.rstrip(b"\0")):
            raise err("CorruptSnapshot",
                      f"object {digest} does not match its digest")
        print(f"notice: {path} is missing or torn; rebuilt it from "
              f"{self.chain.log.path}", file=sys.stderr)
        _restore(path, data)
        return data


def _restore(path: str, data: bytes):
    """Store the object file at `path` again as `data`, its bytes, by a
    temp name of this process's own renamed with no fsync: the file is
    content-addressed, so a reader that holds no lock may. A dir it
    cannot write keeps the file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _are_digests(members) -> bool:
    """Whether `members` is a list of SHA-256 digests in lowercase hex;
    one ``fromhex`` of them all checks the digits."""
    try:
        joined = "".join(members)
        return (type(members) is list and all(len(m) == 64 for m in members)
                and len(bytes.fromhex(joined)) * 2 == len(joined)
                and joined == joined.lower())
    except (TypeError, ValueError):  # a member no str, or no hex digit
        return False


def _store(state_dir: str, chain: Chain, part) -> dict:
    """The store of the ledger in `state_dir` beside its `chain`: the
    objects ``part()["store"]`` lists, whose files ``objects/`` caches. A
    checkpoint an older version wrote lists none: its objects are
    replayed from the log, with one notice on stderr."""
    log = _LogObjects(chain)
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    section = part()
    if "store" not in section:
        objects = dict(log.objects())
        print(f"notice: {state_dir}/state.json lists no objects, as an "
              f"older version wrote it; rebuilt them from "
              f"{state_dir}/chain.json", file=sys.stderr)
        return {"store": ObjectStore(objects, objects_dir)}
    members = section["store"]
    if not _are_digests(members):
        raise err("CorruptSnapshot", f"store: expected object digests, "
                  f"got {members!r:.60}")
    return {"store": ObjectStore(path=objects_dir, stored=set(members),
                                 rebuild=log)}


def _node(head: dict, parts: list, chain: Chain, store) -> Node:
    """The ledger of `head`'s accounts and config, beside its `chain`;
    `parts`, in ``SLICES`` order, each return, called, a dict holding
    their section's keys, and ``store(part)`` decodes the store from the
    last. Each section is parsed if it was not, read, and its invariants
    checked, on first use (``PendingState``)."""
    contracts, registry, members = parts
    contracts = (_contracts, contracts)
    return Node(PendingState(
        {"native": (_accounts, head["accounts"]),
         "registry": (_stakeholders, registry),
         "factory": contracts, "properties": contracts,
         "store": (store, members)},
        config=read(dict[str, Optional[str]], head["config"]), chain=chain))


def _state_from_dicts(d: dict, chain: Chain) -> Node:
    """Decode a ``state_dict(objects=True)`` beside its `chain`; refuse
    what no command produces."""
    read_object(d, STATE_KEYS | {"objects"})
    store = ObjectStore(read(dict[str, bytes], d["objects"]))
    for digest, data in store.objects.items():
        if sha256_hex(data) != digest:
            raise err("CorruptSnapshot",
                      f"object {digest} does not match its digest")
    return _node(d, [lambda: d] * len(SLICES), chain,
                 lambda part: {"store": store})


@dataclass
class _Slice:
    """Bytes `start` to `end` of the checked checkpoint `data` at `path`,
    the members of its object that hold `keys`; called, it parses them,
    and once they parse to exactly `keys` they are its `stored` bytes.
    Members that hold a key of another section are refused: the head or
    the other slice holds it, too, and a whole parse would take the later
    one. Others that do not parse to exactly `keys`, broken ones or ones
    a key nested in a value cut wrong, are read from the whole file,
    which refuses what it refused before the split."""
    path: str
    data: bytes
    start: int
    end: int
    keys: frozenset
    stored: Optional[bytes] = None

    def __call__(self) -> dict:
        members = self.data[self.start:self.end]
        value = _parse(b"{" + members + b"}")
        if type(value) is dict:
            if value.keys() == self.keys:
                self.stored = members
                return value
            other = value.keys() & SECTION_KEYS - self.keys
            if other:
                raise err("CorruptSnapshot", f"{self.path} holds "
                          f"{min(other)!r} twice")
        return _read_whole(self.path, self.data)[0]


def _read_whole(path: str, data: bytes) -> tuple:
    """The checkpoint `data`, the bytes of the file at `path`, parsed
    whole: its sections, and its tag, None if it has none."""
    d = _utf8_json_object(path, data)
    _check_version(d, "state")
    tag = d.pop("block", None)
    if tag is not None:  # a tag with no digest loads unchecked
        tag = read(Checkpoint, {"state": None} | tag
                   if type(tag) is dict else tag)
        if tag.state is not None and not _signed(data, tag):
            raise err("CorruptSnapshot", f"{path} does not match its digest")
    # an older version's checkpoint lists no store
    return read_object(d, STATE_KEYS | (d.keys() & {"store"})), tag


def _split(path: str, data: bytes) -> Optional[tuple]:
    """The checkpoint `data` at `path` cut at its sections once its tag's
    digest checks: the head parsed, a ``_Slice`` per slice in ``SLICES``,
    and the tag. None, having parsed nothing, for a file with no digest
    or one that does not match, a surrogate escape, no version suffix or
    no key to cut at; and, having parsed the head, for a head not exactly
    its keys or holding another tag."""
    if not data.endswith(STATE_END) or _may_hold_surrogate(data):
        return None
    cuts = [len(data) - len(STATE_END)]
    for at, *_ in reversed(SLICES):  # each the last key before the next
        cuts.insert(0, data.rfind(at, 0, max(cuts[0], 0)))
    found = _SIGNED_TAG.search(data, 0, max(cuts[0], 0))
    if found is None:
        return None
    tag = Checkpoint(int(found[2]), bytes.fromhex(found[1].decode()),
                     bytes.fromhex(found[3].decode()))
    if not _signed(data, tag):
        return None
    # the head starts at the file's first byte and the last slice ends at
    # its fixed suffix, so a key nested in a value leaves a bracket
    # unmatched in a slice, which then parses as no section
    head = _parse(data[:cuts[0]] + b"}")
    if (type(head) is not dict or head.keys() != HEAD_KEYS
            or head.pop("block") != to_json(tag)):
        return None
    return head, [_Slice(path, data, start + 1, end, keys) for start, end, (
        _, keys, *_) in zip(cuts, cuts[1:], SLICES)], tag


def _torn(data: bytes) -> bool:
    """Whether the checkpoint bytes `data` do not parse as one JSON
    object, as a crash can leave a file written without an fsync: empty,
    cut short or holding zeros. One nested too deep to parse is whole."""
    try:
        return type(json.loads(data.decode("utf-8", "surrogateescape"))) \
            is not dict
    except RecursionError:
        return False
    except ValueError:
        return True


def _read_checkpoint(path: str) -> Optional[tuple]:
    """The checkpoint at `path` as (head, parts, tag): the head a dict
    holding the accounts and config, a part per slice in ``SLICES``
    order, returning, called, a dict holding its section's keys, and the
    tag, None if it has none. A file whose digest checks is split, and
    only its head parsed; any other is parsed whole. None for a file
    missing or torn."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    split = _split(path, data)
    if split is not None:
        return split
    try:
        d, tag = _read_whole(path, data)
    except LedgerError:
        if _torn(data):
            return None
        raise
    return d, [lambda: d] * len(SLICES), tag


def _uninitialized(state_dir: str):
    return err("Uninitialized", f"{state_dir} holds no ledger; run init")


def holds_ledger(state_dir: str) -> bool:
    """Whether `state_dir` holds a ledger file; either one counts, so a
    block log without its state is never overwritten."""
    return any(os.path.exists(os.path.join(state_dir, name))
               for name in ("state.json", "chain.json"))


def load_state(state_dir: str) -> Node:
    """The checkpoint in `state_dir` brought up to the tip of its log; a
    checkpoint missing or torn is rebuilt from the log."""
    state_path = os.path.join(state_dir, "state.json")
    chain_path = os.path.join(state_dir, "chain.json")
    if not holds_ledger(state_dir):
        raise _uninitialized(state_dir)
    if not os.path.exists(chain_path):
        raise err("CorruptSnapshot", f"{chain_path} is missing; "
                  "`state import --force` restores the dir")
    checkpoint = _read_checkpoint(state_path)
    if checkpoint is None:
        return _rebuild(state_dir)
    head, parts, tag = checkpoint
    log_path = os.path.abspath(chain_path)
    tail = None if tag is None else _read_tail(log_path, tag)
    if tail is None:  # the whole log
        need = None if tag is None else tag.index
        chain = _read_log(chain_path, need)
        blocks = chain.held
        if tag is None:  # written before checkpoints were tagged
            tag = Checkpoint(len(blocks) - 1, blocks[-1].hash)
        if not 0 <= tag.index < len(blocks):
            raise err("CorruptSnapshot", f"{state_path} reflects block "
                      f"{tag.index}; the log holds {len(blocks)} blocks")
        if blocks[tag.index].hash != tag.hash:
            raise err("CorruptSnapshot", f"{state_path} reflects a block "
                      f"{tag.index} the log does not hold")
        chain.log = StoredLog(log_path, len(blocks))
        later = blocks[tag.index + 1:]
        del blocks[tag.index + 1:]
    else:
        chain, later = tail
    if isinstance(parts[0], _Slice):  # split: its slices may be carried
        chain.log.slices = Slices(tag.index, tag.hash, parts)
    node = _node(head, parts, chain,
                 lambda part: _store(state_dir, chain, part))
    try:
        node.redo(later)
    except LedgerError as exc:
        raise err("CorruptSnapshot", f"the blocks after {state_path} "
                  f"do not redo: {exc}") from exc
    return node


def _rebuild(state_dir: str) -> Node:
    """The ledger of `state_dir` whose checkpoint is missing or torn,
    replayed from genesis through the log, less a torn last append, with
    the config of ``config.json``. It writes nothing: the next write
    stores the checkpoint whole, and every object file."""
    config_path = os.path.join(state_dir, "config.json")
    chain_path = os.path.join(state_dir, "chain.json")
    try:
        with open(config_path, "rb") as fh:
            config = read(dict[str, Optional[str]],
                          _json_object(config_path, fh.read()))
    except FileNotFoundError:
        raise err("CorruptSnapshot", f"{state_dir}/state.json is missing or "
                  f"torn, and {config_path}, which a rebuild from the log "
                  "needs, is missing") from None
    blocks = _read_log(chain_path, 0).held
    node = _replay(blocks, LedgerState(config=config), chain_path)
    node.state.chain.log = StoredLog(os.path.abspath(chain_path), len(blocks))
    print(f"notice: {state_dir}/state.json is missing or torn; rebuilt the "
          f"state from {chain_path}", file=sys.stderr)
    return node


class LedgerDir:
    """One command's hold on the state dir at `path`, which reads nothing
    until its `node` is first used; `writing()` holds the dir's flock and
    `commit()` saves the ledger. A commit inside a hold appends and
    fsyncs its blocks, the commit point, and leaves `checkpoint`, the tip
    block it committed, to the hold, which encodes and writes the
    checkpoint once, as it ends: a script's lines each pay their append,
    and the script one checkpoint. A load redoes the blocks after it."""

    def __init__(self, path: str):
        self.path = path
        self._node = None
        self._locked = False  # whether this hold has the flock
        self.checkpoint = None  # the tip this hold has yet to checkpoint

    @property
    def node(self) -> Node:
        if self._node is None:
            self._node = load_state(self.path)
        return self._node

    @contextlib.contextmanager
    def writing(self, create: bool = False, overwrite: bool = False):
        """Hold the flock on ``.lock``; inside a hold that has it, a no-op.
        With `create`, make a missing dir and refuse a ledger in it unless
        `overwrite`; a failure then removes the lock and a dir it made.
        As the hold ends, returned or raised, it writes the checkpoint a
        commit left it before it lets the flock go; an error that write
        raises never replaces one already raised."""
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
                try:
                    yield
                except BaseException:
                    with contextlib.suppress(OSError):
                        self._write_checkpoint()
                    raise
                self._write_checkpoint()
            except BaseException:
                if created:
                    os.remove(lock)
                    with contextlib.suppress(OSError):  # others' files stay
                        os.rmdir(self.path)
                raise
            finally:
                self._locked = False

    def _write_checkpoint(self):
        """Encode and write the checkpoint of the ledger's tip, if a commit
        left it and no block uncommitted followed it."""
        tip, self.checkpoint = self.checkpoint, None
        if tip is not None and tip is self._node.state.chain.held[-1]:
            state = self._node.state
            _store_checkpoint(self.path, state.chain,
                              _encode(state, state.chain))

    def commit(self, node: Node = None):
        """Save `node`, from now on this hold's ledger, or the loaded one;
        outside a hold, the checkpoint too."""
        if node is not None:
            self._node = node
        appended = save_state(self.path, self.node, self._locked)
        self.checkpoint = self.node.state.chain.held[-1] if appended else None


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
    node = _state_from_dicts(body, chain)
    node.state.decode()  # an import checks every section
    return node


def write_snapshot(path: str, node: Node):
    """``canonical_json_bytes(export_snapshot(node))``, written from the
    digest's own pieces."""
    body, chain = node.state.state_dict(objects=True), node.state.chain
    body["digest"] = state_digest(body, chain)
    _write_atomic({path: b"".join(state_pieces(body, chain))})


def read_snapshot(path: str) -> Node:
    if not os.path.exists(path):
        raise err("NotFound", path)
    with open(path, "rb") as fh:
        data = fh.read()
    return import_snapshot(_utf8_json_object(path, data))
