"""State directory layout, the commit point of a write, snapshot
export/import, and ``LedgerDir``, which holds a dir for one command.

README's "State directory" states the rules; this is where each lives.

    chain.json   the block log, the ledger; every other file is a cache
    config.json  the config, written once by a whole write
    state.json   the checkpoint's manifest: the accounts, the config, the
                 digest of each section file, the tag "block" and "log",
                 the certificate of the log's first bytes
    sections/    one <sha256>.json per section: contracts, registry, store
    objects/     one <sha256>.bin per stored object
    .lock        the flock a write holds (``LedgerDir.writing``)

Writing. ``save_state`` commits: ``_append`` writes a write's blocks
over the log's closing ``]}`` and fsyncs, or, for a dir that holds no
log of this chain, the log and ``config.json`` are written whole. A
commit inside a ``LedgerDir`` hold leaves the checkpoint to the hold's
end. ``_encode`` encodes the checkpoint, keeping the digest of each
section no op the node has run since declares (``Node.changed``), and
``_store_checkpoint`` writes it with no fsync and removes the section
files it replaces. A write to the dir its node was loaded from decodes
nothing itself: ``Node.execute`` has decoded whole every section it
encodes, and a store still pending holds no new object. ``_checkpoint``
and ``_sign`` give the manifest's bytes and its digest. Its "log"
certifies the log through block ``certify_at`` of its length: a whole
write certifies the bytes it writes (``_certificate``), and an append
moves the certificate when that block moves, checking the blocks in
between (``_certify``); an uncertified log is checked again only then.

Loading. ``load_state`` parses the manifest (``_read_checkpoint``,
``_manifest``, ``_signed``), reads the log from the tag's block to its
end (``_read_tail``, one JSON parse of those bytes), or else whole
(``_log_holding``, which checks that it holds the tag's block), and
redoes the blocks after it. ``_read_log`` reads the log whole and drops
a torn last append; ``StoredLog.before`` reads the history before the
held blocks through ``_log_holding``, each block checked, and
``StoredLog.certified`` the history's bytes for a digest: the certified
ones, checked by one SHA-256, and the blocks after them, each checked
(``_checked_blocks``). The certificate itself is read on first use
(``StoredLog.certificate``). ``_node`` builds a ``PendingState`` whose
sections ``_section`` and ``_store`` read on first use;
``_contracts`` and ``_stakeholders`` check what no command can break
without reading every record, and leave each stakeholder and property
record to be read on first use too (``LazyRecords``). ``_json_object``
alone parses a file: UTF-8 JSON, one object, no lone surrogate. A
missing or torn file is rebuilt from the log: a section or object file
by ``_LogCache``, through ``read_cached``, and the manifest by
``_rebuild``, which certifies the log it replayed.

Snapshots. ``write_snapshot`` writes ``export_snapshot``'s bytes from
the digest's own three pieces; ``import_snapshot`` checks the body
against its digest and decodes it as a load does; ``read_snapshot``,
where a file enters, also replays its chain and refuses a state the
chain does not give. A refusal that wraps one of its own code words it
by its message (``errors.wrapped``).
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
from .chain import GENESIS_PREV_HASH, Block, Chain, NativeLedger
from .errors import LedgerError, err, wrapped
from .factory import Factory
from .identity import Role, StakeholderRecord, StakeholderRegistry
from .node import (STATE_VERSION, LedgerState, Node, PendingState,
                   state_digest, state_pieces)
from .property_contract import PropertyContract
from .records import LazyRecords, read, read_object, to_json
from .storage import ObjectStore, read_cached

STATE_KEYS = frozenset(("version", "config", "accounts", "stakeholders",
                        "factory", "properties"))
MANIFEST_KEYS = frozenset(("accounts", "block", "config", "sections",
                           "version"))
_CONTRACT_KEYS = frozenset(("factory", "properties"))
# each section file of a checkpoint, in the order ``_node`` takes them:
# the top-level keys it holds, and the ``LedgerState`` sections they encode
SECTION_FILES = {"contracts": (_CONTRACT_KEYS, _CONTRACT_KEYS),
                 "registry": (frozenset(("stakeholders",)),
                              frozenset(("registry",))),
                 "store": (frozenset(("store",)), frozenset(("store",)))}
LOG_HEAD = b'{"blocks":['
TAIL_WINDOW = 1 << 14  # bytes a load first reads back from the log's end
# where a block starts in a log; a param's {"hash": ...} matches only if
# it copies a whole header
_BLOCK_HEADER = re.compile(r',\{"hash":"[0-9a-f]{64}","index":')


@dataclass
class Checkpoint:
    """The tag of ``state.json``: the block whose state it holds, and the
    SHA-256 of the file with the digest's own hex digits zeroed."""
    index: int
    hash: bytes
    state: bytes


@dataclass
class LogBlock:
    """A block of the log, by index and hash."""
    index: int
    hash: bytes


@dataclass
class Certificate:
    """``state.json``'s "log": the first `length` bytes of ``chain.json``
    run through its block `block`, named by index and hash, and have the
    SHA-256 `sha256`. A writer checked each block in them: its hash, its
    link to the block before, and that its bytes are its canonical JSON.
    The block is ``certify_at`` of the log's length."""
    block: LogBlock
    length: int
    sha256: bytes


def certify_at(blocks: int) -> int:
    """The index of the last block the certificate of a log of `blocks`
    blocks covers: m = blocks - 1 rounded down to a multiple of
    2 ** max(0, m.bit_length() - 5). So fewer than blocks / 16 follow
    it, it never moves back as the log grows, and it moves once per
    that many appends, which amortizes each rehash of the prefix."""
    m = blocks - 1
    return m - m % (1 << max(0, m.bit_length() - 5))


def _tag_json(tag: Checkpoint) -> bytes:
    """`tag` as the bytes of a checkpoint hold it."""
    return b'"block":' + canonical_json_bytes(to_json(tag))


def _sign(data: bytes, tag: Checkpoint) -> bytes:
    """The checkpoint `data`, which holds `tag` with its digest zeroed,
    with the digest: the SHA-256 of `data`."""
    zeroed, tag.state = _tag_json(tag), hashlib.sha256(data).digest()
    return data.replace(zeroed, _tag_json(tag), 1)


def _signed(data: bytes, tag: Checkpoint) -> bool:
    """Whether the checkpoint bytes `data` hold `tag`, and its digest is
    the SHA-256 of `data` with the digest's hex digits zeroed."""
    signed = _tag_json(tag)
    zeroed = _tag_json(Checkpoint(tag.index, tag.hash, bytes(len(tag.state))))
    return signed in data and hashlib.sha256(
        data.replace(signed, zeroed, 1)).digest() == tag.state


def _body(state, keys) -> dict:
    """The checkpoint keys `keys` of `state`: keys of ``state_dict``, and
    "store", the sorted digests of the objects the ledger holds, which no
    digest of the state covers."""
    d = state.state_dict(keys=[key for key in keys if key != "store"])
    if "store" in keys:
        d["store"] = sorted(state.store.digests())
    return d


def _sections(state, carried: Optional[dict] = None) -> tuple:
    """The file of each section of `state` that `carried` does not map to
    its digest, digest -> bytes, and the digest of every section, by
    name."""
    files, digests = {}, dict(carried or {})
    for name, (keys, _) in SECTION_FILES.items():
        if name not in digests:
            data = canonical_json_bytes(_body(state, keys))
            digests[name] = sha256_hex(data)
            files[digests[name]] = data
    return files, digests


def _manifest_pieces(state, tip: Block, digests: dict) -> tuple:
    """The manifest of `state` at block `tip`, naming each section file
    by its digest in `digests`, but for "log": the canonical JSON of its
    keys that sort before "log", then of those after, and its tag."""
    tag = Checkpoint(tip.index, tip.hash, bytes(32))  # the digest zeroed
    return (canonical_json_bytes(_body(state, ("accounts", "config"))
                                 | {"block": to_json(tag)}),
            canonical_json_bytes(_body(state, ("version",))
                                 | {"sections": digests}), tag)


def _manifest_bytes(pieces: tuple, cert) -> bytes:
    """The manifest ``_manifest_pieces`` gave in `pieces`, with "log",
    the certificate `cert`, if it covers block ``certify_at`` of the log
    that ends at the tag's block, and signed."""
    head, tail, tag = pieces
    log = b""
    if cert is not None and cert.block.index == certify_at(tag.index + 1):
        log = b'"log":' + canonical_json_bytes(to_json(cert)) + b","
    return _sign(head[:-1] + b"," + log + tail[1:], tag)


def _checkpoint(state, tip: Block, carried: Optional[dict] = None) -> tuple:
    """The checkpoint of `state` at block `tip`: the manifest's bytes,
    with the certificate of the chain's log, and ``_sections(state,
    carried)``."""
    files, digests = _sections(state, carried)
    pieces = _manifest_pieces(state, tip, digests)
    log = state.chain.log
    return _manifest_bytes(pieces, log and log.certificate()), files, digests


def _certificate(data: bytes, start: int, blocks: list, parts: list,
                 k: int, h=None) -> Certificate:
    """The certificate of block `k` of the log `data`, in which `blocks`,
    whose canonical JSON is `parts`, follow byte `start`, each after one
    byte ("[" or ","); `h`, if given, is a SHA-256 fed the bytes before
    `start`."""
    i = k - blocks[0].index
    end = start + sum(map(len, parts[:i + 1])) + i + 1
    if h is None:
        h = hashlib.sha256(data[:start])
    h.update(data[start:end])
    return Certificate(LogBlock(k, blocks[i].hash), end, h.digest())


def _checked_blocks(path: str, gap: bytes, first: int,
                    prev: bytes) -> Optional[list]:
    """The blocks of `gap`, bytes of the log at `path` holding its blocks
    from block `first` on, each after a comma, read as ``Chain.from_dict``
    with `prev` reads them; None if that read fails, or if `gap` is not
    exactly their canonical JSON."""
    try:
        blocks = Chain.from_dict(_json_object(
            path, LOG_HEAD + gap[1:] + b"]}", "surrogateescape"),
            first, prev).held
    except LedgerError:
        return None
    if gap != b"".join(b"," + block.canonical_json() for block in blocks):
        return None
    return blocks


def _certify(fh, size: int, new: bytes, cert, blocks: int, held: list):
    """The certificate of the log whose bytes are the first `size` of the
    file `fh`, holding `blocks` blocks, then `new`, and end with the
    blocks `held`: `cert`, with nothing read, while it covers block
    ``certify_at`` of the log, or, if None, while that block is the one
    it was before `new`. Else a new one, over the blocks after the bytes
    `cert` covers (all of them, if those fail its SHA-256 or there is no
    `cert`). Those before `held` are read and checked by
    ``_checked_blocks``, each must link to the block before it, and the
    log's bytes must be their canonical JSON. None, for a log left
    uncertified, if one check fails: the write still appends, and a
    history reader refuses the block."""
    k = certify_at(held[-1].index + 1)
    if (certify_at(blocks) if cert is None else cert.block.index) == k:
        return cert
    fh.seek(0)
    data = fh.read(size) + new
    parts = [block.canonical_json() for block in held]
    at = len(data) - len(b",".join(parts)) - 1  # the byte before held[0]
    if not (data.startswith(LOG_HEAD) and data[at:] == (
            b"," if held[0].index else b"[") + b",".join(parts)):
        return None
    start, first, prev, h = len(LOG_HEAD) - 1, 0, GENESIS_PREV_HASH, None
    if cert is not None and cert.block.index < k:
        old = hashlib.sha256(data[:cert.length])
        if old.digest() == cert.sha256:
            start, first, prev, h = (cert.length, cert.block.index + 1,
                                     cert.block.hash, old)
    i = first - held[0].index  # the place of block `first` in `held`
    if data[start:start + 1] != (b"," if first else b"["):
        return None
    if i < 0:
        before = _checked_blocks(fh.name, b"," + data[start + 1:at], first,
                                 prev)
        if before is None or len(before) != -i:
            return None
        blocks = before + held
        parts = [block.canonical_json() for block in before] + parts
    elif start == at + sum(len(part) + 1 for part in parts[:i]):
        blocks, parts = held[i:], parts[i:]
    else:
        return None
    if any(block.prev_hash != link for block, link in
           zip(blocks, [prev] + [block.hash for block in blocks])):
        return None
    return _certificate(data, start, blocks, parts, k, h)


@dataclass
class StoredLog:
    """Where a chain sits in a dir's log: the file at `path` holds its
    first `blocks` blocks. `manifest` is the digest of each section file
    that the manifest last read or written beside the log names, by
    section: what a write keeps of each section that no op the node has
    run since declares (``Node.changed``), and the files it replaces.
    `cert` certifies the log's first bytes (``certificate``), and the
    chain's first held block starts at byte `at` of it, if a load found
    it there."""
    path: str
    blocks: int
    manifest: Optional[dict] = None
    cert: Optional[Certificate] = None  # or a manifest's "log", unread
    at: Optional[int] = None
    history: Optional[bytes] = None  # what ``certified`` gave

    def certificate(self) -> Optional[Certificate]:
        """`cert`, read from the manifest's "log" on first use."""
        if self.cert is not None and type(self.cert) is not Certificate:
            self.cert = read(Certificate, self.cert)
        return self.cert

    def before(self, block: Block) -> list:
        """The blocks before held block `block`, from a checked read of
        the whole log, which must still hold `block`."""
        return _log_holding(self.path, block.index, block.hash,
                            f"{self.path} no longer holds").held[:block.index]

    def certified(self, block: Block) -> Optional[bytes]:
        """The canonical JSON of the blocks before held block `block`,
        joined by commas, as the log's bytes hold it: the bytes `cert`
        covers, checked by one SHA-256, then those of the blocks after,
        up to byte `at`, each parsed and checked as ``Chain.from_dict``
        with `prev` checks them. None, for a checked read of the whole
        log instead, without a certificate or if a check fails."""
        cert, at = self.certificate(), self.at
        if self.history is not None or cert is None or at is None:
            return self.history
        own = b"," + block.canonical_json()
        with open(self.path, "rb") as fh:
            data = fh.read(max(cert.length, at - 1 + len(own)))
        if (not data.startswith(LOG_HEAD)
                or data[at - 1:at - 1 + len(own)] != own
                or hashlib.sha256(data[:cert.length]).digest() != cert.sha256):
            return None
        k = cert.block.index
        if k >= block.index:  # the certified bytes hold `block` itself
            if at > cert.length:
                return None
        else:  # blocks k + 1 to block.index - 1, each after a comma
            gap = _checked_blocks(self.path, data[cert.length:at - 1], k + 1,
                                  cert.block.hash)
            if (gap is None or block.index != k + 1 + len(gap)
                    or block.prev_hash != ([cert.block] + gap)[-1].hash):
                return None
        self.history = data[len(LOG_HEAD):at - 1]
        return self.history


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
    log at `path` over its closing ``]}`` and fsync it: the commit point;
    `stored.cert` then certifies the log, as ``_certify`` gives it first.
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
        new = b"".join(b"," + block.canonical_json() for block in held[i + 1:])
        cert = _certify(fh, size - 2, new, stored.certificate(),
                        stored.blocks, held)
        fh.seek(size - 2)
        fh.write(new + b"]}")
        fh.flush()
        os.fsync(fh.fileno())
    stored.cert = cert
    return True


def _encode(node: Node, state_dir: str) -> tuple:
    """The checkpoint of `node`'s state at its chain's tip, but for the
    log's certificate: ``_manifest_pieces`` and ``_sections``, keeping the
    digest of each section file that the manifest last read or written
    beside this dir's log names, unless an op the node has run since
    declares the section (``Node.changed``)."""
    state = node.state
    log, carried = state.chain.log, {}
    if (log is not None and log.manifest is not None and log.path
            == os.path.abspath(os.path.join(state_dir, "chain.json"))):
        carried = {name: digest for name, digest in log.manifest.items()
                   if not SECTION_FILES[name][1] & node.changed}
    files, digests = _sections(state, carried)
    return (_manifest_pieces(state, state.chain.held[-1], digests), files,
            digests)


def _store_checkpoint(state_dir: str, node: Node, encoded: tuple):
    """Write the checkpoint `encoded` of `node`'s tip without an fsync,
    its new section files, then its manifest, with the certificate of the
    log as written; then remove each section file the manifest it
    replaces named and it does not. It commits nothing: a load rebuilds
    what a crash loses of it."""
    pieces, files, digests = encoded
    log = node.state.chain.log
    manifest = _manifest_bytes(pieces, log.certificate())
    sections_dir = os.path.join(state_dir, "sections")
    if files:
        os.makedirs(sections_dir, exist_ok=True)
        _write_atomic({os.path.join(sections_dir, digest + ".json"): data
                       for digest, data in files.items()}, durable=False)
    _write_atomic({os.path.join(state_dir, "state.json"): manifest},
                  durable=False)
    replaced, log.manifest = log.manifest, digests
    node.changed.clear()
    if replaced is not None:
        for digest in sorted(set(replaced.values()) - set(digests.values())):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(sections_dir, digest + ".json"))


def _remove_others(path: str, names: set):
    """Remove each file in the dir `path` not in `names`: the files of
    what a ledger no longer holds, and temp files a fault left."""
    for name in sorted(os.listdir(path)):
        if name not in names:
            os.remove(os.path.join(path, name))


def save_state(state_dir: str, node: Node, defer: bool = False):
    """Write `node` to `state_dir`: append its new blocks to a log that
    holds the rest of its chain, else write the log whole, and
    ``config.json``; then the new object files and the checkpoint. The
    checkpoint is encoded before the first write, so a state it cannot
    encode leaves the dir untouched; the log's certificate joins it as it
    is stored. With `defer`, a write that appended leaves the checkpoint
    to its caller and returns True; any other returns None."""
    state, chain = node.state, node.state.chain
    encoded = None if defer else _encode(node, state_dir)
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    chain_path = os.path.abspath(os.path.join(state_dir, "chain.json"))
    config_path = os.path.join(state_dir, "config.json")
    here = chain.log is not None and chain.log.path == chain_path
    # a store still pending is this dir's, and holds no object it lacks
    store = vars(state).get("store") if here else state.store
    objects = {}
    if store is not None:
        # content-addressed: a file the dir holds is never rewritten
        cached = store.stored if store.path == objects_dir else set()
        objects = {digest: store.read(digest)
                   for digest in sorted(store.digests() - cached)}
    if here and not os.path.exists(config_path):  # an older version's dir
        _write_atomic({config_path: canonical_json_bytes(state.config)})
        _fsync(state_dir)
    whole = not _append(chain.log, chain_path, chain.held)
    if whole:  # the dir holds no log of this chain, or a torn one
        encoded = encoded or _encode(node, state_dir)
        store = state.store
        os.makedirs(state_dir, exist_ok=True)
        # the old checkpoint goes first: a crash before the new one lands
        # rebuilds from whichever log is in place
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(state_dir, "state.json"))
        blocks = chain.blocks
        parts = [block.canonical_json() for block in blocks]
        data = LOG_HEAD + b",".join(parts) + b"]}"
        _write_atomic({chain_path: data,
                       config_path: canonical_json_bytes(state.config)})
        chain.log = StoredLog(chain_path, chain.height, cert=_certificate(
            data, len(LOG_HEAD) - 1, blocks, parts, certify_at(len(blocks))))
    else:
        chain.log.blocks = chain.height
    os.makedirs(objects_dir, exist_ok=True)
    _write_atomic({os.path.join(objects_dir, digest + ".bin"): data
                   for digest, data in objects.items()}, durable=False)
    if encoded is not None:
        _store_checkpoint(state_dir, node, encoded)
    if store is not None:
        store.path, store.stored = objects_dir, store.digests()
    if whole:  # the files of no object or section of this ledger
        _remove_others(objects_dir, {digest + ".bin"
                                     for digest in store.stored})
        _remove_others(os.path.join(state_dir, "sections"), {
            digest + ".json" for digest in encoded[2].values()})
        _fsync(state_dir)
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


def _json_object(path: str, data: bytes, errors: str = "strict") -> dict:
    """The JSON object `data`, the bytes of the file at `path`, holds as
    UTF-8 text, `errors` handling a byte that is not. Strict, a string
    that holds a lone surrogate, which no UTF-8 text can, is refused too;
    a file with no \\u escape of a surrogate holds none."""
    try:
        value = json.loads(data.decode("utf-8", errors))
    except (ValueError, RecursionError):
        value = None
    if not isinstance(value, dict):
        raise err("CorruptSnapshot", f"{path} is not a JSON object")
    if errors == "strict" and b"\\" in data and (
            b"\\ud" in data or b"\\uD" in data):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise err("CorruptSnapshot", f"{path} holds a string that is "
                      f"not UTF-8: {exc}") from exc
    return value


def _whole_blocks(data: bytes) -> Optional[list]:
    """The blocks of a log whose last append was torn; None unless what
    follows the last whole one is one torn block at most."""
    if not data.startswith(LOG_HEAD):
        return None
    text = data.decode("utf-8", "surrogateescape")
    blocks, end = [], len(LOG_HEAD) - 1  # at the list's "["
    with contextlib.suppress(ValueError, RecursionError):
        while not blocks or text[end:end + 1] == ",":
            block, end = raw_decode(text, end + 1)
            blocks.append(block)
    if not blocks or _BLOCK_HEADER.search(text, end + 1):
        return None
    return blocks


def _read_log(path: str, need: int, check: bool = True) -> Chain:
    """The block log at `path`, each block checked against its hash and
    the one before if `check` (``Chain.from_dict`` with `prev`). A log
    that does not parse loads without its torn tail if it still holds
    block `need`."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _gc_paused():
        try:  # bytes not UTF-8 reach Block.from_dict, naming a block
            value = _json_object(path, data, "surrogateescape")
        except LedgerError:  # not JSON: torn or broken
            whole = _whole_blocks(data)
            if whole is None or len(whole) <= need:
                raise
            value = {"blocks": whole}
        chain = Chain.from_dict(value, prev=GENESIS_PREV_HASH if check
                                else None)
    if not chain.held:
        raise err("CorruptSnapshot", f"{path} holds no block")
    return chain


def _log_holding(path: str, index: int, hash_: bytes, refusal: str) -> Chain:
    """The log at `path`, read whole, which must hold block `index` with
    the hash `hash_`; else CorruptSnapshot, worded from `refusal`."""
    chain = _read_log(path, index)
    blocks = chain.held
    if not 0 <= index < len(blocks) or blocks[index].hash != hash_:
        raise err("CorruptSnapshot", f"{refusal} block {index}: the log "
                  f"holds {len(blocks)} blocks, and not that one")
    return chain


def _read_tail(path: str, tag: Checkpoint) -> Optional[tuple]:
    """The log at `path` read back from its end to the block `tag` names:
    a chain holding that block, and the blocks after it. None unless the
    bytes from the block's header to the end parse, after ``LOG_HEAD``,
    as a log's list of blocks, the first with the tag's hash, and each
    with the index and nonce of its place in the log. A header copied
    into a param sits inside its block's brackets, so from there the
    brackets do not balance."""
    header = (f'{{"hash":"{tag.hash.hex()}","index":{tag.index},'
              .encode("utf-8"))
    with open(path, "rb") as fh:
        size, window = os.fstat(fh.fileno()).st_size, TAIL_WINDOW
        while True:
            start = max(0, size - window)
            fh.seek(start)
            data = fh.read(size - start)
            at = data.rfind(header)
            if at >= 0 or start == 0:
                break
            window *= 4
    if at < 0:
        return None
    try:
        with _gc_paused():
            blocks = [Block.from_dict(d) for d in read_object(_json_object(
                path, LOG_HEAD + data[at:], "surrogateescape"),
                {"blocks"})["blocks"]]
    except LedgerError:  # a torn log, or a header in a param
        return None
    if blocks[0].compute_hash() != tag.hash or any(
            b.index != tag.index + i or b.nonce != tag.index + i
            for i, b in enumerate(blocks)):
        return None
    return (Chain(blocks[:1], StoredLog(path, blocks[-1].index + 1,
                                        at=start + at)), blocks[1:])


def _check_version(body: dict, what: str):
    version = body.get("version")  # a mistyped one is no version at all
    if type(version) is not int or version != STATE_VERSION:
        raise err("VersionMismatch" if type(version) is int else
                  "CorruptSnapshot", f"{what} version {version!r}, "
                  f"expected {STATE_VERSION}")


def _accounts(raw) -> tuple:
    return {"native": read(NativeLedger, raw)}, ()


def _stakeholders(part) -> tuple:
    """The registry, each record read on first use. Its check that an
    administrator is active reads the records whose JSON may say so, and
    every record if none does, so that a mistyped one is named."""
    raw = read_object(part()["stakeholders"], {"stakeholders"})["stakeholders"]
    registry = StakeholderRegistry(
        LazyRecords(raw, StakeholderRecord, "stakeholders"))
    admin = Role.ADMINISTRATOR.value
    if not any(type(r) is dict and r.get("active") is True
               and type(r.get("roles")) is list and admin in r["roles"]
               and registry.is_active_admin(address)
               for address, r in raw.items()):
        registry.stakeholders.read_all()
        raise err("CorruptSnapshot", "no active administrator")
    return {"registry": registry}, (registry.stakeholders,)


def _at_own_address(address: str, prop: PropertyContract):
    if not prop.initialized or prop.address != address:
        raise err("CorruptSnapshot", f"the contract at {address} is "
                  "uninitialized or records another address")


def _contracts(part) -> tuple:
    """The factory, and the properties, each read and checked on first
    use; that they are the factory's proxies is checked by their keys."""
    d = part()
    factory = read(Factory, d["factory"])
    properties = LazyRecords(d["properties"], PropertyContract, "properties",
                             _at_own_address)
    if sorted(properties) != sorted(factory.proxies):
        raise err("CorruptSnapshot", "properties differ from proxies")
    return {"factory": factory, "properties": properties}, (properties,)


def _replay(blocks: list, state: LedgerState, chain_path: str) -> Node:
    """``Node.from_log(blocks, state)``; a log that does not replay is
    ``CorruptSnapshot``."""
    try:
        return Node.from_log(blocks, state)
    except LedgerError as exc:
        raise wrapped("CorruptSnapshot", f"{chain_path} does not replay",
                      exc) from exc


class _LogCache:
    """The section and object files of a loaded checkpoint as its log
    records them: the state at the checkpoint's block `tag`, replayed from
    genesis once, when a file first fails its digest. ``object`` is the
    store's ``ObjectStore.rebuild``, and ``section`` a section file's."""

    def __init__(self, chain: Chain, tag: Checkpoint):
        self.chain, self.tag, self.replayed = chain, tag, None

    def state(self) -> LedgerState:
        if self.replayed is None:
            self.replayed = _replay(self.chain.blocks[:self.tag.index + 1],
                                    LedgerState(), self.chain.log.path).state
        return self.replayed

    def object(self, digest: str, path: str, cached: bytes) -> bytes:
        data = self.state().store.objects.get(digest)
        if data is None:
            raise err("CorruptSnapshot", f"object {digest} is listed, but "
                      f"no block of {self.chain.log.path} stores it")
        return self._rebuilt(path, cached, data, f"object {digest}")

    def section(self, name: str, digest: str, path: str,
                cached: bytes) -> bytes:
        data = canonical_json_bytes(_body(self.state(),
                                          SECTION_FILES[name][0]))
        if sha256_hex(data) != digest:
            raise err("CorruptSnapshot", f"{path} does not match its "
                      f"digest, nor does the state of block {self.tag.index}"
                      f" of {self.chain.log.path}")
        return self._rebuilt(path, cached, data, path)

    def _rebuilt(self, path: str, cached: bytes, data: bytes,
                 what: str) -> bytes:
        """`data`, the bytes of `what`, whose file at `path` holds
        `cached`, if `cached` is a prefix of them followed by NUL bytes
        at most: what a crash can leave of a file written without an
        fsync. One notice on stderr, and the file stored again."""
        if len(cached) > len(data) or not data.startswith(
                cached.rstrip(b"\0")):
            raise err("CorruptSnapshot", f"{what} does not match its digest")
        print(f"notice: {path} is missing or torn; rebuilt it from "
              f"{self.chain.log.path}", file=sys.stderr)
        _restore(path, data)
        return data


def _restore(path: str, data: bytes):
    """Store the file at `path` again as `data`, its bytes, by a temp name
    of this process's own renamed with no fsync: the file is
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


def _section(sections_dir: str, name: str, digest: str, cache: _LogCache):
    """The part of section `name` of a loaded checkpoint: called, its
    file's bytes parsed to exactly the section's keys; its `read_bytes`,
    the bytes alone, checked against `digest` (a file that fails goes to
    `cache`)."""
    path = os.path.join(sections_dir, digest + ".json")

    def read_bytes() -> bytes:
        return read_cached(path, digest,
                           lambda *failed: cache.section(name, *failed))

    def part() -> dict:
        return read_object(_json_object(path, read_bytes()),
                           SECTION_FILES[name][0])
    part.read_bytes = read_bytes
    return part


def check_certificate(node: Node):
    """Refuse a certificate of bytes the log does not hold: `node`'s chain,
    read whole and checked, must hold the block it names, by index and
    hash, and the file's first bytes, of the certified length and
    SHA-256, must end with that block's canonical JSON."""
    chain = node.state.chain
    cert = chain.log and chain.log.certificate()
    if cert is None:
        return
    blocks, k = chain.blocks, cert.block.index
    if k < len(blocks) and blocks[k].hash == cert.block.hash:
        with open(chain.log.path, "rb") as fh:
            data = fh.read(cert.length)
        if (len(data) == cert.length and data.endswith(
                (b"," if k else LOG_HEAD) + blocks[k].canonical_json())
                and hashlib.sha256(data).digest() == cert.sha256):
            return
    raise err("CorruptSnapshot", f"{os.path.dirname(chain.log.path)}"
              f"/state.json certifies bytes that {chain.log.path} does not "
              "hold")


def _store(objects_dir: str, part, cache: _LogCache) -> tuple:
    """The store of a loaded ledger: the objects ``part()["store"]``
    lists, whose files ``objects_dir`` caches."""
    members = part()["store"]
    if not _are_digests(members):
        raise err("CorruptSnapshot", f"store: expected object digests, "
                  f"got {members!r:.60}")
    return {"store": ObjectStore(path=objects_dir, stored=set(members),
                                 rebuild=cache.object)}, ()


def _node(head: dict, parts: list, chain: Chain, store) -> Node:
    """The ledger of `head`'s accounts and config, beside its `chain`;
    `parts`, in ``SECTION_FILES`` order, each return, called, a dict
    holding their section's keys, and ``store(part)`` decodes the store
    from the last. Each section is read, and its invariants checked, on
    first use (``PendingState``), and each stakeholder and property
    record too (``LazyRecords``)."""
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
    return _node(d, [lambda: d] * len(SECTION_FILES), chain,
                 lambda part: ({"store": store}, ()))


def _read_checkpoint(path: str) -> Optional[tuple]:
    """The checkpoint at `path`, parsed, and its bytes; None for a file
    missing or torn: one that does not parse as one JSON object, as a
    crash can leave a file written without an fsync (empty, cut short or
    holding zeros). One nested too deep to parse is whole."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    try:
        d = _json_object(path, data)
    except LedgerError:
        try:
            torn = type(json.loads(data.decode(
                "utf-8", "surrogateescape"))) is not dict
        except RecursionError:
            torn = False
        except ValueError:
            torn = True
        if torn:
            return None
        raise
    _check_version(d, "state")
    return d, data


def _manifest(path: str, d: dict, data: bytes) -> tuple:
    """The tag, the section digests and the log's certificate, unread, if
    it has one (an older version's has none), of the manifest `d`, parsed
    from `data`, the bytes of the file at `path`, once its digest checks."""
    read_object(d, MANIFEST_KEYS | ({"log"} & d.keys()))
    tag = read(Checkpoint, d["block"])
    if not _signed(data, tag):
        raise err("CorruptSnapshot", f"{path} does not match its digest")
    digests = d["sections"]
    if (type(digests) is not dict or digests.keys() != SECTION_FILES.keys()
            or not _are_digests(list(digests.values()))):
        raise err("CorruptSnapshot", f"{path} sections: expected a digest "
                  f"of each of {list(SECTION_FILES)}, got {digests!r:.60}")
    return tag, digests, d.get("log")


def _uninitialized(state_dir: str):
    return err("Uninitialized", f"{state_dir} holds no ledger; run init")


def holds_ledger(state_dir: str) -> bool:
    """Whether `state_dir` holds a ledger file; either one counts, so a
    block log without its state is never overwritten."""
    return any(os.path.exists(os.path.join(state_dir, name))
               for name in ("state.json", "chain.json"))


def load_state(state_dir: str) -> Node:
    """The checkpoint in `state_dir` brought up to the tip of its log; a
    checkpoint missing or torn, or one an older version wrote, is rebuilt
    from the log."""
    state_path = os.path.join(state_dir, "state.json")
    chain_path = os.path.join(state_dir, "chain.json")
    if not holds_ledger(state_dir):
        raise _uninitialized(state_dir)
    if not os.path.exists(chain_path):
        raise err("CorruptSnapshot", f"{chain_path} is missing; "
                  "`state import --force` restores the dir")
    checkpoint = _read_checkpoint(state_path)
    if checkpoint is None:
        return _rebuild(state_dir, "is missing or torn")
    if "sections" not in checkpoint[0]:
        return _rebuild(state_dir, "is an older version's checkpoint",
                        checkpoint)
    tag, digests, cert = _manifest(state_path, *checkpoint)
    log_path = os.path.abspath(chain_path)
    tail = _read_tail(log_path, tag)
    if tail is None:  # the whole log
        chain = _log_holding(chain_path, tag.index, tag.hash,
                             f"{state_path} reflects")
        later = chain.held[tag.index + 1:]
        chain.log = StoredLog(log_path, len(chain.held))
        del chain.held[tag.index + 1:]
    else:
        chain, later = tail
    chain.log.manifest, chain.log.cert = digests, cert
    cache = _LogCache(chain, tag)
    sections_dir = os.path.abspath(os.path.join(state_dir, "sections"))
    objects_dir = os.path.abspath(os.path.join(state_dir, "objects"))
    node = _node(checkpoint[0], [_section(sections_dir, name, digest, cache)
                                 for name, digest in digests.items()],
                 chain, lambda part: _store(objects_dir, part, cache))
    try:
        node.redo(later)
    except LedgerError as exc:
        raise wrapped("CorruptSnapshot", f"the blocks after {state_path} "
                      "do not redo", exc) from exc
    return node


def _old_config(d: dict, data: bytes) -> Optional[dict]:
    """The config of `d`, parsed from `data`, a checkpoint an older
    version wrote, once its tag's digest checks; None for one untagged,
    with no digest, or failing it."""
    try:
        tag = read(Checkpoint, d.get("block"))
    except LedgerError:
        return None
    return read(dict[str, Optional[str]], d.get("config")) \
        if _signed(data, tag) else None


def _rebuild(state_dir: str, why: str, old: tuple = None) -> Node:
    """The ledger of `state_dir` whose checkpoint `why`, replayed from
    genesis through the log, less a torn last append, with the config of
    ``config.json``; without one, that of `old`, an older version's
    checkpoint parsed and its bytes, once its digest checks. It writes
    nothing: the next write stores the checkpoint whole, and every object
    file, with the certificate of the log if its bytes are the blocks the
    replay sealed."""
    config_path = os.path.join(state_dir, "config.json")
    chain_path = os.path.join(state_dir, "chain.json")
    try:
        with open(config_path, "rb") as fh:
            config = read(dict[str, Optional[str]],
                          _json_object(config_path, fh.read()))
    except FileNotFoundError:
        config = old and _old_config(*old)
        if config is None:
            raise err("CorruptSnapshot", f"{state_dir}/state.json {why}, and "
                      f"{config_path}, which a rebuild from the log needs, "
                      "is missing") from None
    blocks = _read_log(chain_path, 0, check=False).held  # the replay checks
    node = _replay(blocks, LedgerState(config=config), chain_path)
    # the replay sealed every block again: a log of their canonical JSON
    # is certified; the recorded blocks' fields beyond each hash are not
    # checked by the replay
    blocks = node.state.chain.held
    parts = [block.canonical_json() for block in blocks]
    with open(chain_path, "rb") as fh:
        data = fh.read()
    cert = _certificate(data, len(LOG_HEAD) - 1, blocks, parts, certify_at(
        len(blocks))) if data == LOG_HEAD + b",".join(parts) + b"]}" else None
    node.state.chain.log = StoredLog(os.path.abspath(chain_path), len(blocks),
                                     cert=cert)
    print(f"notice: {state_dir}/state.json {why}; rebuilt the state from "
          f"{chain_path}", file=sys.stderr)
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
            _store_checkpoint(self.path, self._node,
                              _encode(self._node, self.path))

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
    """The ledger of `snapshot`, whose body it trusts once the body
    matches its own digest; ``read_snapshot`` also replays its chain."""
    _check_version(snapshot, "snapshot")
    chain = Chain.from_dict(snapshot.get("chain"))
    body = {k: v for k, v in snapshot.items() if k not in ("chain", "digest")}
    if state_digest(body, chain) != snapshot.get("digest"):
        raise err("CorruptSnapshot", "snapshot digest does not match")
    node = _state_from_dicts(body, chain)
    node.state.decode()  # an import checks every section and record
    return node


def write_snapshot(path: str, node: Node):
    """``canonical_json_bytes(export_snapshot(node))``, written from the
    digest's own three pieces, joined."""
    body, chain = node.state.state_dict(objects=True), node.state.chain
    body["digest"] = state_digest(body, chain)
    _write_atomic({path: b"".join(state_pieces(body, chain))})


def read_snapshot(path: str) -> Node:
    """The ledger of the snapshot file at `path`, refused unless a replay
    of its chain gives its state."""
    if not os.path.exists(path):
        raise err("NotFound", path)
    with open(path, "rb") as fh:
        data = fh.read()
    node = import_snapshot(_json_object(path, data))
    if _replay(node.state.chain.blocks, LedgerState(),
               path).full_digest() != node.full_digest():
        raise err("CorruptSnapshot", f"{path} holds a state its chain "
                  "does not replay to")
    return node
