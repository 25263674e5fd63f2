"""State directory layout, snapshot export/import, and the write lock.

Layout inside a state directory:

    chain.json   the block log, canonical JSON
    state.json   ``LedgerState.state_dict()``: accounts, stakeholders,
                 factory, properties, config
    objects/     one <hex-digest>.bin file per stored object
    .lock        flock target guarding against concurrent writers

Files are written to a temp name and renamed so a kill mid-write never
leaves a half-written file.

A snapshot is ``state_dict(objects=True)`` with the block log under
``chain``, plus a ``digest`` of that body. The digest is
``state_digest``, taken over the body's encoding with the log's stored
bytes spliced in; ``write_snapshot`` writes the same pieces, digest
included, and never decodes a stored block. Import decodes the log
once and checks the digest over the bytes it splices back. Loading a
directory and importing a snapshot feed the one decoder: it reads
every record through ``records.read``, checks each object against its
digest, and alone checks what no command can break. It refuses a
ledger with no active administrator, or whose stored contracts are
not exactly the factory's proxies, each initialized at its own
address.
"""

import fcntl
import json
import os
from typing import Optional

from .canonical import canonical_json_bytes, sha256_hex
from .chain import Chain, NativeLedger
from .errors import err
from .factory import Factory
from .identity import StakeholderRegistry
from .node import (STATE_VERSION, LedgerState, Node, state_digest,
                   state_pieces)
from .property_contract import PropertyContract
from .records import read, read_object
from .storage import ObjectStore

STATE_KEYS = frozenset(("version", "config", "accounts", "stakeholders",
                        "factory", "properties"))


def _write_atomic(path: str, data: bytes):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_state(state_dir: str, node: Node):
    os.makedirs(os.path.join(state_dir, "objects"), exist_ok=True)
    for digest, data in node.state.store.objects.items():
        path = os.path.join(state_dir, "objects", digest + ".bin")
        if not os.path.exists(path):  # content-addressed: never rewritten
            _write_atomic(path, data)
    _write_atomic(os.path.join(state_dir, "state.json"),
                  canonical_json_bytes(node.state.state_dict()))
    _write_atomic(os.path.join(state_dir, "chain.json"),
                  node.state.chain.canonical_json())


def _read_json_object(path: str) -> dict:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        value = None
    if not isinstance(value, dict):
        raise err("CorruptSnapshot", f"{path} is not a JSON object")
    return value


def _check_version(body: dict, what: str):
    version = body.get("version")  # a mistyped one is no version at all
    if type(version) is not int or version != STATE_VERSION:
        raise err("VersionMismatch" if type(version) is int else
                  "CorruptSnapshot", f"{what} version {version!r}, "
                  f"expected {STATE_VERSION}")


def _state_from_dicts(d: dict, chain: Chain, objects: dict = None) -> Node:
    """Decode a ``state_dict()`` beside its `chain` and `objects` (digest
    -> bytes) or hex ``objects``; refuse what no command produces."""
    read_object(d, STATE_KEYS | ({"objects"} if objects is None else set()))
    if objects is None:
        objects = read(dict[str, bytes], d["objects"])
    for digest, data in objects.items():
        if sha256_hex(data) != digest:
            raise err("CorruptSnapshot",
                      f"object {digest} does not match its digest")
    state = LedgerState(
        config=read(dict[str, Optional[str]], d["config"]),
        chain=chain,
        native=read(NativeLedger, d["accounts"]),
        registry=read(StakeholderRegistry, d["stakeholders"]),
        store=ObjectStore(objects=objects),
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
    read_object(state_d, STATE_KEYS)
    chain = Chain.from_dict(_read_json_object(chain_path))
    objects = {}
    objects_dir = os.path.join(state_dir, "objects")
    if os.path.isdir(objects_dir):
        for name in sorted(os.listdir(objects_dir)):
            if not name.endswith(".bin"):
                continue
            with open(os.path.join(objects_dir, name), "rb") as fh:
                objects[name[:-len(".bin")]] = fh.read()
    return _state_from_dicts(state_d, chain, objects)


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


# -- locking ----------------------------------------------------------------


class StateLock:
    """flock-based exclusive lock on <state_dir>/.lock; a missing
    `state_dir` is Uninitialized, as the lock creates nothing."""

    def __init__(self, state_dir: str):
        if not os.path.isdir(state_dir):
            raise _uninitialized(state_dir)
        self.path = os.path.join(state_dir, ".lock")
        self._fh = None

    def __enter__(self):
        self._fh = open(self.path, "a+")
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise err("StateLocked",
                      f"another process holds {self.path}")
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None
        return False
