"""State directory layout, snapshot export/import, and the write lock.

Layout inside a state directory:

    chain.json   the block log, canonical JSON
    state.json   ``LedgerState.state_dict()``: accounts, stakeholders,
                 factory, properties, config
    objects/     one <hex-digest>.bin file per stored object
    .lock        flock target guarding against concurrent writers

Files are written to a temp name and renamed so a kill mid-write never
leaves a half-written file. Object files are verified against their
filename digest on load.

A snapshot is ``state_dict(objects=True, chain=True)`` plus a
``digest`` of that body. Loading a directory and importing a snapshot
feed the same decoder.
"""

import fcntl
import json
import os

from .canonical import canonical_json_bytes, sha256_hex
from .chain import Chain, NativeLedger
from .errors import err
from .factory import Factory
from .identity import StakeholderRegistry
from .node import STATE_VERSION, LedgerState, Node
from .property_contract import PropertyContract
from .storage import ObjectStore


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
    except json.JSONDecodeError:
        value = None
    if not isinstance(value, dict):
        raise err("CorruptSnapshot", f"{path} is not a JSON object")
    return value


def _state_from_dicts(d: dict, objects: dict = None) -> Node:
    """Decode a ``LedgerState.state_dict(chain=True)``. `objects` maps
    digest to bytes; without it they come from the hex ``objects`` of a
    snapshot body. A body of the wrong shape is CorruptSnapshot."""
    if d.get("version") != STATE_VERSION:
        raise err("VersionMismatch",
                  f"state version {d.get('version')}, "
                  f"expected {STATE_VERSION}")
    try:
        if objects is None:
            objects = {k: bytes.fromhex(v) for k, v in d["objects"].items()}
        state = LedgerState(
            config=dict(d["config"]),
            chain=Chain.from_dict(d["chain"]),
            native=NativeLedger.from_dict(d["accounts"]),
            registry=StakeholderRegistry.from_dict(d["stakeholders"]),
            store=ObjectStore(objects=dict(objects)),
            factory=Factory.from_dict(d["factory"]),
            properties={a: PropertyContract.from_dict(p)
                        for a, p in d["properties"].items()},
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise err("CorruptSnapshot",
                  f"malformed ledger data: {type(exc).__name__}: {exc}"
                  ) from exc
    return Node(state)


def holds_ledger(state_dir: str) -> bool:
    """Whether `state_dir` holds a ledger file; either one counts, so a
    block log without its state is never overwritten."""
    return any(os.path.exists(os.path.join(state_dir, name))
               for name in ("state.json", "chain.json"))


def load_state(state_dir: str) -> Node:
    state_path = os.path.join(state_dir, "state.json")
    chain_path = os.path.join(state_dir, "chain.json")
    if not (os.path.exists(state_path) and os.path.exists(chain_path)):
        raise err("Uninitialized", f"{state_dir} holds no ledger; run init")
    state_d = _read_json_object(state_path)
    state_d["chain"] = _read_json_object(chain_path)
    objects = {}
    objects_dir = os.path.join(state_dir, "objects")
    if os.path.isdir(objects_dir):
        for name in sorted(os.listdir(objects_dir)):
            if not name.endswith(".bin"):
                continue
            with open(os.path.join(objects_dir, name), "rb") as fh:
                data = fh.read()
            digest = name[:-len(".bin")]
            if sha256_hex(data) != digest:
                raise err("CorruptSnapshot",
                          f"object {name} does not match its digest")
            objects[digest] = data
    return _state_from_dicts(state_d, objects)


# -- snapshots -------------------------------------------------------------


def export_snapshot(node: Node) -> dict:
    snapshot = node.state.state_dict(objects=True, chain=True)
    snapshot["digest"] = sha256_hex(canonical_json_bytes(snapshot))
    return snapshot


def import_snapshot(snapshot: dict) -> Node:
    if snapshot.get("version") != STATE_VERSION:
        raise err("VersionMismatch",
                  f"snapshot version {snapshot.get('version')}, "
                  f"expected {STATE_VERSION}")
    body = {k: v for k, v in snapshot.items() if k != "digest"}
    if sha256_hex(canonical_json_bytes(body)) != snapshot.get("digest"):
        raise err("CorruptSnapshot", "snapshot digest does not match")
    return _state_from_dicts(body)


def write_snapshot(path: str, node: Node):
    _write_atomic(path, canonical_json_bytes(export_snapshot(node)))


def read_snapshot(path: str) -> Node:
    if not os.path.exists(path):
        raise err("NotFound", path)
    return import_snapshot(_read_json_object(path))


# -- locking ----------------------------------------------------------------


class StateLock:
    """flock-based exclusive lock on <state_dir>/.lock."""

    def __init__(self, state_dir: str):
        os.makedirs(state_dir, exist_ok=True)
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
