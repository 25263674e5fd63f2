"""A state dir's checkpoint as one dict, for tests that edit it by hand:
the keys of the manifest ``state.json`` but "sections", and those of
each section file it names."""

import json
import os

from estateledger import persistence
from estateledger.canonical import canonical_json_bytes, sha256_hex
from estateledger.records import to_json


def section_path(state_dir, digest) -> str:
    return os.path.join(state_dir, "sections", digest + ".json")


def manifest(state_dir) -> dict:
    with open(os.path.join(state_dir, "state.json"), "rb") as fh:
        return json.loads(fh.read())


def read_checkpoint(state_dir) -> dict:
    d = manifest(state_dir)
    for digest in d.pop("sections").values():
        with open(section_path(state_dir, digest), "rb") as fh:
            d.update(json.loads(fh.read()))
    return d


def write_checkpoint(state_dir, d: dict) -> dict:
    """Store `d`, a checkpoint as ``read_checkpoint`` gives it, edited:
    each section file under the digest of its bytes, and a manifest that
    names them, signed again, tagged with the index and hash of `d`'s
    "block". A section key missing from `d` is left out of its file.
    Returns the digest of each section, by name."""
    digests, body = {}, dict(d)
    for name, (keys, _) in persistence.SECTION_FILES.items():
        data = canonical_json_bytes({k: body.pop(k) for k in keys
                                     if k in body})
        digests[name] = sha256_hex(data)
        os.makedirs(os.path.join(state_dir, "sections"), exist_ok=True)
        with open(section_path(state_dir, digests[name]), "wb") as fh:
            fh.write(data)
    block = body.pop("block")
    tag = persistence.Checkpoint(block["index"], bytes.fromhex(block["hash"]),
                                 bytes(32))
    data = persistence._sign(canonical_json_bytes(
        body | {"block": to_json(tag), "sections": digests}), tag)
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(data)
    return digests


def edit_checkpoint(state_dir, edit) -> dict:
    """`edit` the dir's checkpoint as one dict, then store it again (see
    ``write_checkpoint``)."""
    d = read_checkpoint(state_dir)
    edit(d)
    return write_checkpoint(state_dir, d)


def whole_files(state_dir) -> tuple:
    """The manifest of the dir and the bytes of each section file it
    names, digest -> bytes: what ``persistence._checkpoint`` encodes."""
    with open(os.path.join(state_dir, "state.json"), "rb") as fh:
        data = fh.read()
    files = {}
    for digest in json.loads(data)["sections"].values():
        with open(section_path(state_dir, digest), "rb") as fh:
            files[digest] = fh.read()
    return data, files
