"""Content-addressed object store and right-metadata documents.

Objects are addressed by a cid of the form

    cidv0-sha256:<64 lowercase hex chars>

where the hex is the SHA-256 of the object bytes. A store loaded from a
state dir starts from the members its checkpoint lists: it knows which
objects the ledger holds without reading them, and reads and checks one
object's file only when that object's bytes are asked for. The files
are caches of the log, which records every object's bytes, written
with no fsync, and ``read_cached`` reads them, as it reads a
checkpoint's section files: a file that does not match its digest goes
to a `rebuild`, which recovers what a crash can leave of one (no file,
or a prefix of its bytes, NUL bytes after it or not) from the log,
stores the file again, and refuses any other bytes. Right metadata is a
JSON document listing the name of the right, a description, and the
supporting documents, each document pointing at a stored object by cid.
"""

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .canonical import canonical_json_bytes, sha256_hex
from .errors import err

CID_PREFIX = "cidv0-sha256:"

_CID_RE = re.compile(r"^cidv0-sha256:[0-9a-f]{64}$")


def make_cid(data: bytes) -> str:
    return CID_PREFIX + sha256_hex(data)


def is_cid(s) -> bool:
    return isinstance(s, str) and bool(_CID_RE.match(s))


def cid_digest(cid: str) -> bytes:
    if not is_cid(cid):
        raise err("ParseError", f"not a valid cid: {cid!r}")
    return bytes.fromhex(cid[len(CID_PREFIX):])


@dataclass
class ObjectStore:
    """The objects by hex digest: `objects` holds the bytes read or
    given, and `stored` the members whose ``<digest>.bin`` files the dir
    `path` holds, as its checkpoint lists them or the last write left
    them. A stored object's file is read, and checked against its
    digest, the first time its bytes are needed; ``rebuild(digest, path,
    bytes read)`` returns the bytes of a file that fails, and stores the
    file again, or raises."""
    objects: dict = field(default_factory=dict)  # hex digest -> bytes
    path: Optional[str] = None
    stored: set = field(default_factory=set)
    rebuild: Optional[Callable] = None

    def put(self, data: bytes) -> str:
        if not data:
            raise err("EmptyObject", "refusing to store an empty object")
        cid = make_cid(data)
        self.objects[cid[len(CID_PREFIX):]] = data
        return cid

    def get(self, cid: str) -> bytes:
        key = cid_digest(cid).hex()
        if key not in self.objects and key not in self.stored:
            raise err("NotFound", cid)
        return self.read(key)

    def has(self, cid: str) -> bool:
        if not is_cid(cid):
            return False
        key = cid[len(CID_PREFIX):]
        return key in self.objects or key in self.stored

    def digests(self) -> set:
        return self.objects.keys() | self.stored

    def read(self, digest: str) -> bytes:
        """The bytes of the object `digest`, which the store holds."""
        data = self.objects.get(digest)
        if data is None:
            data = self.objects[digest] = read_cached(
                os.path.join(self.path, digest + ".bin"), digest,
                self.rebuild)
        return data

    def read_all(self) -> dict:
        """`objects` once every stored file has been read into it."""
        for digest in sorted(self.stored):
            self.read(digest)
        return self.objects


def read_cached(path: str, digest: str, rebuild: Callable) -> bytes:
    """The bytes of the file at `path`, a cache named by their SHA-256
    `digest`; ``rebuild(digest, path, bytes read)`` for a file that fails
    it. A missing file reads as an empty one: a prefix of any bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    return data if sha256_hex(data) == digest else rebuild(digest, path, data)


def build_right_metadata(store: ObjectStore, name_of_right: str,
                         description: str, documents: list,
                         extra: dict = None) -> str:
    """Assemble a right-metadata document and store it; returns its cid.

    documents: list of {"name", "description", "link"} where link is the
    cid of an object already in the store.
    """
    if not name_of_right:
        raise err("EmptyObject", "nameOfRight may not be empty")
    doc_entries = []
    for doc in documents:
        link = doc.get("link", "")
        if not link:
            raise err("InvalidDocumentLink", "document has no link")
        if not store.has(link):
            raise err("InvalidDocumentLink",
                      f"document link not in the object store: {link}")
        doc_entries.append({
            "name": doc.get("name", ""),
            "description": doc.get("description", ""),
            "link": link,
        })
    metadata = {
        "nameOfRight": name_of_right,
        "description": description,
        "documents": doc_entries,
    }
    if extra:
        merged = dict(extra)
        merged.update(metadata)  # core keys win over extras
        metadata = merged
    return store.put(canonical_json_bytes(metadata))


def resolve_uri(base_uri: str, token_id: int) -> str:
    """Substitute the 64-hex-digit token id into a base uri template."""
    if "{id}" not in base_uri:
        raise err("MissingPlaceholder",
                  "base uri has no {id} placeholder")
    return base_uri.replace("{id}", f"{token_id:064x}")
