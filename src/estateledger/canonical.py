"""Canonical byte encodings shared by every module.

All digests in the system are SHA-256 over these encodings, so any
drift here silently changes every block hash and state digest.
"""

import hashlib
import json


# sorted keys + minimal separators: the one serialization every digest
# in the system agrees on; `json.dumps` would build this encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False)


def canonical_json_bytes(value) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def u64be(n: int) -> bytes:
    return n.to_bytes(8, "big")


def u32be(n: int) -> bytes:
    return n.to_bytes(4, "big")
