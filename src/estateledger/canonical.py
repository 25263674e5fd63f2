"""Canonical byte encodings shared by every module.

All digests in the system are SHA-256 over these encodings, so any
drift here silently changes every block hash and state digest.
"""

import hashlib
import json
import struct
from json.encoder import c_make_encoder, encode_basestring

raw_decode = json.JSONDecoder().raw_decode  # built once, like the encoder
# sorted keys + minimal separators: the one serialization every digest
# in the system agrees on. The C encoder is built once, not per call as
# `json.dumps` does; with no markers dict it keeps no state between
# calls, and a circular value raises RecursionError. NaN and the
# infinities are not JSON: they raise ValueError.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring,
                         None, ":", ",", True, False, False)


def canonical_json_bytes(value) -> bytes:
    return "".join(_encode(value, 0)).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# fixed-width big-endian unsigned ints; a value that does not fit raises
u64be, u32be = struct.Struct(">Q").pack, struct.Struct(">I").pack
