"""Account addresses: 20 bytes rendered as 0x-prefixed lowercase hex.

An address is derived from a public key by hashing the key bytes with
SHA-256 and keeping the first 20 bytes. The all-zero address is
reserved as a non-account sentinel and may never hold or receive
anything.
"""

import re

from .canonical import sha256
from .errors import err

ZERO_ADDRESS = "0x" + "00" * 20

_match_address = re.compile(r"0x[0-9a-f]{40}").fullmatch


def derive_address(public_key: bytes) -> str:
    return "0x" + sha256(public_key)[:20].hex()


def check_address(s: str) -> str:
    if type(s) is not str or _match_address(s) is None:
        raise err("ParseError", f"not a valid address: {s!r}")
    return s


def require_nonzero(addr: str, what: str = "address") -> str:
    if addr == ZERO_ADDRESS:
        raise err("ZeroAddress", f"{what} may not be the zero address")
    return addr
