"""Stakeholder registry: who may act, and in what roles.

Registration is administrator-gated and can be backed by an external
verifier that approves or rejects public keys. An address may hold
several roles. Removing the last active administrator is forbidden so
the system can never lock itself out; removal deactivates a record
without touching its balances.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

from .addresses import derive_address
from .canonical import sha256_hex
from .errors import err


class Role(str, Enum):
    ADMINISTRATOR = "Administrator"
    SELLER = "Seller"
    BUYER = "Buyer"
    REALTOR = "Realtor"


def parse_role(name: str) -> Role:
    for role in Role:
        if role.value == name:
            return role
    raise err("ParseError", f"unknown role {name!r}")


@dataclass
class StakeholderRecord:
    address: str
    roles: set[str]  # role names
    public_info: str  # cid of a stored info object, may be ""
    active: bool
    key_fingerprint: str  # sha256 hex of the public key bytes


class AllowlistVerifier:
    """Approves keys whose sha256 fingerprint appears in a text file.

    The file is re-read on every call so an operator can extend the
    allowlist without restarting anything. One lowercase hex digest
    per line; blank lines and # comments are skipped.
    """

    def __init__(self, path: str):
        self.path = path

    def __call__(self, public_key: bytes) -> bool:
        fingerprint = sha256_hex(public_key)
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return False
        for line in lines:
            line = line.strip().lower()
            if not line or line.startswith("#"):
                continue
            if line == fingerprint:
                return True
        return False


@dataclass
class StakeholderRegistry:
    """Records are never changed once stored; removal swaps in a new
    one. A copy of the `stakeholders` dict is thus a registry of its own."""

    stakeholders: dict[str, StakeholderRecord] = field(default_factory=dict)

    def register(self, admin: str, role: Role, public_key: bytes,
                 info_cid: str = "", *, verifier=None,
                 bootstrap: bool = False) -> str:
        # bootstrap seats the first administrator, before any admin exists
        if not bootstrap and not self.is_active_admin(admin):
            raise err("NotAuthorized",
                      f"{admin} is not an active administrator")
        if not public_key:
            raise err("VerificationRejected", "empty public key")
        if verifier is not None and not verifier(public_key):
            raise err("VerificationRejected",
                      "key rejected by the identity verifier")
        address = derive_address(public_key)
        if address in self.stakeholders:
            raise err("DuplicateKey", f"{address} is already registered")
        self.stakeholders[address] = StakeholderRecord(
            address=address, roles={role.value}, public_info=info_cid,
            active=True, key_fingerprint=sha256_hex(public_key))
        return address

    def remove(self, admin: str, address: str):
        if not self.is_active_admin(admin):
            raise err("NotAuthorized",
                      f"{admin} is not an active administrator")
        record = self.stakeholders.get(address)
        if record is None or not record.active:
            raise err("UnknownAccount", address)
        if (Role.ADMINISTRATOR.value in record.roles
                and len(self.active_admins()) == 1):
            raise err("LastAdministrator",
                      "cannot deactivate the only active administrator")
        self.stakeholders[address] = replace(record, active=False)

    def get(self, address: str) -> StakeholderRecord:
        record = self.stakeholders.get(address)
        if record is None:
            raise err("UnknownAccount", address)
        return record

    def is_active(self, address: str) -> bool:
        record = self.stakeholders.get(address)
        return record is not None and record.active

    def has_role(self, address: str, role: Role) -> bool:
        record = self.stakeholders.get(address)
        return (record is not None and record.active
                and role.value in record.roles)

    def is_active_admin(self, address: str) -> bool:
        return self.has_role(address, Role.ADMINISTRATOR)

    def active_admins(self) -> list:
        return sorted(
            a for a, r in self.stakeholders.items()
            if r.active and Role.ADMINISTRATOR.value in r.roles)
