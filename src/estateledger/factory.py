"""Factory deploying one property proxy per real-world property.

Proxies get deterministic addresses: first 20 bytes of
SHA-256(factory address bytes || 8-byte big-endian proxy index). The
factory tracks the current behavior version; upgrading swaps that
version and must leave every proxy's state untouched. Pausing halts
deployment and all minting everywhere.
"""

from dataclasses import dataclass, field

from .canonical import sha256, u64be
from .errors import err
from .identity import Role
from .property_contract import PropertyContract
from .tokens import TokenLedger

FACTORY_ADDRESS = "0x" + sha256(b"estate-factory")[:20].hex()


@dataclass
class ImplementationVersion:
    version_id: int
    behavior_tag: str

    def to_dict(self) -> dict:
        return {"versionId": self.version_id, "behaviorTag": self.behavior_tag}

    @classmethod
    def from_dict(cls, d: dict) -> "ImplementationVersion":
        return cls(version_id=d["versionId"], behavior_tag=d["behaviorTag"])


def proxy_address(factory_address: str, index: int) -> str:
    raw = bytes.fromhex(factory_address[2:])
    return "0x" + sha256(raw + u64be(index))[:20].hex()


@dataclass
class Factory:
    initialized: bool = False
    address: str = FACTORY_ADDRESS
    logic: ImplementationVersion = None
    proxies: list = field(default_factory=list)  # append-only addresses
    paused: bool = False
    upgrader: str = ""
    admin: str = ""

    def initialize(self, implementation: ImplementationVersion, admin: str,
                   upgrader: str):
        if self.initialized:
            raise err("AlreadyInitialized", "factory already initialized")
        if implementation.version_id < 1:
            raise err("ParseError", "version ids start at 1")
        self.initialized = True
        self.logic = implementation
        self.admin = admin
        self.upgrader = upgrader
        self.paused = False

    def _require_initialized(self):
        if not self.initialized:
            raise err("Uninitialized", "factory not initialized")

    def pause(self, caller: str):
        self._require_initialized()
        if caller != self.admin:
            raise err("NotAuthorized", f"{caller} is not the factory admin")
        if self.paused:
            raise err("AlreadyPaused", "factory is already paused")
        self.paused = True

    def unpause(self, caller: str):
        self._require_initialized()
        if caller != self.admin:
            raise err("NotAuthorized", f"{caller} is not the factory admin")
        if not self.paused:
            raise err("NotPaused", "factory is not paused")
        self.paused = False

    def authorize_upgrade(self, caller: str,
                          new_implementation: ImplementationVersion):
        self._require_initialized()
        if caller != self.upgrader:
            raise err("NotAuthorized", f"{caller} is not the upgrader")
        if new_implementation.version_id < 1:
            raise err("ParseError", "version ids start at 1")
        self.logic = new_implementation

    def proxy_length(self) -> int:
        return len(self.proxies)

    def next_proxy_address(self) -> str:
        return proxy_address(self.address, len(self.proxies))

    def to_dict(self) -> dict:
        return {
            "initialized": self.initialized,
            "address": self.address,
            "logic": self.logic.to_dict() if self.logic else None,
            "proxies": list(self.proxies),
            "paused": self.paused,
            "upgrader": self.upgrader,
            "admin": self.admin,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Factory":
        return cls(
            initialized=d["initialized"],
            address=d["address"],
            logic=(ImplementationVersion.from_dict(d["logic"])
                   if d["logic"] else None),
            proxies=list(d["proxies"]),
            paused=d["paused"],
            upgrader=d["upgrader"],
            admin=d["admin"],
        )


def deploy_property(factory: Factory, properties: dict, caller: str,
                    treasury: str, upgrader: str, admin: str, uri: str,
                    contract_name: str, description: str, *, registry,
                    native) -> str:
    factory._require_initialized()
    if factory.paused:
        raise err("Paused", "factory is paused")
    if not (registry.has_role(caller, Role.ADMINISTRATOR)
            or registry.has_role(caller, Role.SELLER)):
        raise err("NotAuthorized",
                  f"{caller} may not deploy properties")
    address = factory.next_proxy_address()
    native.ensure_account(treasury)  # a zero treasury raises before any write
    native.ensure_account(address)
    properties[address] = PropertyContract(
        initialized=True, property_id=len(factory.proxies) + 1,
        address=address, treasury=treasury, upgrader=upgrader, admin=admin,
        base_uri=uri, contract_name=contract_name, description=description,
        implementation_version=factory.logic.version_id,
        tokens=TokenLedger(base_uri=uri))
    factory.proxies.append(address)
    return address
