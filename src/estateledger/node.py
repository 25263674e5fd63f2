"""Single-writer node: executes commands atomically and seals blocks.

``execute`` is check-then-apply. Admission checks everything the seal
needs (the caller, the attached value, the timestamp range) and encodes
the operation's transaction, fixing the block's bytes before anything
is written; each executor then runs all its checks before its first
write. So on success exactly one block is appended holding the
operation's transaction (deployments add an event transaction), and a
failure changes nothing and appends nothing. What no command can break
(an active administrator, each contract initialized at its own address)
is checked once, when ``persistence`` decodes a loaded ledger.

As a second guard, the executor runs against a working state holding
fresh copies of the components its op names in ``WRITES`` and sharing
every other one, the append-only block log included.

``LedgerState.state_dict`` is the one serialization of the state:
``state.json`` is its default form, ``full_digest`` and
``ledger_digest`` hash it with the object store (and, for the full
digest, the block log) but without ``version`` and ``config``, and
snapshots add both the object store and the block log.

Replaying a recorded chain from genesis re-executes every transaction
and must reproduce the recorded block hashes and the final state
digest.
"""

import copy
import json
from dataclasses import dataclass, field

from . import factory as factory_mod
from .addresses import derive_address
from .canonical import canonical_json_bytes, sha256_hex
from .chain import Chain, NativeLedger, Transaction
from .errors import LedgerError, err
from .factory import Factory, ImplementationVersion
from .identity import AllowlistVerifier, Role, StakeholderRegistry, parse_role
from .records import read, to_json
from .storage import ObjectStore, build_right_metadata
from .tokens import atomic_swap, swap_descriptor_digest

STATE_VERSION = 1

# ops that may carry attached native value
PAYABLE = {"mintNFT", "mintBatchNFTs", "transferNFT", "distributeEarnings"}

# event transactions are emitted by executors, never invoked directly
EVENT_OPS = {"DeployedProperty"}


@dataclass
class LedgerState:
    config: dict = field(default_factory=lambda: {"allowlist": None})
    chain: Chain = field(default_factory=Chain)
    native: NativeLedger = field(default_factory=NativeLedger)
    registry: StakeholderRegistry = field(default_factory=StakeholderRegistry)
    store: ObjectStore = field(default_factory=ObjectStore)
    factory: Factory = field(default_factory=Factory)
    properties: dict = field(default_factory=dict)  # address -> contract

    def property_at(self, address: str):
        prop = self.properties.get(address)
        if prop is None:
            raise err("NotFound", f"no property at {address}")
        return prop

    def state_dict(self, *, objects: bool = False,
                   chain: bool = False) -> dict:
        """The one serialization of the state; ``state.json`` is the
        default form."""
        d = {
            "version": STATE_VERSION,
            "config": self.config,
            "accounts": to_json(self.native),
            "stakeholders": to_json(self.registry),
            "factory": to_json(self.factory),
            "properties": {a: to_json(p) for a, p in self.properties.items()},
        }
        if objects:
            d["objects"] = {k: v.hex()
                            for k, v in sorted(self.store.objects.items())}
        if chain:
            d["chain"] = self.chain.to_dict()
        return d


class Node:
    def __init__(self, state: LedgerState = None):
        self.state = state if state is not None else LedgerState()

    # -- digests ------------------------------------------------------------

    def _digest(self, chain: bool) -> str:
        # version and config stay out: operational knobs must not shift
        # state digests
        d = self.state.state_dict(objects=True)
        del d["version"], d["config"]
        if not chain:
            return sha256_hex(canonical_json_bytes(d))
        # the block log is spliced in as Chain.canonical_json(); its key
        # sorts between "accounts" and "factory"
        accounts = canonical_json_bytes(d.pop("accounts"))
        rest = canonical_json_bytes(d)
        return sha256_hex(b'{"accounts":' + accounts + b',"chain":'
                          + self.state.chain.canonical_json() + b","
                          + rest[1:])

    def full_digest(self) -> str:
        return self._digest(chain=True)

    def ledger_digest(self) -> str:
        """State digest without the block log; upgrades and other logged
        no-ops leave this unchanged."""
        return self._digest(chain=False)

    def properties_digest(self) -> str:
        return sha256_hex(canonical_json_bytes(
            self.state.state_dict()["properties"]))

    # -- lifecycle ------------------------------------------------------------

    def init_genesis(self, admin_key: bytes, info_cid: str = "",
                     timestamp: int = 0) -> str:
        _check_timestamp(timestamp)
        chain = self.state.chain
        chain.append_genesis(timestamp)
        try:
            result = self.execute(
                caller=derive_address(admin_key),
                operation="bootstrapAdmin",
                params={"publicKey": admin_key.hex(), "infoCid": info_cid},
                timestamp=timestamp,
            )
        except Exception:
            chain.blocks.clear()  # no genesis without its administrator
            raise
        return result["address"]

    # -- execution -------------------------------------------------------------

    def execute(self, caller: str, operation: str, params: dict,
                value: int = 0, timestamp: int = 0) -> dict:
        if operation in EVENT_OPS:
            raise err("ParseError", f"{operation} is an event, not a command")
        executor = EXECUTORS.get(operation)
        if executor is None:
            raise err("ParseError", f"unknown operation {operation!r}")
        if not self.state.chain.blocks:
            raise err("Uninitialized", "no genesis block; run init first")
        if value < 0:
            raise err("ParseError", "negative attached value")
        if value and operation not in PAYABLE:
            raise err("UnexpectedValue",
                      f"{operation} does not accept attached value")
        _check_timestamp(timestamp)
        registry = self.state.registry
        if operation == "bootstrapAdmin":
            if registry.stakeholders:
                raise err("NotAuthorized",
                          "bootstrap only works on an empty registry")
        elif not registry.is_active(caller):
            raise err("NotAuthorized",
                      f"{caller} is not an active stakeholder")
        # the block's bytes are fixed before anything is written
        blobs = [Transaction(caller=caller, operation=operation,
                             params=params,
                             attached_value=value).canonical_bytes()]

        working = _working_copy(self.state, WRITES[operation], params)
        result, events = executor(working, caller, params, value)
        blobs.extend(tx.canonical_bytes() for tx in events)
        working.chain.append_block(blobs, timestamp)
        self.state = working
        return result

    # -- replay -----------------------------------------------------------------

    def replay(self) -> "Node":
        """Re-execute the recorded chain from genesis on a fresh node.

        Returns the rebuilt node; raises HashMismatch if any replayed
        block hash differs from the recorded one, and CorruptSnapshot if
        a recorded transaction cannot be decoded or re-executed.
        """
        blocks = self.state.chain.blocks
        if not blocks:
            raise err("Uninitialized", "nothing to replay")
        # the fresh node has no allowlist: recorded registrations are
        # trusted, as the list that approved them may have changed since
        fresh = Node()
        fresh.state.chain.append_genesis(blocks[0].timestamp)
        if fresh.state.chain.blocks[0].hash != blocks[0].hash:
            raise err("HashMismatch", "genesis block differs")
        for block in blocks[1:]:
            where = f"block {block.index} holds a malformed transaction"
            try:  # a blob that is not JSON, or a record the codec refuses
                txs = [read(Transaction, json.loads(b)) for b in block.data]
            except (ValueError, LedgerError) as exc:
                raise err("CorruptSnapshot", f"{where}: {exc}") from exc
            commands = [tx for tx in txs if tx.operation not in EVENT_OPS]
            if len(commands) != 1:
                raise err("CorruptSnapshot", f"block {block.index} "
                          f"holds {len(commands)} commands")
            tx = commands[0]
            try:
                fresh.execute(tx.caller, tx.operation, tx.params,
                              tx.attached_value, block.timestamp)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise err("CorruptSnapshot", f"{where}: "
                          f"{type(exc).__name__}: {exc}") from exc
            if fresh.state.chain.blocks[-1].hash != block.hash:
                raise err("HashMismatch",
                          f"block {block.index} hash diverged on replay")
        fresh.state.config = copy.deepcopy(self.state.config)
        return fresh


def _check_timestamp(timestamp: int):
    # a block header stores it as 8 unsigned bytes
    if not 0 <= timestamp < 2 ** 64:
        raise err("ParseError", f"timestamp {timestamp} is outside [0, 2**64)")


def _working_copy(state: LedgerState, writes: tuple,
                  params: dict) -> LedgerState:
    """A state sharing every component with `state` except the ones in
    `writes`, which are fresh copies. Of `properties` only the dict and
    the contract at ``params["property"]`` are copied."""
    working = copy.copy(state)
    if "native" in writes:
        working.native = NativeLedger(dict(state.native.accounts))
    if "store" in writes:
        working.store = ObjectStore(dict(state.store.objects))
    if "registry" in writes:
        working.registry = StakeholderRegistry(
            dict(state.registry.stakeholders))
    if "factory" in writes:
        working.factory = copy.deepcopy(state.factory)
    if "properties" in writes:
        working.properties = dict(state.properties)
        address = params.get("property")
        if address in working.properties:
            working.properties[address] = copy.deepcopy(
                working.properties[address])
    return working


# -- executors ------------------------------------------------------------------
# each returns (result dict, extra event transactions)


def _ex_bootstrap_admin(state, caller, params, value):
    key = bytes.fromhex(params["publicKey"])
    # the operator seats the first administrator; no allowlist applies
    address = state.registry.register(
        caller, Role.ADMINISTRATOR, key, params.get("infoCid", ""),
        bootstrap=True)
    state.native.ensure_account(address)
    return {"address": address}, []


def _ex_register_stakeholder(state, caller, params, value):
    key = bytes.fromhex(params["publicKey"])
    role = parse_role(params["role"])
    path = state.config.get("allowlist")
    address = state.registry.register(
        caller, role, key, params.get("infoCid", ""),
        verifier=AllowlistVerifier(path) if path else None)
    state.native.ensure_account(address)
    return {"address": address}, []


def _ex_remove_stakeholder(state, caller, params, value):
    state.registry.remove(caller, params["target"])
    return {}, []


def _ex_transfer_native(state, caller, params, value):
    state.native.transfer(caller, params["to"], int(params["amount"]))
    return {}, []


def _ex_faucet(state, caller, params, value):
    # the faucet is the only supply source; administrators only
    if not state.registry.is_active_admin(caller):
        raise err("NotAuthorized", f"{caller} is not an active administrator")
    state.native.credit(params["to"], int(params["amount"]))
    return {}, []


def _ex_put_object(state, caller, params, value):
    cid = state.store.put(bytes.fromhex(params["dataHex"]))
    return {"cid": cid}, []


def _ex_build_metadata(state, caller, params, value):
    cid = build_right_metadata(
        state.store, params["nameOfRight"], params.get("description", ""),
        params.get("documents", []), params.get("extra"))
    return {"cid": cid}, []


def _ex_register_document(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.register_document(caller, params["cid"], registry=state.registry,
                           store=state.store)
    return {"documents": len(prop.documents)}, []


def _ex_approved_property(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.approved_property(caller, bytes.fromhex(params["parentHash"]),
                           registry=state.registry)
    return {"approved": True}, []


def _ex_initialize_factory(state, caller, params, value):
    if not state.registry.is_active_admin(caller):
        raise err("NotAuthorized", f"{caller} is not an active administrator")
    state.factory.initialize(
        ImplementationVersion(int(params["versionId"]),
                              params.get("behaviorTag", "base")),
        admin=params.get("admin", caller),
        upgrader=params.get("upgrader", caller))
    return {"factory": state.factory.address}, []


def _ex_deploy_property(state, caller, params, value):
    address = factory_mod.deploy_property(
        state.factory, state.properties, caller,
        treasury=params["treasury"], upgrader=params["upgrader"],
        admin=params["admin"], uri=params["uri"],
        contract_name=params.get("contractName", ""),
        description=params.get("description", ""),
        registry=state.registry, native=state.native)
    prop_id = state.properties[address].property_id
    event = Transaction(
        caller=state.factory.address, operation="DeployedProperty",
        params={"address": address, "propertyId": prop_id})
    return {"address": address, "propertyId": prop_id}, [event]


def _ex_pause(state, caller, params, value):
    state.factory.pause(caller)
    return {"paused": True}, []


def _ex_unpause(state, caller, params, value):
    state.factory.unpause(caller)
    return {"paused": False}, []


def _ex_authorize_upgrade(state, caller, params, value):
    state.factory.authorize_upgrade(
        caller, ImplementationVersion(int(params["versionId"]),
                                      params.get("behaviorTag", "base")))
    return {"version": to_json(state.factory.logic)}, []


def _ex_mint_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    token_id, amount = prop.mint_nft(
        caller, int(params["id"]), int(params["price"]), value,
        registry=state.registry, native=state.native,
        paused=state.factory.paused)
    return {"id": token_id, "amount": amount}, []


def _ex_mint_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    ids, amounts = prop.mint_batch(
        caller, [int(i) for i in params["ids"]],
        [int(a) for a in params["amounts"]],
        [int(p) for p in params["prices"]], value,
        registry=state.registry, native=state.native,
        paused=state.factory.paused)
    return {"ids": ids, "amounts": amounts}, []


def _ex_mint_fractional(state, caller, params, value):
    prop = state.property_at(params["property"])
    frac_id = prop.mint_fractional(
        caller, int(params["rightId"]), int(params["units"]),
        int(params["pricePerUnit"]), registry=state.registry,
        paused=state.factory.paused)
    return {"id": frac_id, "units": int(params["units"])}, []


def _ex_transfer_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.transfer_nft(caller, params["to"], int(params["id"]),
                      int(params["amount"]), value, native=state.native)
    return {}, []


def _ex_burn_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.burn_nft(caller, params["from"], int(params["id"]),
                  int(params["amount"]))
    return {}, []


def _ex_burn_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.burn_batch(caller, params["from"], [int(i) for i in params["ids"]],
                    [int(a) for a in params["amounts"]])
    return {}, []


def _ex_set_price(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.set_price(caller, int(params["id"]), int(params["pricePerUnit"]))
    return {}, []


def _ex_distribute(state, caller, params, value):
    prop = state.property_at(params["property"])
    payouts, remainder = prop.distribute_earnings(
        caller, int(params["rightId"]), int(params["total"]), value,
        native=state.native)
    return {"payouts": payouts, "remainder": remainder}, []


def _ex_set_approval(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.tokens.set_approval_for_all(caller, params["operator"],
                                     bool(params["approved"]))
    return {}, []


def _ex_safe_transfer_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.tokens.safe_transfer_batch(
        caller, params["from"], params["to"],
        [int(i) for i in params["ids"]], [int(a) for a in params["amounts"]])
    return {}, []


def _ex_consent_swap(state, caller, params, value):
    prop = state.property_at(params["property"])
    digest = params["digest"]
    prop.tokens.give_consent(caller, digest)
    return {"digest": digest}, []


def _ex_atomic_swap(state, caller, params, value):
    prop = state.property_at(params["property"])
    party_a, party_b = params["partyA"], params["partyB"]
    if caller not in (party_a, party_b):
        raise err("NotAuthorized", "only a swap party may execute the swap")
    digest = atomic_swap(
        prop.tokens, state.native,
        party_a, [(int(t), int(n)) for t, n in params["legsA"]],
        int(params["valueA"]),
        party_b, [(int(t), int(n)) for t, n in params["legsB"]],
        int(params["valueB"]))
    return {"digest": digest}, []


EXECUTORS = {
    "bootstrapAdmin": _ex_bootstrap_admin,
    "registerStakeholder": _ex_register_stakeholder,
    "removeStakeholder": _ex_remove_stakeholder,
    "transferNative": _ex_transfer_native,
    "faucet": _ex_faucet,
    "putObject": _ex_put_object,
    "buildRightMetadata": _ex_build_metadata,
    "registerDocument": _ex_register_document,
    "approvedProperty": _ex_approved_property,
    "initializeFactory": _ex_initialize_factory,
    "deployProperty": _ex_deploy_property,
    "pause": _ex_pause,
    "unpause": _ex_unpause,
    "authorizeUpgrade": _ex_authorize_upgrade,
    "mintNFT": _ex_mint_nft,
    "mintBatchNFTs": _ex_mint_batch,
    "mintFractional": _ex_mint_fractional,
    "transferNFT": _ex_transfer_nft,
    "burnNFT": _ex_burn_nft,
    "burnBatchNFTs": _ex_burn_batch,
    "setPrice": _ex_set_price,
    "distributeEarnings": _ex_distribute,
    "setApprovalForAll": _ex_set_approval,
    "safeTransferBatch": _ex_safe_transfer_batch,
    "consentSwap": _ex_consent_swap,
    "atomicSwap": _ex_atomic_swap,
}


# the LedgerState components each executor may write; execute copies
# these and shares the rest, so a missing entry breaks atomicity
WRITES = {
    "bootstrapAdmin": ("registry", "native"),
    "registerStakeholder": ("registry", "native"),
    "removeStakeholder": ("registry",),
    "transferNative": ("native",),
    "faucet": ("native",),
    "putObject": ("store",),
    "buildRightMetadata": ("store",),
    "registerDocument": ("properties",),
    "approvedProperty": ("properties",),
    "initializeFactory": ("factory",),
    "deployProperty": ("factory", "properties", "native"),
    "pause": ("factory",),
    "unpause": ("factory",),
    "authorizeUpgrade": ("factory",),
    "mintNFT": ("properties", "native"),
    "mintBatchNFTs": ("properties", "native"),
    "mintFractional": ("properties",),
    "transferNFT": ("properties", "native"),
    "burnNFT": ("properties",),
    "burnBatchNFTs": ("properties",),
    "setPrice": ("properties",),
    "distributeEarnings": ("properties", "native"),
    "setApprovalForAll": ("properties",),
    "safeTransferBatch": ("properties",),
    "consentSwap": ("properties",),
    "atomicSwap": ("properties", "native"),
}
