"""Single-writer node: executes commands atomically and seals blocks.

``execute`` is check-then-apply, in place. Admission types the params
against the op's ``@op`` declaration, checks the caller, the attached
value and the timestamp, and encodes the transaction, fixing the
block's bytes before anything is written; the executor then runs on
the live state and runs all its checks before its first write; the
seal cannot fail, as the decoder pins each block's index and nonce to
its position. So on success exactly one block is appended holding the
operation's transaction (deployments add an event transaction), and a
failure changes nothing and appends nothing. What no command can break
(an active administrator, each contract initialized at its own
address) is checked once, when ``persistence`` decodes a loaded
ledger's section or record. A loaded ``PendingState`` decodes each
section on first use, and each stakeholder and property record of it
(``records.LazyRecords``). Before admission ``execute`` decodes whole
the sections its op declares in ``writes``, and the accounts: what the
checkpoint encodes after the append commits cannot fail. An executor
reads any other section only before its first write, and admission
reads the caller's record, so a record that fails to decode refuses
the command with nothing changed.

``LedgerState.state_dict`` is the one serialization of the state: a
checkpoint's manifest and section files split its default form,
``full_digest`` and ``ledger_digest`` hash it with the object store
(and, for the full digest, the block log) but without ``version`` and
``config``, and snapshots add both the object store and the block log.
``state_pieces`` gives those bytes in three pieces, the blocks' stored
bytes joined undecoded in the middle one (``Chain.joined``, which takes
a loaded log's certified bytes unparsed), and ``state_digest`` hashes
the three.

Replaying a recorded chain from genesis re-executes each block's
command, its first transaction, on a fresh node and must reproduce the
recorded block hashes and the final state digest. ``redo``, the loop
replay runs, also brings a loaded checkpoint up to the tip of its log.
It decodes each command with one parse and one typed test
(``chain.decode_command``) and seals the blob the block records: a
held blob is the canonical encoding of what it decodes to
(``chain.Block``), so it equals a new encoding of a command that records
the status ``execute`` writes; any other blob is encoded again.
"""

import hashlib
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from . import factory as factory_mod
from .addresses import check_address as ADDRESS, derive_address
from .canonical import canonical_json_bytes, sha256_hex
from .chain import (Chain, NativeLedger, Transaction, decode_command,
                    transaction_bytes)
from .errors import LedgerError, err, wrapped
from .factory import Factory, ImplementationVersion
from .identity import AllowlistVerifier, Role, StakeholderRegistry, parse_role
from .records import Records, reader, to_json
from .storage import ObjectStore, build_right_metadata
from .tokens import atomic_swap

STATE_VERSION = 1
# each top-level key of ``LedgerState.state_dict`` -> its value in a state
_STATE_ENCODERS = {
    "version": lambda state: STATE_VERSION,
    "config": lambda state: state.config,
    "accounts": lambda state: to_json(state.native),
    "stakeholders": lambda state: to_json(state.registry),
    "factory": lambda state: to_json(state.factory),
    "properties": lambda state: {a: to_json(p)
                                 for a, p in state.properties.items()},
}
# the ``LedgerState`` attributes an executor may change
SECTIONS = frozenset(("native", "registry", "store", "factory", "properties"))
NATIVE = frozenset(("native",))  # the accounts, which every checkpoint holds


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
                   keys=tuple(_STATE_ENCODERS)) -> dict:
        """The one serialization of the state; a checkpoint splits the
        default form. Only the top-level `keys` are encoded."""
        d = {key: _STATE_ENCODERS[key](self) for key in keys}
        if objects:
            d["objects"] = {k: v.hex() for k, v in
                            sorted(self.store.read_all().items())}
        return d

    def decode(self, names=None):
        """Nothing to do: a state built in memory holds every section."""


class PendingState(LedgerState):
    """A loaded ``LedgerState`` whose sections are decoded on first use.
    `pending` maps the attribute of each section not yet decoded to
    ``(decode, raw)``: ``decode(raw)`` checks the section and returns its
    attributes and the ``LazyRecords`` among them, which read each record
    on first use too; `lazy` maps each decoded attribute to those of its
    section. Once every section and record is decoded the state is a
    plain ``LedgerState`` again, so the attribute reads of ``execute``
    pay for no ``__getattr__``."""

    def __init__(self, pending: dict, **attrs):
        vars(self).update(attrs, pending=pending, lazy={})

    def __getattr__(self, name):  # only an attribute not yet set gets here
        pending = vars(self).get("pending", {})
        if name not in pending:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        decode, raw = pending[name]
        attrs, lazy = decode(raw)
        vars(self).update(attrs)
        for key in attrs:
            del pending[key]
            self.lazy[key] = lazy
        self._settle()
        return attrs[name]

    def decode(self, names=None):
        """Decode each section of `names`, every one by default, whole:
        the section, and each record of it not yet read."""
        for name in [name for name in (*self.pending, *self.lazy)
                     if names is None or name in names]:  # a fixed order
            getattr(self, name)
            for records in vars(self).get("lazy", {}).get(name, ()):
                records.read_all()  # none left once the state is settled
        if type(self) is PendingState:
            self._settle()

    def _settle(self):
        if not self.pending and all(
                type(records) is Records
                for lazy in self.lazy.values() for records in lazy):
            del self.pending, self.lazy
            self.__class__ = LedgerState


def state_pieces(d: dict, chain: Chain) -> tuple:
    """The bytes of ``canonical_json_bytes(d | {"chain": chain.to_dict()})``
    in three pieces, without decoding a block: the keys of `d` that sort
    before "chain", every block's ``Block.canonical_json()`` joined once
    (``Chain.joined``), then the keys after."""
    head = canonical_json_bytes({k: v for k, v in d.items() if k < "chain"})
    tail = canonical_json_bytes({k: v for k, v in d.items() if k > "chain"})
    return (head[:-1] + (b"," if len(head) > 2 else b"")
            + b'"chain":{"blocks":[', chain.joined(),
            b"]}" + (b"," if len(tail) > 2 else b"") + tail[1:])


def state_digest(d: dict, chain: Chain) -> str:
    """SHA-256 of ``state_pieces(d, chain)``, fed piece by piece."""
    h = hashlib.sha256()
    for piece in state_pieces(d, chain):
        h.update(piece)
    return h.hexdigest()


class Node:
    def __init__(self, state: LedgerState = None):
        self.state = state if state is not None else LedgerState()
        self.changed = set()  # the SECTIONS ops since a checkpoint declare

    # -- digests ------------------------------------------------------------

    def _digest(self, chain: bool) -> str:
        # version and config stay out: operational knobs must not shift
        # state digests
        d = self.state.state_dict(objects=True)
        del d["version"], d["config"]
        return (state_digest(d, self.state.chain) if chain
                else sha256_hex(canonical_json_bytes(d)))

    def full_digest(self) -> str:
        return self._digest(chain=True)

    def ledger_digest(self) -> str:
        """State digest without the block log; upgrades and other logged
        no-ops leave this unchanged."""
        return self._digest(chain=False)

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
            chain.held.clear()  # no genesis without its administrator
            raise
        return result["address"]

    # -- execution -------------------------------------------------------------

    def execute(self, caller: str, operation: str, params: dict,
                value: int = 0, timestamp: int = 0, *,
                recorded: bytes = None) -> dict:
        """Admit the command, run its executor on the live state and seal
        its block, with the blob ``redo`` passes as `recorded` if any; a
        failure raises before anything is written."""
        state = self.state
        decl = OPS.get(operation)
        if decl is None:
            raise err("ParseError", f"unknown operation {operation!r}")
        if type(state) is not LedgerState:  # decode, whole, what the
            state.decode(decl.writes | NATIVE)  # checkpoint will encode
        if type(params) is not dict:
            raise err("ParseError", f"{operation} params are not an object")
        if not params.keys() >= decl.required:
            key = min(decl.required - params.keys())
            raise err("ParseError", f"{operation} lacks param {key!r}")
        try:
            for key, x in params.items():
                decl.params[key](x)
        except KeyError:  # an undeclared key: no reader raises KeyError
            raise err("ParseError",
                      f"{operation} has no param {key!r}") from None
        except LedgerError as exc:
            raise err("ParseError",
                      f"{operation} param {key!r}: {exc.message}") from None
        if not state.chain.held:
            raise err("Uninitialized", "no genesis block; run init first")
        if type(value) is not int or value < 0:
            raise err("ParseError", f"attached value {value!r} is no int >= 0")
        if value and not decl.payable:
            raise err("UnexpectedValue",
                      f"{operation} does not accept attached value")
        _check_timestamp(timestamp)
        if operation == "bootstrapAdmin":
            if state.registry.stakeholders:
                raise err("NotAuthorized",
                          "bootstrap only works on an empty registry")
        elif not state.registry.is_active(caller):
            raise err("NotAuthorized",
                      f"{caller} is not an active stakeholder")
        # the block's bytes are fixed before anything is written
        try:  # a value nested in a param that JSON cannot hold
            blob = recorded or transaction_bytes(
                caller, operation, params, value)
        except (TypeError, ValueError, RecursionError) as exc:
            raise err("ParseError", f"{operation} params: {exc}") from None
        result, events = EXECUTORS[operation](state, caller, params, value)
        self.changed |= decl.writes
        state.chain.append_block([blob, *map(
            Transaction.canonical_bytes, events)] if events else [blob],
            timestamp)
        return result

    # -- replay -----------------------------------------------------------------

    def replay(self) -> "Node":
        """Re-execute the recorded chain from genesis on a fresh node.

        Returns the rebuilt node; raises as ``redo`` does.
        """
        fresh = Node.from_log(self.state.chain.blocks)
        fresh.state.config = dict(self.state.config)
        return fresh

    @classmethod
    def from_log(cls, blocks: list, state: LedgerState = None) -> "Node":
        """A node on `state`, a fresh one by default, that re-executes the
        recorded `blocks` from genesis; raises as ``redo`` does."""
        if not blocks:
            raise err("Uninitialized", "nothing to replay")
        fresh = cls(state)
        fresh.state.chain.append_genesis(blocks[0].timestamp)
        if fresh.state.chain.blocks[0].hash != blocks[0].hash:
            raise err("HashMismatch", "genesis block differs")
        fresh.redo(blocks[1:])
        return fresh

    def redo(self, blocks: list):
        """Re-execute the recorded `blocks`, which follow this node's tip.

        Recorded registrations are trusted: no allowlist applies, as the
        list that approved them may have changed since. Raises
        HashMismatch if a re-executed block's hash differs from the
        recorded one, and CorruptSnapshot if a block's command cannot be
        decoded or admission refuses it; a raise leaves this node part
        way through `blocks`.
        """
        config = self.state.config
        self.state.config = dict(config, allowlist=None)
        try:
            for block in blocks:
                self._redo_block(block)
        finally:
            self.state.config = config

    def _redo_block(self, block):
        """Re-execute `block`'s command, decoded by ``decode_command``,
        sealing the blob it records if that is the command's encoding."""
        if not block.data:
            raise err("CorruptSnapshot", f"block {block.index} is empty")
        try:  # not JSON, too deep to parse, or a record the codec refuses
            tx, held = decode_command(block.data[0])
        except (ValueError, RecursionError, LedgerError) as exc:
            raise wrapped("CorruptSnapshot", f"block {block.index} holds a "
                          "malformed transaction", exc) from exc
        try:  # a held blob of execute's status is its command's encoding
            self.execute(tx.caller, tx.operation, tx.params, tx.attached_value,
                         block.timestamp, recorded=block.data[0] if held and
                         tx.result_status == "success" else None)
        except LedgerError as exc:
            if exc.code != "ParseError":
                raise
            raise err("CorruptSnapshot", f"block {block.index} holds a "
                      f"malformed transaction: {exc.message}") from exc
        if self.state.chain.held[-1].hash != block.hash:
            raise err("HashMismatch",
                      f"block {block.index} hash diverged on replay")


def _check_timestamp(timestamp: int):
    # a block header stores it as 8 unsigned bytes
    if type(timestamp) is not int or not 0 <= timestamp < 2 ** 64:
        raise err("ParseError", f"timestamp {timestamp!r} is not a u64")


# -- op declarations --------------------------------------------------------

# params: name -> reader; writes: the SECTIONS the executor may change
Op = namedtuple("Op", "payable params required writes")
MAX_NESTING = 64  # the levels of lists and objects a param may nest
BOOL, BYTES, DICTS, INT, INTS, STR = map(reader, (
    bool, bytes, list[dict], int, list[int], str))
OPS = {}        # op -> Op
EXECUTORS = {}  # op -> executor, looked up on every call


def op(name, /, payable=False, optional=(), writes=SECTIONS, **required):
    """Declare the executor of op `name`: whether a command may attach
    value, and each param's reader, which refuses a value of another exact
    type; `optional` maps the params a command may leave out to theirs.
    `writes` names the ``LedgerState`` sections the executor may change,
    which ``Node.execute`` adds to ``Node.changed``; an op that names none
    counts as changing every one."""
    def declare(executor):
        OPS[name] = Op(payable, required | dict(optional), frozenset(required),
                       frozenset(writes) or SECTIONS)
        EXECUTORS[name] = executor
        return executor
    return declare


def _legs(value):  # a swap side: [[token id, amount], ...]
    if type(value) is not list or any(
            type(leg) is not list or list(map(type, leg)) != [int, int]
            for leg in value):
        raise err("ParseError", f"expected legs, got {value!r:.60}")


def _documents(value):  # [{"link": cid, "name": ..., ...}, ...]
    for doc in DICTS(value):
        for key in ("link", "name", "description"):
            if key in doc and type(doc[key]) is not str:
                raise err("ParseError", f"expected a str document {key}, "
                          f"got {doc[key]!r:.60}")


def _shallow(check):
    """The param reader `check`, then a refusal of a value whose lists
    and objects nest more than MAX_NESTING deep: every reader of the
    history parses and encodes a block's values, each level one frame
    deeper, and must stay clear of the interpreter's recursion limit."""
    def read_shallow(value):
        check(value)
        level, depth = [value], 0
        while level := [v for v in level if type(v) in (dict, list)]:
            depth += 1
            if depth > MAX_NESTING:
                raise err("ParseError", "lists and objects nested more "
                          f"than {MAX_NESTING} deep")
            level = [x for v in level
                     for x in (v.values() if type(v) is dict else v)]
    return read_shallow


# -- executors ------------------------------------------------------------------
# each returns (result dict, extra event transactions)


@op("bootstrapAdmin", publicKey=BYTES, optional={"infoCid": STR},
    writes=("registry", "native"))
def _ex_bootstrap_admin(state, caller, params, value):
    key = bytes.fromhex(params["publicKey"])
    # the operator seats the first administrator; no allowlist applies
    address = state.registry.register(
        caller, Role.ADMINISTRATOR, key, params.get("infoCid", ""),
        bootstrap=True)
    state.native.ensure_account(address)
    return {"address": address}, []


@op("registerStakeholder", role=STR, publicKey=BYTES,
    optional={"infoCid": STR}, writes=("registry", "native"))
def _ex_register_stakeholder(state, caller, params, value):
    key = bytes.fromhex(params["publicKey"])
    role = parse_role(params["role"])
    path = state.config.get("allowlist")
    address = state.registry.register(
        caller, role, key, params.get("infoCid", ""),
        verifier=AllowlistVerifier(path) if path else None)
    state.native.ensure_account(address)
    return {"address": address}, []


@op("removeStakeholder", target=ADDRESS, writes=("registry",))
def _ex_remove_stakeholder(state, caller, params, value):
    state.registry.remove(caller, params["target"])
    return {}, []


@op("transferNative", to=ADDRESS, amount=INT, writes=("native",))
def _ex_transfer_native(state, caller, params, value):
    state.native.transfer(caller, params["to"], params["amount"])
    return {}, []


@op("faucet", to=ADDRESS, amount=INT, writes=("native",))
def _ex_faucet(state, caller, params, value):
    # the faucet is the only supply source; administrators only
    if not state.registry.is_active_admin(caller):
        raise err("NotAuthorized", f"{caller} is not an active administrator")
    state.native.credit(params["to"], params["amount"])
    return {}, []


@op("putObject", dataHex=BYTES, writes=("store",))
def _ex_put_object(state, caller, params, value):
    cid = state.store.put(bytes.fromhex(params["dataHex"]))
    return {"cid": cid}, []


@op("buildRightMetadata", nameOfRight=STR, optional={
    "description": STR, "documents": _shallow(_documents),
    "extra": _shallow(reader(Optional[dict]))}, writes=("store",))
def _ex_build_metadata(state, caller, params, value):
    cid = build_right_metadata(
        state.store, params["nameOfRight"], params.get("description", ""),
        params.get("documents", []), params.get("extra"))
    return {"cid": cid}, []


@op("registerDocument", property=STR, cid=STR, writes=("properties",))
def _ex_register_document(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.register_document(caller, params["cid"], registry=state.registry,
                           store=state.store)
    return {"documents": len(prop.documents)}, []


@op("approvedProperty", property=STR, parentHash=BYTES,
    writes=("properties",))
def _ex_approved_property(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.approved_property(caller, bytes.fromhex(params["parentHash"]),
                           registry=state.registry)
    return {"approved": True}, []


@op("initializeFactory", versionId=INT, optional={
    "behaviorTag": STR, "admin": ADDRESS, "upgrader": ADDRESS},
    writes=("factory",))
def _ex_initialize_factory(state, caller, params, value):
    if not state.registry.is_active_admin(caller):
        raise err("NotAuthorized", f"{caller} is not an active administrator")
    state.factory.initialize(
        ImplementationVersion(params["versionId"],
                              params.get("behaviorTag", "base")),
        admin=params.get("admin", caller),
        upgrader=params.get("upgrader", caller))
    return {"factory": state.factory.address}, []


@op("deployProperty", treasury=ADDRESS, upgrader=ADDRESS, admin=ADDRESS,
    uri=STR, optional={"contractName": STR, "description": STR},
    writes=("factory", "properties", "native"))
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


@op("pause", writes=("factory",))
def _ex_pause(state, caller, params, value):
    state.factory.pause(caller)
    return {"paused": True}, []


@op("unpause", writes=("factory",))
def _ex_unpause(state, caller, params, value):
    state.factory.unpause(caller)
    return {"paused": False}, []


@op("authorizeUpgrade", versionId=INT, optional={"behaviorTag": STR},
    writes=("factory",))
def _ex_authorize_upgrade(state, caller, params, value):
    state.factory.authorize_upgrade(
        caller, ImplementationVersion(params["versionId"],
                                      params.get("behaviorTag", "base")))
    return {"version": to_json(state.factory.logic)}, []


@op("mintNFT", payable=True, property=STR, id=INT, price=INT,
    optional={"data": STR}, writes=("properties", "native"))
def _ex_mint_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    token_id, amount = prop.mint_nft(
        caller, params["id"], params["price"], value,
        registry=state.registry, native=state.native,
        paused=state.factory.paused)
    return {"id": token_id, "amount": amount}, []


@op("mintBatchNFTs", payable=True, property=STR, ids=INTS,
    amounts=INTS, prices=INTS, optional={"data": STR},
    writes=("properties", "native"))
def _ex_mint_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    ids, amounts = prop.mint_batch(
        caller, params["ids"], params["amounts"], params["prices"], value,
        registry=state.registry, native=state.native,
        paused=state.factory.paused)
    return {"ids": ids, "amounts": amounts}, []


@op("mintFractional", property=STR, rightId=INT, units=INT, pricePerUnit=INT,
    writes=("properties",))
def _ex_mint_fractional(state, caller, params, value):
    prop = state.property_at(params["property"])
    frac_id = prop.mint_fractional(
        caller, params["rightId"], params["units"], params["pricePerUnit"],
        registry=state.registry, paused=state.factory.paused)
    return {"id": frac_id, "units": params["units"]}, []


@op("transferNFT", payable=True, property=STR, to=ADDRESS, id=INT,
    amount=INT, optional={"data": STR}, writes=("properties", "native"))
def _ex_transfer_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.transfer_nft(caller, params["to"], params["id"], params["amount"],
                      value, native=state.native)
    return {}, []


@op("burnNFT", property=STR, id=INT, amount=INT, **{"from": ADDRESS},
    writes=("properties",))
def _ex_burn_nft(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.burn_nft(caller, params["from"], params["id"], params["amount"])
    return {}, []


@op("burnBatchNFTs", property=STR, ids=INTS, amounts=INTS, **{"from": ADDRESS},
    writes=("properties",))
def _ex_burn_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.burn_batch(caller, params["from"], params["ids"], params["amounts"])
    return {}, []


@op("setPrice", property=STR, id=INT, pricePerUnit=INT,
    writes=("properties",))
def _ex_set_price(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.set_price(caller, params["id"], params["pricePerUnit"])
    return {}, []


@op("distributeEarnings", payable=True, property=STR, rightId=INT, total=INT,
    writes=("properties", "native"))
def _ex_distribute(state, caller, params, value):
    prop = state.property_at(params["property"])
    payouts, remainder = prop.distribute_earnings(
        caller, params["rightId"], params["total"], value,
        native=state.native)
    return {"payouts": payouts, "remainder": remainder}, []


@op("setApprovalForAll", property=STR, operator=ADDRESS, approved=BOOL,
    writes=("properties",))
def _ex_set_approval(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.tokens.set_approval_for_all(caller, params["operator"],
                                     params["approved"])
    return {}, []


@op("safeTransferBatch", property=STR, to=ADDRESS, ids=INTS,
    amounts=INTS, **{"from": ADDRESS}, writes=("properties",))
def _ex_safe_transfer_batch(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.tokens.safe_transfer_batch(caller, params["from"], params["to"],
                                    params["ids"], params["amounts"])
    return {}, []


@op("consentSwap", property=STR, digest=BYTES, writes=("properties",))
def _ex_consent_swap(state, caller, params, value):
    prop = state.property_at(params["property"])
    prop.tokens.give_consent(caller, params["digest"])
    return {"digest": params["digest"]}, []


@op("atomicSwap", property=STR, partyA=ADDRESS, legsA=_legs, valueA=INT,
    partyB=ADDRESS, legsB=_legs, valueB=INT, writes=("properties", "native"))
def _ex_atomic_swap(state, caller, params, value):
    prop = state.property_at(params["property"])
    party_a, party_b = params["partyA"], params["partyB"]
    if caller not in (party_a, party_b):
        raise err("NotAuthorized", "only a swap party may execute the swap")
    digest = atomic_swap(
        prop.tokens, state.native, party_a, params["legsA"], params["valueA"],
        party_b, params["legsB"], params["valueB"])
    return {"digest": digest}, []
