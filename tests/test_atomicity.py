"""Atomicity and O(history) cost of Node.execute, checked without timing.

``Node.execute`` runs each command in place on the live state, so every
way a command can fail must fail before its first write. Every op gets
a case whose executor succeeds; each of its params is then dropped, set
to a value of another type or out of range, or joined by an extra key.
Admission refuses a missing, extra or mistyped param as ParseError;
anything else may fail only as a LedgerError, and a failure must leave
the ledger exactly as it was. The seal that follows the executor must
not fail at all: its command encoding runs before the executor, and a
block log whose next header would overflow is refused when it is
decoded. A successful op must append to the very same Chain and copy
none of its earlier blocks.

Every op also gets a case its executor rejects. Run straight against
the live state, the rejection must leave the digest unchanged: each
executor checks everything before it writes.

Replaying each op's success case must reproduce every block hash and
the full digest, with each command sealed as the blob its block
records. Each sealed blob, command or event, equals the record codec's
``canonical_json_bytes(to_json(Transaction(...)))``, for every op's
success case and for drawn params.

Random op sequences, from the market and from a genesis-only ledger,
check before they write and reach success at the ops they once missed.
"""

import copy
import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ADMIN_KEY, BUYER_KEY, SELLER_KEY, TREASURY, URI,
                      add_doc, approve, deploy, register)
from estateledger import node as node_mod
from estateledger.addresses import ZERO_ADDRESS, check_address, derive_address
from estateledger.canonical import canonical_json_bytes
from estateledger.chain import Transaction, transaction_bytes
from estateledger.errors import LedgerError
from estateledger.node import (EXECUTORS, OPS, SECTIONS, LedgerState, Node,
                               state_digest)
from estateledger.persistence import (export_snapshot, import_snapshot,
                                      load_state, save_state)
from estateledger.records import reader, to_json
from estateledger.storage import make_cid
from estateledger.tokens import fractional_of, is_right, swap_descriptor_digest

from oracles import ref_state_bytes

FRAC1 = fractional_of(1)
NEW_KEY = b"newcomer-key"
SWAP = dict(legs_a=[[FRAC1, 10]], value_a=0, legs_b=[], value_b=5)


def _swap_digest(n):
    return swap_descriptor_digest(n.seller, SWAP["legs_a"], SWAP["value_a"],
                                  n.buyer, SWAP["legs_b"], SWAP["value_b"])


def _consent_both(n):
    for party in (n.seller, n.buyer):
        n.execute(party, "consentSwap",
                  {"property": n.prop, "digest": _swap_digest(n)},
                  timestamp=3000)


def _pause(n):
    n.execute(n.admin, "pause", {}, timestamp=3000)


def _mint_right_2(n):
    n.execute(n.seller, "mintNFT", {"property": n.prop, "id": 2, "data": "",
                                    "price": 0}, timestamp=3000)


# op -> (caller attribute, params builder, attached value, precondition)
CASES = {
    "registerStakeholder": ("admin", lambda n: {
        "role": "Buyer", "publicKey": NEW_KEY.hex(), "infoCid": ""}, 0, None),
    "removeStakeholder": ("admin", lambda n: {"target": n.buyer}, 0, None),
    "transferNative": ("seller", lambda n: {"to": n.buyer, "amount": 10},
                       0, None),
    "faucet": ("admin", lambda n: {"to": n.buyer, "amount": 10}, 0, None),
    "putObject": ("seller", lambda n: {"dataHex": b"fresh object".hex()},
                  0, None),
    "buildRightMetadata": ("seller", lambda n: {
        "nameOfRight": "title", "description": "d", "documents": [
            {"name": "deed", "link": make_cid(b"deed of the house")}],
        "extra": {"appraisal": 1}}, 0, None),
    "registerDocument": ("seller", lambda n: {
        "property": n.prop, "cid": make_cid(b"deed of the house")}, 0, None),
    "approvedProperty": ("admin", lambda n: {
        "property": n.prop,
        "parentHash": n.state.properties[n.prop].document_root().hex()},
        0, None),
    "deployProperty": ("seller", lambda n: {
        "treasury": TREASURY, "upgrader": n.admin, "admin": n.admin,
        "uri": URI, "contractName": "Shed", "description": "a shed"},
        0, None),
    "pause": ("admin", lambda n: {}, 0, None),
    "unpause": ("admin", lambda n: {}, 0, _pause),
    "authorizeUpgrade": ("admin", lambda n: {
        "versionId": 2, "behaviorTag": "v2"}, 0, None),
    "mintNFT": ("seller", lambda n: {"property": n.prop, "id": 2, "data": "",
                                     "price": 5}, 5, None),
    "mintBatchNFTs": ("seller", lambda n: {
        "property": n.prop, "ids": [2, 3], "amounts": [1, 1], "data": "",
        "prices": [1, 1]}, 2, None),
    "mintFractional": ("seller", lambda n: {
        "property": n.prop, "rightId": 2, "units": 10, "pricePerUnit": 1},
        0, _mint_right_2),
    "transferNFT": ("buyer", lambda n: {
        "property": n.prop, "to": n.buyer, "id": FRAC1, "amount": 5,
        "data": ""}, 10, None),
    "burnNFT": ("seller", lambda n: {"property": n.prop, "from": n.seller,
                                     "id": FRAC1, "amount": 3}, 0, None),
    "burnBatchNFTs": ("seller", lambda n: {
        "property": n.prop, "from": n.seller, "ids": [FRAC1, FRAC1],
        "amounts": [1, 2]}, 0, None),
    "setPrice": ("seller", lambda n: {"property": n.prop, "id": FRAC1,
                                      "pricePerUnit": 7}, 0, None),
    "distributeEarnings": ("seller", lambda n: {
        "property": n.prop, "rightId": 1, "total": 100}, 100, None),
    "setApprovalForAll": ("seller", lambda n: {
        "property": n.prop, "operator": n.buyer, "approved": True}, 0, None),
    "safeTransferBatch": ("seller", lambda n: {
        "property": n.prop, "from": n.seller, "to": n.buyer,
        "ids": [FRAC1, FRAC1], "amounts": [4, 6]}, 0, None),
    "consentSwap": ("seller", lambda n: {"property": n.prop,
                                         "digest": _swap_digest(n)}, 0, None),
    "atomicSwap": ("buyer", lambda n: {
        "property": n.prop, "partyA": n.seller, "partyB": n.buyer,
        "legsA": SWAP["legs_a"], "legsB": SWAP["legs_b"],
        "valueA": SWAP["value_a"], "valueB": SWAP["value_b"]},
        0, _consent_both),
}


@pytest.fixture(scope="module")
def market():
    """A fractionalized, listed property; shared, copied per case."""
    n = Node()
    admin = n.init_genesis(ADMIN_KEY, timestamp=1000)
    n.seller = register(n, admin, "Seller", SELLER_KEY, 1001)
    n.buyer = register(n, admin, "Buyer", BUYER_KEY, 1002)
    n.admin = admin
    n.execute(admin, "faucet", {"to": n.seller, "amount": 2000},
              timestamp=1003)
    n.execute(admin, "faucet", {"to": n.buyer, "amount": 1000},
              timestamp=1004)
    n.execute(admin, "initializeFactory",
              {"versionId": 1, "behaviorTag": "base"}, timestamp=1005)
    n.prop = deploy(n)
    add_doc(n, n.prop, b"deed of the house")
    approve(n, n.prop)
    n.execute(n.seller, "mintNFT", {"property": n.prop, "id": 1, "data": "",
                                    "price": 0}, timestamp=1009)
    n.execute(n.seller, "mintFractional",
              {"property": n.prop, "rightId": 1, "units": 1000,
               "pricePerUnit": 2}, timestamp=1010)
    return n


def _prepared(market, op):
    """(node, caller, params, value) for one op whose executor succeeds."""
    if op == "bootstrapAdmin":
        n = Node()
        n.state.chain.append_genesis(1000)
        return (n, derive_address(ADMIN_KEY),
                {"publicKey": ADMIN_KEY.hex(), "infoCid": ""}, 0)
    if op == "initializeFactory":
        n = Node()
        admin = n.init_genesis(ADMIN_KEY, timestamp=1000)
        return n, admin, {"versionId": 1, "behaviorTag": "base"}, 0
    n = copy.deepcopy(market)
    who, params, value, before = CASES[op]
    if before is not None:
        before(n)
    return n, getattr(n, who), params(n), value


def test_every_op_has_a_case():
    assert set(CASES) | {"bootstrapAdmin", "initializeFactory"} \
        == set(EXECUTORS)


# each param of a case is dropped, and set to each of these in turn
VARIANTS = (None, "x", True, 1.5, [], {}, -1, 2 ** 300)


def _variants(op, params):
    """(params, whether admission must refuse them as ParseError): `params`
    with one param missing or set to a VARIANTS value, for each param, then
    with an extra key. A value of the param's own type, or the absence of
    a param the op declares optional, may pass admission; an address or
    hex param in upper case with a newline may not, nor an object nested
    in a param whose keys are not all strings."""
    for key, good in params.items():
        yield ({k: v for k, v in params.items() if k != key},
               key in OPS[op].required)
        for bad in VARIANTS:  # `extra` is the one param that may be null
            yield params | {key: bad}, type(bad) is not type(good) and (
                bad is not None or key != "extra")
        if OPS[op].params[key] in (check_address, reader(bytes)):
            yield params | {key: good.upper() + "\n"}, True
        if type(good) is dict:
            yield params | {key: {1: 0, "a": 0}}, True
        elif type(good) is list and dict in map(type, good):
            yield params | {key: [{1: 0, "a": 0}]}, True
    yield params | {"memo": 1}, True


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_failed_op_leaves_no_trace(market, op):
    n, caller, good, value = _prepared(market, op)
    for params, refused in _variants(op, good):
        before = n.full_digest(), len(n.state.chain.blocks)
        try:
            n.execute(caller, op, params, value=value, timestamp=4000)
        except LedgerError as e:  # never another exception
            assert e.code == "ParseError" or not refused, (params, e)
            assert (n.full_digest(), len(n.state.chain.blocks)) == before, \
                params
        else:  # the ledger changed: the next variant starts afresh
            assert not refused, params
            n = _prepared(market, op)[0]


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_failed_seal_after_executor_leaves_no_trace(market, op, monkeypatch):
    n, caller, params, value = _prepared(market, op)
    before = n.full_digest(), len(n.state.chain.blocks)
    ran = []
    executor = EXECUTORS[op]
    monkeypatch.setitem(EXECUTORS, op,
                        lambda *args: ran.append(op) or executor(*args))

    def failing_encode(*fields):
        raise RuntimeError("injected seal failure")

    # the command's encoding fails before its executor runs
    with monkeypatch.context() as m:
        m.setattr(node_mod, "transaction_bytes", failing_encode)
        with pytest.raises(RuntimeError, match="injected seal failure"):
            n.execute(caller, op, params, value=value, timestamp=4000)
    assert ran == []
    assert (n.full_digest(), len(n.state.chain.blocks)) == before
    # a last block whose successor's header would overflow never loads
    snapshot = export_snapshot(n)
    blocks = snapshot["chain"]["blocks"]
    for key in ("index", "nonce"):
        last = blocks[-1] | {key: 2 ** 64 - 1}
        with pytest.raises(LedgerError, match="records index") as e:
            import_snapshot(snapshot | {"chain": {"blocks": blocks[:-1]
                                                  + [last]}})
        assert e.value.code == "CorruptSnapshot"
    # unhindered, the very same command succeeds
    n.execute(caller, op, params, value=value, timestamp=4000)
    assert ran == [op]
    assert len(n.state.chain.blocks) == before[1] + 1


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_success_appends_to_the_same_chain(market, op):
    n, caller, params, value = _prepared(market, op)
    chain = n.state.chain
    blocks = list(chain.blocks)
    n.execute(caller, op, params, value=value, timestamp=4000)
    assert n.state.chain is chain
    assert len(chain.blocks) == len(blocks) + 1
    assert all(a is b for a, b in zip(chain.blocks, blocks))


# -- executors check before they write ------------------------------------------

BIG = 10 ** 6  # more than anyone in the market holds
UNFUNDED = dict(legs_a=[[FRAC1, 10]], value_a=0, legs_b=[], value_b=BIG)


def _consent_unfunded(n):
    digest = swap_descriptor_digest(n.seller, UNFUNDED["legs_a"], 0,
                                    n.buyer, [], BIG)
    for party in (n.seller, n.buyer):
        n.execute(party, "consentSwap",
                  {"property": n.prop, "digest": digest}, timestamp=3000)


# op -> (caller attribute, params builder, attached value, precondition,
# the code the executor raises, at or near its last check)
REJECTIONS = {
    "bootstrapAdmin": ("admin", lambda n: {
        "publicKey": ADMIN_KEY.hex(), "infoCid": ""}, 0, None, "DuplicateKey"),
    "registerStakeholder": ("admin", lambda n: {
        "role": "Buyer", "publicKey": SELLER_KEY.hex(), "infoCid": ""},
        0, None, "DuplicateKey"),
    "removeStakeholder": ("admin", lambda n: {"target": n.admin}, 0, None,
                          "LastAdministrator"),
    "transferNative": ("seller", lambda n: {"to": n.buyer, "amount": BIG},
                       0, None, "InsufficientFunds"),
    "faucet": ("admin", lambda n: {
        "to": derive_address(NEW_KEY), "amount": -5}, 0, None, "ParseError"),
    "putObject": ("seller", lambda n: {"dataHex": ""}, 0, None,
                  "EmptyObject"),
    "buildRightMetadata": ("seller", lambda n: {
        "nameOfRight": "title", "description": "d", "documents": [
            {"name": "deed", "link": make_cid(b"never stored")}]},
        0, None, "InvalidDocumentLink"),
    "registerDocument": ("seller", lambda n: {
        "property": n.prop, "cid": make_cid(b"never stored")}, 0, None,
        "NotFound"),
    "approvedProperty": ("admin", lambda n: {
        "property": n.prop, "parentHash": "00" * 32}, 0, None,
        "HashMismatch"),
    "initializeFactory": ("admin", lambda n: {
        "versionId": 2, "behaviorTag": "v2"}, 0, None, "AlreadyInitialized"),
    "deployProperty": ("seller", lambda n: {
        "treasury": ZERO_ADDRESS, "upgrader": n.admin, "admin": n.admin,
        "uri": URI, "contractName": "Shed", "description": "a shed"},
        0, None, "ZeroAddress"),
    "pause": ("admin", lambda n: {}, 0, _pause, "AlreadyPaused"),
    "unpause": ("admin", lambda n: {}, 0, None, "NotPaused"),
    "authorizeUpgrade": ("admin", lambda n: {
        "versionId": 0, "behaviorTag": "v0"}, 0, None, "ParseError"),
    "mintNFT": ("seller", lambda n: {"property": n.prop, "id": 2, "data": "",
                                     "price": 5}, BIG, None,
                "InsufficientFunds"),
    "mintBatchNFTs": ("seller", lambda n: {
        "property": n.prop, "ids": [2, 3], "amounts": [1, 1], "data": "",
        "prices": [1, 1]}, BIG, None, "InsufficientFunds"),
    "mintFractional": ("seller", lambda n: {
        "property": n.prop, "rightId": 2, "units": 10, "pricePerUnit": -1},
        0, _mint_right_2, "ParseError"),
    "transferNFT": ("buyer", lambda n: {
        "property": n.prop, "to": n.buyer, "id": FRAC1, "amount": 5,
        "data": ""}, BIG, None, "InsufficientFunds"),
    "burnNFT": ("seller", lambda n: {"property": n.prop, "from": n.seller,
                                     "id": FRAC1, "amount": BIG}, 0, None,
                "InsufficientBalance"),
    "burnBatchNFTs": ("seller", lambda n: {
        "property": n.prop, "from": n.seller, "ids": [FRAC1, FRAC1],
        "amounts": [600, 600]}, 0, None, "InsufficientBalance"),
    "setPrice": ("buyer", lambda n: {"property": n.prop, "id": FRAC1,
                                     "pricePerUnit": 7}, 0, None,
                 "NotAuthorized"),
    "distributeEarnings": ("seller", lambda n: {
        "property": n.prop, "rightId": 1, "total": BIG}, BIG, None,
        "InsufficientFunds"),
    "setApprovalForAll": ("seller", lambda n: {
        "property": n.prop, "operator": n.seller, "approved": True}, 0, None,
        "SelfApproval"),
    "safeTransferBatch": ("seller", lambda n: {
        "property": n.prop, "from": n.seller, "to": n.buyer,
        "ids": [FRAC1, FRAC1], "amounts": [600, 600]}, 0, None,
        "InsufficientBalance"),
    "consentSwap": ("seller", lambda n: {
        "property": "0x" + "77" * 20, "digest": _swap_digest(n)}, 0, None,
        "NotFound"),
    "atomicSwap": ("buyer", lambda n: {
        "property": n.prop, "partyA": n.seller, "partyB": n.buyer,
        "legsA": UNFUNDED["legs_a"], "legsB": [], "valueA": 0,
        "valueB": BIG}, 0, _consent_unfunded, "InsufficientFunds"),
}


def test_every_op_has_a_rejection_case():
    assert set(REJECTIONS) == set(EXECUTORS)


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_rejecting_executor_writes_nothing(market, op):
    n = copy.deepcopy(market)
    who, params, value, before, code = REJECTIONS[op]
    if before is not None:
        before(n)
    digest = n.full_digest()
    with pytest.raises(LedgerError) as e:
        EXECUTORS[op](n.state, getattr(n, who), params(n), value)
    assert e.value.code == code
    assert n.full_digest() == digest


# -- random op sequences ------------------------------------------------------

SELLER2_KEY, BUYER2_KEY = b"seller-key-2", b"buyer-key-2"
FRAC2 = fractional_of(2)
ADMIN_OPS = {"bootstrapAdmin", "registerStakeholder", "removeStakeholder",
             "faucet", "approvedProperty", "initializeFactory", "pause",
             "unpause", "authorizeUpgrade"}
# every kind, market ops twice; unpause twice, so the factory is paused
# about a third of the time
OP_MIX = sorted(EXECUTORS) + ["mintNFT", "mintBatchNFTs", "mintFractional",
                              "transferNFT", "distributeEarnings",
                              "consentSwap", "atomicSwap", "unpause"]
SELLER_OPS = {"putObject", "buildRightMetadata", "registerDocument",
              "deployProperty", "mintNFT", "mintBatchNFTs", "mintFractional",
              "setPrice", "distributeEarnings"}
# the two ops only a genesis-only ledger admits: the market seats an
# administrator and initializes its factory, after which both must fail
GENESIS_OPS = ("bootstrapAdmin", "initializeFactory")


def _held(n, prop, rights_only) -> list:
    """(holder, token) for each positive balance in `prop` that no
    outstanding fractional unit anchors: a right a holder may fractionalize
    (`rights_only`) or a token a holder may burn."""
    tokens = n.state.properties[prop].tokens
    active = n.state.registry.is_active
    return [(who, token) for token, per in sorted(tokens.balances.items())
            for who, amount in sorted(per.items())
            if amount > 0 and active(who)
            and (is_right(token) or not rights_only)
            and not (is_right(token)
                     and tokens.total_supply(fractional_of(token)))]


def _random_op(rng, n, swaps):
    """(caller, op, params, value) for one random op of any kind, often
    one that fails."""
    op = rng.choice(OP_MIX)
    people = n.people + [n.admin, derive_address(b"stranger")]
    who = rng.choice(people)
    if rng.random() < 0.7:  # mostly a caller the op admits
        who = n.admin if op in ADMIN_OPS else rng.choice(
            n.people[:2] if op in SELLER_OPS else n.people)
    other = rng.choice(n.people * 3 + people + [ZERO_ADDRESS])
    prop = rng.choice([n.prop] * 8 + n.state.factory.proxies
                      + ["0x" + "77" * 20])
    token = rng.choice([1, 2, 3, FRAC1, FRAC1, FRAC2])
    amount = rng.choice([-1, 0, 1, 3, 40, 600])
    value = rng.choice([0, 1, 40, 600, BIG])
    if not OPS[op].payable and rng.random() < 0.9:
        value = 0
    if op in ("bootstrapAdmin", "registerStakeholder"):
        key = rng.choice([b"k1", b"k2", b"k3", SELLER_KEY]).hex()
        params = {"publicKey": key, "infoCid": "",
                  "role": rng.choice(["Buyer", "Seller", "Administrator"])}
    elif op == "removeStakeholder":  # only buyer2 may go
        params = {"target": rng.choice([n.admin, n.buyer2, people[-1]])}
    elif op in ("transferNative", "faucet"):
        params = {"to": other, "amount": amount}
    elif op == "putObject":
        params = {"dataHex": rng.choice([b"", b"deed", b"plan"]).hex()}
    elif op == "buildRightMetadata":
        params = {"nameOfRight": rng.choice(["", "title"]), "documents": [
            {"link": make_cid(rng.choice([b"deed of the house", b"gone"]))}]}
    elif op == "registerDocument":
        params = {"property": prop,
                  "cid": make_cid(rng.choice([b"deed", b"plan", b"gone"]))}
    elif op == "approvedProperty":
        params = {"property": prop, "parentHash": rng.choice(
            [n.state.properties[n.prop].document_root().hex(), "00" * 32])}
    elif op in ("initializeFactory", "authorizeUpgrade"):
        params = {"versionId": rng.choice([0, 2]), "behaviorTag": "v"}
    elif op == "deployProperty":
        params = {"treasury": rng.choice([TREASURY, ZERO_ADDRESS]),
                  "upgrader": n.admin, "admin": n.admin, "uri": URI}
    elif op in ("pause", "unpause"):
        params = {}
    elif op == "mintNFT":
        params = {"property": prop, "id": token, "data": "",
                  "price": rng.choice([-1, 0, 5])}
    elif op == "mintBatchNFTs":
        params = {"property": prop, "ids": [token, rng.choice([2, 3, 4])],
                  "amounts": [1, rng.choice([1, 2])], "data": "",
                  "prices": [0, rng.choice([-1, 5])]}
    elif op == "mintFractional":
        params = {"property": prop, "rightId": rng.choice([1, 2, 3]),
                  "units": amount, "pricePerUnit": rng.choice([-1, 0, 2])}
    elif op in ("transferNFT", "burnNFT"):
        params = {"property": prop, "from": rng.choice([who, who, other]),
                  "to": other, "id": token, "amount": amount, "data": ""}
    elif op in ("burnBatchNFTs", "safeTransferBatch"):
        params = {"property": prop, "from": rng.choice([who, who, other]),
                  "to": other, "ids": [token, rng.choice([token, FRAC1])],
                  "amounts": [amount, rng.choice([1, 600])]}
    elif op == "setPrice":
        params = {"property": prop, "id": token,
                  "pricePerUnit": rng.choice([-1, 0, 3])}
    elif op == "distributeEarnings":
        params = {"property": prop, "rightId": rng.choice([1, 2]),
                  "total": rng.choice([-1, 7, 100, BIG])}
        value = rng.choice([params["total"], value])
    elif op == "setApprovalForAll":
        params = {"property": prop, "operator": other,
                  "approved": rng.choice([True, False])}
    else:  # consentSwap, atomicSwap
        a, b, legs_a, legs_b, value_a, value_b = rng.choice(swaps)
        who = rng.choice([a, b, who])
        terms = {"partyA": a, "partyB": b, "legsA": legs_a,
                 "legsB": legs_b, "valueA": value_a, "valueB": value_b}
        if op == "consentSwap":
            params = {"property": prop, "digest": swap_descriptor_digest(
                a, legs_a, value_a, b, legs_b, value_b)}
        else:
            params = {"property": prop, **terms}
    # half the time, a right or a token the caller holds, which a burn,
    # a batch transfer or a fractional mint otherwise draws too rarely to
    # reach success
    if (op in ("mintFractional", "burnBatchNFTs", "safeTransferBatch")
            and rng.random() < 0.5):
        held = _held(n, n.prop, rights_only=op == "mintFractional")
        if held:
            who, token = rng.choice(held)
            legs = 1 if is_right(token) else 2  # a right is one unit
            params |= {"property": n.prop, "rightId": token, "from": who,
                       "ids": [token] * legs, "amounts": [1] * legs}
    # half the time, two rights not minted yet, which a batch mint
    # otherwise draws too rarely to reach success
    if op == "mintBatchNFTs" and rng.random() < 0.5:
        tokens = n.state.properties[n.prop].tokens
        params |= {"property": n.prop, "amounts": [1, 1], "prices": [0, 0],
                   "ids": [right for right in range(1, 64)
                           if not tokens.total_supply(right)][:2]}
    # the builders above share keys between ops; each op gets its own
    return who, op, {k: v for k, v in params.items()
                     if k in OPS[op].params}, value


def _genesis_op(rng, n, op):
    """(caller, op, params, value) for `op`, one of GENESIS_OPS, on a
    ledger that holds genesis and whatever of them succeeded before."""
    who = rng.choice(sorted(n.state.registry.stakeholders) * 2
                     + [derive_address(b"stranger")])
    if op == "bootstrapAdmin":
        key = rng.choice([b"", b"k1", ADMIN_KEY])  # an empty key is refused
        return who, op, {"publicKey": key.hex(), "infoCid": ""}, 0
    return who, op, {"versionId": rng.choice([0, 1, 2]),
                     "behaviorTag": "v"}, 0


def _checked_step(n, who, op, params, value, timestamp) -> bool:
    """Run the executor alone on a copy, then the op on `n`: whichever
    fails must leave its digest as it was. Whether the op succeeded."""
    probe = copy.deepcopy(n.state, {id(n.state.chain): n.state.chain})
    digest = Node(probe).full_digest()
    try:
        EXECUTORS[op](probe, who, params, value)
    except LedgerError:
        assert Node(probe).full_digest() == digest, (timestamp, op, params)
    try:
        n.execute(who, op, params, value=value, timestamp=timestamp)
    except LedgerError:
        assert n.full_digest() == digest, (timestamp, op, params)
        return False
    return True


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_sequences_check_before_they_write(market, seed, tmp_path):
    n = copy.deepcopy(market)
    n.seller2 = register(n, n.admin, "Seller", SELLER2_KEY, 2001)
    n.buyer2 = register(n, n.admin, "Buyer", BUYER2_KEY, 2002)
    n.people = [n.seller, n.seller2, n.buyer, n.buyer2]  # sellers first
    minted = 2000 + 1000  # the market fixture's faucet ops
    for who in (n.seller2, n.buyer2):
        n.execute(n.admin, "faucet", {"to": who, "amount": 500},
                  timestamp=2003)
        minted += 500
    # two rights no draw mints, held unfractionalized for a fractional mint
    for who, right in ((n.seller, 5), (n.seller2, 6)):
        n.execute(who, "mintNFT", {"property": n.prop, "id": right,
                                   "price": 0}, timestamp=2004)
    swaps = [(n.seller, n.buyer, [[FRAC1, 10]], [], 0, 5),
             (n.buyer, n.seller2, [[FRAC1, 1]], [], 0, BIG),
             (n.seller2, n.buyer2, [], [[FRAC1, 600]], 40, 0)]
    rng = random.Random(seed)
    failed, succeeded = set(), set()
    # a short prefix from genesis, where the GENESIS_OPS can succeed
    g = Node()
    g.state.chain.append_genesis(1000)
    for step in range(12):
        who, op, params, value = _genesis_op(rng, g, GENESIS_OPS[step % 2])
        if _checked_step(g, who, op, params, value, 1001 + step):
            succeeded.add(op)
    assert g.replay().full_digest() == g.full_digest()
    for step in range(400):
        if step % 50 == 0:  # the decoder accepts every state ops reach
            assert import_snapshot(export_snapshot(n)).full_digest() \
                == n.full_digest()
        who, op, params, value = _random_op(rng, n, swaps)
        if not _checked_step(n, who, op, params, value, 3000 + step):
            failed.add(op)
            continue
        succeeded.add(op)
        if op == "faucet":
            minted += params["amount"]
    assert len(failed) >= 20  # most kinds were seen failing
    # the kinds these draws once never reached succeed now
    assert {"mintFractional", "burnBatchNFTs", "mintBatchNFTs",
            "safeTransferBatch", *GENESIS_OPS} <= succeeded
    assert n.replay().full_digest() == n.full_digest()
    d = n.state.state_dict(objects=True)
    assert state_digest(d, n.state.chain) == hashlib.sha256(
        ref_state_bytes(d, n.state.chain)).hexdigest()
    save_state(str(tmp_path), n)
    assert load_state(str(tmp_path)).full_digest() == n.full_digest()
    assert sum(n.state.native.accounts.values()) == minted
    for prop in n.state.properties.values():
        tokens = prop.tokens
        assert set(tokens.supplies) == {t for t, per in
                                        tokens.balances.items() if per}
        for token_id, supply in tokens.supplies.items():
            assert supply == sum(tokens.balances[token_id].values())


# -- what each op declares it writes ------------------------------------------


def test_every_op_declares_only_ledger_state_sections():
    fields = {f.name for f in dataclasses.fields(LedgerState)}
    assert SECTIONS <= fields - {"config", "chain"}
    for op, decl in OPS.items():
        assert decl.writes and decl.writes <= SECTIONS, op


def _section_bytes(state) -> dict:
    """Each section an op may write, as canonical bytes."""
    d = state.state_dict()
    return {"native": canonical_json_bytes(d["accounts"]),
            "registry": canonical_json_bytes(d["stakeholders"]),
            "factory": canonical_json_bytes(d["factory"]),
            "properties": canonical_json_bytes(d["properties"]),
            "store": canonical_json_bytes(sorted(state.store.digests()))}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_op_leaves_the_sections_it_does_not_declare_unchanged(
        market, seed):
    """``save_state`` writes back the stored bytes of a checkpoint slice
    no op since declares, so an op must change no section outside its
    ``writes``, byte for byte."""
    n = copy.deepcopy(market)
    n.seller2 = register(n, n.admin, "Seller", SELLER2_KEY, 2001)
    n.buyer2 = register(n, n.admin, "Buyer", BUYER2_KEY, 2002)
    n.people = [n.seller, n.seller2, n.buyer, n.buyer2]  # sellers first
    for who in (n.seller2, n.buyer2):
        n.execute(n.admin, "faucet", {"to": who, "amount": 500},
                  timestamp=2003)
    swaps = [(n.seller, n.buyer, [[FRAC1, 10]], [], 0, 5),
             (n.buyer, n.seller2, [[FRAC1, 1]], [], 0, BIG),
             (n.seller2, n.buyer2, [], [[FRAC1, 600]], 40, 0)]
    rng = random.Random(seed)
    succeeded = set()
    before = _section_bytes(n.state)
    for step in range(400):
        who, op, params, value = _random_op(rng, n, swaps)
        try:
            n.execute(who, op, params, value=value, timestamp=3000 + step)
        except LedgerError:
            continue
        after = _section_bytes(n.state)
        changed = {name for name in after if after[name] != before[name]}
        assert changed <= OPS[op].writes, (step, op, params)
        succeeded.add(op)
        before = after
    assert len(succeeded) >= 12  # many kinds were seen succeeding


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_an_op_that_succeeds_changes_only_the_sections_it_declares(
        market, op):
    n, caller, params, value = _prepared(market, op)
    before = _section_bytes(n.state)
    n.execute(caller, op, params, value=value, timestamp=4000)
    after = _section_bytes(n.state)
    assert {name for name in after if after[name] != before[name]} \
        <= OPS[op].writes


@pytest.mark.parametrize("op", sorted(OPS))
def test_replay_seals_each_op_with_the_bytes_its_block_records(market, op):
    n, caller, params, value = _prepared(market, op)
    n.execute(caller, op, params, value=value, timestamp=4000)
    blocks = n.state.chain.blocks
    # in memory, and from a snapshot's log, whose blobs are re-encoded
    for node in (n, import_snapshot(export_snapshot(n))):
        rebuilt = node.replay()
        assert ([b.hash for b in rebuilt.state.chain.blocks]
                == [b.hash for b in blocks])
        assert rebuilt.full_digest() == n.full_digest()
        # each command is sealed as the very blob its block records;
        # an event (deployProperty's) is encoded again
        assert all(a.data[0] is b.data[0] for a, b in zip(
            rebuilt.state.chain.blocks[1:], node.state.chain.blocks[1:]))


# -- the command encoder equals the record codec --------------------------------


def _record_codec_bytes(record) -> bytes:
    return canonical_json_bytes(to_json(record))


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_sealed_blob_is_the_record_codec_encoding(market, op,
                                                       monkeypatch):
    n, caller, params, value = _prepared(market, op)
    given = copy.deepcopy(params)
    emitted = []
    executor = EXECUTORS[op]

    def recording(*args):
        result, events = executor(*args)
        emitted.extend(events)
        return result, events

    monkeypatch.setitem(EXECUTORS, op, recording)
    n.execute(caller, op, params, value=value, timestamp=4000)
    block = n.state.chain.held[-1]
    assert block.data[0] == _record_codec_bytes(
        Transaction(caller, op, given, value))
    assert block.data[1:] == [_record_codec_bytes(e) for e in emitted]
    assert bool(emitted) == (op == "deployProperty")


# non-ASCII text, ints past 2**64 and nested objects and lists
texts = st.text() | st.sampled_from([
    "Grundbuch Müller", "不动产", "\U0001f3e0", " ", '"\\'])
big_ints = st.integers() | st.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 70])
json_values = st.recursive(
    st.none() | st.booleans() | big_ints | texts
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(texts, inner, max_size=3)),
    max_leaves=10)


@settings(max_examples=60, deadline=None)
@given(texts.filter(bool), texts, st.dictionaries(texts, json_values,
                                                  max_size=4),
       st.integers(0, 2 ** 80) | st.sampled_from([2 ** 64, 2 ** 64 - 1]))
def test_drawn_params_seal_as_the_record_codec_encodes_them(
        name, description, extra, amount):
    n = Node()
    admin = n.init_genesis(ADMIN_KEY, timestamp=1000)
    for op, params in (("buildRightMetadata", {
            "nameOfRight": name, "description": description,
            "extra": extra}), ("faucet", {"to": admin, "amount": amount})):
        n.execute(admin, op, params, timestamp=1001)
        assert n.state.chain.held[-1].data == [
            _record_codec_bytes(Transaction(admin, op, params))]


@given(texts, st.sampled_from(sorted(OPS)),
       st.dictionaries(texts, json_values, max_size=4), big_ints, texts)
def test_transaction_bytes_equals_the_record_codec(caller, op, params, value,
                                                   status):
    tx = Transaction(caller, op, params, value, status)
    assert transaction_bytes(caller, op, params, value, status) \
        == tx.canonical_bytes() == _record_codec_bytes(tx)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), {1: 0, "a": 0},
                                 ["\ud800"]])
def test_a_param_json_cannot_hold_is_refused_before_the_executor(
        bad, monkeypatch):
    n = Node()
    admin = n.init_genesis(ADMIN_KEY, timestamp=1000)
    params = {"nameOfRight": "title", "extra": {"x": bad}}
    with pytest.raises(Exception) as want:
        _record_codec_bytes(Transaction(admin, "buildRightMetadata", params))
    monkeypatch.setitem(EXECUTORS, "buildRightMetadata", None)  # never runs
    before = n.full_digest(), len(n.state.chain.blocks)
    with pytest.raises(LedgerError) as e:
        n.execute(admin, "buildRightMetadata", params, timestamp=1001)
    assert (e.value.code, e.value.message) == (
        "ParseError", f"buildRightMetadata params: {want.value}")
    assert (n.full_digest(), len(n.state.chain.blocks)) == before
