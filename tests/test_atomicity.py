"""Atomicity and O(history) cost of Node.execute, checked without timing.

Every op in EXECUTORS gets a case whose executor succeeds. Forcing the
block seal to fail after the executor has run must leave the ledger
exactly as it was: a write that escapes the op's write set shows up
here as a changed digest. A successful op must append to the very same
Chain and copy none of its earlier blocks.

Every op also gets a case its executor rejects. Run straight against
the live state, with no working copy, the rejection must leave the
digest unchanged: each executor checks everything before it writes.
"""

import copy
import random

import pytest

from conftest import (ADMIN_KEY, BUYER_KEY, SELLER_KEY, TREASURY, URI,
                      add_doc, approve, deploy, register)
from estateledger.addresses import ZERO_ADDRESS, derive_address
from estateledger.chain import Chain
from estateledger.errors import LedgerError
from estateledger.node import EXECUTORS, PAYABLE, WRITES, Node
from estateledger.storage import make_cid
from estateledger.tokens import fractional_of, swap_descriptor_digest

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
            {"name": "deed", "link": make_cid(b"deed of the house")}]},
        0, None),
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


def test_every_op_has_a_case_and_a_write_set():
    assert set(CASES) | {"bootstrapAdmin", "initializeFactory"} \
        == set(EXECUTORS) == set(WRITES)


@pytest.mark.parametrize("op", sorted(EXECUTORS))
def test_failed_seal_after_executor_leaves_no_trace(market, op, monkeypatch):
    n, caller, params, value = _prepared(market, op)
    chain = n.state.chain
    blocks = list(chain.blocks)
    digest = n.full_digest()
    sealed = []

    def failing_append(self, *args, **kwargs):
        sealed.append(self)
        raise RuntimeError("injected seal failure")

    monkeypatch.setattr(Chain, "append_block", failing_append)
    with pytest.raises(RuntimeError, match="injected seal failure"):
        n.execute(caller, op, params, value=value, timestamp=4000)
    # the executor ran and succeeded, then the seal was attempted
    assert len(sealed) == 1 and sealed[0] is chain
    assert n.full_digest() == digest
    assert n.state.chain is chain
    assert len(chain.blocks) == len(blocks)
    assert all(a is b for a, b in zip(chain.blocks, blocks))


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
OPS = sorted(EXECUTORS) + ["mintNFT", "mintBatchNFTs", "mintFractional",
                           "transferNFT", "distributeEarnings",
                           "consentSwap", "atomicSwap", "unpause"]
SELLER_OPS = {"putObject", "buildRightMetadata", "registerDocument",
              "deployProperty", "mintNFT", "mintBatchNFTs", "mintFractional",
              "setPrice", "distributeEarnings"}


def _random_op(rng, n, swaps):
    """(caller, op, params, value) for one random op of any kind, often
    one that fails."""
    op = rng.choice(OPS)
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
    if op not in PAYABLE and rng.random() < 0.9:
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
    return who, op, params, value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_sequences_check_before_they_write(market, seed):
    n = copy.deepcopy(market)
    n.seller2 = register(n, n.admin, "Seller", SELLER2_KEY, 2001)
    n.buyer2 = register(n, n.admin, "Buyer", BUYER2_KEY, 2002)
    n.people = [n.seller, n.seller2, n.buyer, n.buyer2]  # sellers first
    minted = 2000 + 1000  # the market fixture's faucet ops
    for who in (n.seller2, n.buyer2):
        n.execute(n.admin, "faucet", {"to": who, "amount": 500},
                  timestamp=2003)
        minted += 500
    swaps = [(n.seller, n.buyer, [[FRAC1, 10]], [], 0, 5),
             (n.buyer, n.seller2, [[FRAC1, 1]], [], 0, BIG),
             (n.seller2, n.buyer2, [], [[FRAC1, 600]], 40, 0)]
    rng = random.Random(seed)
    failed = set()
    for step in range(400):
        who, op, params, value = _random_op(rng, n, swaps)
        probe = copy.deepcopy(n.state, {id(n.state.chain): n.state.chain})
        digest = Node(probe).full_digest()
        try:
            EXECUTORS[op](probe, who, params, value)
        except LedgerError:
            assert Node(probe).full_digest() == digest, (step, op, params)
        try:
            n.execute(who, op, params, value=value, timestamp=3000 + step)
        except LedgerError:
            assert n.full_digest() == digest, (step, op, params)
            failed.add(op)
            continue
        if op == "faucet":
            minted += params["amount"]
    assert len(failed) >= 20  # most kinds were seen failing
    assert n.replay().full_digest() == n.full_digest()
    assert sum(n.state.native.accounts.values()) == minted
    for prop in n.state.properties.values():
        tokens = prop.tokens
        assert set(tokens.supplies) == {t for t, per in
                                        tokens.balances.items() if per}
        for token_id, supply in tokens.supplies.items():
            assert supply == sum(tokens.balances[token_id].values())
