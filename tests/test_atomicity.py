"""Atomicity and O(history) cost of Node.execute, checked without timing.

Every op in EXECUTORS gets a case whose executor succeeds. Forcing the
block seal to fail after the executor has run must leave the ledger
exactly as it was: a write that escapes the op's write set shows up
here as a changed digest. A successful op must append to the very same
Chain and copy none of its earlier blocks.
"""

import copy

import pytest

from conftest import (ADMIN_KEY, BUYER_KEY, SELLER_KEY, TREASURY, URI,
                      add_doc, approve, deploy, register)
from estateledger.addresses import derive_address
from estateledger.chain import Chain
from estateledger.node import EXECUTORS, WRITES, Node
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
