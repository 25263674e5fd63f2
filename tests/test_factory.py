import hashlib

import pytest

from conftest import TREASURY, URI, add_doc, approve, deploy
from estateledger.errors import LedgerError
from estateledger.factory import FACTORY_ADDRESS, proxy_address
from estateledger.node import Node
from estateledger.tokens import fractional_of

FRAC1 = fractional_of(1)


def test_initialize_once(node):
    with pytest.raises(LedgerError) as e:
        node.execute(node.admin, "initializeFactory",
                     {"versionId": 1, "behaviorTag": "base"})
    assert e.value.code == "AlreadyInitialized"


def test_deploy_before_init():
    n = Node()
    admin = n.init_genesis(b"a-key", timestamp=0)
    with pytest.raises(LedgerError) as e:
        n.execute(admin, "deployProperty",
                  {"treasury": TREASURY, "upgrader": admin, "admin": admin,
                   "uri": URI, "contractName": "", "description": ""})
    assert e.value.code == "Uninitialized"


def test_fresh_factory_has_no_proxies(node):
    assert node.state.factory.proxy_length() == 0


def test_proxy_addresses_match_reference_derivation(node):
    addrs = [deploy(node, ts=3000 + i) for i in range(3)]
    raw = bytes.fromhex(FACTORY_ADDRESS[2:])
    for i, addr in enumerate(addrs):
        expected = hashlib.sha256(raw + i.to_bytes(8, "big")).digest()[:20]
        assert addr == "0x" + expected.hex()
        assert addr == proxy_address(FACTORY_ADDRESS, i)
    assert node.state.factory.proxy_length() == 3
    assert node.state.factory.proxies == addrs


def test_deploy_requires_admin_or_seller(node):
    with pytest.raises(LedgerError) as e:
        deploy(node, caller=node.buyer)
    assert e.value.code == "NotAuthorized"
    deploy(node, caller=node.admin)


def test_deploy_emits_event_transaction(node):
    addr = deploy(node)
    block = node.state.chain.blocks[-1].to_dict()
    ops = [tx["operation"] for tx in block["transactions"]]
    assert ops == ["deployProperty", "DeployedProperty"]
    event = block["transactions"][1]
    assert event["params"]["address"] == addr
    assert event["caller"] == FACTORY_ADDRESS


def test_pause_gates_deploy_and_minting(approved_prop):
    node, prop = approved_prop
    # ownership checks precede the pause gate for fractionalize, so give
    # the seller a right to anchor against before pausing
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0},
                 timestamp=3099)
    node.execute(node.admin, "pause", {})
    with pytest.raises(LedgerError) as e:
        deploy(node, ts=3100)
    assert e.value.code == "Paused"
    for op, params in [
        ("mintNFT", {"property": prop, "id": 2, "data": "", "price": 0}),
        ("mintBatchNFTs", {"property": prop, "ids": [2], "amounts": [1],
                           "data": "", "prices": [0]}),
        ("mintFractional", {"property": prop, "rightId": 1, "units": 5,
                            "pricePerUnit": 0}),
    ]:
        with pytest.raises(LedgerError) as e:
            node.execute(node.seller, op, params)
        assert e.value.code == "Paused", op


def test_pause_leaves_transfers_alone(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0})
    node.execute(node.admin, "pause", {})
    # already-minted tokens keep moving while paused
    node.execute(node.seller, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": 1, "amount": 1,
                  "data": ""})
    node.execute(node.admin, "unpause", {})
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 2, "data": "", "price": 0})


def test_pause_unpause_state_errors(node):
    with pytest.raises(LedgerError) as e:
        node.execute(node.admin, "unpause", {})
    assert e.value.code == "NotPaused"
    node.execute(node.admin, "pause", {})
    with pytest.raises(LedgerError) as e:
        node.execute(node.admin, "pause", {})
    assert e.value.code == "AlreadyPaused"


def test_pause_requires_factory_admin(node):
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "pause", {})
    assert e.value.code == "NotAuthorized"


def test_upgrade_requires_upgrader(node):
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "authorizeUpgrade",
                     {"versionId": 2, "behaviorTag": "base"})
    assert e.value.code == "NotAuthorized"


def test_identity_upgrade_keeps_ledger_digest(approved_prop):
    node, prop = approved_prop
    before = node.ledger_digest()
    node.execute(node.admin, "authorizeUpgrade",
                 {"versionId": 1, "behaviorTag": "base"})
    assert node.ledger_digest() == before


def test_any_upgrade_keeps_property_state(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0})
    props_before = node.state.state_dict()["properties"]
    node.execute(node.admin, "authorizeUpgrade",
                 {"versionId": 2, "behaviorTag": "base"})
    assert node.state.state_dict()["properties"] == props_before
    assert node.state.factory.logic.version_id == 2
    # proxies record the version that initialized them, not the current one
    assert node.state.properties[prop].implementation_version == 1


def test_upgrade_then_workload_continues(approved_prop):
    node, prop = approved_prop
    node.execute(node.admin, "authorizeUpgrade",
                 {"versionId": 2, "behaviorTag": "base"})
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0})
    assert node.state.properties[prop].exists(1)
    # new deployments stamp the new version
    other = deploy(node, ts=3200)
    assert node.state.properties[other].implementation_version == 2


def test_proxy_length_unchanged_by_pause_and_upgrade(node):
    deploy(node)
    node.execute(node.admin, "pause", {})
    node.execute(node.admin, "unpause", {})
    node.execute(node.admin, "authorizeUpgrade",
                 {"versionId": 3, "behaviorTag": "base"})
    assert node.state.factory.proxy_length() == 1
