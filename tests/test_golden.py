"""Golden byte pins: literal hashes that fix the on-disk and hashed formats.

The README quick tour runs through ``cli.main`` with pinned timestamps
(the same commands as ``demos/tokenization_walkthrough.py``). Its
genesis hash, every block hash, ``full_digest``, ``ledger_digest`` and
the digest of the exported snapshot are compared with literals. A
second scenario continues the tour through the batch, swap, burn and
factory-admin operations and pins those block hashes too.

A refactor must leave every literal here unchanged. Changing a hashed
byte on purpose means bumping ``STATE_VERSION`` and re-pinning.
"""

import contextlib
import io
import json
import shlex

from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.node import STATE_VERSION
from estateledger.persistence import export_snapshot, load_state
from estateledger.tokens import fractional_of, swap_descriptor_digest

ADMIN = derive_address(b"demo-admin")
SELLER = derive_address(b"demo-seller")
BUYER = derive_address(b"demo-buyer")
TREASURY = "0x" + "00" * 19 + "fe"

GENESIS_HASH = (
    "f7db17e71f197659d1a9e1e2b4937427c1b2e6a1691d49aba4a150235e64610b")
TOUR_BLOCK_HASHES = [
    "9b15e46933a74f220ae1e7bdb0bfa92a3893db3aa527cfd436bfe1984dcf4543",
    "ce89dadc73bcf149ce8ef646e2645dd327248c8c5551ec5a1214abdf46d9f2eb",
    "9950938c9ab96b96d1b70dfb57fdade094a2e0fa803eacdfd434613db97b38c7",
    "dbab5e41d6ee0ba0fa9458aeb91c73b526b67b134f52adcbc90b5fa209faa53a",
    "2d83864d9f48a174a2c4748d45af5de01148b728216826de151ff38f6dbb55f5",
    "00213029a95b6392c9931d8515b44b598c9be1727784421ef42493e787df0f52",
    "57099f944df5c827c59d19b62b45d6ccdf6f83e7cbce35a68e8d3269f28b394f",
    "980e716317337cf421eaac983ad0ff502ae039a8b5a410987f77afd8c9c65514",
    "9804b0c1f00b4ec448d1614f3c7e6812de2ccb6020444e2fc1c529cb48be30da",
    "eb4fc4386891bca7a08502b5f6aefec55792494ac6bf20cb07391dbfe4a7bf96",
    "291cb01518759c157bf69079a05d50cabf351e98b778b7b075fe44ff7461ddf2",
    "739bcf181f3f5ce27ecfecd7cf44d5c4045d416fa5408ea4a737849e5ca438be",
    "521f0b2a385cc57d78065acbfe1213712ecbe9239205beb18e83f089d47bd8b2",
    "af40282df976581e62814337fac51cf7b9b83e8cb1549c38ebb771a6d51044b2",
    "bc2d1257f2ac059df742aae2d08bf3b7efb54a0778d75063dba93eb3d7a8b3f3",
    "f652005c1914db504958962e7ffec1dc53ab99f2526636a4a4a23304ff801aa7",
]
TOUR_FULL_DIGEST = (
    "2251cc792f6de47c77c3a4fab3292e7c17bc3ab511dc316f3000f6beec222ea8")
TOUR_LEDGER_DIGEST = (
    "2ec05140c1e8fe8e3a7e92d8afecd46b94e92752ce989bcd9b6391b1d8f2c247")
TOUR_SNAPSHOT_DIGEST = (
    "0a0bb2f4cd26e94480fc0f2dee62f425a3482f38a9c167db28bf7976ef40a0e0")
TAIL_BLOCK_HASHES = [
    "1952856c6c725aebf71081bac97582394e2175b5edbd90a1d8ea48f1c1f4fbf8",
    "baff11195d01d2db8decd32fa23585b7e7a3f2c2493b05bab908a8e3a6df5fa4",
    "16c99fd2ca52ad51310378091f63f6d2254d9c1a1c77c49395b04a54a7ecac61",
    "197f83a111722834c3184f2496dad8cf63442af1090e9344a838b1b40a92fee1",
    "9f7b376e15f0dbff08986ef6c110a9fcdf17221d8b13eec1993b79ad919240aa",
    "8fe693a79ae3b5cf1f8266c21898952d4189e7dee7525ac1388d72bbad70515f",
    "f4e36f18f450a2f361f7af57a3b7a9439d99c2b87a757719650cd9996b6d33de",
    "b4d9e3e2032497296b03b56cfce94482dec0114f2ef563a77ba3c8ecd6a4fd9d",
    "438c0c03b9e057008f15a8c1de6ff9f75b922ddf9b77f18f04203273c800674a",
    "9690f4278a48c386cd97beb6ab86a69be532ce6087044b3da64d4aee50206448",
]
TAIL_FULL_DIGEST = (
    "ca41241374af4e4b614d96441e50da47747b499cc4d0d0f1ec404ecfb1e53bee")


def _estate(state_dir, command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command)
                      + ["--state-dir", state_dir, "--json"])
    assert rc == 0, command
    return json.loads(out.getvalue())


def quick_tour(state_dir):
    """The README quick tour, timestamps 1..16; returns the property."""
    def run(command):
        return _estate(state_dir, command)

    run("init --admin-key demo-admin --timestamp 1")
    run(f"stakeholder register --role Seller --key demo-seller "
        f"--as {ADMIN} --timestamp 2")
    run(f"stakeholder register --role Buyer --key demo-buyer "
        f"--as {ADMIN} --timestamp 3")
    run(f"chain faucet --to {SELLER} --amount 5000 --as {ADMIN} --timestamp 4")
    run(f"chain faucet --to {BUYER} --amount 3000 --as {ADMIN} --timestamp 5")
    run(f"factory init --version 1 --as {ADMIN} --timestamp 6")
    prop = run(f"factory deploy --treasury {TREASURY} --upgrader {ADMIN} "
               f"--admin {SELLER} --uri ipfs://title/{{id}}.json "
               f"--name 'Harbor View 7' --as {SELLER} --timestamp 7")["address"]
    deed = run(f"object put --data 'deed of Harbor View 7' "
               f"--as {SELLER} --timestamp 8")["cid"]
    run(f"property adddoc --property {prop} --cid {deed} "
        f"--as {SELLER} --timestamp 9")
    survey = run(f"object put --data 'land survey, Harbor View 7' "
                 f"--as {SELLER} --timestamp 10")["cid"]
    run(f"property adddoc --property {prop} --cid {survey} "
        f"--as {SELLER} --timestamp 11")
    root = run(f"merkle root --property {prop}")["root"]
    run(f"property approve --property {prop} --parent-hash {root} "
        f"--as {ADMIN} --timestamp 12")
    run(f"property mint --property {prop} --id 1 --price 1200 "
        f"--as {SELLER} --value 1200 --timestamp 13")
    run(f"property fractionalize --property {prop} --right-id 1 "
        f"--units 1000 --price-per-unit 4 --as {SELLER} --timestamp 14")
    run(f"property transfer --property {prop} --to {BUYER} --id frac:1 "
        f"--amount 250 --value 1000 --as {BUYER} --timestamp 15")
    run(f"property distribute --property {prop} --right-id 1 "
        f"--total 2001 --value 2001 --as {SELLER} --timestamp 16")
    return prop


def tour_tail(node, prop):
    """Batch mint, operator batch transfer, batch burn with a repeated
    id, a two-party swap with native value, pause, unpause, upgrade."""
    frac = fractional_of(1)
    ts = iter(range(17, 100))

    def ex(caller, op, params, value=0):
        node.execute(caller, op, params, value=value, timestamp=next(ts))

    ex(SELLER, "mintBatchNFTs", {"property": prop, "ids": [2, 3],
                                 "amounts": [1, 1], "data": "",
                                 "prices": [300, 400]}, value=700)
    ex(SELLER, "setApprovalForAll", {"property": prop, "operator": BUYER,
                                     "approved": True})
    ex(BUYER, "safeTransferBatch", {"property": prop, "from": SELLER,
                                    "to": BUYER, "ids": [2, frac, frac],
                                    "amounts": [1, 60, 40]})
    ex(BUYER, "burnBatchNFTs", {"property": prop, "from": BUYER,
                                "ids": [2, frac, frac],
                                "amounts": [1, 10, 20]})
    legs_a, legs_b = [[3, 1]], [[frac, 50]]
    digest = swap_descriptor_digest(SELLER, legs_a, 0, BUYER, legs_b, 300)
    ex(SELLER, "consentSwap", {"property": prop, "digest": digest})
    ex(BUYER, "consentSwap", {"property": prop, "digest": digest})
    ex(BUYER, "atomicSwap", {"property": prop, "partyA": SELLER,
                             "partyB": BUYER, "legsA": legs_a,
                             "legsB": legs_b, "valueA": 0, "valueB": 300})
    ex(ADMIN, "pause", {})
    ex(ADMIN, "unpause", {})
    ex(ADMIN, "authorizeUpgrade", {"versionId": 2, "behaviorTag": "v2"})


def test_state_version_is_pinned():
    assert STATE_VERSION == 1


def test_quick_tour_bytes_are_pinned(tmp_path):
    state_dir = str(tmp_path / "tour")
    quick_tour(state_dir)
    node = load_state(state_dir)
    blocks = node.state.chain.blocks
    assert blocks[0].hash.hex() == GENESIS_HASH
    assert [b.hash.hex() for b in blocks[1:]] == TOUR_BLOCK_HASHES
    assert node.full_digest() == TOUR_FULL_DIGEST
    assert node.ledger_digest() == TOUR_LEDGER_DIGEST
    assert export_snapshot(node)["digest"] == TOUR_SNAPSHOT_DIGEST


def test_batch_swap_and_admin_tail_is_pinned(tmp_path):
    state_dir = str(tmp_path / "tour")
    prop = quick_tour(state_dir)
    node = load_state(state_dir)
    tour_len = len(node.state.chain.blocks)
    tour_tail(node, prop)
    blocks = node.state.chain.blocks[tour_len:]
    assert [b.hash.hex() for b in blocks] == TAIL_BLOCK_HASHES
    assert node.full_digest() == TAIL_FULL_DIGEST
    assert node.replay().full_digest() == TAIL_FULL_DIGEST
