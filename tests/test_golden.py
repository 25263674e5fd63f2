"""Golden byte pins: literal hashes that fix the on-disk and hashed formats.

The README quick tour runs through ``cli.main`` with pinned timestamps
(the same commands as ``demos/tokenization_walkthrough.py``). Its
genesis hash, every block hash, ``full_digest``, ``ledger_digest`` and
the digest of the exported snapshot are compared with literals, and so
are the SHA-256 of the ``state.json`` and ``chain.json`` files it
leaves, and of each section file, which names it. A second scenario
continues the tour through the batch, swap, burn and factory-admin
operations and pins those block hashes too. A
third continues it through ``cli.main`` with every mutating verb the
tour does not use, which pins the exact params each CLI verb records.
A written snapshot file must hold exactly the canonical encoding of
``export_snapshot``, produced without decoding a stored block, and every
blob the tour records is the canonical encoding of the value it decodes
to.

A refactor must leave every literal here unchanged. Changing a hashed
byte on purpose means bumping ``STATE_VERSION`` and re-pinning. The
``state.json`` pin moved three times without a bump, none moving a
hashed byte: when the checkpoint's tag gained its own digest, when
``state.json`` became a manifest naming its section files by digest,
and when the manifest gained "log", the certificate of the log's first
bytes. A load rebuilds a checkpoint an older version wrote from the
log, and loads a manifest without a certificate uncertified.
"""

import contextlib
import hashlib
import io
import os
import json
import shlex

from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.canonical import canonical_json_bytes
from estateledger.chain import Block
from estateledger.node import STATE_VERSION, state_digest
from estateledger.persistence import (export_snapshot, import_snapshot,
                                      load_state, write_snapshot)
from estateledger.tokens import fractional_of, swap_descriptor_digest

from oracles import ref_state_bytes

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


TOUR_STATE_JSON_SHA256 = (
    "6abe1134c8887f81e6be38f3de122796fdab34da171cfad13a2883127263ec47")
# the name of each section file of the tour's checkpoint, its SHA-256
TOUR_SECTIONS_SHA256 = {
    "contracts":
        "2406f778e85432ea781c90168276ae35b4bf22555d10a94f6d1d425f5c207411",
    "registry":
        "394192a4469d44c49c50ba2d3314b3d7bbcf8f1af66cb26d451b338e7d58814a",
    "store":
        "d52da42545b0739018cb9f73a8e7afedda95729e58c7d129f25ca1b8b4f9fd85",
}
TOUR_CHAIN_JSON_SHA256 = (
    "df50cf70be492aa14ab71c82211f6bfe87dece8c118d7f0a350dacd320d5b7b2")
CLI_VERB_BLOCK_HASHES = [
    "1410ba8a0075dcb23b080e401f82f8beff5df5338817c437c3f3f4f13fd40163",
    "b8fa66f7b7c70e2dd19a6120c5f7d1d29d363e5073415195506a33bdb58fa56b",
    "f402528ef38d95f452dfaded0300c700b6d1e258a23f93cb17e22f71f61ba159",
    "50bf6e1717cca483e7cf798a6b865fa1e673958977b399ba4441599b9b024114",
    "3884ba6d0056e9d632a0c17be2480d5b4f5b45caf2fe5926164c1cf8223d1574",
    "6e5df827270d62c7dac4a65739b13db2f28bd109fbbf84a3f42a72107da99e53",
    "d5274f292b667b6cb7ed6b721180f4b0c9298b69fcdb0fc4de6cf3d51b2e4fbb",
    "a502a17e2bf26ad1ca282af37a2615ebbbab0d006a9c6aa0221798a63bed9958",
    "19234808378cfacd86cff8f7baabd5205ad1acf8ecac95fa9c55f201062fc134",
    "0f47a36adb027a17d706d0c054b1f2966d256ddbb8b791cf7c2dbbbffe6111f3",
    "8189ce96f5bf234cb8fad8402eb71fc8927c9ad2e8dfb3c3050d43ce4846e770",
    "3852fc632ea52e27f594942c63a63816cf1af96e8e5a446f4c4c79c7306c0e0d",
    "b51f7722dc13fc1a68b1d009cdc3aa829c5c2ab095bde43c9f24df7ab4890af1",
    "2f39c25399353e8aecd2565a3f9298772f4fd2431d54def386636abf7fafc364",
    "2a55bab75794f1f1786f545e8f7b3f460090d83d0670b980025b07acc2011777",
]
CLI_VERB_FULL_DIGEST = (
    "6d2a02f252190c3f7ca5c9d2e6a9f51bb16d88b800a67acd50f081b0363b7b9d")


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


def test_state_bytes_splice_the_chain_into_the_dict_encoding(tmp_path):
    state_dir = str(tmp_path / "tour")
    prop = quick_tour(state_dir)
    node = load_state(state_dir)
    tour_tail(node, prop)
    chain = node.state.chain
    d = node.state.state_dict(objects=True)
    for part in (d, {"accounts": d["accounts"]}, {"version": 1}, {}):
        assert state_digest(part, chain) == hashlib.sha256(
            ref_state_bytes(part, chain)).hexdigest()
    assert import_snapshot(export_snapshot(node)).full_digest() \
        == TAIL_FULL_DIGEST


def test_written_snapshot_decodes_no_block(tmp_path, monkeypatch):
    state_dir = str(tmp_path / "tour")
    prop = quick_tour(state_dir)
    node = load_state(state_dir)
    tour_tail(node, prop)
    expected = canonical_json_bytes(export_snapshot(node))

    def refuse(self):
        raise AssertionError("a stored block was decoded")

    monkeypatch.setattr(Block, "to_dict", refuse)
    write_snapshot(str(tmp_path / "snap.json"), node)
    assert (tmp_path / "snap.json").read_bytes() == expected


def cli_verbs(state_dir, prop):
    """Every mutating CLI verb the quick tour leaves out, timestamps
    17.., continuing the tour's ledger."""
    ts = iter(range(17, 100))

    def run(command):
        return _estate(state_dir, f"{command} --timestamp {next(ts)}")

    swap = (f"--property {prop} --party-a {SELLER} --party-b {BUYER} "
            f"--legs-a 3:1 --legs-b frac:1:50 --value-b 300")
    run(f"property set-price --property {prop} --id frac:1 "
        f"--price-per-unit 5 --as {SELLER}")
    run(f"property mint-batch --property {prop} --ids 2,3 --amounts 1,1 "
        f"--prices 300,400 --data batch --value 700 --as {SELLER}")
    run(f"token approve --property {prop} --operator {BUYER} "
        f"--approved true --as {SELLER}")
    run(f"token transfer --property {prop} --from {SELLER} --to {BUYER} "
        f"--ids 2,frac:1 --amounts 1,60 --as {BUYER}")
    run(f"property burn --property {prop} --from {BUYER} --id 2 "
        f"--amount 1 --as {BUYER}")
    run(f"property burn-batch --property {prop} --from {BUYER} "
        f"--ids frac:1,frac:1 --amounts 10,20 --as {BUYER}")
    run(f"token consent {swap} --as {SELLER}")
    run(f"token consent {swap} --as {BUYER}")
    run(f"token swap {swap} --as {BUYER}")
    deed = load_state(state_dir).state.properties[prop].documents[0]
    run(f"object metadata --name 'Harbor View 7 title' "
        f"--description 'the title' --doc '{deed}|deed|scan' "
        f"--extra '{{\"floors\": 2}}' --as {SELLER}")
    run(f"factory pause --as {ADMIN}")
    run(f"factory unpause --as {ADMIN}")
    run(f"factory upgrade --version 2 --tag v2 --as {ADMIN}")
    run(f"chain transfer --to {SELLER} --amount 100 --as {BUYER}")
    run(f"stakeholder remove --target {BUYER} --as {ADMIN}")


def test_quick_tour_files_are_pinned(tmp_path):
    state_dir = str(tmp_path / "tour")
    quick_tour(state_dir)

    def file_sha256(name):
        with open(os.path.join(state_dir, name), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert file_sha256("state.json") == TOUR_STATE_JSON_SHA256
    assert file_sha256("chain.json") == TOUR_CHAIN_JSON_SHA256
    with open(os.path.join(state_dir, "state.json"), "rb") as fh:
        assert json.loads(fh.read())["sections"] == TOUR_SECTIONS_SHA256
    assert sorted(os.listdir(os.path.join(state_dir, "sections"))) == sorted(
        digest + ".json" for digest in TOUR_SECTIONS_SHA256.values())
    for digest in TOUR_SECTIONS_SHA256.values():
        assert file_sha256(os.path.join("sections", digest + ".json")) \
            == digest


def test_cli_verbs_are_pinned(tmp_path):
    state_dir = str(tmp_path / "tour")
    prop = quick_tour(state_dir)
    tour_len = len(load_state(state_dir).state.chain.blocks)
    cli_verbs(state_dir, prop)
    node = load_state(state_dir)
    blocks = node.state.chain.blocks[tour_len:]
    assert [b.hash.hex() for b in blocks] == CLI_VERB_BLOCK_HASHES
    assert node.full_digest() == CLI_VERB_FULL_DIGEST
    assert node.replay().full_digest() == CLI_VERB_FULL_DIGEST


def test_every_recorded_blob_is_the_canonical_encoding_of_its_value(tmp_path):
    # what lets replay seal the blob a block records instead of encoding
    # its command again: the blobs the CLI stored, and those that
    # ``Node.execute`` sealed in process
    verbs_dir, tail_dir = str(tmp_path / "verbs"), str(tmp_path / "tail")
    cli_verbs(verbs_dir, quick_tour(verbs_dir))
    stored = load_state(verbs_dir).state.chain
    with open(os.path.join(verbs_dir, "chain.json"), "rb") as fh:
        assert fh.read() == stored.canonical_json()
    prop = quick_tour(tail_dir)
    node = load_state(tail_dir)
    tour_tail(node, prop)
    blobs = [blob for chain in (stored, node.state.chain)
             for block in chain.blocks for blob in block.data]
    # two tours of 16 commands and a deploy event, 15 verbs, 10 tail ops
    assert len(blobs) == 2 * (16 + 1) + 15 + 10
    for blob in blobs:
        assert blob == canonical_json_bytes(json.loads(blob))
