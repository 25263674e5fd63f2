"""End-to-end tests driving the installed command grammar in-process."""

import fcntl
import hashlib
import json
import os
import shlex

import pytest

from estateledger import cli, persistence
from estateledger.addresses import derive_address
from estateledger.canonical import canonical_json_bytes
from estateledger.errors import LedgerError
from estateledger.persistence import load_state, save_state

from oracles import ref_merkle_root

ADMIN_KEY = "admin-key-1"
SELLER_KEY = "seller-key"
BUYER_KEY = "buyer-key"
ADMIN = derive_address(ADMIN_KEY.encode())
SELLER = derive_address(SELLER_KEY.encode())
BUYER = derive_address(BUYER_KEY.encode())
TREASURY = "0x" + "00" * 19 + "aa"
URI = "ipfs://meta/{id}.json"
# parses only past the interpreter's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def estate(tmp_path, capsys):
    """Callable running one CLI command against a per-test state dir."""
    state_dir = str(tmp_path / "ledger")

    def call(*argv, expect=0):
        code = cli.main([*argv, "--state-dir", state_dir])
        cap = capsys.readouterr()
        if expect is not None:
            assert code == expect, f"{argv}: rc={code} err={cap.err}"
        return code, cap.out.strip(), cap.err.strip()

    call.state_dir = state_dir
    call.workdir = tmp_path
    return call


def jget(call, *argv):
    _, out, _ = call(*argv, "--json")
    return json.loads(out)


@pytest.fixture
def ledger(estate):
    """Initialized chain: admin + funded seller and buyer + factory v1."""
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    estate("stakeholder", "register", "--role", "Seller",
           "--key", SELLER_KEY, "--as", ADMIN, "--timestamp", "1")
    estate("stakeholder", "register", "--role", "Buyer",
           "--key", BUYER_KEY, "--as", ADMIN, "--timestamp", "2")
    estate("chain", "faucet", "--to", SELLER, "--amount", "2000",
           "--as", ADMIN, "--timestamp", "3")
    estate("chain", "faucet", "--to", BUYER, "--amount", "1000",
           "--as", ADMIN, "--timestamp", "4")
    estate("factory", "init", "--version", "1", "--as", ADMIN,
           "--timestamp", "5")
    return estate


@pytest.fixture
def prop(ledger):
    """One deployed and approved property on top of the ledger fixture."""
    deployed = jget(ledger, "factory", "deploy", "--treasury", TREASURY,
                    "--upgrader", ADMIN, "--admin", SELLER, "--uri", URI,
                    "--name", "Row house", "--as", SELLER,
                    "--timestamp", "6")
    addr = deployed["address"]
    put = jget(ledger, "object", "put", "--data", "deed scan",
               "--as", SELLER, "--timestamp", "7")
    ledger("property", "adddoc", "--property", addr, "--cid", put["cid"],
           "--as", SELLER, "--timestamp", "8")
    root = jget(ledger, "merkle", "root", "--property", addr)["root"]
    ledger("property", "approve", "--property", addr,
           "--parent-hash", root, "--as", ADMIN, "--timestamp", "9")
    return ledger, addr


# -- init and global behaviour -----------------------------------------------


def test_init_reports_bootstrap_admin(estate):
    _, out, _ = estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    assert f"admin: {ADMIN}" in out
    assert "genesis:" in out


def test_init_refuses_existing_ledger(estate):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    code, _, errtxt = estate("init", "--admin-key", ADMIN_KEY, expect=3)
    assert "AlreadyInitialized" in errtxt


def test_init_refuses_a_block_log_without_its_state(ledger):
    os.remove(os.path.join(ledger.state_dir, "state.json"))
    chain_path = os.path.join(ledger.state_dir, "chain.json")
    with open(chain_path, "rb") as fh:
        before = fh.read()
    _, _, errtxt = ledger("init", "--admin-key", ADMIN_KEY,
                          "--timestamp", "0", expect=3)
    assert errtxt.startswith("error: AlreadyInitialized: ")
    with open(chain_path, "rb") as fh:
        assert fh.read() == before


def _assert_uninitialized(estate, *command):
    _, _, errtxt = estate(*command, expect=3)
    assert errtxt == (f"error: Uninitialized: {estate.state_dir} "
                      "holds no ledger; run init")
    assert not os.path.exists(estate.state_dir)


def test_command_against_missing_state_dir(estate):
    _assert_uninitialized(estate, "chain", "verify")


def test_write_command_against_missing_state_dir(estate):
    _assert_uninitialized(estate, "chain", "faucet", "--to", ADMIN,
                          "--amount", "1", "--as", ADMIN)


@pytest.mark.parametrize("missing", ["state.json", "chain.json"])
def test_state_dir_missing_one_ledger_file(ledger, missing):
    snap = str(ledger.workdir / "snap.json")
    ledger("state", "export", "--out", snap)
    os.remove(os.path.join(ledger.state_dir, missing))
    _, _, errtxt = ledger("chain", "verify", expect=3)
    path = os.path.join(ledger.state_dir, missing)
    assert errtxt == (f"error: CorruptSnapshot: {path} is missing; "
                      "`state import --force` restores the dir")
    ledger("state", "import", "--in", snap, "--force")
    ledger("chain", "verify")


def test_bad_arguments_exit_2(estate):
    assert cli.main(["definitely-not-a-noun"]) == 2
    assert cli.main(["property", "mint", "--property", "0x" + "11" * 20,
                     "--id", "not-a-number", "--price", "0",
                     "--as", ADMIN, "--state-dir", estate.state_dir]) == 2


def test_mutation_without_caller_exits_2(ledger):
    code, _, errtxt = ledger("chain", "faucet", "--to", SELLER,
                             "--amount", "1", expect=2)
    assert "ParseError" in errtxt


def test_not_authorized_exits_4(ledger):
    code, _, errtxt = ledger("chain", "faucet", "--to", BUYER,
                             "--amount", "1", "--as", BUYER, expect=4)
    assert "NotAuthorized" in errtxt


def test_json_output_is_canonical(ledger):
    _, out, _ = ledger("state", "digest", "--json")
    parsed = json.loads(out)
    assert out == canonical_json_bytes(parsed).decode("utf-8")
    assert parsed["scope"] == "full"


# -- stakeholders and native funds ---------------------------------------------


def test_register_show_and_roles(ledger):
    _, out, _ = ledger("stakeholder", "show", "--address", SELLER)
    assert "active: True" in out
    assert jget(ledger, "stakeholder", "has-role", "--address", SELLER,
                "--role", "Seller")["hasRole"] is True
    assert jget(ledger, "stakeholder", "has-role", "--address", SELLER,
                "--role", "Realtor")["hasRole"] is False


def test_remove_stakeholder_freezes_address(ledger):
    ledger("stakeholder", "remove", "--target", BUYER, "--as", ADMIN,
           "--timestamp", "10")
    _, out, _ = ledger("stakeholder", "show", "--address", BUYER)
    assert "active: False" in out
    code, _, errtxt = ledger("chain", "transfer", "--to", SELLER,
                             "--amount", "1", "--as", BUYER, expect=4)
    assert "NotAuthorized" in errtxt


def test_last_administrator_survives(ledger):
    code, _, errtxt = ledger("stakeholder", "remove", "--target", ADMIN,
                             "--as", ADMIN, expect=3)
    assert "LastAdministrator" in errtxt


def test_faucet_transfer_balance(ledger):
    ledger("chain", "transfer", "--to", BUYER, "--amount", "150",
           "--as", SELLER, "--timestamp", "11")
    assert jget(ledger, "chain", "balance",
                "--address", SELLER)["balance"] == 1850
    assert jget(ledger, "chain", "balance",
                "--address", BUYER)["balance"] == 1150
    code, _, errtxt = ledger("chain", "transfer", "--to", BUYER,
                             "--amount", "999999", "--as", SELLER, expect=3)
    assert "InsufficientFunds" in errtxt


# -- objects and metadata -------------------------------------------------------


def test_object_put_get_text(ledger):
    put = jget(ledger, "object", "put", "--data", "hello deed",
               "--as", ADMIN, "--timestamp", "12")
    expected = "cidv0-sha256:" + hashlib.sha256(b"hello deed").hexdigest()
    assert put["cid"] == expected
    got = jget(ledger, "object", "get", "--cid", put["cid"])
    assert got["text"] == "hello deed"


def test_object_put_file_get_out(ledger):
    blob = bytes(range(256))
    src = ledger.workdir / "blob.bin"
    src.write_bytes(blob)
    put = jget(ledger, "object", "put", "--file", str(src),
               "--as", ADMIN, "--timestamp", "13")
    dst = ledger.workdir / "copy.bin"
    ledger("object", "get", "--cid", put["cid"], "--out", str(dst))
    assert dst.read_bytes() == blob


def test_metadata_builder_and_resolve(ledger):
    doc = jget(ledger, "object", "put", "--data", "survey pdf",
               "--as", ADMIN, "--timestamp", "14")
    meta = jget(ledger, "object", "metadata", "--name", "Unit 4 title",
                "--description", "freehold",
                "--doc", f"{doc['cid']}|survey|2024 survey",
                "--as", ADMIN, "--timestamp", "15")
    body = json.loads(jget(ledger, "object", "get",
                           "--cid", meta["cid"])["text"])
    assert body["nameOfRight"] == "Unit 4 title"
    assert body["documents"][0]["link"] == doc["cid"]
    out = jget(ledger, "object", "resolve", "--base-uri", URI, "--id", "7")
    assert out["uri"] == "ipfs://meta/" + "0" * 63 + "7.json"


@pytest.mark.parametrize("token_id", ["-1", str(2 ** 256)],
                         ids=["minus-one", "two-to-the-256"])
def test_resolve_refuses_an_out_of_range_id_like_property_uri(prop,
                                                               token_id):
    ledger, addr = prop
    _, _, resolved = ledger("object", "resolve", "--base-uri", URI,
                            "--id", token_id, expect=3)
    _, _, stored = ledger("property", "uri", "--property", addr,
                          "--id", token_id, expect=3)
    assert resolved == stored == \
        f"error: UnknownToken: token id out of range: {token_id}"


@pytest.mark.parametrize("extra", [
    "{bad", "[1, 2]", '{"a": "\\ud800"}',
    pytest.param(DEEP_JSON, id="nested-past-the-recursion-limit")])
def test_metadata_extra_must_be_a_json_object(ledger, extra):
    blocks = len(load_state(ledger.state_dir).state.chain.blocks)
    _, _, errtxt = ledger("object", "metadata", "--name", "n", "--extra",
                          extra, "--as", ADMIN, "--timestamp", "16",
                          expect=2)
    assert errtxt.startswith("error: ParseError:")
    assert len(load_state(ledger.state_dir).state.chain.blocks) == blocks


# -- merkle commands --------------------------------------------------------


def test_merkle_root_matches_reference(estate):
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(5)]
    flags = [x for leaf in leaves for x in ("--leaf", leaf.hex())]
    got = jget(estate, "merkle", "root", *flags)["root"]
    assert got == ref_merkle_root(leaves).hex()


def test_merkle_prove_then_verify(estate):
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(7)]
    flags = [x for leaf in leaves for x in ("--leaf", leaf.hex())]
    proof = jget(estate, "merkle", "prove", "--index", "3", *flags)
    proof_file = estate.workdir / "proof.json"
    proof_file.write_text(json.dumps(proof["proof"]))
    for blob in (json.dumps(proof["proof"]), f"@{proof_file}"):
        out = jget(estate, "merkle", "verify", "--root", proof["root"],
                   "--leaf", proof["leaf"], "--proof", blob)
        assert out["valid"] is True
    wrong = jget(estate, "merkle", "verify",
                 "--root", "ff" + proof["root"][2:],
                 "--leaf", proof["leaf"],
                 "--proof", json.dumps(proof["proof"]))
    assert wrong["valid"] is False


def test_merkle_verify_rejects_junk_proof(estate):
    code, _, errtxt = estate("merkle", "verify", "--root", "00" * 32,
                             "--leaf", "11" * 32, "--proof", "{not json",
                             expect=2)
    assert "ParseError" in errtxt


def test_merkle_verify_rejects_proof_nested_past_the_recursion_limit(estate):
    _, _, errtxt = estate("merkle", "verify", "--root", "00" * 32,
                          "--leaf", "11" * 32, "--proof", DEEP_JSON, expect=2)
    assert errtxt == "error: ParseError: proof is not valid proof JSON"


# -- property lifecycle over the wire ----------------------------------------


def test_full_property_lifecycle(prop):
    ledger, addr = prop
    assert jget(ledger, "property", "id", "--property", addr,
                )["propertyId"] == 1
    ledger("property", "mint", "--property", addr, "--id", "1",
           "--price", "700", "--data", "", "--as", SELLER,
           "--value", "700", "--timestamp", "20")
    ledger("property", "fractionalize", "--property", addr,
           "--right-id", "1", "--units", "1000", "--price-per-unit", "3",
           "--as", SELLER, "--timestamp", "21")
    ledger("property", "transfer", "--property", addr, "--to", BUYER,
           "--id", "frac:1", "--amount", "200", "--value", "600",
           "--as", BUYER, "--timestamp", "22")
    dist = jget(ledger, "property", "distribute", "--property", addr,
                "--right-id", "1", "--total", "1001", "--as", SELLER,
                "--value", "1001", "--timestamp", "23")
    assert dist["payouts"] == {SELLER: 800, BUYER: 200}
    assert dist["remainder"] == 1

    balances = jget(ledger, "token", "balance", "--property", addr,
                    "--owner", BUYER, "--id", "frac:1")["balances"]
    assert list(balances.values()) == [200]
    assert jget(ledger, "property", "supply", "--property", addr,
                "--id", "frac:1")["supply"] == 1000
    assert jget(ledger, "property", "exists", "--property", addr,
                "--id", "1")["exists"] is True
    uri = jget(ledger, "property", "uri", "--property", addr,
               "--id", "1")["uri"]
    assert uri == "ipfs://meta/" + "0" * 63 + "1.json"
    # double entry: seller paid 700 at mint, got 600 sale + 800 payout,
    # spent 1001 distributing; buyer spent 600 and got 200 back
    assert jget(ledger, "chain", "balance",
                "--address", SELLER)["balance"] == 2000 - 700 + 600 - 1001 + 800
    assert jget(ledger, "chain", "balance",
                "--address", BUYER)["balance"] == 1000 - 600 + 200
    assert jget(ledger, "chain", "balance",
                "--address", TREASURY)["balance"] == 700 + 1


def test_approve_records_the_parent_hash_in_lowercase(ledger):
    # admission takes only lowercase hex, so the CLI records the digest
    # it parsed rather than the text it was given
    addr = jget(ledger, "factory", "deploy", "--treasury", TREASURY,
                "--upgrader", ADMIN, "--admin", SELLER, "--uri", URI,
                "--as", SELLER, "--timestamp", "6")["address"]
    cid = jget(ledger, "object", "put", "--data", "deed scan",
               "--as", SELLER, "--timestamp", "7")["cid"]
    ledger("property", "adddoc", "--property", addr, "--cid", cid,
           "--as", SELLER, "--timestamp", "8")
    root = jget(ledger, "merkle", "root", "--property", addr)["root"]
    ledger("property", "approve", "--property", addr,
           "--parent-hash", root.upper(), "--as", ADMIN, "--timestamp", "9")
    tx = json.loads(load_state(ledger.state_dir).state.chain.blocks[-1]
                    .data[0])
    assert tx["params"] == {"property": addr, "parentHash": root}
    assert jget(ledger, "property", "info", "--property", addr)["approved"]


def test_mint_negative_price_on_minted_right_exits_2(prop):
    ledger, addr = prop
    ledger("property", "mint", "--property", addr, "--id", "1",
           "--price", "0", "--as", SELLER, "--timestamp", "10")
    before = _dir_bytes(ledger.state_dir)
    _, _, errtxt = ledger("property", "mint", "--property", addr,
                          "--id", "1", "--price", "-1", "--as", SELLER,
                          "--timestamp", "11", expect=2)
    assert errtxt == "error: ParseError: negative price"
    assert _dir_bytes(ledger.state_dir) == before


def test_burn_and_set_price_routes(prop):
    ledger, addr = prop
    ledger("property", "mint", "--property", addr, "--id", "5",
           "--price", "0", "--data", "", "--as", SELLER, "--timestamp", "30")
    ledger("property", "set-price", "--property", addr, "--id", "5",
           "--price-per-unit", "40", "--as", SELLER, "--timestamp", "31")
    listing = jget(ledger, "property", "info",
                   "--property", addr)["listings"]
    assert list(listing.values())[0]["pricePerUnit"] == 40
    ledger("property", "burn", "--property", addr, "--from", SELLER,
           "--id", "5", "--amount", "1", "--as", SELLER, "--timestamp", "32")
    assert jget(ledger, "property", "exists", "--property", addr,
                "--id", "5")["exists"] is False


def test_swap_consent_and_execute(prop):
    ledger, addr = prop
    ledger("property", "mint-batch", "--property", addr, "--ids", "1,2",
           "--amounts", "1,1", "--prices", "0,0", "--as", SELLER,
           "--timestamp", "40")
    ledger("property", "transfer", "--property", addr, "--to", BUYER,
           "--id", "2", "--amount", "1", "--as", SELLER, "--timestamp", "41")
    swap_flags = ["--property", addr, "--party-a", SELLER,
                  "--party-b", BUYER, "--legs-a", "1:1", "--legs-b", "2:1",
                  "--value-b", "25"]
    ledger("token", "consent", *swap_flags, "--as", SELLER,
           "--timestamp", "42")
    ledger("token", "consent", *swap_flags, "--as", BUYER,
           "--timestamp", "43")
    ledger("token", "swap", *swap_flags, "--as", SELLER, "--timestamp", "44")
    assert jget(ledger, "token", "balance", "--property", addr,
                "--owner", BUYER, "--id", "1")["balances"]["1"] == 1
    assert jget(ledger, "chain", "balance",
                "--address", SELLER)["balance"] == 2025


def test_operator_transfer_route(prop):
    ledger, addr = prop
    ledger("property", "mint", "--property", addr, "--id", "9",
           "--price", "0", "--data", "", "--as", SELLER, "--timestamp", "50")
    ledger("token", "approve", "--property", addr, "--operator", BUYER,
           "--approved", "true", "--as", SELLER, "--timestamp", "51")
    ledger("token", "transfer", "--property", addr, "--from", SELLER,
           "--to", BUYER, "--ids", "9", "--amounts", "1", "--as", BUYER,
           "--timestamp", "52")
    assert jget(ledger, "token", "balance", "--property", addr,
                "--owner", BUYER, "--id", "9")["balances"]["9"] == 1


# -- chain inspection ------------------------------------------------------------


def test_chain_verify_show_replay(prop):
    ledger, addr = prop
    assert jget(ledger, "chain", "verify")["chain"] == "OK"
    genesis = jget(ledger, "chain", "show", "--index", "0")
    assert genesis["index"] == 0 and genesis["transactions"] == []
    code, _, errtxt = ledger("chain", "show", "--index", "999", expect=3)
    assert "IndexOutOfRange" in errtxt
    replay = jget(ledger, "chain", "replay")
    assert replay["replay"] == "OK"
    assert replay["digest"] == jget(ledger, "state", "digest")["digest"]


def test_chain_verify_fails_after_file_edit(ledger):
    chain_path = os.path.join(ledger.state_dir, "chain.json")
    with open(chain_path) as fh:
        chain_d = json.load(fh)
    chain_d["blocks"][-1]["timestamp"] += 1
    with open(chain_path, "w") as fh:
        json.dump(chain_d, fh)
    code, _, errtxt = ledger("chain", "verify", expect=3)
    assert "HashMismatch" in errtxt


def test_chain_replay_of_malformed_record_exits_3(ledger):
    chain_path = os.path.join(ledger.state_dir, "chain.json")
    with open(chain_path) as fh:
        chain_d = json.load(fh)
    faucet = next(tx for block in chain_d["blocks"]
                  for tx in block["transactions"]
                  if tx["operation"] == "faucet")
    del faucet["params"]["amount"]
    with open(chain_path, "w") as fh:
        json.dump(chain_d, fh)
    _, _, errtxt = ledger("chain", "replay", expect=3)
    assert errtxt.startswith("error: CorruptSnapshot: block ")
    assert "faucet lacks param 'amount'" in errtxt


def test_a_ledger_recording_uppercase_hex_loads_but_does_not_replay(
        prop, tmp_path, capsys):
    # the previous version's `property approve` recorded --parent-hash as
    # typed; admission now refuses hex that is not lowercase
    ledger, _ = prop
    node = load_state(ledger.state_dir)
    block = node.state.chain.blocks[-1]
    tx = json.loads(block.data[0])
    assert tx["operation"] == "approvedProperty"
    tx["params"]["parentHash"] = upper = tx["params"]["parentHash"].upper()
    block.data[0] = canonical_json_bytes(tx)
    block.seal()
    old = str(tmp_path / "old")
    save_state(old, node)
    assert cli.main(["chain", "verify", "--state-dir", old]) == 0
    assert cli.main(["chain", "replay", "--state-dir", old]) == 3
    assert capsys.readouterr().err == (
        f"error: CorruptSnapshot: block {block.index} holds a malformed "
        "transaction: approvedProperty param 'parentHash': expected "
        f"lowercase hex, got {upper!r:.60}\n")


def test_a_lone_surrogate_in_the_block_log_is_corrupt_snapshot(estate):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    chain_path = os.path.join(estate.state_dir, "chain.json")
    with open(chain_path, "rb") as fh:
        data = fh.read()
    assert data.count(b'"infoCid":""') == 1
    with open(chain_path, "wb") as fh:  # valid JSON, but not UTF-8 text
        fh.write(data.replace(b'"infoCid":""', b'"infoCid":"\\udcff"'))
    _, _, errtxt = estate("chain", "verify", expect=3)
    assert errtxt.startswith("error: CorruptSnapshot: block 1 holds a "
                             "string that is not UTF-8: ")


def test_a_write_skips_a_corrupt_older_block_that_history_readers_refuse(
        ledger, tmp_path):
    chain_path = os.path.join(ledger.state_dir, "chain.json")
    _replace_bytes(b'"infoCid":""', b'"infoCid":"\xff"')(chain_path)
    with open(chain_path, "rb") as fh:
        before = fh.read()
    ledger("chain", "faucet", "--to", SELLER, "--amount", "1",
           "--as", ADMIN, "--timestamp", "6")
    with open(chain_path, "rb") as fh:
        after = fh.read()
    tip = load_state(ledger.state_dir).state.chain.held[-1]
    assert tip.index == 7
    assert after == before[:-2] + b"," + tip.canonical_json() + b"]}"
    files = _dir_bytes(ledger.state_dir)
    for command in (["chain", "verify"], ["chain", "show"],
                    ["chain", "replay"], ["state", "digest"],
                    ["state", "export", "--out", str(tmp_path / "s.json")]):
        _, _, errtxt = ledger(*command, expect=3)
        assert errtxt.startswith("error: CorruptSnapshot: block 1 holds a "
                                 "string that is not UTF-8: "), command
    assert _dir_bytes(ledger.state_dir) == files
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", [
    ["chain", "balance", "--address", ADMIN], ["chain", "verify"],
    ["state", "digest", "--scope", "ledger"], ["state", "show"],
    ["chain", "faucet", "--to", ADMIN, "--amount", "1", "--as", ADMIN]])
def test_a_lone_surrogate_in_state_json_is_corrupt_snapshot(estate, command):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    _replace_bytes(b'"publicInfo":""', b'"publicInfo":"\\udcff"')(
        os.path.join(estate.state_dir, "state.json"))
    before = _dir_bytes(estate.state_dir)
    _, _, errtxt = estate(*command, expect=3)
    assert errtxt.startswith(
        f"error: CorruptSnapshot: {estate.state_dir}/state.json holds a "
        "string that is not UTF-8: ")
    assert _dir_bytes(estate.state_dir) == before


def test_a_state_json_with_escapes_but_no_surrogate_loads(estate):
    admin = jget(estate, "init", "--admin-key", ADMIN_KEY, "--info-cid",
                 'a "quoted" \\ cid\n', "--timestamp", "0")["admin"]
    with open(os.path.join(estate.state_dir, "state.json"), "rb") as fh:
        data = fh.read()
    assert b'a \\"quoted\\" \\\\ cid\\n' in data and b"\\u" not in data
    shown = jget(estate, "stakeholder", "show", "--address", admin)
    assert shown["publicInfo"] == 'a "quoted" \\ cid\n'
    estate("chain", "faucet", "--to", admin, "--amount", "1", "--as", admin,
           "--timestamp", "1")
    estate("chain", "verify")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_a_number_json_lacks_is_never_recorded_nor_loaded(ledger, number):
    files = _dir_bytes(ledger.state_dir)
    _, _, errtxt = ledger("object", "metadata", "--name", "n", "--extra",
                          f'{{"a": [{number}]}}', "--as", ADMIN,
                          "--timestamp", "6", expect=2)
    assert errtxt.startswith("error: ParseError: buildRightMetadata params: ")
    assert _dir_bytes(ledger.state_dir) == files
    # a log that already holds one: in block 1, and in the tip block
    chain_path = os.path.join(ledger.state_dir, "chain.json")
    for old, index, command in (
            (b'"infoCid":""', 1, ["chain", "verify"]),
            (b'"versionId":1', 6, ["chain", "faucet", "--to", SELLER,
                                   "--amount", "1", "--as", ADMIN])):
        with open(chain_path, "wb") as fh:
            fh.write(files["chain.json"].replace(
                old, old.split(b":")[0] + b":" + number.encode(), 1))
        broken = _dir_bytes(ledger.state_dir)
        _, _, errtxt = ledger(*command, expect=3)
        assert errtxt.startswith(f"error: CorruptSnapshot: block {index} "
                                 "holds a number that is not JSON: ")
        assert _dir_bytes(ledger.state_dir) == broken


# -- snapshots and digests -----------------------------------------------------


def test_state_digest_scopes_differ(prop):
    ledger, addr = prop
    full = jget(ledger, "state", "digest", "--scope", "full")["digest"]
    led = jget(ledger, "state", "digest", "--scope", "ledger")["digest"]
    props = jget(ledger, "state", "digest", "--scope", "properties")["digest"]
    assert len({full, led, props}) == 3


def test_snapshot_export_import_roundtrip(prop, tmp_path):
    ledger, addr = prop
    snap = tmp_path / "snap.json"
    exported = jget(ledger, "state", "export", "--out", str(snap))
    other_dir = str(tmp_path / "other")
    code = cli.main(["state", "import", "--in", str(snap),
                     "--state-dir", other_dir])
    assert code == 0
    code = cli.main(["state", "digest", "--json", "--state-dir", other_dir])
    assert code == 0
    code, _, errtxt = ledger("state", "import", "--in", str(snap), expect=3)
    assert "AlreadyInitialized" in errtxt
    assert ledger("state", "import", "--in", str(snap), "--force")[0] == 0


def test_snapshot_import_checks_digest(prop, tmp_path, capsys):
    ledger, addr = prop
    snap = tmp_path / "snap.json"
    ledger("state", "export", "--out", str(snap))
    body = json.loads(snap.read_text())
    victim = next(iter(body["accounts"]["accounts"]))
    body["accounts"]["accounts"][victim] += 1  # digest now stale
    snap.write_text(json.dumps(body))
    code = cli.main(["state", "import", "--in", str(snap),
                     "--state-dir", str(tmp_path / "fresh")])
    errtxt = capsys.readouterr().err
    assert code == 3 and "CorruptSnapshot" in errtxt


def _drop_chain(body):
    del body["chain"]


def _drop_last_hash(body):
    del body["chain"]["blocks"][-1]["hash"]


@pytest.mark.parametrize("breaker", [
    _drop_chain,
    lambda body: body.update(chain=[]),
    _drop_last_hash,
    lambda body: body["chain"]["blocks"][-1].update(nonce=-1),
], ids=["missing", "a-list", "block-without-hash", "nonce-negative"])
def test_snapshot_with_a_missing_or_malformed_chain_is_corrupt(
        prop, tmp_path, breaker):
    ledger, addr = prop
    snap = tmp_path / "snap.json"
    ledger("state", "export", "--out", str(snap))
    body = json.loads(snap.read_text())
    breaker(body)
    _signed_snapshot(snap, body)  # so only the chain is at fault
    code, _, errtxt = ledger("state", "import", "--in", str(snap),
                             "--force", expect=3)
    assert errtxt.startswith("error: CorruptSnapshot: ")
    assert "digest" not in errtxt


@pytest.mark.parametrize("breaker", [
    lambda body: body.update(digest="00" * 32),
    lambda body: body["chain"]["blocks"][-1]["transactions"][0].update(
        attachedValue=1),
], ids=["digest-replaced", "recorded-tx-edited"])
def test_snapshot_with_a_valid_chain_under_a_wrong_digest(
        prop, tmp_path, breaker):
    ledger, addr = prop
    snap = tmp_path / "snap.json"
    ledger("state", "export", "--out", str(snap))
    body = json.loads(snap.read_text())
    breaker(body)
    snap.write_text(json.dumps(body))
    _, _, errtxt = ledger("state", "import", "--in", str(snap), "--force",
                          expect=3)
    assert errtxt == "error: CorruptSnapshot: snapshot digest does not match"


def test_snapshot_import_checks_version(prop, tmp_path, capsys):
    ledger, addr = prop
    snap = tmp_path / "snap.json"
    ledger("state", "export", "--out", str(snap))
    body = json.loads(snap.read_text())
    body["version"] = 99
    snap.write_text(json.dumps(body))
    code = cli.main(["state", "import", "--in", str(snap),
                     "--state-dir", str(tmp_path / "fresh")])
    errtxt = capsys.readouterr().err
    assert code == 3 and "VersionMismatch" in errtxt


def test_import_refuses_an_object_that_does_not_match_its_key(
        ledger, tmp_path, capsys):
    ledger("object", "put", "--data", "deed scan", "--as", ADMIN,
           "--timestamp", "6")
    snap = tmp_path / "snap.json"
    ledger("state", "export", "--out", str(snap))
    body = json.loads(snap.read_text())
    (digest,) = body["objects"]
    body["objects"][digest] = b"forged deed".hex()
    _signed_snapshot(snap, body)
    fresh = tmp_path / "fresh"
    code = cli.main(["state", "import", "--in", str(snap),
                     "--state-dir", str(fresh)])
    errtxt = capsys.readouterr().err
    assert code == 3
    assert errtxt.startswith(f"error: CorruptSnapshot: object {digest} ")
    assert not fresh.exists()


def test_corrupt_object_file_detected(ledger):
    put = jget(ledger, "object", "put", "--data", "original",
               "--as", ADMIN, "--timestamp", "60")
    digest = put["cid"].split(":", 1)[1]
    path = os.path.join(ledger.state_dir, "objects", digest + ".bin")
    with open(path, "wb") as fh:
        fh.write(b"tampered")
    code, _, errtxt = ledger("object", "get", "--cid", put["cid"], expect=3)
    assert "CorruptSnapshot" in errtxt


def test_state_lock_blocks_second_writer(ledger):
    lock_path = os.path.join(ledger.state_dir, ".lock")
    with open(lock_path, "a+") as holder:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, _, errtxt = ledger("chain", "faucet", "--to", SELLER,
                                 "--amount", "1", "--as", ADMIN, expect=3)
        assert "StateLocked" in errtxt
    # released: the same command now lands
    ledger("chain", "faucet", "--to", SELLER, "--amount", "1",
           "--as", ADMIN, "--timestamp", "61")


def _dir_bytes(state_dir) -> dict:
    """Every file of a state dir but the (always empty) lock file."""
    out = {}
    for root, _, names in os.walk(state_dir):
        for name in names:
            path = os.path.join(root, name)
            if name == ".lock":
                continue
            with open(path, "rb") as fh:
                out[os.path.relpath(path, state_dir)] = fh.read()
    return out


LEAF = "ab" * 32


@pytest.mark.parametrize("argv", [
    ["chain", "balance", "--address", ADMIN],
    ["state", "digest"],
    ["chain", "verify"],
    ["object", "resolve", "--base-uri", URI, "--id", "7"],
    ["merkle", "verify", "--root", LEAF, "--leaf", LEAF,
     "--proof", '{"leafIndex": 0, "siblings": []}'],
    ["merkle", "root", "--leaf", LEAF]],
    ids=["chain-balance", "state-digest", "chain-verify", "object-resolve",
         "merkle-verify", "merkle-root"])
def test_a_read_takes_no_lock_and_a_stateless_command_needs_no_dir(
        estate, argv):
    if argv[0] in ("chain", "state"):  # a read while a writer holds .lock
        estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
        before = _dir_bytes(estate.state_dir)
        with open(os.path.join(estate.state_dir, ".lock"), "a+") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            estate(*argv)
        assert _dir_bytes(estate.state_dir) == before
    else:  # no --state-dir at all
        estate(*argv)
        assert not os.path.exists(estate.state_dir)


OTHER_KEY = "other-admin-key"


@pytest.mark.parametrize("command", [
    ["state", "import", "--in", "{snap}"],
    ["init", "--admin-key", ADMIN_KEY, "--timestamp", "0"]],
    ids=["state-import", "init"])
def test_ledger_check_runs_under_the_lock(estate, monkeypatch, command):
    # a second writer initializes the dir between our check and our lock
    snap = str(estate.workdir / "snap.json")
    other = str(estate.workdir / "other")
    assert cli.main(["init", "--admin-key", ADMIN_KEY, "--timestamp", "0",
                     "--state-dir", other]) == 0
    assert cli.main(["state", "export", "--out", snap,
                     "--state-dir", other]) == 0
    real_flock, first = persistence.fcntl.flock, {}

    def racing_flock(fd, operation):
        monkeypatch.setattr(persistence.fcntl, "flock", real_flock)
        assert cli.main(["init", "--admin-key", OTHER_KEY,
                         "--timestamp", "7",
                         "--state-dir", estate.state_dir]) == 0
        first.update(_dir_bytes(estate.state_dir))
        return real_flock(fd, operation)

    monkeypatch.setattr(persistence.fcntl, "flock", racing_flock)
    _, _, errtxt = estate(*[a.replace("{snap}", snap) for a in command],
                          expect=3)
    assert errtxt.startswith("error: AlreadyInitialized: ")
    assert _dir_bytes(estate.state_dir) == first


@pytest.mark.parametrize("command", [
    ["init", "--admin-key", ADMIN_KEY],
    ["chain", "faucet", "--to", ADMIN, "--amount", "1", "--as", ADMIN]],
    ids=["init", "faucet"])
@pytest.mark.parametrize("timestamp", [-1, 2 ** 64])
def test_timestamp_outside_u64_exits_2(estate, command, timestamp):
    if command[0] != "init":
        estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    before = _dir_bytes(estate.state_dir)
    _, _, errtxt = estate(*command, "--timestamp", str(timestamp), expect=2)
    assert errtxt.startswith("error: ParseError: timestamp ")
    assert _dir_bytes(estate.state_dir) == before


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def _nest_past_the_recursion_limit(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"version": 1, "config": ' + DEEP_JSON + "}")


def _replace_bytes(old, new):
    def apply(path):
        with open(path, "rb") as fh:
            data = fh.read()
        assert old in data
        with open(path, "wb") as fh:
            fh.write(data.replace(old, new, 1))
    return apply


def _edit_state(edit):
    def apply(path):
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        edit(d)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
    return apply


def _only_property(d) -> tuple:
    (address, contract), = d["properties"].items()
    return address, contract


def _move_property(d):
    address, contract = _only_property(d)
    moved = "0x" + "77" * 20
    d["properties"] = {moved: contract}
    d["factory"]["proxies"] = [moved]


def _admin_record(d) -> dict:
    return d["stakeholders"]["stakeholders"][ADMIN]


def _deactivate_admin(d):
    _admin_record(d)["active"] = False


def _edit_last_block(edit):
    return _edit_state(lambda d: edit(d["blocks"][-1]))


# name of the file to break in a state dir holding one deployed property
# -> how; `admin-inactive` to `proxy-dropped` break what no command can,
# the cases after them the type or shape of one stored value
MALFORMED_DIRS = {
    "truncated-state": ("state.json", _truncate),
    "truncated-chain": ("chain.json", _truncate),
    "no-factory": ("state.json", _edit_state(lambda d: d.pop("factory"))),
    "accounts-not-an-object": ("state.json",
                               _edit_state(lambda d: d.update(accounts=5))),
    "admin-inactive": ("state.json", _edit_state(_deactivate_admin)),
    "contract-uninitialized": ("state.json", _edit_state(
        lambda d: _only_property(d)[1].update(initialized=False))),
    "contract-under-another-key": ("state.json",
                                   _edit_state(_move_property)),
    "proxy-dropped": ("state.json", _edit_state(
        lambda d: d["factory"].update(proxies=[]))),
    "admin-active-a-string": ("state.json", _edit_state(
        lambda d: _admin_record(d).update(active="false"))),
    "balance-a-string": ("state.json", _edit_state(
        lambda d: d["accounts"]["accounts"].update({ADMIN: "7"}))),
    "paused-an-int": ("state.json", _edit_state(
        lambda d: d["factory"].update(paused=0))),
    "record-extra-key": ("state.json", _edit_state(
        lambda d: _admin_record(d).update(note="x"))),
    "token-key-not-canonical": ("state.json", _edit_state(
        lambda d: _only_property(d)[1].update(
            listings={"01": {"pricePerUnit": 1, "seller": ADMIN}}))),
    "chain-nonce-a-string": ("chain.json", _edit_last_block(
        lambda b: b.update(nonce=str(b["nonce"])))),
    "state-nested-past-the-recursion-limit": (
        "state.json", _nest_past_the_recursion_limit),
    "chain-nonce-negative": ("chain.json", _edit_last_block(
        lambda b: b.update(nonce=-5))),
    "chain-timestamp-2-64": ("chain.json", _edit_last_block(
        lambda b: b.update(timestamp=2 ** 64))),
    # in range, but the next block's header would overflow
    "chain-index-2-64-minus-1": ("chain.json", _edit_last_block(
        lambda b: b.update(index=2 ** 64 - 1))),
    "chain-nonce-2-64-minus-1": ("chain.json", _edit_last_block(
        lambda b: b.update(nonce=2 ** 64 - 1))),
    # in the tip block, which a write reads
    "chain-not-utf-8": ("chain.json", _replace_bytes(
        b'"description":""', b'"description":"\xff"')),
    # in block 1, which only a reader of the whole history decodes
    "chain-not-utf-8-in-block-1": (
        "chain.json", _replace_bytes(b'"infoCid":""', b'"infoCid":"\xff"')),
    "state-not-utf-8": ("state.json",
                        _replace_bytes(b'"accounts"', b'"acc\xffounts"')),
    "state-lone-surrogate": ("state.json", _replace_bytes(
        b'"publicInfo":""', b'"publicInfo":"\\udcff"')),
}
# the command each case runs, if not `chain faucet`
HISTORY_READERS = {"chain-not-utf-8-in-block-1": ["chain", "verify"]}
# the exact refusal of each block-log case; "{dir}" is the state dir
CHAIN_REFUSALS = {
    "truncated-chain": "{dir}/chain.json is not a JSON object",
    "chain-nonce-a-string": "expected an integer in [0, 2**64), got '3'",
    "chain-nonce-negative": "expected an integer in [0, 2**64), got -5",
    "chain-timestamp-2-64":
        "expected an integer in [0, 2**64), got 18446744073709551616",
    "chain-index-2-64-minus-1":
        "block 3 records index 18446744073709551615 and nonce 3",
    "chain-nonce-2-64-minus-1":
        "block 3 records index 3 and nonce 18446744073709551615",
}


def _signed_snapshot(path, body):
    body = {k: v for k, v in body.items() if k != "digest"}
    body["digest"] = hashlib.sha256(canonical_json_bytes(body)).hexdigest()
    path.write_text(json.dumps(body))


@pytest.mark.parametrize("case", [*MALFORMED_DIRS, "import-version-only",
                                  "import-admin-inactive"])
def test_malformed_ledger_data_is_corrupt_snapshot(estate, case):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    estate("factory", "init", "--version", "1", "--as", ADMIN,
           "--timestamp", "1")
    estate("factory", "deploy", "--treasury", TREASURY, "--upgrader", ADMIN,
           "--admin", ADMIN, "--uri", URI, "--as", ADMIN, "--timestamp", "2")
    snap = estate.workdir / "snap.json"
    if case in MALFORMED_DIRS:
        name, breaker = MALFORMED_DIRS[case]
        breaker(os.path.join(estate.state_dir, name))
        command = HISTORY_READERS.get(case, [
            "chain", "faucet", "--to", ADMIN, "--amount", "1",
            "--as", ADMIN, "--timestamp", "3"])
    elif case == "import-version-only":
        # a well-signed snapshot whose body holds nothing but a version
        _signed_snapshot(snap, {"version": 1})
        command = ["state", "import", "--in", str(snap), "--force"]
    else:  # a re-signed snapshot of the dir with its admin deactivated
        estate("state", "export", "--out", str(snap))
        body = json.loads(snap.read_text())
        _deactivate_admin(body)
        _signed_snapshot(snap, body)
        command = ["state", "import", "--in", str(snap), "--force"]
    before = _dir_bytes(estate.state_dir)
    _, _, errtxt = estate(*command, expect=3)
    assert errtxt.startswith("error: CorruptSnapshot: ")
    if case in CHAIN_REFUSALS:
        assert errtxt == "error: CorruptSnapshot: " + CHAIN_REFUSALS[
            case].replace("{dir}", estate.state_dir)
    assert _dir_bytes(estate.state_dir) == before


@pytest.mark.parametrize("command", [
    ["init", "--admin-key", ""],
    ["state", "import", "--in", "{w}/junk.json"]], ids=["init", "import"])
def test_failed_init_or_import_leaves_no_dir(estate, command):
    (estate.workdir / "junk.json").write_text("{not json")
    work = str(estate.workdir)
    estate(*[a.replace("{w}", work) for a in command], "--timestamp", "0",
           expect=3)
    assert not os.path.exists(estate.state_dir)


# -- allowlist ----------------------------------------------------------------


def test_allowlist_gates_registration(estate):
    allow = estate.workdir / "allow.txt"
    allow.write_text(hashlib.sha256(SELLER_KEY.encode()).hexdigest() + "\n")
    estate("init", "--admin-key", ADMIN_KEY, "--allowlist", str(allow),
           "--timestamp", "0")
    estate("stakeholder", "register", "--role", "Seller",
           "--key", SELLER_KEY, "--as", ADMIN, "--timestamp", "1")
    code, _, errtxt = estate("stakeholder", "register", "--role", "Buyer",
                             "--key", BUYER_KEY, "--as", ADMIN, expect=3)
    assert "VerificationRejected" in errtxt


# -- scripts -------------------------------------------------------------------


SCRIPT = """\
# bring up a marketplace in one shot
as {admin} stakeholder register --role Seller --key seller-key
as {admin} chain faucet --to {seller} --amount 500
as {seller} chain transfer --to {admin} --amount 40
"""


def test_run_script_executes_all_lines(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "setup.txt"
    script.write_text(SCRIPT.format(admin=ADMIN, seller=SELLER))
    result = jget(estate, "run", str(script), "--timestamp", "1")
    assert result["commands"] == 3
    assert result["digest"] == jget(estate, "state", "digest")["digest"]
    assert jget(estate, "chain", "balance",
                "--address", SELLER)["balance"] == 460


def test_run_script_stops_on_error_keeps_prefix(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "bad.txt"
    script.write_text(
        f"as {ADMIN} chain faucet --to {ADMIN} --amount 100\n"
        f"as {ADMIN} chain transfer --to {SELLER} --amount 5\n")
    code, _, errtxt = estate("run", str(script), "--timestamp", "1",
                             expect=3)
    assert errtxt.startswith("error: UnknownAccount: line 2:")
    # the first line committed before the failure
    assert jget(estate, "chain", "balance",
                "--address", ADMIN)["balance"] == 100


def test_run_script_reports_unbalanced_quote(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "quote.txt"
    script.write_text(
        f"as {ADMIN} chain faucet --to {ADMIN} --amount 100\n"
        'chain balance --address "0xab\n')
    code, _, errtxt = estate("run", str(script), "--timestamp", "1",
                             expect=2)
    assert errtxt.startswith("error: ParseError: line 2:")
    assert jget(estate, "chain", "balance",
                "--address", ADMIN)["balance"] == 100


def test_run_script_rejects_nesting(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    inner = tmp_path / "inner.txt"
    inner.write_text("chain verify\n")
    outer = tmp_path / "outer.txt"
    outer.write_text(f"run {inner}\n")
    code, _, errtxt = estate("run", str(outer), expect=2)
    assert "line 1" in errtxt


def test_run_script_error_names_its_code_once(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "unknown.txt"
    script.write_text(f"as {ADMIN} chain transfer --to {SELLER} --amount 5\n")
    code, _, errtxt = estate("run", str(script), expect=3)
    assert errtxt == f"error: UnknownAccount: line 1: {SELLER}"


def _count_loads_and_saves(monkeypatch) -> dict:
    """Counts calls of the module-wide load_state and save_state, the
    names the bench harness rebinds to time them."""
    calls = {"load": 0, "save": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(persistence, "load_state",
                        counted("load", persistence.load_state))
    monkeypatch.setattr(persistence, "save_state",
                        counted("save", persistence.save_state))
    return calls


def test_script_loads_once_and_saves_each_line(estate, tmp_path,
                                               monkeypatch):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "ten.txt"
    script.write_text(f"# ten faucets\nchain verify\n" + "".join(
        f"as {ADMIN} chain faucet --to {ADMIN} --amount {i}\n"
        for i in range(1, 11)))
    calls = _count_loads_and_saves(monkeypatch)
    result = jget(estate, "run", str(script), "--timestamp", "1")
    assert calls == {"load": 1, "save": 10}
    assert result["commands"] == 11
    monkeypatch.undo()
    assert result["digest"] == load_state(estate.state_dir).full_digest()
    assert jget(estate, "chain", "balance",
                "--address", ADMIN)["balance"] == 55


@pytest.mark.parametrize("argv, saves", [
    (["chain", "balance", "--address", ADMIN], 0),
    (["chain", "faucet", "--to", ADMIN, "--amount", "1", "--as", ADMIN,
      "--timestamp", "1"], 1)], ids=["read", "write"])
def test_a_lone_command_loads_once_and_saves_only_a_write(
        estate, monkeypatch, argv, saves):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    calls = _count_loads_and_saves(monkeypatch)
    estate(*argv)
    assert calls == {"load": 1, "save": saves}


def test_script_against_a_locked_dir_is_state_locked(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    script = tmp_path / "setup.txt"
    script.write_text(SCRIPT.format(admin=ADMIN, seller=SELLER))
    before = _dir_bytes(estate.state_dir)
    with open(os.path.join(estate.state_dir, ".lock"), "a+") as holder:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        _, _, errtxt = estate("run", str(script), expect=3)
    assert errtxt.startswith("error: StateLocked: ")
    assert _dir_bytes(estate.state_dir) == before


def test_script_failure_keeps_exactly_the_lines_before_it(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    node = load_state(estate.state_dir)
    script = tmp_path / "fails-at-4.txt"
    script.write_text(SCRIPT.format(admin=ADMIN, seller=SELLER) +
                      f"as {SELLER} chain transfer --to {BUYER} --amount 1\n")
    _, _, errtxt = estate("run", str(script), "--timestamp", "9", expect=3)
    assert errtxt == f"error: UnknownAccount: line 5: {BUYER}"
    # lines 2 to 4, in process
    node.execute(ADMIN, "registerStakeholder", {
        "role": "Seller", "publicKey": b"seller-key".hex(), "infoCid": ""},
        timestamp=9)
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 500}, timestamp=9)
    node.execute(SELLER, "transferNative", {"to": ADMIN, "amount": 40},
                 timestamp=9)
    assert load_state(estate.state_dir).full_digest() == node.full_digest()


@pytest.mark.parametrize("line", [
    f"init --admin-key {OTHER_KEY}",
    "state import --in {w}/snap.json --force",
    "run {w}/inner.txt"], ids=["init", "state-import", "run"])
def test_script_refuses_commands_that_take_the_whole_dir(estate, line):
    work = str(estate.workdir)
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    estate("state", "export", "--out", f"{work}/snap.json")
    (estate.workdir / "inner.txt").write_text("chain verify\n")
    script = estate.workdir / "outer.txt"
    script.write_text(f"chain verify\n{line.replace('{w}', work)}\n")
    before = _dir_bytes(estate.state_dir)
    _, _, errtxt = estate("run", str(script), expect=2)
    assert errtxt.startswith("error: ParseError: line 2: ")
    assert _dir_bytes(estate.state_dir) == before


def test_script_lines_break_only_at_newlines(estate, tmp_path):
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    # str.splitlines would break inside the quotes and after the \x0c
    script = tmp_path / "separators.txt"
    script.write_text(f'object put --data "left\u2028right" --as {ADMIN}\n'
                      "chain verify\x0c\n"
                      f"chain balance --address {SELLER}\n")
    _, _, errtxt = estate("run", str(script), "--timestamp", "1", expect=3)
    assert errtxt == f"error: UnknownAccount: line 3: {SELLER}"
    put = json.loads(load_state(estate.state_dir).state.chain.blocks[-1]
                     .data[0])
    assert put["params"] == {"dataHex": "left\u2028right".encode().hex()}


# Bad text and bad files named on the command line exit with a code, never
# a traceback, and append nothing. "{w}" is the test's work directory.
BAD_INPUTS = [
    pytest.param(["object", "metadata", "--name", "\udcff", "--as", ADMIN],
                 2, "ParseError: ", id="metadata-surrogate"),
    pytest.param(["object", "put", "--data", "\udcff", "--as", ADMIN],
                 2, "ParseError: ", id="put-data-surrogate"),
    pytest.param(["stakeholder", "register", "--role", "Buyer",
                  "--key", "\udcff", "--as", ADMIN],
                 2, "ParseError: ", id="register-key-surrogate"),
    pytest.param(["run", "{w}/latin1.txt"], 2, "ParseError: ",
                 id="run-latin1"),
    pytest.param(["state", "import", "--in", "{w}/latin1.txt", "--force"],
                 3, "CorruptSnapshot: ", id="import-latin1"),
    pytest.param(["run", "{w}/missing.txt"], 3,
                 "NotFound: {w}/missing.txt: No such file or directory",
                 id="run-missing"),
    pytest.param(["run", "{w}/put-missing.txt"], 3,
                 "NotFound: line 1: {w}/missing.bin: No such file or directory",
                 id="script-line-put-missing"),
    pytest.param(["object", "put", "--file", "{w}/missing.bin", "--as", ADMIN],
                 3, "NotFound: {w}/missing.bin: No such file or directory",
                 id="put-file-missing"),
    pytest.param(["merkle", "verify", "--proof", "@{w}/missing.json",
                  "--root", "00" * 32, "--leaf", "00" * 32], 3,
                 "NotFound: {w}/missing.json: No such file or directory",
                 id="proof-file-missing"),
    pytest.param(["state", "export", "--out", "{w}/no-dir/snap.json"],
                 3, "NotFound: {w}/no-dir/snap.json", id="export-no-dir"),
    pytest.param(["state", "import", "--in", "{w}/array.json", "--force"],
                 3, "CorruptSnapshot: ", id="import-array"),
    pytest.param(["state", "import", "--in", "{w}/junk.json", "--force"],
                 3, "CorruptSnapshot: ", id="import-not-json"),
]


@pytest.mark.parametrize("argv,code,prefix", BAD_INPUTS)
def test_bad_input_exits_with_a_code(estate, argv, code, prefix):
    work = str(estate.workdir)
    estate("init", "--admin-key", ADMIN_KEY, "--timestamp", "0")
    (estate.workdir / "latin1.txt").write_bytes("caf\xe9\n".encode("latin-1"))
    (estate.workdir / "put-missing.txt").write_text(
        f"object put --file {work}/missing.bin --as {ADMIN}\n")
    (estate.workdir / "array.json").write_text("[1, 2]")
    (estate.workdir / "junk.json").write_text("{not json")
    before = load_state(estate.state_dir).full_digest()
    _, _, errtxt = estate(*[a.replace("{w}", work) for a in argv],
                          "--timestamp", "1", expect=code)
    assert errtxt.startswith("error: " + prefix.replace("{w}", work))
    assert "Traceback" not in errtxt
    assert load_state(estate.state_dir).full_digest() == before


def test_scripts_are_deterministic(estate, tmp_path, capsys):
    script = tmp_path / "world.txt"
    script.write_text(SCRIPT.format(admin=ADMIN, seller=SELLER))
    digests = []
    for name in ("a", "b"):
        state_dir = str(tmp_path / name)
        assert cli.main(["init", "--admin-key", ADMIN_KEY,
                         "--timestamp", "0", "--state-dir", state_dir]) == 0
        assert cli.main(["run", str(script), "--timestamp", "1",
                         "--state-dir", state_dir]) == 0
        capsys.readouterr()
        for fname in ("state.json", "chain.json"):
            with open(os.path.join(state_dir, fname), "rb") as fh:
                digests.append((name, fname, hashlib.sha256(
                    fh.read()).hexdigest()))
    per_dir = {}
    for name, fname, d in digests:
        per_dir.setdefault(name, []).append((fname, d))
    assert per_dir["a"] == per_dir["b"]


# -- the command table ---------------------------------------------------------


@pytest.fixture(scope="module")
def full_parser():
    return cli.build_parser()


def _leaf_args(key) -> list:
    """One valid token list per table argument of `key`, and whether the
    argument is required."""
    out = []
    for flag, kwargs in cli.COMMANDS[key][0]:
        if isinstance(flag, list):  # a group: give its first member
            flag = flag[0][0]
        if not flag.startswith("-"):
            tokens = ["value"]
        elif kwargs.get("action") == "store_true":
            tokens = [flag]
        else:
            tokens = [flag, kwargs.get("choices", ["7"])[-1]]
        out.append((tokens, kwargs.get("required", False)))
    return out


def _parse_error(parser, argv) -> str:
    with pytest.raises(LedgerError) as exc:
        parser.parse_args(argv)
    assert exc.value.code == "ParseError"
    return exc.value.message


def _parsers_built(monkeypatch, argv) -> int:
    built = []
    init = cli.Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(cli.Parser, "__init__", counted)
        cli.build_parser(argv)
    return len(built)


@pytest.mark.parametrize("key", list(cli.COMMANDS), ids=str)
def test_leaf_parser_matches_full_parser(full_parser, monkeypatch, key):
    command = [word for word in key if word]
    args = _leaf_args(key)
    argv = command + [t for tokens, _ in args for t in tokens] + [
        "--as", ADMIN, "--value", "1", "--timestamp", "2", "--json"]
    # a command is parsed by one parser of its own, not a path of the tree
    assert _parsers_built(monkeypatch, argv) == 1
    assert _parsers_built(monkeypatch, command) == 1
    leaf_parser = cli.build_parser(argv)
    assert leaf_parser.parse_args(argv) == full_parser.parse_args(argv)
    for i, (_, required) in enumerate(args):
        if required:
            missing = command + [t for j, (tokens, _) in enumerate(args)
                                 if j != i for t in tokens]
            assert (_parse_error(cli.build_parser(missing), missing)
                    == _parse_error(full_parser, missing))
    # an unknown flag, a flag missing its value, a bad int
    for bad in (argv + ["--bogus"], argv + ["--timestamp"],
                argv + ["--value", "x"]):
        assert (_parse_error(cli.build_parser(bad), bad)
                == _parse_error(full_parser, bad))


@pytest.mark.parametrize("argv", [[], ["chain"], ["chain", "nope"],
                                  ["--help"], ["--json", "chain", "verify"]])
def test_no_command_builds_the_full_tree(full_parser, monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == _parsers_built(
        monkeypatch, None) > len(cli.COMMANDS)
    assert cli.build_parser(argv).format_help() == full_parser.format_help()


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["chain"], ["chain", "nope"], ["--json"],
    ["chain", "verify", "--bogus"], ["factory", "init", "--version", "x"]])
def test_parse_errors_match_full_parser(full_parser, capsys, argv):
    assert cli.main(argv) == 2
    expected = _parse_error(full_parser, argv)
    assert capsys.readouterr().err == f"error: ParseError: {expected}\n"


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["chain", "--help"], ["object", "put", "--help"]] + [
    [word for word in key if word] + ["--help"] for key in cli.COMMANDS])
def test_help_matches_full_parser(full_parser, capsys, argv):
    with pytest.raises(SystemExit):
        full_parser.parse_args(argv)
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert capsys.readouterr().out == expected


def test_state_show_and_factory_queries(prop):
    ledger, addr = prop
    shown = jget(ledger, "state", "show")
    node = load_state(ledger.state_dir)
    assert shown == json.loads(canonical_json_bytes(node.state.state_dict()))
    assert sorted(shown) == ["accounts", "config", "factory", "properties",
                             "stakeholders", "version"]
    assert list(shown["properties"]) == [addr]
    assert jget(ledger, "factory", "info") == shown["factory"]
    assert jget(ledger, "factory", "proxy-length") == {"proxyLength": 1}
    _, out, _ = ledger("factory", "proxy-length")
    assert out == "proxyLength: 1"


def test_an_address_with_a_trailing_newline_is_malformed(ledger):
    blocks = len(load_state(ledger.state_dir).state.chain.blocks)
    _, _, errtxt = ledger("chain", "faucet", "--to", ADMIN + "\n",
                          "--amount", "1", "--as", ADMIN, expect=2)
    assert "ParseError: not a valid address" in errtxt
    assert len(load_state(ledger.state_dir).state.chain.blocks) == blocks


# each malformed address must stop the command before it loads the state
BAD_ADDRESS_COMMANDS = [
    "chain faucet --to {bad} --amount 1 --as {admin}",
    "chain transfer --to {bad} --amount 1 --as {seller}",
    "stakeholder remove --target {bad} --as {admin}",
    "property transfer --property {prop} --to {bad} --id 1 --amount 1 "
    "--as {seller}",
    "property burn --property {prop} --from {bad} --id 1 --amount 1 "
    "--as {seller}",
    "property burn-batch --property {prop} --from {bad} --ids 1 "
    "--amounts 1 --as {seller}",
    "token approve --property {prop} --operator {bad} --approved true "
    "--as {seller}",
    "token transfer --property {prop} --from {bad} --to {buyer} --ids 1 "
    "--amounts 1 --as {seller}",
    "token transfer --property {prop} --from {seller} --to {bad} --ids 1 "
    "--amounts 1 --as {seller}",
    "token consent --property {prop} --party-a {bad} --party-b {buyer} "
    "--as {buyer}",
    "token swap --property {prop} --party-a {seller} --party-b {bad} "
    "--as {seller}",
    "factory init --version 2 --admin {bad} --as {admin}",
    "factory init --version 2 --upgrader {bad} --as {admin}",
    "factory deploy --treasury {bad} --upgrader {admin} --admin {seller} "
    "--uri u --as {seller}",
    "factory deploy --treasury {treasury} --upgrader {bad} "
    "--admin {seller} --uri u --as {seller}",
    "factory deploy --treasury {treasury} --upgrader {admin} "
    "--admin {bad} --uri u --as {seller}",
]
BAD_ADDRESSES = ["'hello world'", "xyz", "0x" + "AB" * 20]


@pytest.mark.parametrize("command, bad", [
    (command, BAD_ADDRESSES[i % len(BAD_ADDRESSES)])
    for i, command in enumerate(BAD_ADDRESS_COMMANDS)])
def test_malformed_address_exits_2(prop, command, bad):
    ledger, addr = prop
    blocks = len(load_state(ledger.state_dir).state.chain.blocks)
    argv = shlex.split(command.format(
        bad=bad, prop=addr, admin=ADMIN, seller=SELLER, buyer=BUYER,
        treasury=TREASURY))
    _, _, errtxt = ledger(*argv, "--timestamp", "70", expect=2)
    assert "ParseError: not a valid address" in errtxt
    assert len(load_state(ledger.state_dir).state.chain.blocks) == blocks
