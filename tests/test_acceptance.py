"""Acceptance gate: the eight properties the system guarantees.

Each test prints exactly one PASS/FAIL line on the real terminal so the
gate can be read off a test run at a glance. All checks are exact; no
tolerances apply anywhere. Budget: the whole module runs in well under
a minute on a laptop.
"""

import copy
import hashlib
import json
import os
import random

import pytest

from conftest import add_doc, approve, deploy, register
from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.canonical import canonical_json_bytes, sha256_hex
from estateledger.chain import Chain, NativeLedger, Transaction
from estateledger.errors import LedgerError
from estateledger.factory import FACTORY_ADDRESS, proxy_address
from estateledger.merkle import MerkleProof, MerkleTree, ProofStep, verify_proof
from estateledger.node import EXECUTORS
from estateledger.property_contract import pro_rata_payouts
from estateledger.records import to_json
from estateledger.tokens import (TokenLedger, atomic_swap, fractional_of,
                                 swap_descriptor_digest)

from oracles import (BalanceTracker, ref_block_hash, ref_merkle_root,
                     ref_payouts)

ACCOUNTS = ["0x" + format(i + 1, "040x") for i in range(8)]
TOKEN_IDS = [1, 2, 3, fractional_of(1), fractional_of(2)]
RIGHT_IDS = [1, 2, 3]

ADMIN = derive_address(b"admin-key-1")
SELLER = derive_address(b"seller-key")
BUYER = derive_address(b"buyer-key")
TREASURY = "0x" + "00" * 19 + "aa"
URI = "ipfs://meta/{id}.json"
PROP0 = proxy_address(FACTORY_ADDRESS, 0)


def report(capsys, num, label, ok, detail=""):
    line = f"[acceptance {num}/8] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, f"criterion {num}: {label}"


# -- 1. supply conservation ----------------------------------------------------


def _random_op(rng, tokens, native, tracker):
    """One random mint/burn/transfer/swap; mirror on the tracker iff the
    engine accepted it."""
    kind = rng.choices(["mint", "transfer", "burn", "swap", "bad"],
                       weights=[30, 30, 15, 15, 10])[0]
    try:
        if kind == "mint":
            token_id = rng.choice(TOKEN_IDS)
            to = rng.choice(ACCOUNTS)
            amount = 1 if token_id in RIGHT_IDS else rng.randint(1, 100)
            tokens.mint(to, token_id, amount)
            tracker.mint(to, token_id, amount)
        elif kind == "transfer":
            token_id = rng.choice(TOKEN_IDS)
            src, dst = rng.choice(ACCOUNTS), rng.choice(ACCOUNTS)
            held = tokens.balance_of(src, token_id)
            amount = 1 if token_id in RIGHT_IDS else rng.randint(
                0, max(held, 1))
            tokens.safe_transfer_batch(src, src, dst, [token_id], [amount])
            if amount:
                tracker.transfer(src, dst, token_id, amount)
        elif kind == "burn":
            token_id = rng.choice(TOKEN_IDS)
            owner = rng.choice(ACCOUNTS)
            held = tokens.balance_of(owner, token_id)
            amount = 1 if token_id in RIGHT_IDS else rng.randint(
                1, max(held, 1))
            tokens.apply(tokens.plan_moves([(owner, None, token_id, amount)]))
            tracker.burn(owner, token_id, amount)
        elif kind == "swap":
            a, b = rng.sample(ACCOUNTS, 2)
            def legs_for(owner):
                legs = []
                for token_id in rng.sample(TOKEN_IDS, rng.randint(0, 2)):
                    held = tokens.balance_of(owner, token_id)
                    if held:
                        legs.append([token_id, 1 if token_id in RIGHT_IDS
                                     else rng.randint(1, held)])
                return legs
            legs_a, legs_b = legs_for(a), legs_for(b)
            value_a, value_b = rng.randint(0, 100), rng.randint(0, 100)
            digest = swap_descriptor_digest(a, legs_a, value_a,
                                            b, legs_b, value_b)
            tokens.give_consent(a, digest)
            tokens.give_consent(b, digest)
            atomic_swap(tokens, native, a, legs_a, value_a, b, legs_b,
                        value_b)
            for tid, amt in legs_a:
                tracker.transfer(a, b, tid, amt)
            for tid, amt in legs_b:
                tracker.transfer(b, a, tid, amt)
        else:  # deliberately invalid: over-transfer or re-mint
            token_id = rng.choice(TOKEN_IDS)
            src = rng.choice(ACCOUNTS)
            held = tokens.balance_of(src, token_id)
            tokens.safe_transfer_batch(src, src, rng.choice(ACCOUNTS),
                                       [token_id], [held + 1])
            raise AssertionError("over-transfer must not succeed")
    except LedgerError:
        pass  # rejected by the engine: the tracker mirrors nothing


def _conserved(tokens, tracker):
    for token_id in TOKEN_IDS:
        holders = tokens.holders_of(token_id)
        if sum(holders.values()) != tokens.total_supply(token_id):
            return False
        if tracker.supply(token_id) != tokens.total_supply(token_id):
            return False
        for addr in ACCOUNTS:
            if tracker.holdings(token_id, addr) != holders.get(addr, 0):
                return False
    return True


def test_1_supply_conservation(capsys):
    rng = random.Random(101)
    sequences, ops_run = 1000, 0
    ok = True
    for _ in range(sequences):
        tokens = TokenLedger(base_uri=URI)
        native = NativeLedger()
        for addr in ACCOUNTS:
            native.ensure_account(addr)
            native.credit(addr, 10 ** 6)
        native_total = sum(native.accounts.values())
        tracker = BalanceTracker()
        for _ in range(rng.randint(1, 50)):
            _random_op(rng, tokens, native, tracker)
            ops_run += 1
            if not _conserved(tokens, tracker):
                ok = False
                break
            if sum(native.accounts.values()) != native_total:
                ok = False
                break
        if not ok:
            break
    report(capsys, 1, "supply conservation vs brute-force tracker", ok,
           f"{sequences} sequences, {ops_run} ops, exact")


# -- 2. batch/atomicity equivalence ---------------------------------------------


def _seeded_tokens(rng):
    tokens = TokenLedger(base_uri=URI)
    for right in RIGHT_IDS:
        if rng.random() < 0.8:
            tokens.mint(rng.choice(ACCOUNTS[:4]), right, 1)
    for frac in (fractional_of(1), fractional_of(2)):
        tokens.mint(rng.choice(ACCOUNTS[:4]), frac, rng.randint(50, 200))
    return tokens


def _tokens_digest(tokens):
    return sha256_hex(canonical_json_bytes(to_json(tokens)))


def test_2_batch_equals_sequential_and_failed_batch_is_a_no_op(capsys):
    rng = random.Random(202)
    ok = True
    for _ in range(500):
        tokens = _seeded_tokens(rng)
        src = max(ACCOUNTS[:4],
                  key=lambda a: tokens.balance_of(a, fractional_of(1)))
        dst = ACCOUNTS[5]
        held = tokens.balance_of(src, fractional_of(1))
        n_legs = rng.randint(1, 4)
        legs = [rng.randint(0, held // n_legs) for _ in range(n_legs)]
        batch = copy.deepcopy(tokens)
        batch.safe_transfer_batch(src, src, dst,
                                  [fractional_of(1)] * n_legs, legs)
        seq = copy.deepcopy(tokens)
        for amt in legs:
            seq.safe_transfer_batch(src, src, dst, [fractional_of(1)], [amt])
        if _tokens_digest(batch) != _tokens_digest(seq):
            ok = False
            break
    detail = "500 successful"
    if ok:
        for _ in range(500):
            tokens = _seeded_tokens(rng)
            src = max(ACCOUNTS[:4],
                      key=lambda a: tokens.balance_of(a, fractional_of(1)))
            held = tokens.balance_of(src, fractional_of(1))
            legs = [rng.randint(0, max(held // 4, 1)) for _ in range(3)]
            poison = rng.randrange(4)
            legs.insert(poison, held + 10 ** 6)  # guaranteed shortfall
            before = _tokens_digest(tokens)
            try:
                tokens.safe_transfer_batch(src, src, ACCOUNTS[5],
                                           [fractional_of(1)] * 4, legs)
                ok = False
            except LedgerError:
                ok = _tokens_digest(tokens) == before
            if not ok:
                break
        detail += " + 500 injected-failure batches, digests exact"
    report(capsys, 2, "batch equals sequential; failed batch leaves no trace",
           ok, detail)


# -- 3. merkle soundness -----------------------------------------------------


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_3_merkle_soundness(capsys):
    rng = random.Random(303)
    ok = True
    proofs = mutations = 0
    for size in range(1, 33):
        leaves = [rng.randbytes(32) for _ in range(size)]
        tree = MerkleTree(leaves)
        if tree.root != ref_merkle_root(leaves):
            ok = False
            break
        for index in range(size):
            proof = tree.prove(index)
            proofs += 1
            if not verify_proof(tree.root, leaves[index], proof):
                ok = False
                break
            for bit in range(256):
                if verify_proof(tree.root, _flip(leaves[index], bit), proof):
                    ok = False
                    break
                if verify_proof(_flip(tree.root, bit), leaves[index], proof):
                    ok = False
                    break
                mutations += 2
            for step_at, step in enumerate(proof.siblings):
                if not ok:
                    break
                for bit in range(256):
                    siblings = list(proof.siblings)
                    siblings[step_at] = ProofStep(_flip(step.digest, bit),
                                                  step.side)
                    bad = MerkleProof(proof.leaf_index, siblings)
                    if verify_proof(tree.root, leaves[index], bad):
                        ok = False
                        break
                    mutations += 1
            if not ok:
                break
        if not ok:
            break
    report(capsys, 3, "merkle proofs sound under exhaustive bit flips", ok,
           f"sizes 1-32, {proofs} proofs, {mutations} mutations rejected")


# -- 4. chain integrity --------------------------------------------------------


def _random_chain(rng, n_blocks):
    chain = Chain()
    chain.append_genesis(timestamp=rng.randint(0, 10 ** 6))
    for i in range(n_blocks):
        txs = [Transaction(caller=rng.choice(ACCOUNTS),
                           operation=rng.choice(["transferNative", "faucet"]),
                           params={"n": rng.randint(0, 999)},
                           attached_value=rng.randint(0, 9))
               for _ in range(rng.randint(1, 2))]
        chain.append_block([tx.canonical_bytes() for tx in txs],
                           timestamp=rng.randint(0, 10 ** 6))
    return chain


def test_4_chain_integrity(capsys):
    rng = random.Random(404)
    ok = True
    # five fresh 100-block chains verify and match the byte-layout oracle
    for _ in range(5):
        chain = _random_chain(rng, 100)
        if not chain.verify():
            ok = False
            break
        for block in chain.blocks:
            if block.hash != ref_block_hash(block.index, block.timestamp,
                                            block.nonce, block.prev_hash,
                                            block.data):
                ok = False
                break
        if not ok:
            break

    mutations = 0
    if ok:
        chain = _random_chain(rng, 100)
        for block in chain.blocks:
            for field in ("index", "timestamp", "nonce"):
                for k in range(8):  # one byte of the 8-byte BE encoding
                    original = getattr(block, field)
                    setattr(block, field, original ^ (1 << (8 * k)))
                    if chain.verify():
                        ok = False
                    setattr(block, field, original)
                    mutations += 8
            for field in ("prev_hash", "hash"):
                original = getattr(block, field)
                for pos in range(len(original)):
                    setattr(block, field, _flip(original, pos * 8))
                    if chain.verify():
                        ok = False
                    setattr(block, field, original)
                    mutations += 1
            for blob_at, blob in enumerate(block.data):
                for pos in range(len(blob)):
                    block.data[blob_at] = _flip(blob, pos * 8)
                    if chain.verify():
                        ok = False
                    block.data[blob_at] = blob
                    mutations += 1
            if not ok:
                break
        ok = ok and chain.verify()  # restored chain is intact again
    report(capsys, 4, "chain verifies; every byte is load-bearing", ok,
           f"5x100 blocks vs oracle, {mutations} single-byte mutations")


# -- 5. earnings distribution ---------------------------------------------------


def test_5_earnings_distribution(capsys):
    rng = random.Random(505)
    ok = True
    for _ in range(1000):
        holders = rng.sample(ACCOUNTS, rng.randint(1, 8))
        balances = {a: rng.randint(1, 10 ** 6) for a in holders}
        total = rng.randint(0, 10 ** 9)
        payouts, remainder = pro_rata_payouts(balances, total)
        expected, expected_rem = ref_payouts(balances, total)
        supply = sum(balances.values())
        if payouts != expected or remainder != expected_rem:
            ok = False
            break
        if sum(payouts.values()) + remainder != total:
            ok = False
            break
        if any(payouts[a] != (balances[a] * total) // supply
               for a in balances):
            ok = False
            break
    worked, worked_rem = pro_rata_payouts({"a": 600, "b": 400}, 1001)
    ok = ok and worked == {"a": 600, "b": 400} and worked_rem == 1
    report(capsys, 5, "pro-rata payouts conserve every unit", ok,
           "1000 random instances + worked 600/400/1001 -> 600/400/1")


# -- 6 & 8. the scripted scenario ----------------------------------------------

DOC1 = b"deed: maple row 12"
DOC2 = b"survey: maple row 12"
CID1 = "cidv0-sha256:" + hashlib.sha256(DOC1).hexdigest()
CID2 = "cidv0-sha256:" + hashlib.sha256(DOC2).hexdigest()
REF_ROOT = ref_merkle_root([hashlib.sha256(DOC1).digest(),
                            hashlib.sha256(DOC2).digest()]).hex()


def scenario_script(with_upgrade: bool) -> str:
    lines = [
        f'as {ADMIN} stakeholder register --role Seller --key seller-key',
        f'as {ADMIN} stakeholder register --role Buyer --key buyer-key',
        f'as {ADMIN} chain faucet --to {SELLER} --amount 2000',
        f'as {ADMIN} chain faucet --to {BUYER} --amount 1000',
        f'as {ADMIN} factory init --version 1 --tag base',
        f'as {SELLER} factory deploy --treasury {TREASURY} '
        f'--upgrader {ADMIN} --admin {ADMIN} --uri {URI} '
        f'--name "Maple Row 12"',
        f'as {SELLER} object put --data "{DOC1.decode()}"',
        f'as {SELLER} property adddoc --property {PROP0} --cid {CID1}',
        f'as {SELLER} object put --data "{DOC2.decode()}"',
        f'as {SELLER} property adddoc --property {PROP0} --cid {CID2}',
    ]
    if with_upgrade:
        lines.append(f'as {ADMIN} factory upgrade --version 1 --tag base')
    lines += [
        f'as {ADMIN} property approve --property {PROP0} '
        f'--parent-hash {REF_ROOT}',
        f'as {SELLER} property mint --property {PROP0} --id 1 --price 0',
        f'as {SELLER} property fractionalize --property {PROP0} '
        f'--right-id 1 --units 1000 --price-per-unit 3',
        f'as {BUYER} property transfer --property {PROP0} --to {BUYER} '
        f'--id frac:1 --amount 200 --value 600',
        f'as {SELLER} property distribute --property {PROP0} '
        f'--right-id 1 --total 1001 --value 1001',
    ]
    return "\n".join(lines) + "\n"


def run_scenario(capsys, tmp_path, name, with_upgrade):
    state_dir = str(tmp_path / name)
    script = tmp_path / f"{name}.script"
    script.write_text(scenario_script(with_upgrade))
    assert cli.main(["init", "--admin-key", "admin-key-1",
                     "--timestamp", "99", "--state-dir", state_dir]) == 0
    rc = cli.main(["run", str(script), "--timestamp", "100",
                   "--state-dir", state_dir])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return state_dir


def cli_json(capsys, state_dir, *argv):
    rc = cli.main([*argv, "--json", "--state-dir", state_dir])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out.strip())


def test_6_end_to_end_scenario_with_identity_upgrade(capsys, tmp_path):
    plain = run_scenario(capsys, tmp_path, "plain", with_upgrade=False)
    upgraded = run_scenario(capsys, tmp_path, "upgraded", with_upgrade=True)

    # double-entry book kept by hand, applied movement by movement
    book = {}

    def put(addr, amount):
        book[addr] = book.get(addr, 0) + amount

    put(SELLER, 2000)           # faucet
    put(BUYER, 1000)            # faucet
    put(BUYER, -600)            # purchase: 200 units x price 3
    put(SELLER, +600)
    put(SELLER, -1001)          # distribution debits exactly the total
    put(SELLER, +800)           # floor(800 * 1001 / 1000)
    put(BUYER, +200)            # floor(200 * 1001 / 1000)
    put(TREASURY, +1)           # remainder

    ok = True
    for state_dir in (plain, upgraded):
        for addr, expected in book.items():
            got = cli_json(capsys, state_dir, "chain", "balance",
                           "--address", addr)["balance"]
            ok = ok and got == expected
        units = cli_json(capsys, state_dir, "token", "balance",
                         "--property", PROP0, "--owner", BUYER,
                         "--id", "frac:1")["balances"]
        ok = ok and list(units.values()) == [200]
        seller_units = cli_json(capsys, state_dir, "token", "balance",
                                "--property", PROP0, "--owner", SELLER,
                                "--id", "frac:1")["balances"]
        ok = ok and list(seller_units.values()) == [800]
        ok = ok and cli_json(capsys, state_dir, "chain",
                             "replay")["replay"] == "OK"

    # the injected identity upgrade must not disturb the final ledger
    digest_plain = cli_json(capsys, plain, "state", "digest",
                            "--scope", "ledger")["digest"]
    digest_upgraded = cli_json(capsys, upgraded, "state", "digest",
                               "--scope", "ledger")["digest"]
    ok = ok and digest_plain == digest_upgraded
    report(capsys, 6, "scripted scenario balances to the unit", ok,
           "buyer +200 units, seller +600, payouts 800/200 rem 1, "
           "upgrade-invariant")


def test_8_determinism(capsys, tmp_path):
    runs = [run_scenario(capsys, tmp_path, name, with_upgrade=True)
            for name in ("first", "second")]
    snaps = []
    for state_dir in runs:
        out = state_dir + ".snapshot"  # the export refuses the dir
        assert cli.main(["state", "export", "--out", out,
                         "--state-dir", state_dir]) == 0
        capsys.readouterr()
        record = {}
        for fname in ("state.json", "chain.json"):
            with open(os.path.join(state_dir, fname), "rb") as fh:
                record[fname] = fh.read()
        with open(out, "rb") as fh:
            record["exported.snapshot"] = fh.read()
        objects_dir = os.path.join(state_dir, "objects")
        for fname in sorted(os.listdir(objects_dir)):
            with open(os.path.join(objects_dir, fname), "rb") as fh:
                record["objects/" + fname] = fh.read()
        snaps.append(record)
    ok = snaps[0] == snaps[1] and len(snaps[0]) >= 5
    report(capsys, 8, "pinned-timestamp runs are bit-identical", ok,
           f"{len(snaps[0])} files compared byte for byte")


# -- 7. pause gate --------------------------------------------------------------

PAUSE_GATED = {"deployProperty", "mintNFT", "mintBatchNFTs", "mintFractional"}


def _attempt(node, caller, op, params, value=0):
    try:
        node.execute(caller, op, params, value=value, timestamp=7000)
        return "ok"
    except LedgerError as exc:
        return exc.code


def test_7_pause_gate(approved_prop, capsys):
    node, prop = approved_prop
    frac1 = fractional_of(1)

    # a second approved proxy proves the gate is factory-wide
    prop2 = deploy(node, ts=6000)
    add_doc(node, prop2, b"deed of the second house", ts=6001)
    approve(node, prop2, ts=6002)

    realtor = register(node, node.admin, "Realtor", b"realtor-key", 6003)
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0},
                 timestamp=6004)
    node.execute(node.seller, "mintFractional",
                 {"property": prop, "rightId": 1, "units": 1000,
                  "pricePerUnit": 3}, timestamp=6005)
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": frac1,
                  "amount": 200, "data": ""}, value=600, timestamp=6006)
    swap_params = {"property": prop, "partyA": node.seller,
                   "partyB": node.buyer, "legsA": [[frac1, 10]],
                   "legsB": [], "valueA": 0, "valueB": 30}
    digest = swap_descriptor_digest(node.seller, [[frac1, 10]], 0,
                                    node.buyer, [], 30)
    node.execute(node.seller, "consentSwap",
                 {"property": prop, "digest": digest}, timestamp=6007)
    node.execute(node.buyer, "consentSwap",
                 {"property": prop, "digest": digest}, timestamp=6008)
    fresh_cid = node.execute(node.seller, "putObject",
                             {"dataHex": b"tax statement".hex()},
                             timestamp=6009)["cid"]
    root_hex = node.state.properties[prop].approval_root.hex()

    node.execute(node.admin, "pause", {}, timestamp=6010)

    cases = {
        "bootstrapAdmin": (node.admin, {"publicKey": "aa" * 8,
                                        "infoCid": ""}, 0, "NotAuthorized"),
        "registerStakeholder": (node.admin,
                                {"role": "Realtor",
                                 "publicKey": b"other-realtor".hex(),
                                 "infoCid": ""}, 0, "ok"),
        "removeStakeholder": (node.admin, {"target": realtor}, 0, "ok"),
        "transferNative": (node.seller, {"to": node.buyer, "amount": 1},
                           0, "ok"),
        "faucet": (node.admin, {"to": node.seller, "amount": 1}, 0, "ok"),
        "putObject": (node.admin, {"dataHex": "00ff"}, 0, "ok"),
        "buildRightMetadata": (node.admin,
                               {"nameOfRight": "n", "description": "",
                                "documents": []}, 0, "ok"),
        "registerDocument": (node.seller,
                             {"property": prop, "cid": fresh_cid}, 0, "ok"),
        "approvedProperty": (node.admin,
                             {"property": prop, "parentHash": root_hex},
                             0, "ok"),
        "initializeFactory": (node.admin, {"versionId": 1}, 0,
                              "AlreadyInitialized"),
        "deployProperty": (node.seller,
                           {"treasury": TREASURY, "upgrader": node.admin,
                            "admin": node.admin, "uri": URI,
                            "contractName": "x", "description": ""},
                           0, "Paused"),
        "pause": (node.admin, {}, 0, "AlreadyPaused"),
        "unpause": (node.admin, {}, 0, "ok"),
        "authorizeUpgrade": (node.admin,
                             {"versionId": 2, "behaviorTag": "base"},
                             0, "ok"),
        "mintNFT": (node.seller,
                    {"property": prop, "id": 2, "data": "", "price": 0},
                    0, "Paused"),
        "mintBatchNFTs": (node.seller,
                          {"property": prop, "ids": [2], "amounts": [1],
                           "data": "", "prices": [0]}, 0, "Paused"),
        "mintFractional": (node.seller,
                           {"property": prop, "rightId": 1, "units": 5,
                            "pricePerUnit": 0}, 0, "Paused"),
        "transferNFT": (node.seller,
                        {"property": prop, "to": node.buyer, "id": frac1,
                         "amount": 5, "data": ""}, 0, "ok"),
        "burnNFT": (node.buyer,
                    {"property": prop, "from": node.buyer, "id": frac1,
                     "amount": 5}, 0, "ok"),
        "burnBatchNFTs": (node.buyer,
                          {"property": prop, "from": node.buyer,
                           "ids": [frac1], "amounts": [5]}, 0, "ok"),
        "setPrice": (node.seller,
                     {"property": prop, "id": frac1, "pricePerUnit": 9},
                     0, "ok"),
        "distributeEarnings": (node.seller,
                               {"property": prop, "rightId": 1,
                                "total": 10}, 10, "ok"),
        "setApprovalForAll": (node.seller,
                              {"property": prop, "operator": node.admin,
                               "approved": True}, 0, "ok"),
        "safeTransferBatch": (node.seller,
                              {"property": prop, "from": node.seller,
                               "to": node.buyer, "ids": [frac1],
                               "amounts": [3]}, 0, "ok"),
        "consentSwap": (node.seller,
                        {"property": prop, "digest": "ab" * 32}, 0, "ok"),
        "atomicSwap": (node.seller, swap_params, 0, "ok"),
    }

    ok = set(cases) == set(EXECUTORS)
    observed = {}
    for op in sorted(cases):
        caller, params, value, expected = cases[op]
        outcome = _attempt(copy.deepcopy(node), caller, op, params, value)
        observed[op] = outcome
        if outcome != expected:
            ok = False
        if (op in PAUSE_GATED) != (outcome == "Paused"):
            ok = False

    # the gate covers every proxy, not just the first
    for op, params in [
        ("mintNFT", {"property": prop2, "id": 1, "data": "", "price": 0}),
        ("mintBatchNFTs", {"property": prop2, "ids": [1], "amounts": [1],
                           "data": "", "prices": [0]}),
    ]:
        if _attempt(copy.deepcopy(node), node.seller, op, params) != "Paused":
            ok = False

    # unpause restores minting on the live node
    node.execute(node.admin, "unpause", {}, timestamp=7500)
    resumed = _attempt(node, node.seller, "mintNFT",
                       {"property": prop, "id": 2, "data": "", "price": 0})
    ok = ok and resumed == "ok"
    report(capsys, 7, "pause rejects exactly deploy + mint family", ok,
           f"{len(cases)} op kinds on 2 proxies, then unpause remints")
