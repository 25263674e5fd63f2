import hashlib
import json
import struct

import pytest
from hypothesis import given, strategies as st

from estateledger.canonical import canonical_json_bytes, sha256_hex
from estateledger.chain import (BLOCK_KEYS, GENESIS_PREV_HASH,
                                TRANSACTION_KEYS, Block, Chain,
                                NativeLedger, Transaction, decode_command)
from estateledger.errors import LedgerError, err
from estateledger.node import LedgerState, Node, state_digest, state_pieces
from estateledger.persistence import load_state, save_state
from estateledger.records import read, read_object, read_u64, to_json
from estateledger.storage import ObjectStore
from oracles import ref_block_hash


def make_tx(i=0):
    return Transaction(caller="0x" + "11" * 20, operation="op",
                       params={"n": i})


def make_chain(n_blocks=3, txs_per_block=2):
    chain = Chain()
    chain.append_genesis(timestamp=100)
    for b in range(n_blocks):
        chain.append_block(
            [make_tx(b * 10 + i).canonical_bytes()
             for i in range(txs_per_block)],
            timestamp=101 + b)
    return chain


def test_genesis_shape():
    chain = Chain()
    g = chain.append_genesis(timestamp=42)
    assert g.index == 0
    assert g.nonce == 0
    assert g.data == []
    assert g.prev_hash == GENESIS_PREV_HASH == b"\x00" * 32


def test_second_genesis_rejected():
    chain = Chain()
    chain.append_genesis(0)
    with pytest.raises(LedgerError) as e:
        chain.append_genesis(0)
    assert e.value.code == "AlreadyInitialized"


def test_append_links_to_tip():
    chain = make_chain(1)
    assert chain.blocks[1].prev_hash == chain.blocks[0].hash


def test_nonce_is_a_counter():
    chain = make_chain(4)
    assert [b.nonce for b in chain.blocks] == [0, 1, 2, 3, 4]


def test_append_before_genesis_rejected():
    with pytest.raises(LedgerError) as e:
        Chain().append_block([], timestamp=0)
    assert e.value.code == "Uninitialized"


def test_block_hash_matches_reference_layout():
    # empty-data block recomputed with an independent struct-based oracle
    chain = make_chain(0)
    chain.append_block([], timestamp=7)
    b = chain.blocks[1]
    assert b.hash == ref_block_hash(b.index, b.timestamp, b.nonce,
                                    b.prev_hash, [])


def test_block_hash_with_transactions_matches_reference():
    chain = make_chain(2, txs_per_block=3)
    for b in chain.blocks:
        assert b.hash == ref_block_hash(b.index, b.timestamp, b.nonce,
                                        b.prev_hash, b.data)


# -- the block hash layout, pinned apart from the code that computes it -----

U64_MAX = 2 ** 64 - 1
header_fields = st.integers(0, U64_MAX) | st.sampled_from([0, U64_MAX])
# an empty blob and one over 64 KiB, whose length needs a third byte
blobs = st.binary(max_size=80) | st.sampled_from([b"", b"\xab" * 65537])


def readme_layout_hash(index, timestamp, nonce, prev_hash, data) -> bytes:
    """SHA-256 over README "Byte layouts": index, timestamp and nonce as
    8 bytes big-endian each, the prevHash bytes, then each blob after its
    length as 4 bytes big-endian."""
    payload = (index.to_bytes(8, "big") + timestamp.to_bytes(8, "big")
               + nonce.to_bytes(8, "big") + prev_hash)
    for blob in data:
        payload += len(blob).to_bytes(4, "big") + blob
    return hashlib.sha256(payload).digest()


@given(header_fields, header_fields, header_fields,
       st.binary(min_size=32, max_size=32) | st.binary(max_size=40),
       st.lists(blobs, max_size=3))
def test_block_hash_is_sha256_of_the_readme_layout(index, timestamp, nonce,
                                                    prev_hash, data):
    # a prevHash of any length is hashed as its bytes, not padded or cut
    block = Block(index, timestamp, nonce, data, prev_hash)
    assert block.compute_hash() == readme_layout_hash(
        index, timestamp, nonce, prev_hash, data)


@pytest.mark.parametrize("field", ["index", "timestamp", "nonce"])
@pytest.mark.parametrize("value", [2 ** 64, -1])
def test_a_header_field_outside_u64_raises_instead_of_wrapping(field, value):
    fields = {"index": 1, "timestamp": 1, "nonce": 1} | {field: value}
    block = Block(**fields, data=[b"{}"], prev_hash=GENESIS_PREV_HASH)
    with pytest.raises((struct.error, OverflowError)):
        block.compute_hash()


def test_timestamp_zero_genesis_hash_is_pinned():
    # 56 zero bytes: three zero header fields and the zero prevHash
    genesis = Chain().append_genesis(0)
    assert genesis.hash.hex() == ("d4817aa5497628e7c77e6b606107042b"
                                  "bba3130888c5f47a375e6179be789fbb")
    assert genesis.hash == hashlib.sha256(bytes(56)).digest()


def test_verify_accepts_untampered_chain():
    assert make_chain(3).verify() is True


def test_verify_genesis_only_chain():
    chain = Chain()
    chain.append_genesis(0)
    assert chain.verify() is True


def test_verify_empty_chain_is_false():
    assert Chain().verify() is False


def test_verify_catches_data_tamper():
    chain = make_chain(3)
    blob = bytearray(chain.blocks[1].data[0])
    blob[0] ^= 0x01
    chain.blocks[1].data[0] = bytes(blob)
    assert chain.verify() is False


def test_verify_catches_field_tampers():
    for field, delta in [("timestamp", 1), ("nonce", 1), ("index", 1)]:
        chain = make_chain(3)
        setattr(chain.blocks[2], field,
                getattr(chain.blocks[2], field) + delta)
        assert chain.verify() is False, field


def test_verify_catches_hash_and_prevhash_tamper():
    chain = make_chain(3)
    h = bytearray(chain.blocks[2].hash)
    h[5] ^= 0x80
    chain.blocks[2].hash = bytes(h)
    assert chain.verify() is False

    chain = make_chain(3)
    p = bytearray(chain.blocks[2].prev_hash)
    p[0] ^= 0x01
    chain.blocks[2].prev_hash = bytes(p)
    assert chain.verify() is False


def test_chain_serialization_round_trip():
    chain = make_chain(3)
    again = Chain.from_dict(chain.to_dict())
    assert again.verify() is True
    assert [b.hash for b in again.blocks] == [b.hash for b in chain.blocks]


def _set(path, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


def _block(i, **fields):
    return lambda d: d["blocks"][i].update(fields)


# a fault in the block log of make_chain() -> the exact refusal the
# readers word for it; None decodes [] in place of the log
CHAIN_REFUSALS = {
    "not-an-object": (None, "expected an object, got []"),
    "extra-top-key": (lambda d: d.update(extra=1),
                      "keys ['blocks', 'extra'], expected ['blocks']"),
    "blocks-not-a-list": (lambda d: d.update(blocks={}),
                          "expected a list, got {}"),
    "block-not-an-object": (_set(("blocks", 1), 5), "expected dict, got 5"),
    "block-extra-key": (
        _block(1, note=""),
        "keys ['hash', 'index', 'nonce', 'note', 'prevHash', 'timestamp', "
        "'transactions'], expected ['hash', 'index', 'nonce', 'prevHash', "
        "'timestamp', 'transactions']"),
    "block-missing-key": (
        lambda d: d["blocks"][1].pop("hash"),
        "keys ['index', 'nonce', 'prevHash', 'timestamp', 'transactions'], "
        "expected ['hash', 'index', 'nonce', 'prevHash', 'timestamp', "
        "'transactions']"),
    "index-a-bool": (_block(0, index=False),
                     "expected an integer in [0, 2**64), got False"),
    "nonce-a-float": (_block(2, nonce=2.0),
                      "expected an integer in [0, 2**64), got 2.0"),
    "timestamp-negative": (_block(2, timestamp=-1),
                           "expected an integer in [0, 2**64), got -1"),
    "transactions-not-a-list": (_block(1, transactions={}),
                                "expected a list, got {}"),
    "transaction-not-an-object": (_set(("blocks", 1, "transactions", 0), "tx"),
                                  "expected dict, got 'tx'"),
    "prev-hash-uppercase": (_block(2, prevHash="AB"),
                            "expected lowercase hex, got 'AB'"),
    "hash-with-a-space": (_block(2, hash="ab cd"),
                          "expected lowercase hex, got 'ab cd'"),
    "hash-not-hex": (_block(2, hash="zz"), "expected lowercase hex, got 'zz'"),
    "index-off-position": (_block(2, index=1),
                           "block 2 records index 1 and nonce 2"),
    "nonce-off-position": (_block(2, nonce=3),
                           "block 2 records index 2 and nonce 3"),
    # the readers check every header before any position
    "two-faults": (lambda d: (_block(1, index=5)(d),
                              _block(3, timestamp="x")(d)),
                   "expected an integer in [0, 2**64), got 'x'"),
}


@pytest.mark.parametrize("case", CHAIN_REFUSALS)
def test_block_log_refusals_keep_their_wording(case):
    edit, message = CHAIN_REFUSALS[case]
    d = make_chain().to_dict()
    if edit:
        edit(d)
    with pytest.raises(LedgerError) as e:
        Chain.from_dict(d if edit else [])
    assert (e.value.code, e.value.message) == ("CorruptSnapshot", message)


def _block_by_readers(d) -> Block:
    read_object(d, BLOCK_KEYS)
    return Block(
        index=read_u64(d["index"]),
        timestamp=read_u64(d["timestamp"]),
        nonce=read_u64(d["nonce"]),
        data=[canonical_json_bytes(tx)
              for tx in read(list[dict], d["transactions"])],
        prev_hash=read(bytes, d["prevHash"]),
        hash=read(bytes, d["hash"]),
    )


def _read_by_readers(d) -> Chain:
    """The block log as the record readers alone decode it."""
    blocks = [_block_by_readers(b) for b in
              read(list[dict], read_object(d, {"blocks"})["blocks"])]
    for i, b in enumerate(blocks):
        if b.index != i or b.nonce != i:
            raise err("CorruptSnapshot", f"block {i} records index "
                      f"{b.index} and nonce {b.nonce}")
    return Chain(blocks=blocks)


def _outcome(decode, d):
    try:
        return [(b.index, b.timestamp, b.nonce, b.data, b.prev_hash, b.hash)
                for b in decode(d).blocks]
    except LedgerError as exc:
        return exc.code, exc.message


def test_block_log_decode_accepts_exactly_what_the_readers_do():
    d = make_chain(3, 2).to_dict()
    probes = 0
    for i, block in enumerate(d["blocks"]):
        for key, value in list(block.items()):
            for new in (None, True, 0, i - 1, i + 1, -1, 2 ** 64 - 1, 2 ** 64,
                        1.0, "7", "AB", "ab", "", [], [{}], {}):
                if type(new) is type(value) and new == value:
                    continue
                block[key] = new
                probes += 1
                assert (_outcome(Chain.from_dict, d)
                        == _outcome(_read_by_readers, d)), (i, key, new)
            block[key] = value
    assert probes > 350
    assert _outcome(Chain.from_dict, d) == _outcome(_read_by_readers, d)


def _reordered(value):
    """`value` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_reordered(x) for x in value]
    return value


def test_a_re_dumped_block_log_loads_to_the_same_digest(approved_prop,
                                                         tmp_path):
    node, _ = approved_prop
    save_state(str(tmp_path), node)
    path = tmp_path / "chain.json"
    d = json.loads(path.read_bytes())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_reordered(d), fh)  # ", " and ": ", keys unsorted
    assert path.read_bytes() != canonical_json_bytes(d)
    assert load_state(str(tmp_path)).full_digest() == node.full_digest()


def test_transaction_canonical_bytes_are_stable():
    tx = make_tx(5)
    assert tx.canonical_bytes() == read(
        Transaction, to_json(tx)).canonical_bytes()


# text the encoder escapes or passes through: non-ASCII, non-BMP, control
# characters, quotes and backslashes, and the line separators JSON allows
texts = st.text() | st.sampled_from([
    "", "Grundbuch Müller", "\u4e0d\u52a8\u4ea7", "\U0001f3e0 \U0001d11e",
    "\x00\x01\t\n\r\x1f\x7f", 'say "hi"', "back\\slash\\", "\u2028\u2029",
    "\\u0041 not an escape"])
# NaN and the infinities are not JSON: the encoder refuses them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | texts,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12)
transactions = st.builds(
    Transaction, caller=texts,
    operation=st.sampled_from(["deployProperty", "DeployedProperty",
                               "mintNFT", "transferNative"]),
    params=st.dictionaries(texts, json_values, max_size=5),
    attached_value=st.integers(), result_status=texts)
u64 = st.integers(0, 2 ** 64 - 1)


@given(u64, st.lists(st.tuples(u64, st.lists(transactions, max_size=3)),
                     max_size=4),
       st.dictionaries(texts, st.integers(), max_size=3))
def test_spliced_chain_json_equals_dict_encoding(genesis_ts, blocks,
                                                 accounts):
    chain = Chain()
    chain.append_genesis(genesis_ts)
    for timestamp, txs in blocks:
        chain.append_block([tx.canonical_bytes() for tx in txs], timestamp)
    assert chain.canonical_json() == canonical_json_bytes(chain.to_dict())
    for block in chain.blocks:
        assert block.canonical_json() == canonical_json_bytes(block.to_dict())

    node = Node(LedgerState(chain=chain, native=NativeLedger(accounts),
                            store=ObjectStore({"ab" * 32: b"deed"})))
    d = node.state.state_dict(objects=True) | {"chain": chain.to_dict()}
    del d["version"], d["config"]
    assert node.full_digest() == sha256_hex(canonical_json_bytes(d))


# a deploy's block: its command, then the event the factory emits
DEPLOY_BLOCK = [
    Transaction("0x" + "ab" * 20, "deployProperty", {
        "admin": "0x" + "ab" * 20, "treasury": "0x" + "cd" * 20,
        "upgrader": "0x" + "ab" * 20, "uri": "u/{id}"}),
    Transaction("0x" + "fa" * 20, "DeployedProperty",
                {"address": "0x" + "12" * 20, "propertyId": 1})]


@st.composite
def ledgers(draw) -> Chain:
    """A chain of blocks holding up to three transactions each, one of
    them a deploy's block."""
    blocks = draw(st.lists(st.tuples(u64, st.lists(transactions, max_size=3)),
                           max_size=4))
    blocks.insert(draw(st.integers(0, len(blocks))), (draw(u64), DEPLOY_BLOCK))
    chain = Chain()
    chain.append_genesis(draw(u64))
    for timestamp, txs in blocks:
        chain.append_block([tx.canonical_bytes() for tx in txs], timestamp)
    return chain


def _blob_by_blob(chain: Chain) -> dict:
    return {"blocks": [{
        "index": b.index, "timestamp": b.timestamp, "nonce": b.nonce,
        "transactions": [json.loads(blob) for blob in b.data],
        "prevHash": b.prev_hash.hex(), "hash": b.hash.hex()}
        for b in chain.blocks]}


@given(ledgers(), st.dictionaries(texts.filter(lambda k: k != "chain"),
                                  json_values, max_size=4))
def test_the_one_pass_exports_and_digest_equal_their_references(chain, d):
    """``Chain.to_dict``'s one parse equals a decode per blob, and the
    digest's three pieces the canonical JSON of the whole snapshot."""
    assert chain.to_dict() == _blob_by_blob(chain)
    whole = canonical_json_bytes(d | {"chain": chain.to_dict()})
    assert len(state_pieces(d, chain)) == 3
    assert b"".join(state_pieces(d, chain)) == whole
    assert state_digest(d, chain) == sha256_hex(whole)


def _decoded(decode):
    try:
        return "decoded", decode()
    except LedgerError as exc:
        return "LedgerError", str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


# a malformed command's blob, from a well-formed command's JSON object
MALFORMED = [
    lambda tx, key, other: json.dumps({k: v for k, v in tx.items()
                                       if k != key}).encode("utf-8"),
    lambda tx, key, other: json.dumps(tx | {key + "x": 0}).encode("utf-8"),
    lambda tx, key, other: json.dumps(tx | {key: other}).encode("utf-8"),
    lambda tx, key, other: canonical_json_bytes(tx)[:-1],  # not JSON
    lambda tx, key, other: canonical_json_bytes(tx) + b"{}",  # trailing
    lambda tx, key, other: canonical_json_bytes(tx) + b" \n",  # whitespace
]


@given(transactions, st.sampled_from(sorted(TRANSACTION_KEYS)), json_values,
       st.sampled_from(MALFORMED))
def test_a_command_decodes_as_the_record_reader_reads_it(tx, key, other,
                                                        malform):
    """``decode_command`` refuses what ``read(Transaction, ...)`` of the
    parsed blob refuses, in its words: a key missing or extra, each key
    of another type, text that is not JSON, trailing bytes; and reads
    what it reads, the same."""
    value = to_json(tx)
    for blob in (tx.canonical_bytes(), malform(value, key, other)):
        assert _decoded(lambda: decode_command(blob)[0]) == _decoded(
            lambda: read(Transaction, json.loads(blob)))
    assert decode_command(tx.canonical_bytes()) == (tx, True)


@pytest.mark.parametrize("blobs", [[b"1,2"], [b"[1", b"2]"], [b"\xff"]],
                         ids=["two-values", "split-value", "not-utf8"])
def test_blobs_the_joined_parse_misreads_are_decoded_alone(blobs):
    """Blobs that are not one JSON value each, which no ``Block`` a
    reader or a command made holds: the one parse counts other than
    the blobs, or fails, and each blob is decoded alone, which refuses
    it as a decode per blob does."""
    chain = Chain()
    chain.append_genesis(0)
    chain.append_block(blobs, 1)
    with pytest.raises(ValueError) as want:
        _blob_by_blob(chain)
    with pytest.raises(ValueError) as got:
        chain.to_dict()
    assert str(got.value) == str(want.value)


def _depth(value) -> int:
    depth = 0
    while type(value) is list and value:
        value, depth = value[0], depth + 1
    return depth + (type(value) is list)


def test_a_blob_too_deep_to_join_is_decoded_alone(monkeypatch):
    """Near the recursion limit the one parse of the joined blobs, one
    list deeper than each blob, fails: ``Chain.to_dict`` then decodes
    each blob alone, and reads as a decode per blob does from the same
    depth of the stack."""
    handed = []
    to_dict = Block.to_dict
    monkeypatch.setattr(Block, "to_dict", lambda self, txs=None: (
        handed.append(txs is not None), to_dict(self, txs))[1])

    def per_blob(chain):
        return {"blocks": [b.to_dict() for b in chain.blocks]}

    def outcome(chain, export):
        try:
            return _depth(export(chain)["blocks"][1]["transactions"][0])
        except RecursionError:
            return "RecursionError"

    def parses(n):
        try:
            return json.loads("[" * n + "]" * n) is not None
        except RecursionError:
            return False
    low, high = 1, 100_000  # parses, and does not, from this frame
    while high - low > 1:  # to the deepest list one parse reads here
        mid = (low + high) // 2
        low, high = (mid, high) if parses(mid) else (low, mid)
    deepest = low
    fell_back = []
    for n in range(deepest - 20, deepest + 2):
        chain = Chain()
        chain.append_genesis(0)
        chain.append_block([b"[" * n + b"]" * n], 1)
        handed.clear()
        got = outcome(chain, Chain.to_dict)
        if handed[0]:  # the one parse read it
            assert got == n
        else:
            fell_back.append(n)
            assert got == outcome(chain, per_blob)
    assert fell_back


# -- native accounts ----------------------------------------------------------

A = "0x" + "aa" * 20
B = "0x" + "bb" * 20


def funded(amounts):
    native = NativeLedger()
    for addr, amount in amounts.items():
        native.ensure_account(addr)
        native.credit(addr, amount)
    return native


def test_transfer_moves_exactly_amount():
    native = funded({A: 100, B: 0})
    native.transfer(A, B, 40)
    assert native.balance(A) == 60
    assert native.balance(B) == 40


def test_transfer_zero_changes_nothing():
    native = funded({A: 100, B: 5})
    native.transfer(A, B, 0)
    assert native.balance(A) == 100
    assert native.balance(B) == 5


def test_overdraft_rejected_and_untouched():
    native = funded({A: 10, B: 0})
    with pytest.raises(LedgerError) as e:
        native.transfer(A, B, 11)
    assert e.value.code == "InsufficientFunds"
    assert native.balance(A) == 10
    assert native.balance(B) == 0


def test_transfer_to_unknown_account_rejected():
    native = funded({A: 10})
    with pytest.raises(LedgerError) as e:
        native.transfer(A, B, 1)
    assert e.value.code == "UnknownAccount"


def test_zero_address_never_usable():
    zero = "0x" + "00" * 20
    native = funded({A: 10})
    for call in (lambda: native.transfer(A, zero, 1),
                 lambda: native.credit(zero, 1),
                 lambda: native.ensure_account(zero)):
        with pytest.raises(LedgerError) as e:
            call()
        assert e.value.code == "ZeroAddress"


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 50)), max_size=40))
def test_native_conservation(moves):
    # sum of balances is invariant under any transfer sequence
    addrs = ["0x" + f"{i:02x}" * 20 for i in range(1, 5)]
    native = funded({a: 100 for a in addrs})
    for i, j, amount in moves:
        try:
            native.transfer(addrs[i], addrs[j], amount)
        except LedgerError:
            pass
    assert sum(native.accounts.values()) == 400
