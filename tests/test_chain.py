import pytest
from hypothesis import given, strategies as st

from estateledger.canonical import canonical_json_bytes, sha256_hex
from estateledger.chain import (GENESIS_PREV_HASH, Chain, NativeLedger,
                                Transaction)
from estateledger.errors import LedgerError
from estateledger.node import LedgerState, Node
from estateledger.records import read, to_json
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
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
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
    d = node.state.state_dict(objects=True, chain=True)
    del d["version"], d["config"]
    assert node.full_digest() == sha256_hex(canonical_json_bytes(d))


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
