import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from estateledger.canonical import canonical_json_bytes
from estateledger.errors import LedgerError
from estateledger.merkle import (MerkleTree, merkle_root, read_proof,
                                 verify_proof)
from estateledger.records import to_json
from oracles import ref_merkle_root


def rand_leaves(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(32) for _ in range(n)]


def test_single_leaf_root_is_the_leaf():
    leaf = hashlib.sha256(b"only").digest()
    assert merkle_root([leaf]) == leaf


def test_two_leaf_root_recomputed_externally():
    l0, l1 = rand_leaves(2, seed=1)
    assert merkle_root([l0, l1]) == hashlib.sha256(l0 + l1).digest()


def test_three_leaf_promotion():
    # trailing odd node is promoted, not duplicated
    l0, l1, l2 = rand_leaves(3, seed=2)
    expected = hashlib.sha256(hashlib.sha256(l0 + l1).digest() + l2).digest()
    assert merkle_root([l0, l1, l2]) == expected


@pytest.mark.parametrize("n", range(1, 33))
def test_root_matches_recursive_reference(n):
    leaves = rand_leaves(n, seed=n)
    assert merkle_root(leaves) == ref_merkle_root(leaves)


def test_empty_leaves_rejected():
    with pytest.raises(LedgerError) as e:
        MerkleTree([])
    assert e.value.code == "EmptyLeaves"


def test_leaves_must_be_32_byte_digests():
    with pytest.raises(LedgerError) as e:
        MerkleTree([b"short"])
    assert e.value.code == "ParseError"


def test_single_leaf_proof_is_empty():
    leaf = rand_leaves(1, seed=3)[0]
    proof = MerkleTree([leaf]).prove(0)
    assert proof.siblings == []
    assert verify_proof(leaf, leaf, proof)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 32])
def test_all_proofs_verify(n):
    leaves = rand_leaves(n, seed=n + 100)
    tree = MerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        assert verify_proof(tree.root, leaf, tree.prove(i)), i


def test_index_out_of_range():
    tree = MerkleTree(rand_leaves(4, seed=4))
    for bad in (4, -1, 100):
        with pytest.raises(LedgerError) as e:
            tree.prove(bad)
        assert e.value.code == "IndexOutOfRange"


def test_proof_for_wrong_leaf_fails():
    leaves = rand_leaves(8, seed=5)
    tree = MerkleTree(leaves)
    proof = tree.prove(3)
    assert not verify_proof(tree.root, leaves[4], proof)


def test_bit_flips_break_verification():
    # sampled here; the acceptance suite walks every bit
    leaves = rand_leaves(6, seed=6)
    tree = MerkleTree(leaves)
    proof = tree.prove(2)
    leaf = leaves[2]

    flipped = bytearray(leaf)
    flipped[0] ^= 0x40
    assert not verify_proof(tree.root, bytes(flipped), proof)

    root = bytearray(tree.root)
    root[31] ^= 0x01
    assert not verify_proof(bytes(root), leaf, proof)

    sib = bytearray(proof.siblings[1].digest)
    sib[16] ^= 0x10
    proof.siblings[1].digest = bytes(sib)
    assert not verify_proof(tree.root, leaf, proof)


def test_proof_round_trips_through_json():
    tree = MerkleTree(rand_leaves(5, seed=7))
    proof = tree.prove(4)
    again = read_proof(
        json.loads(canonical_json_bytes(to_json(proof)).decode("utf-8")))
    assert again == proof
    assert verify_proof(tree.root, tree.leaves[4], again)
    assert (canonical_json_bytes(to_json(again))
            == canonical_json_bytes(to_json(proof)))


def test_bad_side_tag_rejected():
    with pytest.raises(LedgerError) as e:
        read_proof({"leafIndex": 0,
                    "siblings": [{"digest": "00" * 32, "side": "up"}]})
    assert e.value.code == "ParseError"


def _former_proof_dict(proof) -> dict:
    """The proof's JSON as the hand-written encoder before the record
    codec wrote it."""
    return {"leafIndex": proof.leaf_index,
            "siblings": [{"digest": s.digest.hex(), "side": s.side}
                         for s in proof.siblings]}


def test_proof_json_keeps_its_bytes_for_every_index_of_64_trees():
    leaves = rand_leaves(64, seed=8)
    for n in range(1, 65):
        tree = MerkleTree(leaves[:n])
        for i in range(n):
            proof = tree.prove(i)
            assert (canonical_json_bytes(to_json(proof))
                    == canonical_json_bytes(_former_proof_dict(proof))), (n, i)
            assert read_proof(to_json(proof)) == proof


GOOD_STEP = {"digest": "ab" * 32, "side": "right"}
# a proof JSON value -> the detail of its refusal
MALFORMED_PROOFS = {
    "index-negative": ({"leafIndex": -7, "siblings": [GOOD_STEP]},
                       "leafIndex: -7 < 0"),
    "index-a-string": ({"leafIndex": "x", "siblings": [GOOD_STEP]},
                       "leafIndex: expected int, got 'x'"),
    "index-a-bool": ({"leafIndex": True, "siblings": [GOOD_STEP]},
                     "leafIndex: expected int, got True"),
    "index-missing": ({"siblings": [GOOD_STEP]},
                      "keys ['siblings'], expected ['leafIndex', 'siblings']"),
    "extra-top-key": ({"leafIndex": 0, "siblings": [GOOD_STEP], "x": 1},
                      "keys ['leafIndex', 'siblings', 'x'], expected "
                      "['leafIndex', 'siblings']"),
    "extra-step-key": ({"leafIndex": 0, "siblings": [GOOD_STEP | {"x": 1}]},
                       "siblings: 0: keys ['digest', 'side', 'x'], expected "
                       "['digest', 'side']"),
    "digest-uppercase": ({"leafIndex": 0, "siblings": [
        GOOD_STEP, {"digest": "AB" * 32, "side": "left"}]},
        "siblings: 1: digest: expected lowercase hex, got "
        + repr("AB" * 32)[:60]),
    "digest-31-bytes": ({"leafIndex": 0, "siblings": [
        {"digest": "ab" * 31, "side": "left"}]},
        "siblings: 0: expected a 32-byte digest on the left or right, "
        "got 31 bytes on the 'left'"),
    "side-up": ({"leafIndex": 0, "siblings": [GOOD_STEP | {"side": "up"}]},
                "siblings: 0: expected a 32-byte digest on the left or "
                "right, got 32 bytes on the 'up'"),
    "siblings-an-object": ({"leafIndex": 0, "siblings": {}},
                           "siblings: expected a list, got {}"),
    "siblings-a-string": ({"leafIndex": 0, "siblings": "ab"},
                          "siblings: expected a list, got 'ab'"),
    "siblings-null": ({"leafIndex": 0, "siblings": None},
                      "siblings: expected a list, got None"),
    "step-not-an-object": ({"leafIndex": 0, "siblings": [GOOD_STEP, 5]},
                           "siblings: 1: expected an object, got 5"),
    "not-an-object": ([], "expected an object, got []"),
}


@pytest.mark.parametrize("case", MALFORMED_PROOFS)
def test_a_malformed_proof_is_refused_with_its_detail(case):
    value, detail = MALFORMED_PROOFS[case]
    with pytest.raises(LedgerError) as e:
        read_proof(value)
    assert (e.value.code, e.value.message) == (
        "ParseError", f"proof is not valid proof JSON: {detail}")


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1,
                max_size=16))
def test_reference_agreement_on_arbitrary_leaves(leaves):
    tree = MerkleTree(leaves)
    assert tree.root == ref_merkle_root(leaves)
    for i in range(len(leaves)):
        assert verify_proof(tree.root, leaves[i], tree.prove(i))
