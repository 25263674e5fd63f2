import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from estateledger.canonical import canonical_json_bytes
from estateledger.errors import LedgerError
from estateledger.merkle import (MerkleProof, MerkleTree, merkle_root,
                                 verify_proof)
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
    again = MerkleProof.from_dict(
        json.loads(canonical_json_bytes(proof.to_dict()).decode("utf-8")))
    assert verify_proof(tree.root, tree.leaves[4], again)
    assert (canonical_json_bytes(again.to_dict())
            == canonical_json_bytes(proof.to_dict()))


def test_bad_side_tag_rejected():
    with pytest.raises(LedgerError) as e:
        MerkleProof.from_dict({"leafIndex": 0,
                               "siblings": [{"digest": "00" * 32,
                                             "side": "up"}]})
    assert e.value.code == "ParseError"


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1,
                max_size=16))
def test_reference_agreement_on_arbitrary_leaves(leaves):
    tree = MerkleTree(leaves)
    assert tree.root == ref_merkle_root(leaves)
    for i in range(len(leaves)):
        assert verify_proof(tree.root, leaves[i], tree.prove(i))
