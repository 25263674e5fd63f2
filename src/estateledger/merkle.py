"""Merkle commitments over document digests.

Leaves are 32-byte digests. Each internal node is SHA-256 of the left
child's bytes followed by the right child's bytes. A level with an odd
count promotes its trailing node unchanged to the next level (no
duplication), and a single leaf is its own root.

A proof carries the leaf index and, bottom-up, each sibling digest
tagged with the side that sibling sits on. Its JSON form is the record
codec's (`records.to_json`), and `read_proof` is its one reader.
"""

from dataclasses import dataclass

from .canonical import sha256
from .errors import LedgerError, err
from .records import read


@dataclass
class ProofStep:
    digest: bytes
    side: str  # "left" or "right": where the sibling sits


@dataclass
class MerkleProof:
    leaf_index: int
    siblings: list[ProofStep]


def read_proof(value) -> MerkleProof:
    """The proof the JSON `value` holds: one `to_json` can write, with a
    leaf index of 0 or more and each sibling a 32-byte digest on the
    left or the right. Anything else is ParseError."""
    try:
        proof = read(MerkleProof, value)
        if proof.leaf_index < 0:
            raise err("ParseError", f"leafIndex: {proof.leaf_index} < 0")
        for at, step in enumerate(proof.siblings):
            if step.side not in ("left", "right") or len(step.digest) != 32:
                raise err("ParseError", f"siblings: {at}: expected a 32-byte "
                          "digest on the left or right, got "
                          f"{len(step.digest)} bytes on the {step.side!r:.60}")
    except LedgerError as exc:
        raise err("ParseError",
                  f"proof is not valid proof JSON: {exc.message}") from None
    return proof


class MerkleTree:
    def __init__(self, leaves: list):
        if not leaves:
            raise err("EmptyLeaves", "a merkle tree needs at least one leaf")
        for leaf in leaves:
            if not isinstance(leaf, bytes) or len(leaf) != 32:
                raise err("ParseError", "leaves must be 32-byte digests")
        self.levels = [list(leaves)]
        while len(self.levels[-1]) > 1:
            level = self.levels[-1]
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(sha256(level[i] + level[i + 1]))
            if len(level) % 2 == 1:
                nxt.append(level[-1])  # promote, don't duplicate
            self.levels.append(nxt)

    @property
    def leaves(self) -> list:
        return self.levels[0]

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        if not 0 <= index < len(self.leaves):
            raise err("IndexOutOfRange",
                      f"leaf {index} of {len(self.leaves)}")
        steps = []
        j = index
        for level in self.levels[:-1]:
            sibling = j ^ 1
            if sibling < len(level):
                side = "left" if sibling < j else "right"
                steps.append(ProofStep(digest=level[sibling], side=side))
            # odd trailing node: promoted unchanged, no step emitted
            j //= 2
        return MerkleProof(leaf_index=index, siblings=steps)


def merkle_root(leaves: list) -> bytes:
    return MerkleTree(leaves).root


def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    node = leaf
    for step in proof.siblings:
        if step.side == "left":
            node = sha256(step.digest + node)
        else:
            node = sha256(node + step.digest)
    return node == root
