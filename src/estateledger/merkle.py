"""Merkle commitments over document digests.

Leaves are 32-byte digests. Each internal node is SHA-256 of the left
child's bytes followed by the right child's bytes. A level with an odd
count promotes its trailing node unchanged to the next level (no
duplication), and a single leaf is its own root.

A proof carries the leaf index and, bottom-up, each sibling digest
tagged with the side that sibling sits on.
"""

from dataclasses import dataclass

from .canonical import sha256
from .errors import err


@dataclass
class ProofStep:
    digest: bytes
    side: str  # "left" or "right": where the sibling sits

    def to_dict(self) -> dict:
        return {"digest": self.digest.hex(), "side": self.side}

    @classmethod
    def from_dict(cls, d: dict) -> "ProofStep":
        side = d["side"]
        if side not in ("left", "right"):
            raise err("ParseError", f"bad proof side {side!r}")
        return cls(digest=bytes.fromhex(d["digest"]), side=side)


@dataclass
class MerkleProof:
    leaf_index: int
    siblings: list  # list of ProofStep

    def to_dict(self) -> dict:
        return {"leafIndex": self.leaf_index,
                "siblings": [s.to_dict() for s in self.siblings]}

    @classmethod
    def from_dict(cls, d: dict) -> "MerkleProof":
        return cls(leaf_index=d["leafIndex"],
                   siblings=[ProofStep.from_dict(s) for s in d["siblings"]])


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
