"""Commit to a document set and prove membership without revealing it.

Shows the document commitment flow used at property approval time:
hash each document, build the merkle tree, hand out one proof per
document, and demonstrate that verification breaks the moment anything
is tampered with.

Run with: python3 demos/merkle_proofs.py
"""

import hashlib
import json

from estateledger.errors import LedgerError
from estateledger.merkle import MerkleTree, read_proof, verify_proof
from estateledger.records import to_json

documents = [
    b"deed of sale, unit 12",
    b"floor plan rev C",
    b"energy certificate 2026",
    b"land registry extract",
    b"appraisal report",
]

leaves = [hashlib.sha256(doc).digest() for doc in documents]
tree = MerkleTree(leaves)
print(f"committed {len(documents)} documents")
print(f"root: {tree.root.hex()}")
print()

print("one proof per document, each verified against the same root:")
for index, doc in enumerate(documents):
    proof = tree.prove(index)
    ok = verify_proof(tree.root, leaves[index], proof)
    print(f"  [{index}] {doc.decode():28} "
          f"siblings={len(proof.siblings)} valid={ok}")

print()
print("proofs are plain JSON and survive a round trip:")
proof = tree.prove(2)
blob = json.dumps(to_json(proof), indent=2)
print(blob)
restored = read_proof(json.loads(blob))
print(f"restored proof still verifies: "
      f"{verify_proof(tree.root, leaves[2], restored)}")

print()
print("a proof that is not one the codec writes is refused, not verified:")
for edit in ({"leafIndex": -1}, {"extra": True},
             {"siblings": [{"digest": "00" * 31, "side": "left"}]}):
    try:
        read_proof(to_json(proof) | edit)
    except LedgerError as exc:
        print(f"  {exc}")

print()
print("tampering is caught immediately:")
forged = hashlib.sha256(b"deed of sale, unit 13").digest()
print(f"  forged document:  valid={verify_proof(tree.root, forged, proof)}")
wrong_root = bytes([tree.root[0] ^ 1]) + tree.root[1:]
print(f"  one-bit-off root: "
      f"valid={verify_proof(wrong_root, leaves[2], proof)}")

print()
print("odd leaf counts promote the trailing node instead of doubling it:")
for size in (1, 2, 3, 5, 8):
    sub = MerkleTree([hashlib.sha256(bytes([i])).digest()
                      for i in range(size)])
    print(f"  {size} leaves -> root {sub.root.hex()[:16]}...")
