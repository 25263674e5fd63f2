"""Independent reference implementations used to cross-check results.

Deliberately written with different tools than the package (struct
packing, recursion, naive dict bookkeeping) so that a shared bug is
unlikely.
"""

import hashlib
import json
import struct


def ref_block_hash(index: int, timestamp: int, nonce: int, prev_hash: bytes,
                   tx_blobs: list) -> bytes:
    """Recompute a block hash from the documented byte layout."""
    payload = struct.pack(">QQQ", index, timestamp, nonce) + prev_hash
    for blob in tx_blobs:
        payload += struct.pack(">I", len(blob)) + blob
    return hashlib.sha256(payload).digest()


def ref_state_bytes(d: dict, chain) -> bytes:
    """`d` with the block log decoded in, encoded as plain sorted JSON."""
    return json.dumps({**d, "chain": chain.to_dict()}, sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False).encode()


def ref_merkle_root(leaves: list) -> bytes:
    """Recursive merkle root with odd-node promotion."""
    assert leaves
    if len(leaves) == 1:
        return leaves[0]
    nxt = []
    for i in range(0, len(leaves) - 1, 2):
        nxt.append(hashlib.sha256(leaves[i] + leaves[i + 1]).digest())
    if len(leaves) % 2:
        nxt.append(leaves[-1])
    return ref_merkle_root(nxt)


def ref_merkle_proof(leaves: list, index: int) -> dict:
    """The proof JSON of leaf `index`, bottom-up, built recursively over
    the same pairing and promotion as ``ref_merkle_root``."""
    if len(leaves) == 1:
        return {"leafIndex": index, "siblings": []}
    nxt = []
    for i in range(0, len(leaves) - 1, 2):
        nxt.append(hashlib.sha256(leaves[i] + leaves[i + 1]).digest())
    if len(leaves) % 2:
        nxt.append(leaves[-1])
    steps = []
    if index % 2:
        steps.append({"digest": leaves[index - 1].hex(), "side": "left"})
    elif index + 1 < len(leaves):
        steps.append({"digest": leaves[index + 1].hex(), "side": "right"})
    up = ref_merkle_proof(nxt, index // 2)
    return {"leafIndex": index, "siblings": steps + up["siblings"]}


def ref_payouts(balances: dict, total: int) -> tuple:
    """Floor-arithmetic pro-rata payouts, computed the long way."""
    supply = 0
    for bal in balances.values():
        supply += bal
    payouts = {}
    for addr, bal in balances.items():
        payouts[addr] = (bal * total) // supply
    paid = sum(payouts.values())
    return payouts, total - paid


class BalanceTracker:
    """Brute-force mirror of token balances and supplies.

    Applies the same abstract op list as the engine under test, with
    no sharing of engine code, then exposes totals for comparison.
    """

    def __init__(self):
        self.balances = {}  # (token_id, addr) -> amount
        self.supplies = {}  # token_id -> amount

    def holdings(self, token_id, addr):
        return self.balances.get((token_id, addr), 0)

    def supply(self, token_id):
        return self.supplies.get(token_id, 0)

    def mint(self, to, token_id, amount):
        self.balances[(token_id, to)] = self.holdings(token_id, to) + amount
        self.supplies[token_id] = self.supply(token_id) + amount

    def burn(self, owner, token_id, amount):
        assert self.holdings(token_id, owner) >= amount
        self.balances[(token_id, owner)] -= amount
        self.supplies[token_id] -= amount

    def transfer(self, src, dst, token_id, amount):
        assert self.holdings(token_id, src) >= amount
        self.balances[(token_id, src)] -= amount
        self.balances[(token_id, dst)] = (
            self.holdings(token_id, dst) + amount)

    def sum_of_balances(self, token_id):
        return sum(amount for (tid, _), amount in self.balances.items()
                   if tid == token_id)

    def all_token_ids(self):
        return set(self.supplies)
