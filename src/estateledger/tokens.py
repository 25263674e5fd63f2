"""Multi-token accounting: rights (non-fungible) and their fractions.

Token ids are 256-bit unsigned integers. Ids with the top bit set are
fractional supplies; clearing the top bit gives the right they divide.
Ids with the top bit clear are rights themselves and their supply may
never exceed one.

Balances, supplies, operator approvals, and swap consents live here.
Every token write is plan-then-apply. `TokenLedger.plan_moves` checks
(source, destination, token id, amount) legs, each against what the
earlier legs leave behind: a `None` source mints and a `None`
destination burns. `TokenLedger.apply` writes the resulting plan and is
the only writer of balances and supplies, so nothing moves unless every
leg of a command passes.
"""

from dataclasses import dataclass, field
from typing import Optional

from .addresses import ZERO_ADDRESS, require_nonzero
from .canonical import canonical_json_bytes, sha256_hex
from .errors import err
from .storage import resolve_uri

FRACTIONAL_FLAG = 1 << 255
MAX_TOKEN_ID = (1 << 256) - 1


def check_token_id(token_id: int) -> int:
    if not isinstance(token_id, int) or not 0 <= token_id <= MAX_TOKEN_ID:
        raise err("UnknownToken", f"token id out of range: {token_id!r}")
    return token_id


def is_fractional(token_id: int) -> bool:
    return bool(check_token_id(token_id) & FRACTIONAL_FLAG)


def is_right(token_id: int) -> bool:
    return not is_fractional(token_id)


def fractional_of(right_id: int) -> int:
    if is_fractional(right_id):
        raise err("NonRightId", f"{right_id} is already a fractional id")
    return right_id | FRACTIONAL_FLAG


def right_of(fractional_id: int) -> int:
    if not is_fractional(fractional_id):
        raise err("NonRightId", f"{fractional_id} is not a fractional id")
    return fractional_id & ~FRACTIONAL_FLAG


@dataclass
class TokenLedger:
    base_uri: Optional[str] = None
    balances: dict[int, dict[str, int]] = field(default_factory=dict)
    supplies: dict[int, int] = field(default_factory=dict)
    approvals: dict[str, set[str]] = field(default_factory=dict)  # operators
    consents: dict[str, set[str]] = field(default_factory=dict)  # digests

    # -- queries ---------------------------------------------------------

    def balance_of(self, owner: str, token_id: int) -> int:
        check_token_id(token_id)
        return self.balances.get(token_id, {}).get(owner, 0)

    def balance_of_batch(self, owners: list, token_ids: list) -> list:
        if len(owners) != len(token_ids):
            raise err("LengthMismatch",
                      f"{len(owners)} owners vs {len(token_ids)} ids")
        return [self.balance_of(o, t) for o, t in zip(owners, token_ids)]

    def total_supply(self, token_id: int) -> int:
        check_token_id(token_id)
        return self.supplies.get(token_id, 0)

    def holders_of(self, token_id: int) -> dict:
        return dict(self.balances.get(token_id, {}))

    def is_approved_for_all(self, owner: str, operator: str) -> bool:
        return operator in self.approvals.get(owner, set())

    def uri_of(self, token_id: int) -> str:
        if self.base_uri is None:
            raise err("Uninitialized", "no base uri configured")
        check_token_id(token_id)
        return resolve_uri(self.base_uri, token_id)

    # -- plan, then apply -------------------------------------------------

    def plan_moves(self, moves, after: dict = None) -> dict:
        """Check (src, dst, token id, amount) legs as if each applied in
        turn on top of the plan `after`, and raise what the first failing
        leg would raise. A None src mints and a None dst burns. Returns
        the plan, `after` extended in place: the resulting balance of
        each (token id, address) the legs touch, and under (token id,
        None) each supply they change."""
        after = {} if after is None else after
        for src, dst, token_id, amount in moves:
            right = is_right(token_id)  # UnknownToken comes first
            require_nonzero(dst, "token recipient")
            if amount < 0:
                raise err("ParseError", "negative amount")
            if right and dst is None and amount != 1:
                raise err("NonFungibleAmount",
                          f"a right burns exactly one unit, not {amount}")
            if right and amount > 1:
                raise err("NonFungibleAmount",
                          f"right {token_id} moves at most one unit")
            if amount == 0:
                continue
            if src is None or dst is None:
                supply = after.get((token_id, None),
                                   self.total_supply(token_id))
                supply += amount if src is None else -amount
                if right and supply > 1:
                    raise err("AlreadyMinted",
                              f"right {token_id} already exists")
                after[(token_id, None)] = supply
            if src is not None:
                held = after.get((token_id, src),
                                 self.balance_of(src, token_id))
                if held < amount:
                    raise err("InsufficientBalance",
                              f"{src} holds {held} of token {token_id}, "
                              f"needs {amount}")
                after[(token_id, src)] = held - amount
            if dst is not None:
                after[(token_id, dst)] = after.get(
                    (token_id, dst), self.balance_of(dst, token_id)) + amount
        return after

    def apply(self, after: dict):
        """Write a plan from `plan_moves`; the only writer of balances and
        supplies. An entry planned to 0 is dropped, and so is the balance
        map of a token nobody holds any more."""
        for (token_id, addr), amount in after.items():
            if addr is None:
                table, key = self.supplies, token_id
            else:
                table, key = self.balances.setdefault(token_id, {}), addr
            if amount:
                table[key] = amount
            else:
                table.pop(key, None)
                if addr is not None and not table:
                    del self.balances[token_id]

    # -- mutations ---------------------------------------------------------

    def mint(self, to: str, token_id: int, amount: int):
        self.apply(self.plan_moves([(None, to, token_id, amount)]))

    def set_approval_for_all(self, owner: str, operator: str, approved: bool):
        if owner == operator:
            raise err("SelfApproval", "cannot change approval for yourself")
        ops = self.approvals.setdefault(owner, set())
        (ops.add if approved else ops.discard)(operator)
        if not ops:
            del self.approvals[owner]

    def safe_transfer_batch(self, caller: str, src: str, dst: str,
                            token_ids: list, amounts: list):
        if caller != src and not self.is_approved_for_all(src, caller):
            raise err("NotAuthorized",
                      f"{caller} is neither {src} nor an approved operator")
        if len(token_ids) != len(amounts):
            raise err("LengthMismatch",
                      f"{len(token_ids)} ids vs {len(amounts)} amounts")
        require_nonzero(dst, "transfer target")
        if src == ZERO_ADDRESS:
            raise err("ZeroAddress", "transfer source may not be the zero address")
        self.apply(self.plan_moves(
            (src, dst, token_id, amount)
            for token_id, amount in zip(token_ids, amounts)))

    def give_consent(self, party: str, descriptor_digest: str):
        self.consents.setdefault(party, set()).add(descriptor_digest)

    def has_consent(self, party: str, descriptor_digest: str) -> bool:
        return descriptor_digest in self.consents.get(party, set())


def swap_descriptor_digest(party_a: str, legs_a: list, value_a: int,
                           party_b: str, legs_b: list, value_b: int) -> str:
    """Digest of a proposed swap; both parties consent to this exact value."""
    descriptor = {
        "legsA": legs_a,
        "legsB": legs_b,
        "partyA": party_a,
        "partyB": party_b,
        "valueA": value_a,
        "valueB": value_b,
    }
    return sha256_hex(canonical_json_bytes(descriptor))


def atomic_swap(tokens: TokenLedger, native, party_a: str, legs_a: list,
                value_a: int, party_b: str, legs_b: list, value_b: int) -> str:
    """Swap token legs and native value between two consenting parties.

    Either everything moves or nothing does. Consents are one-shot and
    consumed on success.
    """
    digest = swap_descriptor_digest(party_a, legs_a, value_a,
                                    party_b, legs_b, value_b)
    for party in (party_a, party_b):
        require_nonzero(party, "swap party")
        if not tokens.has_consent(party, digest):
            raise err("MissingConsent",
                      f"{party} has not consented to this swap")
    # A's legs go first, so B may pass on what it receives from A
    after = tokens.plan_moves(
        [(party_a, party_b, t, n) for t, n in legs_a]
        + [(party_b, party_a, t, n) for t, n in legs_b])
    accounts = {}  # address -> native balance after the moves so far
    for src, dst, amount in ((party_a, party_b, value_a),
                             (party_b, party_a, value_b)):
        if amount < 0:
            raise err("ParseError", "negative swap value")
        if amount == 0:
            continue
        held = accounts.get(src, native.accounts.get(src))
        if held is None:
            raise err("UnknownAccount", src)
        if held < amount:
            raise err("InsufficientFunds",
                      f"{src} holds {held}, needs {amount}")
        accounts[src] = held - amount
        accounts[dst] = accounts.get(dst, native.accounts.get(dst, 0)) + amount

    tokens.apply(after)
    native.accounts.update(accounts)
    tokens.consents[party_a].discard(digest)
    if not tokens.consents[party_a]:
        del tokens.consents[party_a]
    tokens.consents.get(party_b, set()).discard(digest)
    if party_b in tokens.consents and not tokens.consents[party_b]:
        del tokens.consents[party_b]
    return digest
