"""Multi-token accounting: rights (non-fungible) and their fractions.

Token ids are 256-bit unsigned integers. Ids with the top bit set are
fractional supplies; clearing the top bit gives the right they divide.
Ids with the top bit clear are rights themselves and their supply may
never exceed one.

Balances, supplies, operator approvals, and swap consents live here.
Batch operations are atomic by validate-then-apply: every leg is
checked against the balances the earlier legs leave behind, and
nothing moves unless all of them pass.
"""

from dataclasses import dataclass, field

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
    base_uri: str = None
    balances: dict = field(default_factory=dict)   # id -> {addr: amount}
    supplies: dict = field(default_factory=dict)   # id -> total amount
    approvals: dict = field(default_factory=dict)  # owner -> set of operators
    consents: dict = field(default_factory=dict)   # party -> set of digests

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

    # -- internal balance plumbing ---------------------------------------

    def _plan_moves(self, moves) -> dict:
        """Check (src, dst, token id, amount) moves as if each applied in
        turn; raise what the first failing one would raise. Returns the
        resulting balance of every (token id, address) the moves touch."""
        after = {}
        for src, dst, token_id, amount in moves:
            check_token_id(token_id)
            if amount < 0:
                raise err("ParseError", "negative amount")
            if is_right(token_id) and amount > 1:
                raise err("NonFungibleAmount",
                          f"right {token_id} moves at most one unit")
            if amount == 0:
                continue
            held = after.get((token_id, src), self.balance_of(src, token_id))
            if held < amount:
                raise err("InsufficientBalance",
                          f"{src} holds {held} of token {token_id}, "
                          f"needs {amount}")
            after[(token_id, src)] = held - amount
            after[(token_id, dst)] = after.get(
                (token_id, dst), self.balance_of(dst, token_id)) + amount
        return after

    def _apply_balances(self, after: dict):
        for (token_id, addr), amount in after.items():
            per = self.balances.setdefault(token_id, {})
            if amount:
                per[addr] = amount
            else:
                per.pop(addr, None)

    # -- mutations ---------------------------------------------------------

    def mint(self, to: str, token_id: int, amount: int):
        check_token_id(token_id)
        require_nonzero(to, "mint target")
        if amount < 0:
            raise err("ParseError", "negative amount")
        if amount == 0:
            return
        if is_right(token_id):
            if amount > 1:
                raise err("NonFungibleAmount",
                          f"right {token_id} cannot have supply {amount}")
            if self.total_supply(token_id) >= 1:
                raise err("AlreadyMinted", f"right {token_id} already exists")
        per = self.balances.setdefault(token_id, {})
        per[to] = per.get(to, 0) + amount
        self.supplies[token_id] = self.supplies.get(token_id, 0) + amount

    def check_burn(self, owner: str, token_id: int, amount: int,
                   burned: int = 0):
        """Raise what burning `amount` of `token_id` from `owner` would
        raise once `burned` units of it have already left `owner`."""
        check_token_id(token_id)
        if amount < 0:
            raise err("ParseError", "negative amount")
        if is_right(token_id) and amount != 1:
            raise err("NonFungibleAmount",
                      f"a right burns exactly one unit, not {amount}")
        held = self.balance_of(owner, token_id) - burned
        if held < amount:
            raise err("InsufficientBalance",
                      f"{owner} holds {held} of token {token_id}, "
                      f"needs {amount}")

    def burn(self, owner: str, token_id: int, amount: int):
        self.check_burn(owner, token_id, amount)
        if amount == 0:
            return
        per = self.balances[token_id]
        per[owner] -= amount
        if per[owner] == 0:
            del per[owner]
            if not per:
                del self.balances[token_id]
        self.supplies[token_id] -= amount
        if self.supplies[token_id] == 0:
            del self.supplies[token_id]

    def set_approval_for_all(self, owner: str, operator: str, approved: bool):
        if owner == operator:
            raise err("SelfApproval", "cannot change approval for yourself")
        ops = self.approvals.setdefault(owner, set())
        if approved:
            ops.add(operator)
        else:
            ops.discard(operator)
        if not ops:
            self.approvals.pop(owner, None)

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
        self._apply_balances(self._plan_moves(
            (src, dst, token_id, amount)
            for token_id, amount in zip(token_ids, amounts)))

    def give_consent(self, party: str, descriptor_digest: str):
        self.consents.setdefault(party, set()).add(descriptor_digest)

    def has_consent(self, party: str, descriptor_digest: str) -> bool:
        return descriptor_digest in self.consents.get(party, set())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "baseUri": self.base_uri,
            "balances": {str(t): {a: n for a, n in sorted(per.items())}
                         for t, per in sorted(self.balances.items())},
            "supplies": {str(t): n for t, n in sorted(self.supplies.items())},
            "approvals": {o: sorted(ops)
                          for o, ops in sorted(self.approvals.items())},
            "consents": {p: sorted(ds)
                         for p, ds in sorted(self.consents.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TokenLedger":
        return cls(
            base_uri=d["baseUri"],
            balances={int(t): dict(per) for t, per in d["balances"].items()},
            supplies={int(t): n for t, n in d["supplies"].items()},
            approvals={o: set(ops) for o, ops in d["approvals"].items()},
            consents={p: set(ds) for p, ds in d["consents"].items()},
        )


def swap_descriptor_digest(party_a: str, legs_a: list, value_a: int,
                           party_b: str, legs_b: list, value_b: int) -> str:
    """Digest of a proposed swap; both parties consent to this exact value."""
    descriptor = {
        "legsA": [[int(t), int(n)] for t, n in legs_a],
        "legsB": [[int(t), int(n)] for t, n in legs_b],
        "partyA": party_a,
        "partyB": party_b,
        "valueA": int(value_a),
        "valueB": int(value_b),
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
    after = tokens._plan_moves(
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

    tokens._apply_balances(after)
    native.accounts.update(accounts)
    tokens.consents[party_a].discard(digest)
    if not tokens.consents[party_a]:
        del tokens.consents[party_a]
    tokens.consents.get(party_b, set()).discard(digest)
    if party_b in tokens.consents and not tokens.consents[party_b]:
        del tokens.consents[party_b]
    return digest
