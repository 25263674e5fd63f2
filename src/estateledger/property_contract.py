"""Per-property state machine.

One instance per deployed property proxy. Carries the token ledger for
that property's rights and fractions, the registered document list,
the merkle approval gate, listings, and earnings distribution.

Minting is possible only after an administrator has approved the
property by matching the merkle root of its registered documents, and
only while the factory is not paused.
"""

from dataclasses import dataclass, field
from typing import Optional

from .errors import err
from .identity import Role
from .merkle import merkle_root
from .storage import cid_digest
from .tokens import TokenLedger, fractional_of, is_fractional, is_right, right_of


@dataclass
class Listing:
    price_per_unit: int
    seller: str


def pro_rata_payouts(balances: dict, total: int) -> tuple:
    """Floor-division payout per holder; (payouts, remainder).

    Each holder with balance b out of supply S gets floor(b*total/S).
    The leftover total - sum(payouts) is the remainder.
    """
    supply = sum(balances.values())
    if supply <= 0:
        raise err("NotFractionalized", "no outstanding units")
    payouts = {addr: (bal * total) // supply
               for addr, bal in sorted(balances.items())}
    return payouts, total - sum(payouts.values())


@dataclass
class PropertyContract:
    initialized: bool = False  # deploy sets it; a load refuses False
    property_id: int = 0
    address: str = ""
    treasury: str = ""
    upgrader: str = ""
    admin: str = ""
    base_uri: str = ""
    contract_name: str = ""
    description: str = ""
    approval_root: Optional[bytes] = None
    approved: bool = False
    documents: list[str] = field(default_factory=list)  # cids, in order
    next_right_index: int = 1
    implementation_version: int = 0  # version that initialized this proxy
    tokens: TokenLedger = field(default_factory=TokenLedger)
    listings: dict[int, Listing] = field(default_factory=dict)

    # -- queries -----------------------------------------------------------

    def total_supply(self, token_id: int) -> int:
        return self.tokens.total_supply(token_id)

    def exists(self, token_id: int) -> bool:
        return self.tokens.total_supply(token_id) > 0

    def uri_of(self, token_id: int) -> str:
        return self.tokens.uri_of(token_id)

    # -- documents and approval --------------------------------------------

    def _is_property_admin_or_seller(self, caller: str, registry) -> bool:
        return caller == self.admin or registry.has_role(caller, Role.SELLER)

    def register_document(self, caller: str, cid: str, *, registry, store):
        if not self._is_property_admin_or_seller(caller, registry):
            raise err("NotAuthorized",
                      f"{caller} may not register documents here")
        if not store.has(cid):
            raise err("NotFound", cid)
        self.documents.append(cid)

    def document_root(self) -> bytes:
        if not self.documents:
            raise err("NoDocuments", "no registered documents")
        return merkle_root([cid_digest(c) for c in self.documents])

    def approved_property(self, caller: str, parent_hash: bytes, *,
                          registry):
        if not registry.has_role(caller, Role.ADMINISTRATOR):
            raise err("NotAuthorized",
                      f"{caller} is not an administrator")
        root = self.document_root()  # NoDocuments if empty
        if root != parent_hash:
            raise err("HashMismatch",
                      "submitted parent hash does not match the document root")
        self.approved = True
        self.approval_root = parent_hash

    # -- minting -----------------------------------------------------------

    def _mint_gate(self, caller: str, *, registry, paused: bool):
        if not self._is_property_admin_or_seller(caller, registry):
            raise err("NotAuthorized", f"{caller} may not mint here")
        if not self.approved:
            raise err("NotApproved", "property is not approved yet")
        if paused:
            raise err("Paused", "minting is paused")

    def mint_nft(self, caller: str, token_id: int, price: int, value: int,
                 *, registry, native, paused: bool) -> tuple:
        self.mint_batch(caller, [token_id], [1], [price], value,
                        registry=registry, native=native, paused=paused)
        return token_id, 1

    def mint_batch(self, caller: str, token_ids: list, amounts: list,
                   prices: list, value: int, *, registry, native,
                   paused: bool) -> tuple:
        self._mint_gate(caller, registry=registry, paused=paused)
        if not (len(token_ids) == len(amounts) == len(prices)):
            raise err("LengthMismatch",
                      f"{len(token_ids)} ids, {len(amounts)} amounts, "
                      f"{len(prices)} prices")
        after = {}
        for token_id, amount, price in zip(token_ids, amounts, prices):
            if is_fractional(token_id):
                raise err("NonRightId", f"{token_id} is not a right id")
            if amount != 1:
                raise err("NonFungibleAmount",
                          f"right {token_id} mints exactly one unit")
            if price < 0:
                raise err("ParseError", "negative price")
            self.tokens.plan_moves([(None, caller, token_id, 1)], after)
        if value < sum(prices):
            raise err("InsufficientPayment",
                      f"attached {value}, prices sum to {sum(prices)}")
        if value:
            # primary-issuance proceeds go to the treasury, all of them
            native.debit(caller, value)
            native.credit(self.treasury, value)
        self.tokens.apply(after)
        for token_id, price in zip(token_ids, prices):
            self.listings[token_id] = Listing(price_per_unit=price,
                                              seller=caller)
            self.next_right_index = max(self.next_right_index, token_id + 1)
        return list(token_ids), list(amounts)

    def mint_fractional(self, caller: str, right_id: int, units: int,
                        price_per_unit: int, *, registry, paused: bool) -> int:
        frac_id = fractional_of(right_id)  # NonRightId on fractional input
        if self.tokens.balance_of(caller, right_id) != 1:
            raise err("NotOwner", f"{caller} does not hold right {right_id}")
        if not self.approved:
            raise err("NotApproved", "property is not approved yet")
        if paused:
            raise err("Paused", "minting is paused")
        if self.tokens.total_supply(frac_id) > 0:
            raise err("AlreadyFractionalized",
                      f"right {right_id} already has fractional units")
        if units <= 0:
            raise err("ZeroUnits", "fractional supply must be positive")
        if price_per_unit < 0:
            raise err("ParseError", "negative price")
        self.tokens.mint(caller, frac_id, units)
        self.listings[frac_id] = Listing(price_per_unit=price_per_unit,
                                         seller=caller)
        return frac_id

    # -- transfer, burn, price ----------------------------------------------

    def transfer_nft(self, caller: str, to: str, token_id: int, amount: int,
                     value: int, *, native):
        if amount < 0:
            raise err("ParseError", "negative amount")
        if is_right(token_id) and amount > 1:
            raise err("NonFungibleAmount",
                      f"right {token_id} moves at most one unit")
        if self.tokens.balance_of(caller, token_id) >= amount:
            # owner mode: plain transfer of the caller's own tokens
            if value != 0:
                raise err("UnexpectedValue",
                          "owner transfers carry no attached value")
            self.tokens.safe_transfer_batch(caller, caller, to,
                                            [token_id], [amount])
            if is_right(token_id) and amount == 1:
                self.listings.pop(token_id, None)
            return
        # purchase mode: buy from the listing's seller at the listed price
        listing = self.listings.get(token_id)
        if listing is None:
            raise err("NoListing", f"token {token_id} is not listed")
        cost = amount * listing.price_per_unit
        if value < cost:
            raise err("InsufficientPayment",
                      f"attached {value}, {amount} units cost {cost}")
        after = self.tokens.plan_moves(
            [(listing.seller, caller, token_id, amount)])
        # settlement: the full attached value goes to the seller
        native.debit(caller, value)
        native.credit(listing.seller, value)
        self.tokens.apply(after)
        if is_right(token_id):
            # the right changed hands; its listing dies with the sale
            del self.listings[token_id]

    def burn_nft(self, caller: str, from_addr: str, token_id: int,
                 amount: int):
        self.burn_batch(caller, from_addr, [token_id], [amount])

    def burn_batch(self, caller: str, from_addr: str, token_ids: list,
                   amounts: list):
        """Burn every leg or none: all legs are planned, in order, on top
        of what the earlier legs burn, before any of them is applied."""
        if len(token_ids) != len(amounts):
            raise err("LengthMismatch",
                      f"{len(token_ids)} ids vs {len(amounts)} amounts")
        after = {}
        for token_id, amount in zip(token_ids, amounts):
            if caller != from_addr and not self.tokens.is_approved_for_all(
                    from_addr, caller):
                raise err("NotAuthorized",
                          f"{caller} is neither {from_addr} nor an operator")
            if is_right(token_id):
                frac_id = fractional_of(token_id)
                if after.get((frac_id, None),
                             self.tokens.total_supply(frac_id)):
                    raise err("FractionalOutstanding",
                              f"right {token_id} anchors live fractional units")
            self.tokens.plan_moves([(from_addr, None, token_id, amount)],
                                   after)
        self.tokens.apply(after)
        for token_id, amount in zip(token_ids, amounts):
            if is_right(token_id) and amount == 1:
                self.listings.pop(token_id, None)

    def set_price(self, caller: str, token_id: int, price_per_unit: int):
        if price_per_unit < 0:
            raise err("ParseError", "negative price")
        listing = self.listings.get(token_id)
        if listing is not None:
            if caller != listing.seller:
                raise err("NotAuthorized",
                          f"{caller} is not the listing's seller")
            listing.price_per_unit = price_per_unit
            return
        # no listing yet: only the anchoring right's owner may create one
        anchor = token_id if is_right(token_id) else right_of(token_id)
        if self.tokens.total_supply(anchor) == 0:
            raise err("UnknownToken", f"token {token_id} has no anchor right")
        if self.tokens.balance_of(caller, anchor) != 1:
            raise err("NotAuthorized",
                      f"{caller} does not own right {anchor}")
        self.listings[token_id] = Listing(price_per_unit=price_per_unit,
                                          seller=caller)

    def distribute_earnings(self, caller: str, right_id: int, total: int,
                            value: int, *, native) -> tuple:
        frac_id = fractional_of(right_id)  # NonRightId on fractional input
        if total < 0:
            raise err("ParseError", "negative total")
        if (self.tokens.balance_of(caller, right_id) != 1
                and caller != self.admin):
            raise err("NotAuthorized",
                      f"{caller} is neither the right holder nor the admin")
        holders = self.tokens.holders_of(frac_id)
        if self.tokens.total_supply(frac_id) <= 0:
            raise err("NotFractionalized",
                      f"right {right_id} has no fractional units")
        if value < total:
            raise err("InsufficientPayment",
                      f"attached {value}, distributing {total}")
        payouts, remainder = pro_rata_payouts(holders, total)
        # only the distributed total leaves the caller; excess never moves
        native.debit(caller, total)
        for addr in sorted(payouts):
            native.credit(addr, payouts[addr])
        native.credit(self.treasury, remainder)
        return payouts, remainder
