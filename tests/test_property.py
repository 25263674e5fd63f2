import copy

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import TREASURY, add_doc, approve, deploy
from estateledger.errors import LedgerError
from estateledger.property_contract import pro_rata_payouts
from estateledger.tokens import fractional_of
from oracles import ref_payouts

FRAC1 = fractional_of(1)


def minted_prop(node_prop):
    """Approved property with right 1 minted by the seller at price 0."""
    node, prop = node_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0})
    return node, prop


def fractionalized_prop(node_prop, units=1000, price=3):
    node, prop = minted_prop(node_prop)
    node.execute(node.seller, "mintFractional",
                 {"property": prop, "rightId": 1, "units": units,
                  "pricePerUnit": price})
    return node, prop


def balance(node, prop, owner, token_id):
    return node.state.properties[prop].tokens.balance_of(owner, token_id)


# -- initialization -------------------------------------------------------------


def test_property_ids_are_sequential(node):
    addrs = [deploy(node, ts=2000 + i) for i in range(3)]
    ids = [node.state.properties[a].property_id for a in addrs]
    assert ids == [1, 2, 3]
    assert len(set(addrs)) == 3


def test_uri_wired_from_deploy(node):
    prop = deploy(node)
    uri = node.state.properties[prop].uri_of(1)
    assert uri == "ipfs://meta/" + "0" * 63 + "1.json"


# -- documents and approval --------------------------------------------------------


def test_mint_before_approval_rejected(node):
    prop = deploy(node)
    before = node.ledger_digest()
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintNFT",
                     {"property": prop, "id": 1, "data": "", "price": 0})
    assert e.value.code == "NotApproved"
    assert node.ledger_digest() == before


def test_approve_with_reference_root(node):
    prop = deploy(node)
    add_doc(node, prop, b"deed")
    add_doc(node, prop, b"survey")
    approve(node, prop)  # root from the document digests
    assert node.state.properties[prop].approved is True
    assert (node.state.properties[prop].approval_root
            == node.state.properties[prop].document_root())


def test_approve_with_flipped_bit_rejected(node):
    prop = deploy(node)
    add_doc(node, prop, b"deed")
    root = bytearray(node.state.properties[prop].document_root())
    root[3] ^= 0x04
    with pytest.raises(LedgerError) as e:
        node.execute(node.admin, "approvedProperty",
                     {"property": prop, "parentHash": bytes(root).hex()})
    assert e.value.code == "HashMismatch"
    assert node.state.properties[prop].approved is False


def test_approve_requires_admin_role(node):
    prop = deploy(node)
    add_doc(node, prop, b"deed")
    root = node.state.properties[prop].document_root()
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "approvedProperty",
                     {"property": prop, "parentHash": root.hex()})
    assert e.value.code == "NotAuthorized"


def test_approve_without_documents(node):
    prop = deploy(node)
    with pytest.raises(LedgerError) as e:
        node.execute(node.admin, "approvedProperty",
                     {"property": prop, "parentHash": "00" * 32})
    assert e.value.code == "NoDocuments"


def test_register_document_needs_stored_object(node):
    prop = deploy(node)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "registerDocument",
                     {"property": prop,
                      "cid": "cidv0-sha256:" + "ab" * 32})
    assert e.value.code == "NotFound"


def test_register_document_role_gate(node):
    prop = deploy(node)
    cid = node.execute(node.seller, "putObject",
                       {"dataHex": b"deed".hex()})["cid"]
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "registerDocument",
                     {"property": prop, "cid": cid})
    assert e.value.code == "NotAuthorized"


# -- minting ---------------------------------------------------------------------


def test_mint_zero_price(approved_prop):
    node, prop = minted_prop(approved_prop)
    assert node.state.properties[prop].total_supply(1) == 1
    assert balance(node, prop, node.seller, 1) == 1
    assert node.state.properties[prop].exists(1) is True


def test_mint_routes_payment_to_treasury(approved_prop):
    node, prop = approved_prop
    seller_before = node.state.native.balance(node.seller)
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 100},
                 value=100)
    assert node.state.native.balance(TREASURY) == 100
    assert node.state.native.balance(node.seller) == seller_before - 100


def test_mint_same_id_twice(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintNFT",
                     {"property": prop, "id": 1, "data": "", "price": 0})
    assert e.value.code == "AlreadyMinted"


def test_mint_negative_price_is_a_parse_error_before_already_minted(
        approved_prop):
    # one-leg mint_batch: argument checks run before state checks
    node, prop = minted_prop(approved_prop)
    before = node.full_digest()
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintNFT",
                     {"property": prop, "id": 1, "data": "", "price": -1})
    assert e.value.code == "ParseError"
    assert node.full_digest() == before


def test_mint_underpayment(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintNFT",
                     {"property": prop, "id": 1, "data": "", "price": 100},
                     value=99)
    assert e.value.code == "InsufficientPayment"


def test_mint_fractional_id_directly_rejected(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintNFT",
                     {"property": prop, "id": FRAC1, "data": "", "price": 0})
    assert e.value.code == "NonRightId"


def test_mint_requires_seller_or_admin(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "mintNFT",
                     {"property": prop, "id": 1, "data": "", "price": 0})
    assert e.value.code == "NotAuthorized"
    # the property admin qualifies too
    node.execute(node.admin, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 0})
    assert balance(node, prop, node.admin, 1) == 1


def test_batch_mint_atomicity(approved_prop):
    node, prop = minted_prop(approved_prop)
    before = node.ledger_digest()
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintBatchNFTs",
                     {"property": prop, "ids": [2, 1, 3],
                      "amounts": [1, 1, 1], "data": "",
                      "prices": [0, 0, 0]})
    assert e.value.code == "AlreadyMinted"
    assert node.ledger_digest() == before
    assert node.state.properties[prop].total_supply(2) == 0


def test_batch_mint_equals_sequential(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintBatchNFTs",
                 {"property": prop, "ids": [1, 2, 3], "amounts": [1, 1, 1],
                  "data": "", "prices": [5, 6, 7]}, value=18)
    assert [node.state.properties[prop].total_supply(i)
            for i in (1, 2, 3)] == [1, 1, 1]
    assert node.state.native.balance(TREASURY) == 18
    listings = node.state.properties[prop].listings
    assert [listings[i].price_per_unit for i in (1, 2, 3)] == [5, 6, 7]


def test_batch_mint_duplicate_in_batch(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintBatchNFTs",
                     {"property": prop, "ids": [4, 4], "amounts": [1, 1],
                      "data": "", "prices": [0, 0]})
    assert e.value.code == "AlreadyMinted"


def test_batch_mint_amount_must_be_one(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintBatchNFTs",
                     {"property": prop, "ids": [4], "amounts": [2],
                      "data": "", "prices": [0]})
    assert e.value.code == "NonFungibleAmount"


def test_batch_mint_empty_is_noop(approved_prop):
    node, prop = approved_prop
    result = node.execute(node.seller, "mintBatchNFTs",
                          {"property": prop, "ids": [], "amounts": [],
                           "data": "", "prices": []})
    assert result == {"ids": [], "amounts": []}


def test_batch_mint_underpayment(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintBatchNFTs",
                     {"property": prop, "ids": [1, 2], "amounts": [1, 1],
                      "data": "", "prices": [10, 10]}, value=19)
    assert e.value.code == "InsufficientPayment"


# -- fractionalization ---------------------------------------------------------------


def test_fractionalize_mints_to_right_owner(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    assert node.state.properties[prop].total_supply(FRAC1) == 1000
    assert balance(node, prop, node.seller, FRAC1) == 1000
    # the anchoring right stays where it was
    assert balance(node, prop, node.seller, 1) == 1


def test_fractionalize_twice(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintFractional",
                     {"property": prop, "rightId": 1, "units": 10,
                      "pricePerUnit": 1})
    assert e.value.code == "AlreadyFractionalized"


def test_fractionalize_requires_ownership(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "mintFractional",
                     {"property": prop, "rightId": 1, "units": 10,
                      "pricePerUnit": 1})
    assert e.value.code == "NotOwner"


def test_fractionalize_zero_units(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "mintFractional",
                     {"property": prop, "rightId": 1, "units": 0,
                      "pricePerUnit": 1})
    assert e.value.code == "ZeroUnits"


def test_fractional_linkage_invariant(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    tokens = node.state.properties[prop].tokens
    for token_id, supply in tokens.supplies.items():
        if supply > 0 and token_id >= 2 ** 255:
            assert tokens.total_supply(token_id - 2 ** 255) == 1


# -- transfers -----------------------------------------------------------------------


def test_owner_gift_moves_right_without_native(approved_prop):
    node, prop = minted_prop(approved_prop)
    native_before = dict(node.state.native.accounts)
    node.execute(node.seller, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": 1, "amount": 1,
                  "data": ""})
    assert balance(node, prop, node.buyer, 1) == 1
    assert balance(node, prop, node.seller, 1) == 0
    assert node.state.native.accounts == native_before


def test_owner_transfer_rejects_attached_value(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": 1,
                      "amount": 1, "data": ""}, value=5)
    assert e.value.code == "UnexpectedValue"


def test_purchase_at_listed_price(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=1000, price=3)
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": FRAC1,
                  "amount": 200, "data": ""}, value=600)
    assert balance(node, prop, node.buyer, FRAC1) == 200
    assert balance(node, prop, node.seller, FRAC1) == 800
    assert node.state.native.balance(node.buyer) == 400
    assert node.state.native.balance(node.seller) == 2600


def test_purchase_underpayment(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=1000, price=3)
    before = node.ledger_digest()
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": FRAC1,
                      "amount": 200, "data": ""}, value=599)
    assert e.value.code == "InsufficientPayment"
    assert node.ledger_digest() == before


def test_purchase_beyond_the_buyers_funds(approved_prop):
    # the debit itself is the funds check; nothing moves before it
    node, prop = fractionalized_prop(approved_prop, units=1000, price=3)
    before = node.full_digest()
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": FRAC1,
                      "amount": 200, "data": ""}, value=1001)
    assert str(e.value) == \
        f"InsufficientFunds: {node.buyer} holds 1000, needs 1001"
    assert node.full_digest() == before


def test_purchase_without_listing(approved_prop):
    node, prop = minted_prop(approved_prop)
    # token 2 was never minted, so it has no listing either
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": 2,
                      "amount": 1, "data": ""}, value=10)
    assert e.value.code == "NoListing"


def test_purchase_of_right_consumes_listing(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 700},
                 value=700)
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": 1, "amount": 1,
                  "data": ""}, value=700)
    assert balance(node, prop, node.buyer, 1) == 1
    # seller paid 700 to the treasury at mint, then earned 700 back
    assert node.state.native.balance(node.seller) == 2000
    assert node.state.native.balance(TREASURY) == 700
    assert 1 not in node.state.properties[prop].listings


def test_seller_shortfall_rejected(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=100, price=1)
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": FRAC1,
                      "amount": 200, "data": ""}, value=200)
    assert e.value.code == "InsufficientBalance"


# -- burning -------------------------------------------------------------------------


def test_burn_right_to_zero(approved_prop):
    node, prop = minted_prop(approved_prop)
    node.execute(node.seller, "burnNFT",
                 {"property": prop, "from": node.seller, "id": 1,
                  "amount": 1})
    assert node.state.properties[prop].total_supply(1) == 0
    assert node.state.properties[prop].exists(1) is False


def test_burn_zero_fractional_is_noop(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    before = node.state.properties[prop].total_supply(FRAC1)
    node.execute(node.seller, "burnNFT",
                 {"property": prop, "from": node.seller, "id": FRAC1,
                  "amount": 0})
    assert node.state.properties[prop].total_supply(FRAC1) == before


def test_burn_needs_owner_or_operator(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "burnNFT",
                     {"property": prop, "from": node.seller, "id": 1,
                      "amount": 1})
    assert e.value.code == "NotAuthorized"
    node.execute(node.seller, "setApprovalForAll",
                 {"property": prop, "operator": node.buyer, "approved": True})
    node.execute(node.buyer, "burnNFT",
                 {"property": prop, "from": node.seller, "id": 1,
                  "amount": 1})
    assert node.state.properties[prop].exists(1) is False


def test_burn_anchoring_right_blocked_while_fractions_live(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "burnNFT",
                     {"property": prop, "from": node.seller, "id": 1,
                      "amount": 1})
    assert e.value.code == "FractionalOutstanding"


def test_burn_batch_atomicity(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintBatchNFTs",
                 {"property": prop, "ids": [1, 2], "amounts": [1, 1],
                  "data": "", "prices": [0, 0]})
    before = node.ledger_digest()
    with pytest.raises(LedgerError):
        node.execute(node.seller, "burnBatchNFTs",
                     {"property": prop, "from": node.seller, "ids": [1, 3],
                      "amounts": [1, 1]})
    assert node.ledger_digest() == before
    node.execute(node.seller, "burnBatchNFTs",
                 {"property": prop, "from": node.seller, "ids": [1, 2],
                  "amounts": [1, 1]})
    assert node.state.properties[prop].exists(1) is False
    assert node.state.properties[prop].exists(2) is False


def test_burn_fractions_then_their_right_in_one_batch(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=100)
    before = node.full_digest(), len(node.state.chain.blocks)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "burnBatchNFTs",
                     {"property": prop, "from": node.seller, "ids": [1, FRAC1],
                      "amounts": [1, 100]})
    assert e.value.code == "FractionalOutstanding"
    assert (node.full_digest(), len(node.state.chain.blocks)) == before
    node.execute(node.seller, "burnBatchNFTs",
                 {"property": prop, "from": node.seller, "ids": [FRAC1, 1],
                  "amounts": [100, 1]})
    contract = node.state.properties[prop]
    assert contract.total_supply(FRAC1) == contract.total_supply(1) == 0
    assert 1 not in contract.listings


@pytest.mark.parametrize("op", ["burnBatchNFTs", "mintBatchNFTs"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(legs=st.lists(st.tuples(
    st.sampled_from([1, 2, 3, 4, 5, 6, FRAC1, fractional_of(2)]),
    st.sampled_from([1, 1, 1, 0, 2, 50])), min_size=1, max_size=5))
@example(legs=[(4, 1), (5, 1)])  # a mint batch that succeeds
@example(legs=[(FRAC1, 50), (1, 1), (2, 1)])  # a burn batch that succeeds
def test_batch_equals_its_legs_one_at_a_time(approved_prop, op, legs):
    # rights 1-3 minted, right 1 split into 50 units, all held by the
    # seller; prices are 0, so no payment check can reorder the errors
    node, prop = copy.deepcopy(approved_prop[0]), approved_prop[1]
    node.execute(node.seller, "mintBatchNFTs",
                 {"property": prop, "ids": [1, 2, 3], "amounts": [1, 1, 1],
                  "prices": [0, 0, 0], "data": ""})
    node.execute(node.seller, "mintFractional",
                 {"property": prop, "rightId": 1, "units": 50,
                  "pricePerUnit": 0})

    def params(some):
        sent = {"property": prop, "ids": [t for t, _ in some],
                "amounts": [n for _, n in some]}
        if op == "burnBatchNFTs":
            return {**sent, "from": node.seller}
        return {**sent, "prices": [0] * len(some), "data": ""}

    singles = copy.deepcopy(node)
    first_code = None  # what the first failing single raises
    for leg in legs:
        try:
            singles.execute(node.seller, op, params([leg]))
        except LedgerError as e:
            first_code = e.code
            break
    before = node.full_digest(), len(node.state.chain.blocks)
    try:
        node.execute(node.seller, op, params(legs))
    except LedgerError as e:
        assert e.code == first_code
        assert (node.full_digest(), len(node.state.chain.blocks)) == before
    else:
        assert first_code is None
        assert node.ledger_digest() == singles.ledger_digest()


# -- pricing -------------------------------------------------------------------------


def test_reprice_changes_purchase_cost(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=1000, price=3)
    node.execute(node.seller, "setPrice",
                 {"property": prop, "id": FRAC1, "pricePerUnit": 5})
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "transferNFT",
                     {"property": prop, "to": node.buyer, "id": FRAC1,
                      "amount": 100, "data": ""}, value=300)
    assert e.value.code == "InsufficientPayment"
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": FRAC1,
                  "amount": 100, "data": ""}, value=500)
    assert balance(node, prop, node.buyer, FRAC1) == 100


def test_reprice_by_non_seller_rejected(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "setPrice",
                     {"property": prop, "id": FRAC1, "pricePerUnit": 1})
    assert e.value.code == "NotAuthorized"


def test_new_right_owner_can_list_after_purchase(approved_prop):
    node, prop = approved_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "data": "", "price": 10},
                 value=10)
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": 1, "amount": 1,
                  "data": ""}, value=10)
    node.execute(node.buyer, "setPrice",
                 {"property": prop, "id": 1, "pricePerUnit": 999})
    assert node.state.properties[prop].listings[1].seller == node.buyer


def test_price_zero_is_a_free_listing(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=10, price=0)
    node.execute(node.buyer, "transferNFT",
                 {"property": prop, "to": node.buyer, "id": FRAC1,
                  "amount": 4, "data": ""}, value=0)
    assert balance(node, prop, node.buyer, FRAC1) == 4


def test_set_price_on_unknown_token(approved_prop):
    node, prop = approved_prop
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "setPrice",
                     {"property": prop, "id": 9, "pricePerUnit": 1})
    assert e.value.code == "UnknownToken"


# -- earnings distribution --------------------------------------------------------------


def test_worked_distribution_instance(approved_prop):
    # S=1000 split 600/400, total 1001: floor payouts 600+400, remainder 1
    node, prop = fractionalized_prop(approved_prop, units=1000, price=0)
    node.execute(node.seller, "safeTransferBatch",
                 {"property": prop, "from": node.seller, "to": node.buyer,
                  "ids": [FRAC1], "amounts": [400]})
    treasury_before = node.state.native.balance(TREASURY)
    result = node.execute(node.seller, "distributeEarnings",
                          {"property": prop, "rightId": 1, "total": 1001},
                          value=1001)
    assert result["payouts"] == {node.seller: 600, node.buyer: 400}
    assert result["remainder"] == 1
    assert node.state.native.balance(TREASURY) == treasury_before + 1


def test_single_holder_gets_everything(approved_prop):
    node, prop = fractionalized_prop(approved_prop, units=77, price=0)
    buyer_before = node.state.native.balance(node.buyer)
    result = node.execute(node.seller, "distributeEarnings",
                          {"property": prop, "rightId": 1, "total": 500},
                          value=500)
    assert result["payouts"] == {node.seller: 500}
    assert result["remainder"] == 0
    assert node.state.native.balance(node.buyer) == buyer_before


def test_distribute_zero_total(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    result = node.execute(node.seller, "distributeEarnings",
                          {"property": prop, "rightId": 1, "total": 0})
    assert set(result["payouts"].values()) == {0}
    assert result["remainder"] == 0


def test_distribute_requires_fractionalization(approved_prop):
    node, prop = minted_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "distributeEarnings",
                     {"property": prop, "rightId": 1, "total": 10}, value=10)
    assert e.value.code == "NotFractionalized"


def test_distribute_underfunded_value(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.seller, "distributeEarnings",
                     {"property": prop, "rightId": 1, "total": 100}, value=99)
    assert e.value.code == "InsufficientPayment"


def test_distribute_auth(approved_prop):
    node, prop = fractionalized_prop(approved_prop)
    with pytest.raises(LedgerError) as e:
        node.execute(node.buyer, "distributeEarnings",
                     {"property": prop, "rightId": 1, "total": 1}, value=1)
    assert e.value.code == "NotAuthorized"
    # the property admin may distribute without holding the right
    node.execute(node.admin, "faucet", {"to": node.admin, "amount": 50})
    result = node.execute(node.admin, "distributeEarnings",
                          {"property": prop, "rightId": 1, "total": 10},
                          value=10)
    assert sum(result["payouts"].values()) + result["remainder"] == 10


@settings(max_examples=200)
@given(st.dictionaries(st.integers(0, 7), st.integers(1, 10 ** 6),
                       min_size=1, max_size=8),
       st.integers(0, 10 ** 9))
def test_payout_conservation_property(raw, total):
    balances = {f"0x{i:02x}" + "00" * 19: b for i, b in raw.items()}
    payouts, remainder = pro_rata_payouts(balances, total)
    ref_p, ref_r = ref_payouts(balances, total)
    assert payouts == ref_p
    assert remainder == ref_r
    assert sum(payouts.values()) + remainder == total
    assert 0 <= remainder < len(balances) or total == 0
