import copy

import pytest
from hypothesis import given, settings, strategies as st

from estateledger.canonical import canonical_json_bytes
from estateledger.chain import NativeLedger
from estateledger.errors import LedgerError
from estateledger.records import read, to_json
from estateledger.tokens import (FRACTIONAL_FLAG, TokenLedger, atomic_swap,
                                 fractional_of, is_fractional, is_right,
                                 right_of, swap_descriptor_digest)

A = "0x" + "aa" * 20
B = "0x" + "bb" * 20
C = "0x" + "cc" * 20
ZERO = "0x" + "00" * 20

RIGHT = 1
FRAC = FRACTIONAL_FLAG | 1


def digest(tokens):
    return canonical_json_bytes(to_json(tokens))


# -- id space -------------------------------------------------------------------


def test_id_partition_by_top_bit():
    assert is_right(RIGHT) and not is_fractional(RIGHT)
    assert is_fractional(FRAC) and not is_right(FRAC)
    assert fractional_of(RIGHT) == RIGHT + 2 ** 255
    assert right_of(FRAC) == RIGHT


def test_fractional_of_fractional_rejected():
    with pytest.raises(LedgerError) as e:
        fractional_of(FRAC)
    assert e.value.code == "NonRightId"
    with pytest.raises(LedgerError) as e:
        right_of(RIGHT)
    assert e.value.code == "NonRightId"


def test_out_of_range_ids_rejected():
    tokens = TokenLedger()
    for bad in (-1, 1 << 256):
        with pytest.raises(LedgerError) as e:
            tokens.balance_of(A, bad)
        assert e.value.code == "UnknownToken"


# -- mint / burn -------------------------------------------------------------------


def test_right_supply_capped_at_one():
    tokens = TokenLedger()
    tokens.mint(A, RIGHT, 1)
    assert tokens.total_supply(RIGHT) == 1
    with pytest.raises(LedgerError) as e:
        tokens.mint(B, RIGHT, 1)
    assert e.value.code == "AlreadyMinted"
    with pytest.raises(LedgerError) as e:
        tokens.mint(A, 2, 5)
    assert e.value.code == "NonFungibleAmount"


def test_fractional_supply_unbounded():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 1000)
    tokens.mint(B, FRAC, 500)
    assert tokens.total_supply(FRAC) == 1500
    assert tokens.balance_of(A, FRAC) == 1000


def test_mint_to_zero_address_rejected():
    with pytest.raises(LedgerError) as e:
        TokenLedger().mint(ZERO, FRAC, 10)
    assert e.value.code == "ZeroAddress"


def test_unminted_balance_is_zero():
    assert TokenLedger().balance_of(A, 42) == 0


def test_burn_right_exactly_one():
    tokens = TokenLedger()
    tokens.mint(A, RIGHT, 1)
    with pytest.raises(LedgerError) as e:
        tokens.burn(A, RIGHT, 2)
    assert e.value.code == "NonFungibleAmount"
    tokens.burn(A, RIGHT, 1)
    assert tokens.total_supply(RIGHT) == 0
    # and the right can be minted again after a full burn
    tokens.mint(B, RIGHT, 1)


def test_burn_more_than_held():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 10)
    with pytest.raises(LedgerError) as e:
        tokens.burn(A, FRAC, 11)
    assert e.value.code == "InsufficientBalance"
    assert tokens.balance_of(A, FRAC) == 10


def test_burn_zero_is_a_no_op():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 10)
    before = digest(tokens)
    tokens.burn(A, FRAC, 0)
    assert digest(tokens) == before


def test_burn_zero_of_a_right_is_rejected():
    tokens = TokenLedger()
    tokens.mint(A, RIGHT, 1)
    before = digest(tokens)
    with pytest.raises(LedgerError) as e:
        tokens.burn(A, RIGHT, 0)
    assert e.value.code == "NonFungibleAmount"
    assert digest(tokens) == before


# -- balance queries -----------------------------------------------------------------


def test_batch_balances_in_input_order():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 7)
    tokens.mint(A, RIGHT, 1)
    assert tokens.balance_of_batch([A, A, B], [RIGHT, FRAC, FRAC]) == [1, 7, 0]


def test_batch_balance_length_mismatch():
    with pytest.raises(LedgerError) as e:
        TokenLedger().balance_of_batch([A], [1, 2])
    assert e.value.code == "LengthMismatch"


# -- approvals --------------------------------------------------------------------


def test_approval_grant_and_revoke():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 10)
    tokens.set_approval_for_all(A, B, True)
    tokens.safe_transfer_batch(B, A, C, [FRAC], [4])
    assert tokens.balance_of(C, FRAC) == 4
    tokens.set_approval_for_all(A, B, False)
    with pytest.raises(LedgerError) as e:
        tokens.safe_transfer_batch(B, A, C, [FRAC], [1])
    assert e.value.code == "NotAuthorized"


def test_self_approval_rejected():
    with pytest.raises(LedgerError) as e:
        TokenLedger().set_approval_for_all(A, A, True)
    assert e.value.code == "SelfApproval"


# -- batch transfers -----------------------------------------------------------------


def test_zero_amount_transfer_is_noop():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 10)
    before = digest(tokens)
    tokens.safe_transfer_batch(A, A, B, [FRAC], [0])
    assert digest(tokens) == before


def test_right_moves_at_most_one_unit():
    tokens = TokenLedger()
    tokens.mint(A, RIGHT, 1)
    with pytest.raises(LedgerError) as e:
        tokens.safe_transfer_batch(A, A, B, [RIGHT], [2])
    assert e.value.code == "NonFungibleAmount"


def test_failed_leg_rolls_back_whole_batch():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 300)
    before = digest(tokens)
    # second leg refers to a right A does not hold
    with pytest.raises(LedgerError) as e:
        tokens.safe_transfer_batch(A, A, B, [FRAC, RIGHT], [300, 1])
    assert e.value.code == "InsufficientBalance"
    assert digest(tokens) == before


def test_transfer_to_zero_address_rejected():
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 5)
    with pytest.raises(LedgerError) as e:
        tokens.safe_transfer_batch(A, A, ZERO, [FRAC], [1])
    assert e.value.code == "ZeroAddress"


def test_length_mismatch():
    with pytest.raises(LedgerError) as e:
        TokenLedger().safe_transfer_batch(A, A, B, [1, 2], [1])
    assert e.value.code == "LengthMismatch"


def test_same_id_drawn_twice_in_one_batch():
    # legs apply sequentially: two legs may not overdraw together
    tokens = TokenLedger()
    tokens.mint(A, FRAC, 10)
    with pytest.raises(LedgerError):
        tokens.safe_transfer_batch(A, A, B, [FRAC, FRAC], [6, 6])
    assert tokens.balance_of(A, FRAC) == 10
    tokens.safe_transfer_batch(A, A, B, [FRAC, FRAC], [6, 4])
    assert tokens.balance_of(B, FRAC) == 10


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 60)),
                min_size=1, max_size=6))
def test_batch_equals_sequential_singles(legs):
    frac_ids = [FRACTIONAL_FLAG | i for i in range(1, 6)]
    base = TokenLedger()
    for fid in frac_ids:
        base.mint(A, fid, 100)

    ids = [frac_ids[i] for i, _ in legs]
    amounts = [amt for _, amt in legs]

    batched = copy.deepcopy(base)
    sequential = copy.deepcopy(base)
    first_code = None  # what the first failing single raises
    for tid, amt in zip(ids, amounts):
        try:
            sequential.safe_transfer_batch(A, A, B, [tid], [amt])
        except LedgerError as e:
            first_code = e.code
            break
    try:
        batched.safe_transfer_batch(A, A, B, ids, amounts)
    except LedgerError as e:
        assert e.code == first_code
        assert digest(batched) == digest(base)
    else:
        assert first_code is None
        assert digest(batched) == digest(sequential)


# -- swaps ----------------------------------------------------------------------------


def swap_setup():
    tokens = TokenLedger()
    native = NativeLedger()
    tokens.mint(A, FRAC, 1000)
    tokens.mint(B, RIGHT, 1)
    for addr, amount in ((A, 100), (B, 700)):
        native.ensure_account(addr)
        native.credit(addr, amount)
    return tokens, native


def consent_both(tokens, legs_a, va, legs_b, vb):
    d = swap_descriptor_digest(A, legs_a, va, B, legs_b, vb)
    tokens.give_consent(A, d)
    tokens.give_consent(B, d)
    return d


def test_swap_moves_both_sides_exactly():
    tokens, native = swap_setup()
    legs_a, legs_b = [(FRAC, 500)], []
    consent_both(tokens, legs_a, 0, legs_b, 500)
    atomic_swap(tokens, native, A, legs_a, 0, B, legs_b, 500)
    assert tokens.balance_of(A, FRAC) == 500
    assert tokens.balance_of(B, FRAC) == 500
    assert native.balance(A) == 600
    assert native.balance(B) == 200


def test_swap_without_consent():
    tokens, native = swap_setup()
    legs_a = [(FRAC, 500)]
    d = swap_descriptor_digest(A, legs_a, 0, B, [], 500)
    tokens.give_consent(A, d)  # B never consents
    before = digest(tokens), dict(native.accounts)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, legs_a, 0, B, [], 500)
    assert e.value.code == "MissingConsent"
    assert (digest(tokens), dict(native.accounts)) == before


def test_consent_is_for_the_exact_descriptor():
    tokens, native = swap_setup()
    consent_both(tokens, [(FRAC, 500)], 0, [], 500)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, [(FRAC, 499)], 0, B, [], 500)
    assert e.value.code == "MissingConsent"


def test_empty_swap_only_consumes_consents():
    tokens, native = swap_setup()
    d = consent_both(tokens, [], 0, [], 0)
    before_native = dict(native.accounts)
    atomic_swap(tokens, native, A, [], 0, B, [], 0)
    assert native.accounts == before_native
    assert not tokens.has_consent(A, d)
    assert not tokens.has_consent(B, d)


def test_consents_consumed_on_success():
    tokens, native = swap_setup()
    legs_a = [(FRAC, 10)]
    d = consent_both(tokens, legs_a, 0, [], 5)
    atomic_swap(tokens, native, A, legs_a, 0, B, [], 5)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, legs_a, 0, B, [], 5)
    assert e.value.code == "MissingConsent"
    assert d not in tokens.consents.get(A, set())


def test_swap_rolls_back_on_any_shortfall():
    tokens, native = swap_setup()
    # B consents to pay more native than B holds
    legs_a = [(FRAC, 100)]
    consent_both(tokens, legs_a, 0, [], 9999)
    before = digest(tokens), dict(native.accounts)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, legs_a, 0, B, [], 9999)
    assert e.value.code == "InsufficientFunds"
    assert (digest(tokens), dict(native.accounts)) == before

    # and a token shortfall rolls back native movements too
    legs_a = [(FRAC, 2000)]
    consent_both(tokens, legs_a, 50, [], 0)
    before = digest(tokens), dict(native.accounts)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, legs_a, 50, B, [], 0)
    assert e.value.code == "InsufficientBalance"
    assert (digest(tokens), dict(native.accounts)) == before


@pytest.mark.parametrize("va, vb", [(-5, 0), (0, -5), (-5, 5)])
def test_swap_rejects_negative_value(va, vb):
    tokens, native = swap_setup()
    legs_a = [(FRAC, 10)]
    d = consent_both(tokens, legs_a, va, [], vb)
    before = digest(tokens), dict(native.accounts)
    with pytest.raises(LedgerError) as e:
        atomic_swap(tokens, native, A, legs_a, va, B, [], vb)
    assert e.value.code == "ParseError"
    assert (digest(tokens), dict(native.accounts)) == before
    assert tokens.has_consent(A, d) and tokens.has_consent(B, d)


def test_swap_with_rights_both_ways():
    tokens, native = swap_setup()
    legs_a, legs_b = [(FRAC, 250)], [(RIGHT, 1)]
    consent_both(tokens, legs_a, 0, legs_b, 0)
    atomic_swap(tokens, native, A, legs_a, 0, B, legs_b, 0)
    assert tokens.balance_of(A, RIGHT) == 1
    assert tokens.balance_of(B, FRAC) == 250


# -- uri -----------------------------------------------------------------------------


def test_uri_requires_initialization():
    with pytest.raises(LedgerError) as e:
        TokenLedger().uri_of(1)
    assert e.value.code == "Uninitialized"
    tokens = TokenLedger(base_uri="m/{id}")
    assert tokens.uri_of(1).endswith("1")
    assert tokens.uri_of(1) != tokens.uri_of(2)


def test_serialization_round_trip():
    tokens, _ = swap_setup()
    tokens.set_approval_for_all(A, B, True)
    tokens.give_consent(A, "ab" * 32)
    again = read(TokenLedger, to_json(tokens))
    assert to_json(again) == to_json(tokens)
    assert again.balance_of(A, FRAC) == 1000
