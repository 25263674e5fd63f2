import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from estateledger.canonical import (canonical_json_bytes, sha256, sha256_hex,
                                    u32be, u64be)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


def test_sorted_keys_and_minimal_separators():
    assert canonical_json_bytes({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'


def test_key_order_never_matters():
    a = canonical_json_bytes({"x": 1, "y": {"p": 2, "q": 3}})
    b = canonical_json_bytes({"y": {"q": 3, "p": 2}, "x": 1})
    assert a == b


@given(json_values)
def test_round_trip_is_stable(value):
    once = canonical_json_bytes(value)
    again = canonical_json_bytes(json.loads(once.decode("utf-8")))
    assert once == again


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False).encode()


@given(json_values)
def test_equals_json_dumps_even_after_a_failed_encode(value):
    assert canonical_json_bytes(value) == _dumps(value)
    doc = {"a": [value], "b": object()}
    with pytest.raises(TypeError):  # raised inside `doc`, after "a"
        canonical_json_bytes(doc)
    del doc["b"]  # the same object, now encodable
    assert canonical_json_bytes(doc) == _dumps(doc)


@pytest.mark.parametrize("number", [float("nan"), float("inf"),
                                    float("-inf")])
def test_a_number_json_lacks_is_a_value_error(number):
    for value in (number, [1, number], {"a": {"b": number}}):
        with pytest.raises(ValueError):
            canonical_json_bytes(value)


def test_a_circular_value_is_a_recursion_error():
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_json_bytes(loop)


def test_non_ascii_kept_verbatim():
    # ensure_ascii=False: utf-8 bytes, no \u escapes
    assert canonical_json_bytes("héllo") == '"héllo"'.encode("utf-8")


def test_hash_helpers_agree_with_hashlib():
    data = b"some bytes"
    assert sha256(data) == hashlib.sha256(data).digest()
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_big_endian_widths():
    assert u64be(1) == b"\x00" * 7 + b"\x01"
    assert u32be(1) == b"\x00" * 3 + b"\x01"
    assert u64be(2 ** 64 - 1) == b"\xff" * 8
