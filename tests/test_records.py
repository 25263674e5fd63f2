"""The record codec: a stored value is read only in the exact form
`to_json` writes, and anything else is CorruptSnapshot."""

import json

import pytest

from estateledger.errors import LedgerError
from estateledger.persistence import load_state, save_state
from estateledger.records import read

# one value of each JSON type; a leaf is swapped for each one whose type
# differs from its own, and an int leaf for a float as well
SUBSTITUTES = (None, True, 7, "7", [], {})
# the ends of the paths of the stored fields annotated Optional, where
# null loads
OPTIONAL = (("config", "allowlist"), ("approvalRoot",), ("tokens", "baseUri"))
BLOCK_HEADER = {"index", "timestamp", "nonce", "transactions", "prevHash",
                "hash"}


def _leaves(value, path=()):
    """(path, value) of each leaf: a scalar or an empty container."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, inner in items:
            yield from _leaves(inner, path + (key,))
    else:
        yield path, value


def _dumped_with(doc, path, new) -> str:
    """`doc` as JSON text with the leaf at `path` swapped for `new`."""
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    old, inner[path[-1]] = inner[path[-1]], new
    try:
        return json.dumps(doc)
    finally:
        inner[path[-1]] = old


def test_every_mistyped_leaf_is_corrupt_snapshot(approved_prop, tmp_path):
    node, prop = approved_prop
    node.execute(node.seller, "mintNFT",
                 {"property": prop, "id": 1, "price": 0}, timestamp=1009)
    node.state.config["allowlist"] = "allow.txt"  # so no Optional is null
    save_state(str(tmp_path), node)
    probes = 0
    for name, keep in (("state.json", lambda path: True),
                       ("chain.json", lambda path: len(path) == 3
                        and path[2] in BLOCK_HEADER)):
        file = tmp_path / name
        original = file.read_bytes()
        doc = json.loads(original)
        for path, value in _leaves(doc):
            if not keep(path):
                continue
            for new in SUBSTITUTES + ((1.5,) if type(value) is int else ()):
                if type(new) is type(value):
                    continue
                file.write_text(_dumped_with(doc, path, new))
                probes += 1
                if new is None and any(path[-len(end):] == end
                                       for end in OPTIONAL):
                    load_state(str(tmp_path))
                    continue
                with pytest.raises(LedgerError) as e:
                    load_state(str(tmp_path))
                assert e.value.code == "CorruptSnapshot", (name, path, new)
        file.write_bytes(original)
    assert probes > 400
    assert load_state(str(tmp_path)).full_digest() == node.full_digest()


@pytest.mark.parametrize("t, value", [
    (dict[int, int], {"01": 1}),
    (dict[int, int], {"+1": 1}),
    (dict[int, int], {" 1": 1}),
    (dict[int, int], {"1_0": 1}),
    (dict[int, int], {"-0": 1}),
    (bytes, "AB"),
    (bytes, "0x00"),
    (bytes, "a"),
    (bytes, "ab cd"),
    (int, True),
    (set[str], ["a", 1]),
])
def test_non_canonical_forms_are_refused(t, value):
    with pytest.raises(LedgerError) as e:
        read(t, value)
    assert e.value.code == "CorruptSnapshot"
