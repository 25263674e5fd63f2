"""The record codec: a stored value is read only in the exact form
`to_json` writes, and anything else is CorruptSnapshot."""

import dataclasses
import json
import os
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.errors import LedgerError
from estateledger.persistence import load_state, save_state
from estateledger.records import read, to_json

from checkpoints import read_checkpoint, write_checkpoint

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


def _dumped_with(doc, path, new, **dump) -> str:
    """`doc` as JSON text with the leaf at `path` swapped for `new`."""
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    old, inner[path[-1]] = inner[path[-1]], new
    try:
        return json.dumps(doc, **dump)
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
        # the checkpoint is edited as one dict and stored again, each
        # section file under its new digest and the manifest signed, so
        # that an edit reaches the typed check of what it edits; the tag
        # and the section digests are edited in the manifest in place
        doc = json.loads(original)
        state = name == "state.json"
        whole = read_checkpoint(tmp_path) if state else None
        leaves = [(path, value, doc) for path, value in _leaves(doc)
                  if path[0] in ("block", "sections")] if state else [
            (path, value, doc) for path, value in _leaves(doc)]
        if state:
            leaves += [(path, value, whole) for path, value in _leaves(whole)
                       if path[0] != "block"]
        for path, value, edited in leaves:
            if not keep(path):
                continue
            for new in SUBSTITUTES + ((1.5,) if type(value) is int else ()):
                if type(new) is type(value):
                    continue
                if edited is whole:
                    write_checkpoint(tmp_path, json.loads(
                        _dumped_with(whole, path, new)))
                else:
                    file.write_text(_dumped_with(edited, path, new))
                probes += 1
                # a section is read on first use: decode() reads each
                if new is None and any(path[-len(end):] == end
                                       for end in OPTIONAL):
                    load_state(str(tmp_path)).state.decode()
                    continue
                with pytest.raises(LedgerError) as e:
                    load_state(str(tmp_path)).state.decode()
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
    (set[str], ["Seller", "Buyer", "Buyer"]),
    (set[str], ["a", "a"]),
    (set[str], ["b", "a"]),
])
def test_non_canonical_forms_are_refused(t, value):
    with pytest.raises(LedgerError) as e:
        read(t, value)
    assert e.value.code == "CorruptSnapshot"


@dataclasses.dataclass
class _Step:
    digest: bytes
    side_tag: str


@dataclasses.dataclass
class _Path:
    steps: list[_Step]


def test_a_list_of_records_round_trips_and_a_refusal_names_its_index():
    path = _Path([_Step(b"\x01", "l"), _Step(b"", "r")])
    assert to_json(path) == {"steps": [{"digest": "01", "sideTag": "l"},
                                       {"digest": "", "sideTag": "r"}]}
    assert read(_Path, to_json(path)) == path
    assert read(_Path, {"steps": []}) == _Path([])
    for steps, message in (
            ({}, "steps: expected a list, got {}"),
            ([{"digest": "01", "sideTag": "l"}, 5],
             "steps: 1: expected an object, got 5"),
            ([{"digest": "01", "sideTag": "l"},
              {"digest": "0A", "sideTag": "r"}],
             "steps: 1: digest: expected lowercase hex, got '0A'"),
            ([{"digest": "01"}],
             "steps: 0: keys ['digest'], expected ['digest', 'sideTag']")):
        with pytest.raises(LedgerError) as e:
            read(_Path, {"steps": steps})
        assert (e.value.code, e.value.message) == ("CorruptSnapshot", message)


def test_a_set_of_records_is_no_stored_form():
    with pytest.raises(TypeError):
        read(set[_Step], [])


# -- fuzzing the files of a state dir ------------------------------------------

FUZZ_ADMIN = derive_address(b"admin-key-1")
FUZZ_SELLER = derive_address(b"seller-key")
# the text a leaf is swapped for: numbers JSON cannot hold or a u64
# cannot, a lone surrogate, and nesting past the recursion limit
BAD_LEAVES = ("NaN", "1e999", str(2 ** 64), '"\\ud800"',
              "[" * 5000 + "]" * 5000)
FUZZ_COMMANDS = (
    ["chain", "verify"],
    ["chain", "balance", "--address", FUZZ_ADMIN],
    ["state", "digest"],
    ["chain", "faucet", "--to", FUZZ_SELLER, "--amount", "1",
     "--as", FUZZ_ADMIN, "--timestamp", "9"],
    ["chain", "replay"],
)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A CLI-built ledger: an admin, a seller, a faucet and one object."""
    base = tmp_path_factory.mktemp("fuzz") / "base"
    for argv in (["init", "--admin-key", "admin-key-1", "--timestamp", "0"],
                 ["stakeholder", "register", "--role", "Seller", "--key",
                  "seller-key", "--as", FUZZ_ADMIN, "--timestamp", "1"],
                 FUZZ_COMMANDS[3],
                 ["object", "put", "--data", "deed", "--as", FUZZ_ADMIN,
                  "--timestamp", "3"]):
        assert cli.main([*argv, "--state-dir", str(base)]) == 0
    return base


def _all_bytes(state_dir) -> dict:
    out = {}
    for root, _, names in os.walk(state_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, state_dir)] = fh.read()
    return out


@st.composite
def mutations(draw, original: bytes):
    """`original` with bytes flipped, truncated or inserted, or with one
    leaf of its JSON swapped for one of BAD_LEAVES."""
    kind = draw(st.sampled_from(("flip", "truncate", "insert", "leaf")))
    at = draw(st.integers(0, len(original) - 1))
    if kind == "flip":
        bit = 1 << draw(st.integers(0, 7))
        return original[:at] + bytes([original[at] ^ bit]) + original[at + 1:]
    if kind == "truncate":
        return original[:at]
    if kind == "insert":
        inserted = draw(st.binary(min_size=1, max_size=4))
        return original[:at] + inserted + original[at:]
    doc = json.loads(original)
    path = draw(st.sampled_from([path for path, _ in _leaves(doc)]))
    text = _dumped_with(doc, path, "@leaf@", separators=(",", ":"),
                        ensure_ascii=False)
    return text.replace('"@leaf@"', draw(st.sampled_from(BAD_LEAVES)),
                        1).encode("utf-8")


@given(data=st.data(), name=st.sampled_from(("state.json", "chain.json")),
       signed=st.booleans())
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_a_corrupt_ledger_file_exits_cleanly_and_writes_nothing(
        fuzz_base, data, name, signed):
    """No mutation of a ledger file makes a command raise out of main or
    exit 2, and a command that fails leaves the dir as it found it."""
    original = (fuzz_base / name).read_bytes()
    if name == "state.json" and not signed:
        # as written before tags held a digest: what the digest would
        # refuse reaches the checks of the section it mutates
        original, dropped = re.subn(rb',"state":"[0-9a-f]{64}"}', b"}",
                                    original)
        assert dropped == 1
    state_dir = fuzz_base.parent / "case"
    shutil.rmtree(state_dir, ignore_errors=True)
    shutil.copytree(fuzz_base, state_dir)
    (state_dir / name).write_bytes(data.draw(mutations(original)))
    for argv in FUZZ_COMMANDS:
        before = _all_bytes(state_dir)
        rc = cli.main([*argv, "--state-dir", str(state_dir)])
        assert rc in (0, 3, 4), argv
        if rc:
            assert _all_bytes(state_dir) == before, argv
