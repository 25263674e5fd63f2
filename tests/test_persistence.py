"""The state dir's one commit point: a write appends its block to
chain.json in place and fsyncs it, then rewrites the tagged checkpoint
state.json; a load redoes the blocks after the tag and drops a torn
last append."""

import builtins
import errno
import hashlib
import json
import os
import shutil

import pytest

from estateledger import cli, persistence
from estateledger.addresses import derive_address
from estateledger.canonical import canonical_json_bytes
from estateledger.errors import LedgerError
from estateledger.node import Node
from estateledger.persistence import load_state, save_state

ADMIN_KEY = "admin-key-1"
ADMIN = derive_address(ADMIN_KEY.encode())
SELLER = derive_address(b"seller-key")


def estate(state_dir, *argv) -> int:
    return cli.main([*argv, "--state-dir", str(state_dir)])


def faucet(amount, timestamp) -> list:
    return ["chain", "faucet", "--to", SELLER, "--amount", str(amount),
            "--as", ADMIN, "--timestamp", str(timestamp)]


def read(state_dir, name) -> bytes:
    with open(os.path.join(state_dir, name), "rb") as fh:
        return fh.read()


def dir_bytes(state_dir) -> dict:
    out = {}
    for root, _, names in os.walk(state_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, state_dir)] = fh.read()
    return out


def digest(state_dir) -> str:
    return load_state(str(state_dir)).full_digest()


def whole_log(state_dir) -> bytes:
    """The bytes a whole rewrite of the dir's loaded chain would write."""
    return load_state(str(state_dir)).state.chain.canonical_json()


@pytest.fixture
def base(tmp_path, capsys):
    """A CLI-built ledger: an admin, a seller, a faucet and one object."""
    state_dir = tmp_path / "base"
    for argv in (["init", "--admin-key", ADMIN_KEY, "--timestamp", "0"],
                 ["stakeholder", "register", "--role", "Seller", "--key",
                  "seller-key", "--as", ADMIN, "--timestamp", "1"],
                 faucet(500, 2),
                 ["object", "put", "--data", "deed", "--as", ADMIN,
                  "--timestamp", "3"]):
        assert estate(state_dir, *argv) == 0
    capsys.readouterr()
    return state_dir


def ledger_of(blocks: int) -> Node:
    node = Node()
    node.init_genesis(ADMIN_KEY.encode(), timestamp=0)
    node.execute(ADMIN, "registerStakeholder", {
        "role": "Seller", "publicKey": b"seller-key".hex(), "infoCid": ""},
        timestamp=1)
    while len(node.state.chain.blocks) < blocks:
        node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 7},
                     timestamp=2)
    return node


# -- crashes -------------------------------------------------------------------


class Faults:
    """Fails the `at`-th write boundary `save_state` reaches, as a crash
    there would stop it: a write to a file it opened for writing (having
    written the first half of the bytes), a truncate, an fsync or a
    rename. `seen` counts the boundaries reached."""

    def __init__(self, at: int):
        self.at, self.seen, self.fired = at, 0, None

    def boundary(self, what: str):
        self.seen += 1
        if self.seen == self.at:
            self.fired = what
            raise OSError(errno.EIO, f"injected fault at {what}")

    def install(self, patch):
        faults, real_os = self, os

        class File:
            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, data):
                try:
                    faults.boundary(
                        f"write of {real_os.path.basename(self._fh.name)}")
                except OSError:
                    self._fh.write(data[:len(data) // 2])
                    self._fh.flush()
                    raise
                return self._fh.write(data)

            def truncate(self, *args):
                faults.boundary(
                    f"truncate of {real_os.path.basename(self._fh.name)}")
                return self._fh.truncate(*args)

        class Os:
            def __getattr__(self, name):
                return getattr(real_os, name)

            def fsync(self, fd):
                faults.boundary("fsync")
                return real_os.fsync(fd)

            def replace(self, src, dst):
                faults.boundary(f"rename to {real_os.path.basename(dst)}")
                return real_os.replace(src, dst)

        def opener(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            return File(fh) if mode in ("wb", "r+b") else fh

        patch.setattr(persistence, "open", opener, raising=False)
        patch.setattr(persistence, "os", Os())


@pytest.mark.parametrize("argv", [
    faucet(25, 10),
    ["object", "put", "--data", "survey", "--as", ADMIN, "--timestamp", "10"],
], ids=["faucet", "object-put"])
def test_a_fault_at_any_write_boundary_leaves_the_state_before_or_after(
        base, tmp_path, monkeypatch, capsys, argv):
    pre = digest(base)
    done = tmp_path / "done"
    shutil.copytree(base, done)
    assert estate(done, *argv) == 0
    post = digest(done)
    assert post != pre
    outcomes, at = [], 1
    while True:
        state_dir = tmp_path / f"fault{at}"
        shutil.copytree(base, state_dir)
        faults = Faults(at)
        with monkeypatch.context() as patch:
            faults.install(patch)
            rc = estate(state_dir, *argv)
        if faults.fired is None:  # past the last boundary
            assert rc == 0
            break
        assert rc == 3, faults.fired
        got = digest(state_dir)
        assert got in (pre, post), faults.fired
        outcomes.append((faults.fired, "pre" if got == pre else "post"))
        assert estate(state_dir, "chain", "verify") == 0
        assert estate(state_dir, "chain", "replay") == 0
        assert estate(state_dir, *faucet(1, 11)) == 0
        assert read(state_dir, "chain.json") == whole_log(state_dir)
        at += 1
    capsys.readouterr()
    # the append, its fsync, the checkpoint's write, fsync and rename,
    # and for a stored object its file's write, fsync and rename
    assert len(outcomes) == (8 if argv[0] == "object" else 5), outcomes
    assert outcomes[0] == ("write of chain.json", "pre")
    assert all(outcome == "post" for _, outcome in outcomes[1:]), outcomes


def test_a_failed_rename_of_chain_json_leaves_the_state_before_or_after(
        base, tmp_path, monkeypatch, capsys):
    """A write that renamed state.json and then failed to rename
    chain.json used to leave a state that load accepted and replay
    contradicted; a write to a loaded dir renames no chain.json."""
    pre, real_replace = digest(base), os.replace
    done = tmp_path / "done"
    shutil.copytree(base, done)
    assert estate(done, *faucet(25, 10)) == 0

    def replace(src, dst):
        if dst.endswith("chain.json"):
            raise OSError(errno.EIO, "injected fault")
        return real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(persistence.os, "replace", replace)
        estate(base, *faucet(25, 10))
    node = load_state(str(base))
    assert node.full_digest() in (pre, digest(done))
    assert node.replay().full_digest() == node.full_digest()
    capsys.readouterr()


# -- what a write writes -------------------------------------------------------


@pytest.mark.parametrize("blocks", [10, 300])
def test_a_write_appends_its_block_and_a_refused_one_writes_nothing(
        tmp_path, capsys, blocks):
    state_dir = str(tmp_path / "ledger")
    save_state(state_dir, ledger_of(blocks))
    before = read(state_dir, "chain.json")
    inode = os.stat(os.path.join(state_dir, "chain.json")).st_ino
    assert estate(state_dir, *faucet(3, 5)) == 0
    after = read(state_dir, "chain.json")
    block = load_state(state_dir).state.chain.blocks[-1]
    assert block.index == blocks
    assert len(after) - len(before) == len(b"," + block.canonical_json())
    assert after == whole_log(state_dir)
    assert os.stat(os.path.join(state_dir, "chain.json")).st_ino == inode
    files = dir_bytes(state_dir)
    assert estate(state_dir, "chain", "transfer", "--to", ADMIN,
                  "--amount", str(10 ** 9), "--as", SELLER) == 3
    assert dir_bytes(state_dir) == files
    capsys.readouterr()


def test_an_append_fsyncs_twice_and_a_whole_write_once_a_file(
        tmp_path, monkeypatch):
    node = ledger_of(5)
    node.execute(ADMIN, "putObject", {"dataHex": b"deed".hex()})
    fsyncs, real_fsync = [], os.fsync
    monkeypatch.setattr(persistence.os, "fsync",
                        lambda fd: fsyncs.append(fd) or real_fsync(fd))
    state_dir = str(tmp_path / "ledger")
    save_state(state_dir, node)
    assert len(fsyncs) == 3  # the object, chain.json and state.json
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 1})
    save_state(state_dir, node)
    assert len(fsyncs) == 5  # the append and state.json
    assert read(state_dir, "chain.json") == node.state.chain.canonical_json()


def test_a_block_the_checkpoint_cannot_encode_is_refused_before_any_write(
        base, tmp_path):
    node = load_state(str(base))
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 10}, timestamp=9)
    node.state.native.accounts[5] = 10  # an int key among the addresses
    before = dir_bytes(base)
    with pytest.raises(TypeError):
        save_state(str(base), node)
    assert dir_bytes(base) == before
    elsewhere = tmp_path / "elsewhere"
    with pytest.raises(TypeError):
        save_state(str(elsewhere), node)
    assert not elsewhere.exists()


# -- what a load reads ---------------------------------------------------------


def test_an_untagged_checkpoint_is_one_at_the_tip_and_its_write_appends(
        base, capsys):
    node = load_state(str(base))
    state_json = os.path.join(base, "state.json")
    with open(state_json, "wb") as fh:
        fh.write(canonical_json_bytes(node.state.state_dict()))
    assert digest(base) == node.full_digest()
    before = read(base, "chain.json")
    inode = os.stat(os.path.join(base, "chain.json")).st_ino
    assert estate(base, *faucet(3, 5)) == 0
    assert read(base, "chain.json").startswith(before[:-2])
    assert os.stat(os.path.join(base, "chain.json")).st_ino == inode
    assert read(base, "chain.json") == whole_log(base)
    tip = load_state(str(base)).state.chain.blocks[-1]
    assert json.loads(read(base, "state.json"))["block"] == {
        "index": tip.index, "hash": tip.hash.hex()}
    capsys.readouterr()


@pytest.mark.parametrize("written", [1, 2, 11, 60, -1])
def test_a_torn_append_loads_without_it_and_the_next_write_overwrites_it(
        base, capsys, written):
    pre, before = digest(base), read(base, "chain.json")
    node = load_state(str(base))
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 9}, timestamp=9)
    post = node.full_digest()
    append = b"," + node.state.chain.blocks[-1].canonical_json() + b"]}"
    torn = append[:written]
    with open(os.path.join(base, "chain.json"), "wb") as fh:
        fh.write(before[:-2] + torn + before[-2:][len(torn):])
    files = dir_bytes(base)
    assert estate(base, "chain", "verify") == 0
    assert estate(base, "chain", "replay") == 0
    assert dir_bytes(base) == files
    # a tear that leaves only the final "}" unwritten keeps a whole block
    assert digest(base) == (post if written == -1 else pre)
    assert estate(base, *faucet(4, 10)) == 0
    assert read(base, "chain.json") == whole_log(base)
    assert estate(base, "chain", "verify") == 0
    capsys.readouterr()


def test_a_lagging_checkpoint_is_redone_and_a_wrong_tag_refused(base):
    lagging = read(base, "state.json")
    node = load_state(str(base))
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 9}, timestamp=9)
    save_state(str(base), node)
    state_json = os.path.join(base, "state.json")
    with open(state_json, "wb") as fh:
        fh.write(lagging)
    assert digest(base) == node.full_digest()
    tip = len(node.state.chain.blocks) - 1
    for tag in ({"index": tip + 1, "hash": "00" * 32},
                {"index": tip, "hash": "00" * 32},
                {"index": -1, "hash": "00" * 32}):
        body = json.loads(lagging) | {"block": tag}
        with open(state_json, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        with pytest.raises(LedgerError) as e:
            load_state(str(base))
        assert e.value.code == "CorruptSnapshot"
        assert e.value.message.startswith(f"{state_json} reflects")


def test_a_lagging_checkpoint_trusts_its_recorded_registrations(
        tmp_path, capsys):
    allow = tmp_path / "allow.txt"
    allow.write_text(hashlib.sha256(b"seller-key").hexdigest() + "\n")
    state_dir = tmp_path / "ledger"
    assert estate(state_dir, "init", "--admin-key", ADMIN_KEY,
                  "--allowlist", str(allow), "--timestamp", "0") == 0
    lagging = read(state_dir, "state.json")
    assert estate(state_dir, "stakeholder", "register", "--role", "Seller",
                  "--key", "seller-key", "--as", ADMIN,
                  "--timestamp", "1") == 0
    post = digest(state_dir)
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(lagging)
    allow.write_text("")  # the list that approved the seller changed since
    node = load_state(str(state_dir))
    assert node.full_digest() == post
    assert node.state.config["allowlist"] == str(allow)
    capsys.readouterr()
