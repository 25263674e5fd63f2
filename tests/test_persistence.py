"""The state dir's one commit point: a write appends its block to
chain.json in place and fsyncs it, then writes its object files, the
section files it changed and the tagged manifest state.json, caches of
the log, without an fsync; a load redoes the blocks after the tag, drops
a torn last append, and rebuilds a checkpoint, a section file or an
object file a crash lost."""

import builtins
import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from estateledger import (chain as chain_mod, cli, node as node_mod,
                          persistence)
from estateledger.addresses import derive_address
from estateledger.canonical import canonical_json_bytes
from estateledger.errors import LedgerError
from estateledger.identity import StakeholderRecord
from estateledger.node import LedgerState, Node, PendingState
from estateledger.persistence import load_state, save_state
from estateledger.records import to_json
from estateledger.storage import ObjectStore, make_cid

from checkpoints import (edit_checkpoint, manifest, read_checkpoint,
                         section_path, whole_files, write_checkpoint)

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


def _bytes_of(path):
    """The bytes of the file at `path`, None if there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Faults:
    """Fails the `at`-th write boundary `save_state` reaches, as a crash
    there would stop it: a write to a file it opened for writing, a
    truncate, an fsync, a rename or a removal. The fault fires before the
    boundary's work, having written the first half of a write's bytes, or
    `after` that work is done. `seen` counts the boundaries reached.

    It also tracks what a crash may still lose from the page cache: each
    file written since its last fsync, with its bytes before (`lost`)."""

    def __init__(self, at: int, after: bool = False):
        self.at, self.after, self.seen, self.fired = at, after, 0, None
        self.unsynced = {}  # path -> (bytes before, whether appended to)
        self.synced = []  # the name of each file an fsync made durable
        self._paths = {}  # fd -> path of each file open for writing

    def boundary(self, what: str, work, torn=None):
        self.seen += 1
        if self.seen != self.at:
            return work()
        self.fired = what
        if self.after:
            work()
        elif torn is not None:
            torn()
        raise OSError(errno.EIO, f"injected fault at {what}")

    def lost(self) -> list:
        """(path, how, bytes or None for no file) for each way a crash may
        lose a file written since its last fsync: an append in place is
        lost or cut to half of it; any other file is removed, emptied,
        cut to its first half, filled with zeros, cut to its first half
        padded with zeros, or restored to its bytes before. Temp names,
        which no load reads, are left out."""
        out = []
        for path, (before, appended) in sorted(self.unsynced.items()):
            now = _bytes_of(path)
            if path.endswith(".tmp") or now is None:
                continue
            if appended:
                at = len(os.path.commonprefix([before, now]))
                ways = {"lost": before,
                        "half": now[:at + (len(now) - at) // 2]}
            else:
                half = now[:len(now) // 2]
                ways = {"removed": None, "emptied": b"", "half": half,
                        "zeroed": bytes(len(now)),
                        "padded": half + bytes(len(now) - len(half)),
                        "restored": before}
            seen = [now]
            for how, data in ways.items():
                if data not in seen:
                    seen.append(data)
                    out.append((path, how, data))
        return out

    def install(self, patch):
        faults, real_os = self, os

        class File:
            def __init__(self, fh):
                self._fh = fh
                self._name = real_os.path.basename(fh.name)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                faults._paths.pop(self._fh.fileno(), None)
                self._fh.close()
                return False

            def write(self, data):
                def torn():
                    self._fh.write(data[:len(data) // 2])
                    self._fh.flush()
                return faults.boundary(f"write of {self._name}",
                                       lambda: self._fh.write(data), torn)

            def truncate(self, *args):
                return faults.boundary(f"truncate of {self._name}",
                                       lambda: self._fh.truncate(*args))

        class Os:
            def __getattr__(self, name):
                return getattr(real_os, name)

            def open(self, path, *args):
                fd = real_os.open(path, *args)
                faults._paths[fd] = real_os.path.abspath(path)
                return fd

            def close(self, fd):
                faults._paths.pop(fd, None)
                return real_os.close(fd)

            def fsync(self, fd):
                def work():
                    real_os.fsync(fd)
                    path = faults._paths.get(fd)
                    if path is not None:
                        faults.unsynced.pop(path, None)
                        faults.synced.append(real_os.path.basename(path))
                return faults.boundary("fsync", work)

            def replace(self, src, dst):
                src, dst = real_os.path.abspath(src), real_os.path.abspath(dst)

                def work():
                    before = _bytes_of(dst)
                    real_os.replace(src, dst)
                    if src in faults.unsynced:  # its bytes may still be lost
                        del faults.unsynced[src]
                        faults.unsynced.setdefault(dst, (before, False))
                    else:
                        faults.unsynced.pop(dst, None)
                return faults.boundary(
                    f"rename to {real_os.path.basename(dst)}", work)

            def remove(self, path):
                path = real_os.path.abspath(path)

                def work():
                    real_os.remove(path)
                    faults.unsynced.pop(path, None)
                return faults.boundary(
                    f"removal of {real_os.path.basename(path)}", work)

        def opener(path, mode="r", *args, **kwargs):
            if mode not in ("wb", "r+b"):
                return builtins.open(path, mode, *args, **kwargs)
            path = real_os.path.abspath(path)
            before = _bytes_of(path)
            fh = File(builtins.open(path, mode, *args, **kwargs))
            faults.unsynced.setdefault(path, (before, mode == "r+b"))
            faults._paths[fh.fileno()] = path
            return fh

        patch.setattr(persistence, "open", opener, raising=False)
        patch.setattr(persistence, "os", Os())


def crashes(base, tmp_path, monkeypatch, capsys, argv):
    """Run the command `argv` on copies of `base` and crash it at each
    write boundary, then just after each, then after it returns. For each
    crash, yield (boundary, appends made durable, dir) for the dir as the
    crash left it and then for each write `Faults.lost` says it may lose,
    applied in turn to a copy of it."""
    crashed = 0
    for after in (False, True):
        at = 0
        while True:
            at += 1
            crashed += 1
            state_dir = tmp_path / f"crash{crashed}"
            shutil.copytree(base, state_dir)
            faults = Faults(at, after)
            with monkeypatch.context() as patch:
                faults.install(patch)
                rc = estate(state_dir, *argv)
            errtxt = capsys.readouterr().err
            if faults.fired is None:  # past the last boundary
                assert rc == 0, errtxt
                if after:
                    break
            else:
                assert rc == 3, faults.fired
                # an I/O error that names no file is no missing file
                assert "NotFound" not in errtxt and "None" not in errtxt, \
                    errtxt
                # nothing is written after the fault: it stops the command
                # as a crash would
                assert faults.seen == at, faults.fired
            what = (faults.fired or "return") + (" done" if after else "")
            left = [(what, state_dir)]
            for i, (path, how, data) in enumerate(faults.lost()):
                lost = tmp_path / f"crash{crashed}-{i}"
                shutil.copytree(state_dir, lost)
                target = os.path.join(lost, os.path.relpath(path, state_dir))
                os.remove(target)
                if data is not None:
                    with open(target, "wb") as fh:
                        fh.write(data)
                left.append((f"{what}, {os.path.basename(path)} {how}", lost))
            durable = faults.synced.count("chain.json")
            for what, state_dir in left:
                yield what, durable, state_dir
            if faults.fired is None:
                break


def recovers(state_dir):
    """The checks every crashed dir passes: it verifies, replays, and
    takes a write that leaves the whole log and the whole checkpoint."""
    assert estate(state_dir, "chain", "verify") == 0
    assert estate(state_dir, "chain", "replay") == 0
    assert estate(state_dir, *faucet(1, 11)) == 0
    assert read(state_dir, "chain.json") == whole_log(state_dir)
    assert whole_files(state_dir) == _whole_encoding(state_dir)


SURVEY = make_cid(b"survey").split(":")[1] + ".bin"
LOSSES = ("removed", "emptied", "half", "zeroed", "padded")


def losses(name) -> set:
    """Each way `Faults.lost` loses the file `name`, new since its fsync."""
    return {f"{name} {how}" for how in LOSSES}


def store_file(state_dir) -> str:
    """The name of the store's section file of the dir's manifest."""
    return manifest(state_dir)["sections"]["store"] + ".json"


@pytest.mark.parametrize("argv", [
    faucet(25, 10),
    ["object", "put", "--data", "survey", "--as", ADMIN, "--timestamp", "10"],
], ids=["faucet", "object-put"])
def test_a_fault_at_any_write_boundary_leaves_the_state_before_or_after(
        base, tmp_path, monkeypatch, capsys, argv):
    """A crash at or after any write boundary, losing any write not yet
    fsynced, leaves the state before the command or, once its append is
    fsynced, after it."""
    pre = digest(base)
    done = tmp_path / "done"
    shutil.copytree(base, done)
    assert estate(done, *argv) == 0
    post = digest(done)
    assert post != pre
    outcomes = []
    for what, durable, state_dir in crashes(base, tmp_path, monkeypatch,
                                            capsys, argv):
        got = digest(state_dir)
        assert got == post if durable else got in (pre, post), what
        outcomes.append((what, "pre" if got == pre else "post"))
        recovers(state_dir)
    capsys.readouterr()
    # the append and its fsync; then a stored object's write and rename,
    # the new store section's, the manifest's, which no fsync follows,
    # and the removal of the store section it replaced
    stores = argv[0] == "object"
    old, new = store_file(base), store_file(done)
    assert (old != new) is stores
    boundaries = ["write of chain.json", "fsync"] + (
        [f"write of {SURVEY}.tmp", f"rename to {SURVEY}",
         f"write of {new}.tmp", f"rename to {new}"] if stores else []
    ) + ["write of state.json.tmp", "rename to state.json"] + (
        [f"removal of {old}"] if stores else [])
    left = [outcome for outcome in outcomes if "," not in outcome[0]]
    assert [what for what, _ in left] == boundaries + ["return"] + [
        f"{what} done" for what in boundaries], outcomes
    assert left[:2] == [("write of chain.json", "pre"), ("fsync", "post")]
    # every kind of loss was tried, on the append, the manifest, and the
    # object and section files, which held no bytes before
    assert {what.split(", ")[1] for what, _ in outcomes if "," in what} == {
        "chain.json lost", "chain.json half", "state.json restored"} | (
        losses("state.json")) | (
        losses(SURVEY) | losses(new) if stores else set())


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


DEED = make_cid(b"deed").split(":")[1] + ".bin"


def test_a_fault_at_any_write_boundary_of_an_import_leaves_either_ledger(
        base, tmp_path, monkeypatch, capsys):
    """`state import --force` over a ledger that holds objects removes the
    old checkpoint before its first rename, so a crash at or after any
    boundary, losing any write not yet fsynced, object files included,
    leaves a dir that loads to the ledger before or to the one imported:
    the old one until the new log is renamed in, the new one after."""
    other, snap = tmp_path / "other", tmp_path / "other.json"
    for argv in (["init", "--admin-key", ADMIN_KEY, "--timestamp", "0"],
                 ["stakeholder", "register", "--role", "Seller", "--key",
                  "seller-key", "--as", ADMIN, "--timestamp", "1"],
                 faucet(300, 2),
                 ["object", "put", "--data", "survey", "--as", ADMIN,
                  "--timestamp", "3"],
                 ["state", "export", "--out", str(snap)]):
        assert estate(other, *argv) == 0
    pre, post = digest(base), digest(other)
    assert pre != post
    outcomes = []
    for what, _, state_dir in crashes(base, tmp_path, monkeypatch, capsys, [
            "state", "import", "--in", str(snap), "--force"]):
        got = digest(state_dir)
        assert got in (pre, post), what
        outcomes.append((what, "pre" if got == pre else "post"))
        # the replaced ledger's object file is in no ledger a crash leaves
        assert not load_state(str(state_dir)).state.store.has(
            make_cid(b"deed")) or got == pre, what
        recovers(state_dir)
    capsys.readouterr()
    # the old checkpoint removed; the log and config.json written,
    # fsynced and renamed; the new object file, section files and
    # manifest, which no fsync follows; the replaced ledger's object file
    # and store section removed, and the dir fsynced. The two ledgers
    # hold the same contracts and registry, whose files are rewritten
    sections = [digest + ".json"
                for digest in manifest(other)["sections"].values()]
    assert set(sections) & set(os.listdir(base / "sections")) == set(
        sections[:2])
    boundaries = [
        "removal of state.json", "write of chain.json.tmp",
        "write of config.json.tmp", "fsync", "fsync", "rename to chain.json",
        "rename to config.json", f"write of {SURVEY}.tmp",
        f"rename to {SURVEY}"] + [
        f"write of {name}.tmp" for name in sections] + [
        f"rename to {name}" for name in sections] + [
        "write of state.json.tmp", "rename to state.json",
        f"removal of {DEED}", f"removal of {store_file(base)}", "fsync"]
    left = [outcome for outcome in outcomes if "," not in outcome[0]]
    assert [what for what, _ in left] == boundaries + ["return"] + [
        f"{what} done" for what in boundaries], outcomes
    renamed = boundaries.index("rename to chain.json")
    assert [got for _, got in left] == (
        ["pre"] * (renamed + 1) + ["post"] * (len(boundaries) - renamed)
        + ["pre"] * renamed + ["post"] * (len(boundaries) - renamed))
    assert {what.split(", ")[1] for what, _ in outcomes if "," in what} >= (
        losses("state.json") | losses(SURVEY) | losses(sections[2]))


def script_of(tmp_path, *lines) -> str:
    path = tmp_path / f"script{len(lines)}.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


SCRIPT_LINES = (f"as {ADMIN} chain faucet --to {SELLER} --amount 25",
                f"as {ADMIN} object put --data survey",
                f"as {SELLER} chain transfer --to {ADMIN} --amount 5")


# ten lines: the three above, then faucets of seven amounts
TEN_LINES = SCRIPT_LINES + tuple(
    f"as {ADMIN} chain faucet --to {SELLER} --amount {i}" for i in range(1, 8))


def _crash_a_script(base, tmp_path, monkeypatch, capsys, lines):
    """A script's lines each commit at their append's fsync; its
    checkpoint is written once, as the script ends, whether a line failed
    or not. A crash, losing any write not yet fsynced, leaves a prefix of
    the lines, holding at least those whose append was fsynced."""
    prefixes = []
    for n in range(len(lines) + 1):
        state_dir = tmp_path / f"prefix{n}"
        shutil.copytree(base, state_dir)
        assert estate(state_dir, "run", script_of(tmp_path, *lines[:n]),
                      "--timestamp", "10") == 0
        prefixes.append(digest(state_dir))
    assert len(set(prefixes)) == len(prefixes)
    script = script_of(tmp_path, *lines)
    outcomes = []
    for what, durable, state_dir in crashes(
            base, tmp_path, monkeypatch, capsys,
            ["run", script, "--timestamp", "10"]):
        got = prefixes.index(digest(state_dir))
        assert got >= durable, what
        outcomes.append((what, got))
        recovers(state_dir)
    capsys.readouterr()
    # each line's append and fsync, the object's write and rename, then
    # the one checkpoint: the new store section's write and rename, the
    # manifest's, and the removal of the store section it replaced; then
    # the script's return
    want = []
    for n, line in enumerate(lines, 1):
        want += [n - 1, n] + ([n, n] if "object put" in line else [])
    new = store_file(tmp_path / f"prefix{len(lines)}")
    tail = [f"write of {new}.tmp", f"rename to {new}",
            "write of state.json.tmp", "rename to state.json",
            f"removal of {store_file(base)}", "return"]
    first = [(what, got) for what, got in outcomes
             if "," not in what and "done" not in what]
    assert [what for what, _ in first[len(want):]] == tail
    assert [got for _, got in first] == want + [len(lines)] * len(tail)
    assert {what.split(", ")[1] for what, _ in outcomes if "," in what} == {
        "chain.json lost", "chain.json half", "state.json restored"} | (
        losses("state.json") | losses(SURVEY) | losses(new))


def test_a_fault_at_any_write_boundary_of_a_script_leaves_a_prefix(
        base, tmp_path, monkeypatch, capsys):
    _crash_a_script(base, tmp_path, monkeypatch, capsys, SCRIPT_LINES)


def test_a_fault_at_any_write_boundary_of_a_ten_line_script_leaves_a_prefix(
        base, tmp_path, monkeypatch, capsys):
    _crash_a_script(base, tmp_path, monkeypatch, capsys, TEN_LINES)


def test_a_script_writes_its_checkpoint_once_and_fsyncs_each_append(
        base, tmp_path, monkeypatch, capsys):
    fsyncs, checkpoints = [], []
    real_fsync, real_write = os.fsync, persistence._write_atomic

    def write(files, *args, **kwargs):
        checkpoints.extend(path for path in files
                           if path.endswith("state.json"))
        real_write(files, *args, **kwargs)
    monkeypatch.setattr(persistence.os, "fsync",
                        lambda fd: fsyncs.append(fd) or real_fsync(fd))
    monkeypatch.setattr(persistence, "_write_atomic", write)
    assert estate(base, *faucet(1, 10)) == 0
    assert (len(fsyncs), len(checkpoints)) == (1, 1)
    fsyncs.clear(), checkpoints.clear()
    assert estate(base, "run", script_of(tmp_path, *[
        f"as {ADMIN} chain faucet --to {SELLER} --amount {i}"
        for i in range(10)]), "--timestamp", "11") == 0
    assert (len(fsyncs), len(checkpoints)) == (10, 1)
    fsyncs.clear(), checkpoints.clear()
    assert estate(base, "object", "put", "--data", "plan", "--as", ADMIN,
                  "--timestamp", "12") == 0
    assert (len(fsyncs), len(checkpoints)) == (1, 1)
    monkeypatch.undo()
    assert whole_files(base) == _whole_encoding(base)
    tag = json.loads(read(base, "state.json"))["block"]
    assert tag["index"] == len(load_state(str(base)).state.chain.blocks) - 1
    capsys.readouterr()


def test_a_failing_line_leaves_the_checkpoint_at_the_last_committed_block(
        base, tmp_path, capsys):
    assert estate(base, "run", script_of(
        tmp_path, *SCRIPT_LINES[:2],
        f"as {SELLER} chain transfer --to {ADMIN} --amount {10 ** 9}"),
        "--timestamp", "10") == 3
    tip = load_state(str(base)).state.chain.blocks[-1]
    tag = json.loads(read(base, "state.json"))["block"]
    assert (tag["index"], tag["hash"]) == (tip.index, tip.hash.hex())
    assert json.loads(tip.data[0])["operation"] == "putObject"
    assert whole_files(base) == _whole_encoding(base)
    capsys.readouterr()


def test_a_reader_during_a_script_redoes_the_lines_committed_so_far(
        base, tmp_path, monkeypatch, capsys):
    seen, real_save = [], persistence.save_state

    def save(state_dir, node, *defer):
        checkpoint = real_save(state_dir, node, *defer)
        seen.append(load_state(state_dir).full_digest() == node.full_digest())
        return checkpoint
    monkeypatch.setattr(persistence, "save_state", save)
    assert estate(base, "run", script_of(tmp_path, *SCRIPT_LINES),
                  "--timestamp", "10") == 0
    assert seen == [True] * len(SCRIPT_LINES)
    capsys.readouterr()


def test_an_error_writing_the_checkpoint_never_replaces_one_raised(
        base, monkeypatch):
    ledger = persistence.LedgerDir(str(base))

    def fail(files, *args, **kwargs):
        raise OSError(errno.EIO, "injected fault")
    with pytest.raises(LedgerError) as e:
        with ledger.writing():
            ledger.node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 1},
                                timestamp=10)
            ledger.commit()
            assert ledger.checkpoint is not None
            monkeypatch.setattr(persistence, "_write_atomic", fail)
            ledger.node.execute(SELLER, "transferNative",
                                {"to": ADMIN, "amount": 10 ** 9})
    assert e.value.code == "InsufficientFunds"
    assert ledger.checkpoint is None
    monkeypatch.undo()
    assert digest(base) == ledger.node.full_digest()  # redone from the log


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


def _fsynced(monkeypatch) -> list:
    """Records the name of each file or dir `persistence` fsyncs."""
    synced, real_fsync = [], os.fsync

    def fsync(fd):
        synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
        return real_fsync(fd)
    monkeypatch.setattr(persistence.os, "fsync", fsync)
    return synced


def test_an_append_fsyncs_once_and_a_whole_write_its_log_config_and_dir(
        tmp_path, monkeypatch, capsys):
    """The append is a write's one fsync, its commit point, and `object
    put` fsyncs nothing more. A whole write fsyncs the log and
    config.json, then the dir, so no rename it made is lost; state.json
    and the object files, only caches of the log, never."""
    node = ledger_of(5)
    node.execute(ADMIN, "putObject", {"dataHex": b"deed".hex()})
    synced = _fsynced(monkeypatch)
    state_dir = str(tmp_path / "ledger")
    save_state(state_dir, node)
    assert synced == ["chain.json.tmp", "config.json.tmp", "ledger"]
    synced.clear()
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 1})
    save_state(state_dir, node)
    assert synced == ["chain.json"]
    synced.clear()
    node.execute(ADMIN, "putObject", {"dataHex": b"plan".hex()})
    save_state(state_dir, node)
    assert synced == ["chain.json"]
    assert read(state_dir, "chain.json") == node.state.chain.canonical_json()
    synced.clear()
    assert estate(tmp_path / "fresh", "init", "--admin-key", ADMIN_KEY) == 0
    assert synced == ["chain.json.tmp", "config.json.tmp", "fresh"]
    capsys.readouterr()


def test_a_write_to_a_dir_without_config_json_stores_it_before_its_append(
        base, monkeypatch, capsys):
    """A dir an older version made holds no config.json: its next write
    stores it, fsynced with the dir, before its append. A load reads it
    only to rebuild a lost checkpoint."""
    config = os.path.join(base, "config.json")
    want = read(base, "config.json")
    os.remove(config)
    assert estate(base, "chain", "verify") == 0
    assert not os.path.exists(config)
    with monkeypatch.context() as patch:
        synced = _fsynced(patch)
        assert estate(base, *faucet(1, 10)) == 0
    assert synced == ["config.json.tmp", "base", "chain.json"]
    assert read(base, "config.json") == want
    with open(config, "wb") as fh:
        fh.write(b"{")
    assert estate(base, *faucet(1, 11)) == 0
    assert read(base, "config.json") == b"{"
    os.remove(os.path.join(base, "state.json"))
    assert estate(base, "chain", "verify") == 3
    assert capsys.readouterr().err == (
        f"error: CorruptSnapshot: {config} is not a JSON object\n")


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


def _older_checkpoint(state_dir, tagged: bool) -> bytes:
    """The dir's checkpoint as an older version wrote it, one file with
    every section, tagged at the log's tip with its digest, or untagged:
    what state.json held before it became a manifest."""
    node = load_state(str(state_dir))
    body = node.state.state_dict() | {
        "store": sorted(node.state.store.digests())}
    if not tagged:
        return canonical_json_bytes(body)
    tip = node.state.chain.held[-1]
    tag = persistence.Checkpoint(tip.index, tip.hash, bytes(32))
    return persistence._sign(canonical_json_bytes(
        body | {"block": to_json(tag)}), tag)


def _rebuilt_until_the_next_write(base, capsys, tagged: bool):
    """A state.json an older version wrote names no section file: a load
    rebuilds the state from the log, with one notice, writing nothing,
    and the next write appends and leaves a manifest."""
    pre = digest(base)
    shutil.rmtree(base / "sections")
    state_json = os.path.join(base, "state.json")
    with open(state_json, "wb") as fh:
        fh.write(_older_checkpoint(base, tagged))
    capsys.readouterr()
    files = dir_bytes(base)
    notice = (f"notice: {state_json} is an older version's checkpoint; "
              f"rebuilt the state from {base}/chain.json\n")
    for argv in (["chain", "balance", "--address", SELLER],
                 ["state", "digest"]):
        assert estate(base, *argv) == 0
        assert capsys.readouterr().err == notice
    assert digest(base) == pre
    assert dir_bytes(base) == files
    before = read(base, "chain.json")
    capsys.readouterr()
    assert estate(base, *faucet(3, 5)) == 0
    assert capsys.readouterr().err == notice
    assert read(base, "chain.json").startswith(before[:-2])
    assert whole_files(base) == _whole_encoding(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert capsys.readouterr().err == ""


def test_an_older_versions_checkpoint_is_rebuilt_until_the_next_write(
        base, capsys):
    _rebuilt_until_the_next_write(base, capsys, tagged=True)


def test_an_untagged_checkpoint_is_one_at_the_tip_and_its_write_appends(
        base, capsys):
    """An untagged checkpoint, as versions before tags wrote it, loads
    the state at the log's tip, and its next write appends."""
    _rebuilt_until_the_next_write(base, capsys, tagged=False)


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
def test_an_older_versions_dir_without_config_json_takes_its_checked_config(
        tmp_path, capsys, tagged):
    """A dir made before config.json was written holds only the config
    of its older checkpoint: the rebuild takes it once its tag's digest
    checks, and the next write stores config.json."""
    allow = tmp_path / "allow.txt"
    allow.write_text(hashlib.sha256(b"seller-key").hexdigest() + "\n")
    state_dir = tmp_path / "ledger"
    assert estate(state_dir, "init", "--admin-key", ADMIN_KEY,
                  "--allowlist", str(allow), "--timestamp", "0") == 0
    want = read(state_dir, "config.json")
    with open(state_dir / "state.json", "wb") as fh:
        fh.write(_older_checkpoint(state_dir, tagged))
    os.remove(state_dir / "config.json")
    capsys.readouterr()
    if not tagged:  # no digest vouches for its config
        assert estate(state_dir, "chain", "verify") == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {state_dir}/state.json is an older "
            f"version's checkpoint, and {state_dir}/config.json, which a "
            "rebuild from the log needs, is missing\n")
        return
    assert load_state(str(state_dir)).state.config == {
        "allowlist": str(allow)}
    assert estate(state_dir, "stakeholder", "register", "--role", "Buyer",
                  "--key", "buyer-key", "--as", ADMIN, "--timestamp",
                  "1") == 3
    assert "VerificationRejected" in capsys.readouterr().err
    assert estate(state_dir, *faucet(1, 2)) == 0
    assert read(state_dir, "config.json") == want
    assert whole_files(state_dir) == _whole_encoding(state_dir)
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
        edit_checkpoint(base, lambda d: d.update(block=tag))
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


# -- reading the log from its end --------------------------------------------


def _decoded_blocks(monkeypatch) -> list:
    """Counts each block the program decodes, one item per block."""
    calls, real = [], vars(chain_mod.Block)["from_dict"].__func__
    monkeypatch.setattr(chain_mod.Block, "from_dict", classmethod(
        lambda cls, d: calls.append(1) or real(cls, d)))
    return calls


def test_a_command_decodes_as_many_blocks_at_300_blocks_as_after_init(
        tmp_path, monkeypatch, capsys):
    fresh, grown = tmp_path / "fresh", tmp_path / "grown"
    assert estate(fresh, "init", "--admin-key", ADMIN_KEY,
                  "--timestamp", "0") == 0
    save_state(str(grown), ledger_of(300))
    script = tmp_path / "three.txt"
    script.write_text(f"chain faucet --to {ADMIN} --amount 1 --as {ADMIN}\n"
                      f"chain balance --address {ADMIN}\n"
                      f"chain faucet --to {ADMIN} --amount 2 --as {ADMIN}\n")
    calls = _decoded_blocks(monkeypatch)
    # the count when `estate run` takes its final digest, which reads
    # the whole history
    at_digest, real_digest = [], Node.full_digest
    monkeypatch.setattr(Node, "full_digest", lambda self: at_digest.append(
        len(calls)) or real_digest(self))
    counts = {}
    for state_dir in (fresh, grown):
        seen = []
        for argv in (["chain", "balance", "--address", ADMIN],
                     ["chain", "faucet", "--to", ADMIN, "--amount", "5",
                      "--as", ADMIN, "--timestamp", "3"],
                     ["run", str(script), "--timestamp", "4"]):
            calls.clear()
            assert estate(state_dir, *argv) == 0
            seen.append(at_digest.pop() if argv[0] == "run" else len(calls))
        counts[state_dir.name] = seen
    assert counts["fresh"] == counts["grown"] == [1, 1, 1]
    capsys.readouterr()


def _whole_log_load(state_dir, monkeypatch) -> Node:
    with monkeypatch.context() as patch:
        patch.setattr(persistence, "_read_tail", lambda path, tag: None)
        return load_state(str(state_dir))


def _load_outcome(node) -> tuple:
    chain = node.state.chain
    return (node.full_digest(), len(chain.blocks), chain.verify(),
            chain.log.blocks)


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
@pytest.mark.parametrize("lag", [0, 1, 5])
def test_a_load_from_the_log_end_equals_a_whole_log_load(
        tmp_path, monkeypatch, lag, torn):
    state_dir = str(tmp_path / "ledger")
    node = ledger_of(9 - lag)
    save_state(state_dir, node)
    checkpoint = read(state_dir, "state.json")
    for timestamp in range(lag):
        node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 1},
                     timestamp=3 + timestamp)
        save_state(state_dir, node)
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(checkpoint)
    whole = _whole_log_load(state_dir, monkeypatch)
    assert whole.state.chain.held[0].index == 0
    if torn:  # a kill part way through the next append
        log = read(state_dir, "chain.json")
        with open(os.path.join(state_dir, "chain.json"), "wb") as fh:
            fh.write(log[:-2] + b',{"hash":"' + b"ab" * 20)
    lazy = load_state(state_dir)
    chain = lazy.state.chain
    # a torn log is read whole: only an intact end shows where the scan is
    assert [b.index for b in chain.held] == list(
        range(0 if torn else 8 - lag, 9))
    assert (chain.held[0].index == 0) is torn
    assert _load_outcome(lazy) == _load_outcome(whole)
    assert chain.held == whole.state.chain.held


def test_every_cut_of_an_append_loads_the_same_through_both_readers(
        tmp_path, monkeypatch):
    """A kill part way through an append of two blocks leaves a prefix of
    the new log: a load from the log's end and a load of the whole log
    give the same state, the one before the append, after its first
    block or after it, and a longer prefix never an earlier one."""
    state_dir = str(tmp_path / "ledger")
    node = ledger_of(4)
    save_state(state_dir, node)
    checkpoint, old = read(state_dir, "state.json"), read(state_dir,
                                                          "chain.json")
    states = [node.full_digest()]
    node.execute(ADMIN, "putObject", {"dataHex": b'{"hash":"x"}'.hex()},
                 timestamp=3)
    states.append(node.full_digest())
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 1}, timestamp=3)
    states.append(node.full_digest())
    save_state(state_dir, node)
    new = read(state_dir, "chain.json")
    assert new.startswith(old[:-2])
    seen = []
    for cut in range(len(old) - 2, len(new) + 1):
        with open(os.path.join(state_dir, "chain.json"), "wb") as fh:
            fh.write(new[:cut])
        with open(os.path.join(state_dir, "state.json"), "wb") as fh:
            fh.write(checkpoint)
        loaded = load_state(state_dir).full_digest()
        assert _whole_log_load(state_dir, monkeypatch).full_digest() == loaded
        seen.append(states.index(loaded))
    assert seen == sorted(seen) and set(seen) == {0, 1, 2}


def test_a_block_shaped_param_is_never_read_as_the_checkpoints_block(
        base, capsys):
    """A param may hold a copy of the checkpoint's block, header and all;
    found from the log's end, it ends no log, so the load reads the log
    whole and redoes the block that holds it."""
    state_dir, lagging = str(base), read(base, "state.json")
    log = read(base, "chain.json")
    tip = json.loads(log)["blocks"][-1]
    assert estate(base, "object", "metadata", "--name", "n", "--extra",
                  json.dumps({"x": [0, tip]}), "--as", ADMIN,
                  "--timestamp", "9") == 0
    post, log = digest(base), read(base, "chain.json")
    assert log.count(canonical_json_bytes(tip)) == 2
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(lagging)  # as a kill before the checkpoint's rename leaves it
    node = load_state(state_dir)
    assert node.state.chain.held[0].index == 0
    assert node.full_digest() == post
    torn = log[:log.rindex(canonical_json_bytes(tip)) + len(
        canonical_json_bytes(tip))]  # a tear just after the copy
    with open(os.path.join(state_dir, "chain.json"), "wb") as fh:
        fh.write(torn)
    files = dir_bytes(base)
    assert estate(base, *faucet(1, 10)) == 3
    assert dir_bytes(base) == files
    capsys.readouterr()


def test_a_torn_append_of_a_param_holding_a_hash_key_loads(base, capsys):
    """Only a whole block header after the last whole block marks a
    second block: an object in a param whose first key is "hash" is
    none."""
    pre, files = digest(base), dir_bytes(base)
    capsys.readouterr()
    assert estate(base, "object", "metadata", "--name", "n", "--extra",
                  '{"x": [0, {"hash": "a"}]}', "--as", ADMIN,
                  "--timestamp", "9", "--json") == 0
    cid = json.loads(capsys.readouterr().out)["cid"]
    log = read(base, "chain.json")
    # a kill in the append leaves the dir as it was but for a torn tail
    os.remove(os.path.join(base, "objects", cid.split(":")[1] + ".bin"))
    with open(os.path.join(base, "state.json"), "wb") as fh:
        fh.write(files["state.json"])
    with open(os.path.join(base, "chain.json"), "wb") as fh:
        fh.write(log[:log.index(b'{"hash":"a"}') + len(b'{"hash":"a"}')])
    files = dir_bytes(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert dir_bytes(base) == files
    assert digest(base) == pre
    assert estate(base, *faucet(1, 10)) == 0
    assert read(base, "chain.json") == whole_log(base)
    assert estate(base, "chain", "verify") == 0
    capsys.readouterr()


def test_a_tip_stored_otherwise_takes_the_whole_log_path(
        base, monkeypatch):
    """A re-dumped log holds no header to find, and a tip edited in place
    fails the hash check: both load as the whole log does."""
    calls = _decoded_blocks(monkeypatch)
    state_dir, log = str(base), read(base, "chain.json")
    blocks = load_state(state_dir).state.chain.blocks
    path = os.path.join(state_dir, "chain.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json.loads(log), fh)  # ", " and ": " separators
    calls.clear()
    assert load_state(state_dir).state.chain.held == blocks
    assert len(calls) == len(blocks)
    with open(path, "wb") as fh:  # the tip's timestamp edited in place
        fh.write(log.replace(b'"timestamp":3,', b'"timestamp":4,'))
    calls.clear()
    with pytest.raises(LedgerError) as e:  # the whole log's read checks it
        load_state(state_dir)
    assert len(calls) == len(blocks) + 1
    assert (e.value.code, e.value.message) == (
        "HashMismatch", f"block {len(blocks) - 1} does not match its hash")


def test_a_log_stored_in_another_form_is_rewritten_whole_by_a_write(
        base, capsys):
    path = os.path.join(base, "chain.json")
    with open(path, encoding="utf-8") as fh:
        log = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=1)  # no longer ends in the canonical tip
    assert estate(base, *faucet(1, 10)) == 0
    assert read(base, "chain.json") == whole_log(base)
    assert estate(base, "chain", "verify") == 0
    capsys.readouterr()


def test_the_history_loader_refuses_a_log_replaced_since_the_load(
        base, tmp_path):
    node = load_state(str(base))
    other = tmp_path / "other"
    save_state(str(other), ledger_of(6))
    shutil.copy(other / "chain.json", base / "chain.json")
    with pytest.raises(LedgerError) as e:
        node.state.chain.verify()
    assert e.value.code == "CorruptSnapshot"
    assert "no longer holds block" in e.value.message


# -- reading an object only when its bytes are needed ------------------------


def _opened_objects(monkeypatch) -> list:
    """Records each object file the program opens."""
    opened, real = [], builtins.open

    def opener(file, *args, **kwargs):
        if os.path.basename(os.path.dirname(str(file))) == "objects":
            opened.append(file)
        return real(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", opener)
    return opened


@pytest.fixture
def stocked(tmp_path, monkeypatch, capsys):
    """A CLI-built ledger with a deployed property and 300 objects, and
    the cids of those objects, written whole: it fsyncs the log,
    config.json and the dir, and no object file."""
    built, state_dir = tmp_path / "built", tmp_path / "stocked"
    for argv in (["init", "--admin-key", ADMIN_KEY, "--timestamp", "0"],
                 ["factory", "init", "--version", "1", "--as", ADMIN,
                  "--timestamp", "1"],
                 ["factory", "deploy", "--treasury", SELLER, "--upgrader",
                  ADMIN, "--admin", ADMIN, "--uri", "u/{id}", "--as", ADMIN,
                  "--timestamp", "2"]):
        assert estate(built, *argv) == 0
    node = load_state(str(built))
    cids = [node.execute(ADMIN, "putObject", {"dataHex": f"deed {i}".encode(
        ).hex()}, timestamp=3)["cid"] for i in range(300)]
    with monkeypatch.context() as patch:
        synced = _fsynced(patch)
        save_state(str(state_dir), node)
    assert synced == ["chain.json.tmp", "config.json.tmp", "stocked"]
    assert len(os.listdir(state_dir / "objects")) == 300
    capsys.readouterr()
    return state_dir, next(iter(node.state.properties)), cids


def test_a_command_opens_only_the_object_files_whose_bytes_it_reads(
        stocked, tmp_path, monkeypatch, capsys):
    state_dir, prop, cids = stocked
    script = tmp_path / "three.txt"
    script.write_text(f"chain faucet --to {ADMIN} --amount 1 --as {ADMIN}\n"
                      f"chain balance --address {ADMIN}\n"
                      f"chain faucet --to {ADMIN} --amount 2 --as {ADMIN}\n")
    opened = _opened_objects(monkeypatch)
    # the count when `estate run` takes its final digest, which reads
    # every object
    at_digest, real_digest = [], Node.full_digest
    monkeypatch.setattr(Node, "full_digest", lambda self: at_digest.append(
        len(opened)) or real_digest(self))
    for argv in (["chain", "balance", "--address", ADMIN],
                 ["token", "balance", "--property", prop, "--owner", ADMIN,
                  "--id", "1"],
                 faucet(5, 4),
                 ["run", str(script), "--timestamp", "5"]):
        opened.clear()
        assert estate(state_dir, *argv) == 0
        assert (at_digest.pop() if argv[0] == "run" else len(opened)) == 0
    capsys.readouterr()
    opened.clear()
    assert estate(state_dir, "object", "get", "--cid", cids[150]) == 0
    assert opened == [os.path.join(str(state_dir), "objects",
                                   cids[150].split(":")[1] + ".bin")]
    assert capsys.readouterr().out == f"cid: {cids[150]}\ntext: deed 150\n"


def _corrupt_object(state_dir) -> str:
    """Overwrite the dir's one object file; returns its cid."""
    (name,) = os.listdir(os.path.join(state_dir, "objects"))
    with open(os.path.join(state_dir, "objects", name), "wb") as fh:
        fh.write(b"tampered")
    return "cidv0-sha256:" + name[:-len(".bin")]


@pytest.mark.parametrize("argv", [
    ["object", "get", "--cid", "{cid}"], ["state", "digest"],
    ["state", "export", "--out", "{out}"], ["chain", "verify"],
    ["chain", "replay"]], ids=lambda argv: " ".join(argv[:2]))
def test_a_reader_of_a_corrupt_object_file_refuses_it(
        base, tmp_path, capsys, argv):
    cid = _corrupt_object(base)
    out = tmp_path / "snap.json"
    argv = [a.format(cid=cid, out=out) for a in argv]
    files = dir_bytes(base)
    assert estate(base, *argv) == 3
    digest_ = cid.split(":")[1]
    assert capsys.readouterr().err == (f"error: CorruptSnapshot: object "
                                       f"{digest_} does not match its "
                                       f"digest\n")
    assert dir_bytes(base) == files
    assert not out.exists()


def test_a_corrupt_object_file_fails_no_command_that_skips_its_bytes(
        base, capsys):
    cid = _corrupt_object(base)
    path = os.path.join(base, "objects", cid.split(":")[1] + ".bin")
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert estate(base, *faucet(5, 10)) == 0
    assert estate(base, "object", "put", "--data", "survey", "--as", ADMIN,
                  "--timestamp", "11") == 0
    assert read(base, "objects/" + os.path.basename(path)) == b"tampered"
    assert load_state(str(base)).state.store.has(cid)
    capsys.readouterr()


def _pad(path, keep: int):
    """Keep the first `keep` bytes of the file at `path` and zero the
    rest, as a crash can leave blocks allocated but never written."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(keep)
        fh.write(bytes(size - keep))


# what a crash can leave of an object file written without an fsync
LOST_OBJECT = {"missing": os.remove,
               "emptied": lambda path: os.truncate(path, 0),
               "halved": lambda path: os.truncate(
                   path, os.path.getsize(path) // 2),
               "zeroed": lambda path: _pad(path, 0),
               "padded": lambda path: _pad(path,
                                           os.path.getsize(path) // 2)}


@pytest.mark.parametrize("case", sorted(LOST_OBJECT))
def test_a_missing_or_torn_object_file_is_rebuilt_from_the_log(
        base, capsys, case):
    """An object file is a cache of the log: one missing, empty, cut
    short or zeroed past a prefix is rebuilt from the log, with one
    notice, by every reader of its bytes, which stores the file again, so
    the next command reads it as before."""
    (name,) = os.listdir(os.path.join(base, "objects"))
    path = os.path.join(os.path.abspath(base), "objects", name)
    cid = "cidv0-sha256:" + name[:-len(".bin")]
    reads = (["object", "get", "--cid", cid], ["state", "digest"],
             ["chain", "verify"], ["chain", "replay"],
             ["state", "export", "--out", str(base) + ".snap"])
    want = []
    for argv in reads:
        assert estate(base, *argv) == 0
        want.append(capsys.readouterr().out)
    files = dir_bytes(base)
    notice = (f"notice: {path} is missing or torn; rebuilt it from "
              f"{os.path.abspath(base)}/chain.json\n")
    for argv, out in zip(reads, want):
        LOST_OBJECT[case](path)
        assert estate(base, *argv) == 0
        assert capsys.readouterr() == (out, notice)
        assert dir_bytes(base) == files
        assert estate(base, *argv) == 0
        assert capsys.readouterr() == (out, "")


def test_an_object_file_rebuilt_where_it_cannot_be_stored_still_reads(
        base, monkeypatch, capsys):
    """A reader that cannot store a rebuilt file, say in a dir it may not
    write, still prints the object and leaves no temp file behind."""
    (name,) = os.listdir(os.path.join(base, "objects"))
    os.remove(os.path.join(base, "objects", name))
    real_replace = os.replace

    def replace(src, dst):
        if src.endswith(".tmp"):
            raise OSError(errno.EACCES, "injected fault")
        return real_replace(src, dst)
    cid = "cidv0-sha256:" + name[:-len(".bin")]
    with monkeypatch.context() as patch:
        patch.setattr(persistence.os, "replace", replace)
        assert estate(base, "object", "get", "--cid", cid) == 0
    out, errtxt = capsys.readouterr()
    assert out == f"cid: {cid}\ntext: deed\n"
    assert errtxt.startswith("notice: ")
    assert os.listdir(os.path.join(base, "objects")) == []


def test_a_lazily_loaded_digest_equals_an_eagerly_read_one(stocked):
    state_dir, _, cids = stocked
    lazy = load_state(str(state_dir))
    assert lazy.state.store.objects == {}  # nothing read yet
    eager = load_state(str(state_dir))
    objects_dir = os.path.join(state_dir, "objects")
    eager.state.store = ObjectStore({
        name[:-len(".bin")]: read(objects_dir, name)
        for name in os.listdir(objects_dir)})
    assert len(eager.state.store.objects) == len(cids)
    assert lazy.full_digest() == eager.full_digest()
    assert lazy.ledger_digest() == eager.ledger_digest()
    assert lazy.state.store.objects == eager.state.store.objects


def test_an_import_over_a_ledger_removes_its_object_files(tmp_path, capsys):
    """`state import --force` used to leave the replaced ledger's object
    files, which every later load read into the imported ledger."""
    a, b, snap = tmp_path / "a", tmp_path / "b", tmp_path / "b.json"
    for state_dir in (a, b):
        assert estate(state_dir, "init", "--admin-key", ADMIN_KEY,
                      "--timestamp", "0") == 0
    assert estate(a, "object", "put", "--data", "stale deed", "--as", ADMIN,
                  "--timestamp", "1") == 0
    assert estate(b, "state", "export", "--out", str(snap)) == 0
    capsys.readouterr()
    assert estate(a, "state", "import", "--in", str(snap), "--force",
                  "--json") == 0
    imported = json.loads(capsys.readouterr().out)["digest"]
    assert imported == digest(b)
    assert os.listdir(a / "objects") == []
    assert estate(a, "state", "digest", "--json") == 0
    assert json.loads(capsys.readouterr().out)["digest"] == imported
    assert estate(a, "chain", "replay") == 0
    capsys.readouterr()


def test_an_import_that_fails_to_remove_a_stale_object_file_ignores_it(
        tmp_path, monkeypatch, capsys):
    """An import over a ledger that stops while it removes the replaced
    ledger's object files leaves them on disk, and in no ledger: the
    checkpoint lists which objects the ledger holds."""
    a, b, snap = tmp_path / "a", tmp_path / "b", tmp_path / "b.json"
    for state_dir in (a, b):
        assert estate(state_dir, "init", "--admin-key", ADMIN_KEY,
                      "--timestamp", "0") == 0
    stale = make_cid(b"stale deed")
    assert estate(a, "object", "put", "--data", "stale deed", "--as", ADMIN,
                  "--timestamp", "1") == 0
    assert estate(b, "state", "export", "--out", str(snap)) == 0
    real_remove = os.remove

    def remove(path):
        if os.path.basename(os.path.dirname(path)) == "objects":
            raise OSError(errno.EIO, "injected fault")
        return real_remove(path)
    with monkeypatch.context() as patch:
        patch.setattr(persistence.os, "remove", remove)
        assert estate(a, "state", "import", "--in", str(snap), "--force") == 3
    assert os.listdir(a / "objects") == [stale.split(":")[1] + ".bin"]
    capsys.readouterr()
    assert estate(a, "state", "digest", "--json") == 0
    assert json.loads(capsys.readouterr().out)["digest"] == digest(b)
    assert estate(a, "chain", "replay") == 0
    assert estate(a, "object", "get", "--cid", stale) == 3
    assert capsys.readouterr().err == f"error: NotFound: {stale}\n"


def _listed_objects(monkeypatch) -> list:
    """Records the name of each listing of an ``objects`` or
    ``sections`` dir."""
    listed = []
    for name in ("listdir", "scandir"):
        real = getattr(os, name)

        def spy(path=".", real=real):
            name = os.path.basename(os.path.normpath(str(path)))
            if name in ("objects", "sections"):
                listed.append(name)
            return real(path)
        monkeypatch.setattr(os, name, spy)
    return listed


def test_no_load_lists_the_objects_dir_and_only_a_whole_write_does(
        deployed, tmp_path, monkeypatch, capsys):
    state_dir, prop = deployed
    snap = str(tmp_path / "snap.json")
    assert estate(state_dir, "state", "export", "--out", snap) == 0
    listed = _listed_objects(monkeypatch)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["token", "balance", "--property", prop, "--owner", SELLER,
                  "--id", "1"],
                 faucet(5, 10),
                 ["object", "put", "--data", "plan", "--as", ADMIN,
                  "--timestamp", "11"],
                 ["run", script_of(tmp_path, *SCRIPT_LINES), "--timestamp",
                  "12"]):
        assert estate(state_dir, *argv) == 0
        assert listed == [], argv
    assert estate(state_dir, "state", "import", "--in", snap, "--force") == 0
    assert listed == ["objects", "sections"]
    capsys.readouterr()


# -- the checkpoint's digest, and sections decoded on first use ---------------


def _add_to_balance(state_dir, address, amount):
    """Edit state.json by hand: `amount` more for `address`, digest kept."""
    path = os.path.join(state_dir, "state.json")
    balance = json.loads(read(state_dir, "state.json"))[
        "accounts"]["accounts"][address]
    old = f'"{address}":{balance}'.encode()
    data = read(state_dir, "state.json")
    assert data.count(old) == 1
    with open(path, "wb") as fh:
        fh.write(data.replace(old, f'"{address}":{balance + amount}'.encode()))


@pytest.mark.parametrize("argv", [
    ["chain", "verify"], ["chain", "balance", "--address", ADMIN],
    faucet(5, 10), ["state", "digest"]], ids=" ".join)
def test_an_edited_checkpoint_is_refused_by_every_command(base, capsys, argv):
    """Every command reads the manifest, whose digest covers the digest
    of each section file: an edited manifest is refused by each."""
    _add_to_balance(base, ADMIN, 1000)
    files = dir_bytes(base)
    capsys.readouterr()
    assert estate(base, *argv) == 3
    path = os.path.join(base, "state.json")
    assert capsys.readouterr().err == (
        f"error: CorruptSnapshot: {path} does not match its digest\n")
    assert dir_bytes(base) == files


def _digestless(state_dir) -> bytes:
    """The dir's checkpoint as a version before tags held a digest wrote
    it; the dir's section files go, as no such version wrote them."""
    older = json.loads(_older_checkpoint(state_dir, True))
    del older["block"]["state"]
    shutil.rmtree(os.path.join(state_dir, "sections"))
    data = canonical_json_bytes(older)
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(data)
    return data


def test_a_checkpoint_without_a_digest_loads_and_its_write_adds_one(
        base, capsys):
    """A checkpoint with no digest, as versions before digests wrote it,
    loads: rebuilt from the log, so an edit of it counts for nothing. The
    next write leaves a manifest with a digest, which refuses an edit."""
    pre = digest(base)
    _digestless(base)
    _add_to_balance(base, SELLER, 1)
    assert digest(base) == pre
    assert load_state(str(base)).state.native.balance(SELLER) == 500
    assert estate(base, *faucet(5, 10)) == 0
    assert "state" in json.loads(read(base, "state.json"))["block"]
    assert load_state(str(base)).state.native.balance(SELLER) == 505
    _add_to_balance(base, SELLER, 1)
    with pytest.raises(LedgerError) as e:
        load_state(str(base))
    assert e.value.code == "CorruptSnapshot"
    capsys.readouterr()


def test_a_checkpoint_written_after_redo_equals_one_written_after_execute(
        base, capsys):
    lagging = read(base, "state.json")
    assert estate(base, *faucet(5, 10)) == 0
    executed = whole_files(base)
    with open(os.path.join(base, "state.json"), "wb") as fh:
        fh.write(lagging)
    save_state(str(base), load_state(str(base)))  # redoes the faucet
    assert whole_files(base) == executed
    capsys.readouterr()


def test_a_read_decodes_only_the_sections_it_uses(base, monkeypatch, capsys):
    built, real = [], StakeholderRecord.__init__
    monkeypatch.setattr(StakeholderRecord, "__init__", lambda self, *a, **kw:
                        built.append(1) or real(self, *a, **kw))
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert built == []  # the stakeholder registry was never decoded
    state = load_state(str(base)).state
    assert type(state) is PendingState
    assert state.native.balance(SELLER) == 500
    assert "registry" not in vars(state) and built == []
    assert state.registry.is_active(SELLER) and len(built) == 2
    assert type(state) is PendingState  # factory and properties are left
    assert state.properties == {}
    assert type(state) is PendingState  # the store is left
    assert state.store.digests() == {make_cid(b"deed").split(":")[1]}
    assert type(state) is LedgerState
    capsys.readouterr()


def test_a_write_decodes_every_section_before_its_executor_runs(
        base, monkeypatch, capsys):
    seen, real = [], node_mod.EXECUTORS["faucet"]

    def spy(state, *args):
        seen.append((type(state), sorted(vars(state))))
        return real(state, *args)
    monkeypatch.setitem(node_mod.EXECUTORS, "faucet", spy)
    assert estate(base, *faucet(5, 10)) == 0
    assert seen == [(LedgerState, sorted(
        f.name for f in dataclasses.fields(LedgerState)))]
    capsys.readouterr()


def test_a_section_no_command_reads_fails_only_the_commands_that_read_it(
        base, capsys):
    """With the registry's file stored again under its new digest, a
    mistyped stakeholder record fails the commands that decode the
    registry: every write, and a read of it."""
    edit_checkpoint(base, lambda d: next(iter(
        d["stakeholders"]["stakeholders"].values())).update(active=1))
    files = dir_bytes(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert estate(base, "chain", "verify") == 0
    capsys.readouterr()
    for argv in (["stakeholder", "show", "--address", SELLER],
                 ["state", "digest"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert "active: expected bool, got 1" in capsys.readouterr().err
    assert dir_bytes(base) == files


# -- a section file is read only when its section is used ---------------------


def _read_sections(monkeypatch, state_dir) -> list:
    """Records the name of each section of the dir's manifest whose file
    the program opens for reading."""
    names = {section_path(os.path.abspath(state_dir), digest): name
             for name, digest in manifest(state_dir)["sections"].items()}
    opened, real = [], builtins.open

    def opener(file, mode="r", *args, **kwargs):
        if mode == "rb" and str(file) in names:
            opened.append(names[str(file)])
        return real(file, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", opener)
    return opened


@pytest.fixture
def deployed(base, capsys):
    """`base` with the factory initialized and one property deployed, and
    that property's address."""
    for argv in (["factory", "init", "--version", "1", "--as", ADMIN,
                  "--timestamp", "4"],
                 ["factory", "deploy", "--treasury", SELLER, "--upgrader",
                  ADMIN, "--admin", ADMIN, "--uri", "u/{id}", "--as", ADMIN,
                  "--timestamp", "5"]):
        assert estate(base, *argv) == 0
    capsys.readouterr()
    return base, next(iter(load_state(str(base)).state.properties))


def test_a_command_parses_only_the_slices_of_the_sections_it_uses(
        deployed, monkeypatch, capsys):
    """A command reads, checks and parses the file of each section it
    uses and no other: `chain balance` none, `token balance` the
    contracts, `object get` the store, and a write all three."""
    state_dir, prop = deployed
    opened = _read_sections(monkeypatch, state_dir)
    assert estate(state_dir, "chain", "balance", "--address", SELLER) == 0
    assert opened == []  # the manifest alone
    assert estate(state_dir, "token", "balance", "--property", prop,
                  "--owner", SELLER, "--id", "1") == 0
    assert opened == ["contracts"]
    opened.clear()
    assert estate(state_dir, "object", "get", "--cid", make_cid(b"deed")) == 0
    assert opened == ["store"]
    opened.clear()
    assert estate(state_dir, *faucet(5, 10)) == 0
    assert sorted(opened) == ["contracts", "registry", "store"]
    capsys.readouterr()


def test_a_checkpoint_without_a_digest_is_parsed_whole_once(
        base, monkeypatch, capsys):
    """A command parses a digest-less checkpoint an older version wrote
    once, whole, and rebuilds the state from the log."""
    data = _digestless(base)
    parsed, real = [], persistence._json_object
    monkeypatch.setattr(persistence, "_json_object", lambda path, data, *a: (
        parsed.append(data) or real(path, data, *a)))
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert parsed.count(data) == 1
    assert "older version's checkpoint" in capsys.readouterr().err


def _resign(state_dir, old: bytes, new: bytes):
    """Edit the checkpoint by hand, `old` to `new` in the one file of it
    that holds `old`, and sign the manifest again: a section file edited
    is stored under the digest of its new bytes, which the manifest then
    names in place of the old one."""
    for digest_ in manifest(state_dir)["sections"].values():
        section = read(state_dir, f"sections/{digest_}.json")
        if old in section:
            assert section.count(old) == 1
            section = section.replace(old, new)
            renamed = hashlib.sha256(section).hexdigest()
            with open(section_path(state_dir, renamed), "wb") as fh:
                fh.write(section)
            old, new = digest_.encode(), renamed.encode()
            break
    data = read(state_dir, "state.json")
    (signed,) = re.findall(rb'"state":"([0-9a-f]{64})"', data)
    assert data.count(old) == 1
    data = data.replace(signed, b"0" * 64).replace(old, new)
    signed = hashlib.sha256(data).hexdigest().encode()
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(data.replace(b"0" * 64, signed, 1))


def test_a_broken_registry_under_a_matching_digest_fails_only_its_readers(
        base, capsys):
    """A registry file that is not JSON, stored under its own digest and
    named by a manifest signed again, fails the commands that use the
    registry, and no other."""
    _resign(base, b'"roles":["Seller"]', b'"roles":["Seller"')
    files = dir_bytes(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    assert capsys.readouterr().out.endswith("balance: 500\n")
    path = section_path(base, manifest(base)["sections"]["registry"])
    for argv in (["stakeholder", "show", "--address", SELLER],
                 ["state", "digest"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {path} is not a JSON object\n")
    assert dir_bytes(base) == files


# the first bytes of each section file, and the readers of its section
SECTION_HEADS = {
    "contracts": (b'{"factory":', [
        ["token", "balance", "--property", "{prop}", "--owner", SELLER,
         "--id", "1"], ["property", "info", "--property", "{prop}"]]),
    "registry": (b'{"stakeholders":{"stakeholders":', [
        ["stakeholder", "show", "--address", SELLER]]),
    "store": (b'{"store":', [["object", "get", "--cid", make_cid(b"deed")]])}


def _key_refused(deployed, capsys, name, key, value):
    """Add `key` to the file of section `name` under a matching digest:
    every reader of the section, and no other command, refuses the keys."""
    state_dir, prop = deployed
    head, readers = SECTION_HEADS[name]
    _resign(state_dir, head, b"{%s:%s,%s" % (
        canonical_json_bytes(key), canonical_json_bytes(value), head[1:]))
    files = dir_bytes(state_dir)
    assert estate(state_dir, "chain", "balance", "--address", SELLER) == 0
    assert capsys.readouterr().out.endswith("balance: 500\n")  # the manifest's
    expected = sorted(persistence.SECTION_FILES[name][0])
    for argv in [*readers, ["state", "digest"], faucet(5, 10)]:
        assert estate(state_dir, *[a.format(prop=prop) for a in argv]) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: keys {sorted(expected + [key])}, "
            f"expected {expected}\n")
    assert dir_bytes(state_dir) == files


@pytest.mark.parametrize("name, key", [
    ("contracts", "q"), ("registry", "t"), ("store", "u")],
    ids=["contracts", "registry", "store"])
def test_a_key_added_to_a_lazy_slice_fails_its_readers_as_before(
        deployed, capsys, name, key):
    """A section file that parses but holds a key its section has not is
    refused by the section's readers."""
    _key_refused(deployed, capsys, name, key, 0)


def test_a_surrogate_escape_under_a_matching_digest_fails_every_command(
        base, capsys):
    _resign(base, b'"allowlist":null', b'"allowlist":"\\udcff"')
    path = os.path.join(base, "state.json")
    for argv in (["chain", "balance", "--address", SELLER], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err.startswith(
            f"error: CorruptSnapshot: {path} holds a string that is not "
            "UTF-8: ")


def test_a_tag_nested_before_the_checkpoints_own_is_not_its_tag(tmp_path):
    """A block key in the accounts, before the manifest's own tag, is no
    tag of it: the load reads the manifest's own, and checks its digest."""
    nested = {"hash": "11" * 32, "index": 1, "state": "00" * 32}
    body = {"accounts": {"a": 0, "block": nested, "c": 0}, "config": {},
            "sections": dict.fromkeys(persistence.SECTION_FILES, "33" * 32),
            "version": 1}
    tag = persistence.Checkpoint(3, bytes.fromhex("22" * 32), bytes(32))
    data = persistence._sign(canonical_json_bytes(
        body | {"block": to_json(tag)}), tag)
    path = tmp_path / "state.json"
    path.write_bytes(data)
    d, read_bytes = persistence._read_checkpoint(str(path))
    assert persistence._manifest(str(path), d, read_bytes) == (
        tag, body["sections"], None)
    assert d["accounts"] == body["accounts"]


def _parts(state_dir) -> dict:
    """The section of each section file the dir's manifest names, read
    by the load's own reader."""
    sections_dir = os.path.abspath(os.path.join(state_dir, "sections"))
    return {name: persistence._section(sections_dir, name, digest_, None)()
            for name, digest_ in manifest(state_dir)["sections"].items()}


def test_a_nested_marker_that_cuts_a_slice_wrong_reads_the_whole_file(base):
    """Section keys nested in a section's values cut nothing: each
    section file is parsed whole, and reads back as written."""
    d = read_checkpoint(base)
    d["stakeholders"]["x"] = {"a": 1, "stakeholders": {"roles": []}}
    d["factory"]["y"] = [{"store": [], "factory": {}}]
    write_checkpoint(base, d)
    assert _parts(base) == {
        name: {key: d[key] for key in keys}
        for name, (keys, _) in persistence.SECTION_FILES.items()}


def _records() -> list:
    """A small ledger's sections and records, and a tag, as JSON."""
    node = Node()
    node.init_genesis(ADMIN_KEY.encode(), timestamp=0)
    node.execute(ADMIN, "initializeFactory", {"versionId": 1}, timestamp=1)
    node.execute(ADMIN, "deployProperty", {
        "treasury": ADMIN, "upgrader": ADMIN, "admin": ADMIN,
        "uri": "u/{id}"}, timestamp=2)
    d = node.state.state_dict()
    return [d["accounts"], d["stakeholders"], d["factory"],
            *d["properties"].values(), *d["stakeholders"][
                "stakeholders"].values(),
            {"hash": "11" * 32, "index": 1, "state": "22" * 32}]


SECTIONS = ("accounts", "config", "factory", "properties", "stakeholders",
            "store")
NESTED_KEYS = SECTIONS + ("block", "sections", "version", "a", "zz")
# values that nest the checkpoint's own keys at any depth, holding
# records, or a copy of a key as the files hold it
nesting = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.sampled_from([',"factory":{', ',"stakeholders":', ',"store":',
                       ',"version":1}', '"sections":{'])
    | st.sampled_from(_records()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(NESTED_KEYS), inner, max_size=4),
    max_leaves=12)


@given(st.fixed_dictionaries({name: st.dictionaries(
    st.sampled_from(NESTED_KEYS), nesting, max_size=3) for name in SECTIONS}))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
def test_a_split_checkpoint_yields_the_sections_of_a_whole_parse(sections):
    """A checkpoint stored as a manifest and section files, whatever its
    values nest, reads back as the dict it was stored from."""
    tag = {"hash": bytes(range(32)).hex(), "index": 7}
    with tempfile.TemporaryDirectory() as state_dir:
        write_checkpoint(state_dir, sections | {"version": 1, "block": tag})
        path = os.path.join(state_dir, "state.json")
        head, data = persistence._read_checkpoint(path)
        got, _, _ = persistence._manifest(path, head, data)
        assert (got.index, got.hash.hex()) == (tag["index"], tag["hash"])
        assert {k: head[k] for k in ("accounts", "config")} == {
            k: sections[k] for k in ("accounts", "config")}
        assert _parts(state_dir) == {
            name: {key: sections[key] for key in keys}
            for name, (keys, _) in persistence.SECTION_FILES.items()}


READS = (["chain", "balance", "--address", SELLER],
         ["token", "balance", "--property", "{prop}", "--owner", SELLER,
          "--id", "1"],
         ["property", "info", "--property", "{prop}"],
         ["state", "digest"])


def _outputs(state_dir, prop) -> list:
    out = []
    for argv in READS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = estate(state_dir, *[a.format(prop=prop) for a in argv])
        out.append((rc, stdout.getvalue(), stderr.getvalue()))
    return out


@given(texts=st.lists(nesting.map(lambda v: json.dumps(v)), min_size=6,
                      max_size=6),
       extra=st.dictionaries(st.sampled_from(NESTED_KEYS), nesting,
                             max_size=4))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
def test_a_ledger_holding_nested_keys_reads_the_same_split_or_whole(
        texts, extra):
    """Document metadata, stakeholder and contract strings and config
    values that nest the checkpoint's keys: the dir loads to the state it
    was saved from, and the reads print the same bytes as with the state
    rebuilt from the log."""
    node = Node()
    node.init_genesis(ADMIN_KEY.encode(), info_cid=texts[0], timestamp=0)
    node.execute(ADMIN, "registerStakeholder", {
        "role": "Seller", "publicKey": b"seller-key".hex(),
        "infoCid": texts[1]}, timestamp=1)
    node.execute(ADMIN, "faucet", {"to": SELLER, "amount": 500}, timestamp=2)
    node.execute(ADMIN, "initializeFactory", {
        "versionId": 1, "behaviorTag": texts[2]}, timestamp=3)
    prop = node.execute(ADMIN, "deployProperty", {
        "treasury": SELLER, "upgrader": ADMIN, "admin": ADMIN,
        "uri": texts[3] + "{id}", "contractName": texts[4],
        "description": texts[5]}, timestamp=4)["address"]
    cid = node.execute(ADMIN, "buildRightMetadata", {
        "nameOfRight": texts[0], "extra": extra}, timestamp=5)["cid"]
    node.execute(ADMIN, "registerDocument", {"property": prop, "cid": cid},
                 timestamp=6)
    node.state.config.update(zip(NESTED_KEYS, texts))
    with tempfile.TemporaryDirectory() as state_dir, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistence.os, "fsync", lambda fd: None)
        save_state(state_dir, node)
        loaded = load_state(state_dir)
        assert loaded.state.state_dict() == node.state.state_dict()
        assert loaded.full_digest() == node.full_digest()
        outputs = _outputs(state_dir, prop)
        os.remove(os.path.join(state_dir, "state.json"))
        rebuilt = _outputs(state_dir, prop)
    assert [rc for rc, *_ in outputs] == [0, 0, 0, 0]
    assert [out for _, out, _ in outputs] == [out for _, out, _ in rebuilt]
    assert {err for *_, err in outputs} == {""}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_a_whole_log_decode_pauses_gc_and_restores_the_callers_setting(
        base, monkeypatch, capsys, enabled):
    seen, real = [], persistence._json_object
    monkeypatch.setattr(persistence, "_json_object", lambda path, *args: (
        path.endswith("chain.json") and seen.append(gc.isenabled())
    ) or real(path, *args))
    path = os.path.join(base, "chain.json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert estate(base, "chain", "verify") == 0  # StoredLog.before
        assert gc.isenabled() is enabled
        assert persistence._read_log(path, 0).height == 5
        assert gc.isenabled() is enabled
        with open(path, "r+b") as fh:  # the log's first byte
            fh.write(b"[")
        assert estate(base, "chain", "verify") == 3
        assert gc.isenabled() is enabled
        with pytest.raises(LedgerError) as e:
            persistence._read_log(path, 0)
        assert e.value.code == "CorruptSnapshot"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) == 6 and not any(seen)
    capsys.readouterr()


# -- a write encodes only the sections its blocks' ops declare ---------------


@pytest.mark.parametrize("name, key, value", [
    ("registry", "accounts", {"accounts": {SELLER: 999}}),
    ("store", "config", {"allowlist": "a.txt"}),
    ("contracts", "config", {"allowlist": "a.txt"}),
    ("contracts", "block", {"hash": "11" * 32, "index": 1})],
    ids=["accounts in the registry", "config in the store",
         "config in the contracts", "tag in the contracts"])
def test_a_slice_that_repeats_a_head_key_fails_its_readers(
        deployed, capsys, name, key, value):
    """A section file that also holds a key of the manifest is refused
    by its section's readers; every command takes that key's value from
    the manifest alone."""
    _key_refused(deployed, capsys, name, key, value)


def _whole_encoding(state_dir) -> tuple:
    """The checkpoint of the dir's ledger at its log's tip, encoded whole:
    the manifest and each section file, digest -> bytes."""
    state = load_state(str(state_dir)).state
    return persistence._checkpoint(state, state.chain.held[-1])[:2]


def _restore_files(state_dir, files: tuple):
    """Put back the manifest and section files `whole_files` gave."""
    data, sections = files
    with open(os.path.join(state_dir, "state.json"), "wb") as fh:
        fh.write(data)
    for digest_, section in sections.items():
        with open(section_path(state_dir, digest_), "wb") as fh:
            fh.write(section)


def test_state_json_is_a_whole_encoding_after_every_command(
        deployed, tmp_path, capsys):
    """After every command, the manifest and each section file it names
    are what encoding the whole state gives."""
    state_dir, prop = deployed
    buyer = derive_address(b"buyer-key")
    deed = make_cid(b"deed")
    ts = iter(range(10, 100))

    grant = ["chain", "faucet", "--to", SELLER, "--amount", "1", "--as",
             ADMIN]

    def run(*argv, code=0):
        if "--as" in argv:  # a write, at the next timestamp
            argv += ("--timestamp", str(next(ts)))
        assert estate(state_dir, *argv) == code
        assert whole_files(state_dir) == _whole_encoding(state_dir)
        # and the checkpoint holds the state the log replays to
        assert estate(state_dir, "chain", "replay") == 0

    for argv in (["chain", "balance", "--address", SELLER],
                 ["token", "balance", "--property", prop, "--owner", SELLER,
                  "--id", "1"], ["stakeholder", "show", "--address", SELLER],
                 ["state", "digest"], ["chain", "verify"]):
        run(*argv)
    run(*grant)
    run("chain", "transfer", "--to", ADMIN, "--amount", "9", "--as", SELLER)
    run("chain", "transfer", "--to", ADMIN, "--amount", "10000",
        "--as", SELLER, code=3)  # fails, writing nothing
    run("chain", "faucet", "--to", SELLER, "--amount", "1", "--as", SELLER,
        code=4)
    run("property", "adddoc", "--property", prop, "--cid", deed,
        "--as", ADMIN)
    run("factory", "pause", "--as", ADMIN)
    # the registry, then a write that keeps it
    run("stakeholder", "register", "--role", "Buyer", "--key", "buyer-key",
        "--as", ADMIN)
    run("chain", "faucet", "--to", buyer, "--amount", "50", "--as", ADMIN)
    script = tmp_path / "ten.script"
    script.write_text("\n".join([
        f"chain faucet --to {SELLER} --amount 3 --as {ADMIN}",
        f"stakeholder register --role Seller --key s2 --as {ADMIN}",
        f"chain transfer --to {buyer} --amount 2 --as {SELLER}",
        f"factory unpause --as {ADMIN}",
        f"chain balance --address {buyer}",
        f"object put --data plan --as {SELLER}",
        f"factory pause --as {ADMIN}",
        f"chain transfer --to {SELLER} --amount 1 --as {buyer}",
        f"stakeholder register --role Buyer --key b3 --as {ADMIN}",
        f"chain faucet --to {buyer} --amount 4 --as {ADMIN}"]) + "\n")
    run("run", str(script), "--timestamp", "200")
    # a checkpoint that lags the log: the write after its load re-encodes
    # what the redone blocks changed, too
    for lag in ([["stakeholder", "register", "--role", "Buyer", "--key",
                  "b4"]],
                [["stakeholder", "register", "--role", "Buyer", "--key",
                  "b5"], ["token", "approve", "--property", prop,
                          "--operator", SELLER, "--approved", "true"]]):
        lagging = whole_files(state_dir)
        for argv in lag:
            run(*argv, "--as", ADMIN)
        _restore_files(state_dir, lagging)
        assert estate(state_dir, "chain", "balance", "--address",
                      SELLER) == 0
        assert whole_files(state_dir) == lagging
        run(*grant)
    snapshot = str(tmp_path / "snap.json")
    run("state", "export", "--out", snapshot)
    run("state", "import", "--in", snapshot, "--force")
    run(*grant)
    capsys.readouterr()


def test_a_checkpoint_read_whole_is_encoded_whole_by_the_next_write(
        base, capsys):
    """A checkpoint an older version wrote, in a form no write produces,
    is rebuilt from the log; the next write encodes the manifest and
    every section file whole."""
    older = _older_checkpoint(base, True)
    shutil.rmtree(base / "sections")
    with open(os.path.join(base, "state.json"), "wb") as fh:
        fh.write(older.replace(b'"stakeholders":{', b'"stakeholders": {', 1))
    assert estate(base, *faucet(5, 10)) == 0
    assert whole_files(base) == _whole_encoding(base)
    assert sorted(os.listdir(base / "sections")) == sorted(
        digest_ + ".json" for digest_ in manifest(base)["sections"].values())
    capsys.readouterr()


def test_a_write_encodes_only_the_slices_its_blocks_ops_declare(
        deployed, monkeypatch, capsys):
    """What each write encodes beyond the manifest (its two pieces and
    the log's certificate): a faucet nothing, a register the registry, a
    property op the contracts, and after a lagging load also what the
    redone blocks' ops declare."""
    state_dir, prop = deployed
    encoded, real = [], persistence.canonical_json_bytes

    def spy(value):  # a checkpoint's sections, not its tag's digest
        if type(value) is dict and "hash" not in value:
            encoded.append(sorted(value))
        return real(value)
    monkeypatch.setattr(persistence, "canonical_json_bytes", spy)
    head = [["accounts", "block", "config"], ["sections", "version"],
            ["block", "length", "sha256"]]

    def writes(*argv):
        encoded.clear()
        assert estate(state_dir, *argv, "--as", ADMIN, "--timestamp",
                      "20") == 0
        return encoded[:]

    assert writes(*faucet(1, 0)[:-4]) == head
    assert writes("stakeholder", "register", "--role", "Buyer", "--key",
                  "b1") == [["stakeholders"], *head]
    assert writes("factory", "pause") == [["factory", "properties"], *head]
    lagging = whole_files(state_dir)
    assert writes("stakeholder", "register", "--role", "Buyer", "--key",
                  "b2") == [["stakeholders"], *head]
    _restore_files(state_dir, lagging)
    assert writes(*faucet(1, 0)[:-4]) == [["stakeholders"], *head]
    assert writes(*faucet(1, 0)[:-4]) == head
    capsys.readouterr()


def test_a_write_checks_a_slice_it_writes_back_as_it_was_read(
        base, tmp_path):
    """The registry file matches the digest the manifest names it by,
    but its record fails its check: a save of the loaded ledger refuses
    it, as every write does, though no op changed the registry."""
    _resign(base, b'"roles":["Seller"]', b'"roles":[7]')
    node = load_state(str(base))
    for _ in range(2):  # the second save finds the section read
        with pytest.raises(LedgerError) as e:
            save_state(str(tmp_path / "copy"), node)
        assert e.value.code == "CorruptSnapshot"
    assert not (tmp_path / "copy").exists()


def test_a_node_saved_to_another_dir_carries_no_section_digest(
        base, tmp_path):
    """A loaded node keeps the digest of each section file its own dir's
    manifest names but those an op it ran since declares
    (``Node.changed``); saved to another dir it keeps none, encoding
    every section file there, and the save clears what it changed."""
    node = load_state(str(base))
    node.execute(ADMIN, "registerStakeholder", {
        "role": "Buyer", "publicKey": b"buyer-key".hex()}, timestamp=4)
    assert node.changed == {"registry", "native"}
    registry = persistence._encode(node, str(base))[2]["registry"]
    assert list(persistence._encode(node, str(base))[1]) == [registry]
    other = tmp_path / "other"
    assert len(persistence._encode(node, str(other))[1]) == len(
        persistence.SECTION_FILES)
    save_state(str(other), node)
    assert node.changed == set()
    assert node.state.chain.log.manifest == manifest(other)["sections"]
    assert persistence._encode(node, str(other))[1] == {}
    assert whole_files(other) == _whole_encoding(other)


def _written(monkeypatch) -> list:
    """Records each file `persistence` opens for writing, as the path
    under its state dir of the file a temp name becomes."""
    written, real = [], builtins.open

    def opener(path, mode="r", *args, **kwargs):
        if mode in ("wb", "r+b"):
            parent, name = os.path.split(str(path).removesuffix(".tmp"))
            in_dir = os.path.basename(parent) in ("objects", "sections")
            written.append(f"{os.path.basename(parent)}/{name}"
                           if in_dir else name)
        return real(path, mode, *args, **kwargs)
    monkeypatch.setattr(persistence, "open", opener, raising=False)
    return written


def test_a_write_opens_for_writing_only_the_files_its_ops_change(
        deployed, monkeypatch, capsys):
    """A faucet writes its append and the manifest alone; `object put`
    also its object and the store's section file, and a property op the
    contracts' section file."""
    state_dir, prop = deployed
    written = _written(monkeypatch)

    def writes(*argv):
        written.clear()
        assert estate(state_dir, *argv, "--as", ADMIN, "--timestamp",
                      "20") == 0
        return sorted(written)

    def section(name):
        return f"sections/{manifest(state_dir)['sections'][name]}.json"
    assert writes(*faucet(1, 0)[:-4]) == ["chain.json", "state.json"]
    plan = make_cid(b"plan").split(":")[1]
    assert writes("object", "put", "--data", "plan") == [
        "chain.json", f"objects/{plan}.bin", section("store"), "state.json"]
    assert writes("token", "approve", "--property", prop, "--operator",
                  SELLER, "--approved", "true") == [
        "chain.json", section("contracts"), "state.json"]
    capsys.readouterr()


# what each section's readers print, beside `state digest`
SECTION_READERS = {
    "contracts": ["token", "balance", "--property", "{prop}", "--owner",
                  SELLER, "--id", "1"],
    "registry": ["stakeholder", "show", "--address", SELLER],
    "store": ["object", "get", "--cid", make_cid(b"deed")]}


@pytest.mark.parametrize("case", sorted(LOST_OBJECT))
@pytest.mark.parametrize("name", sorted(persistence.SECTION_FILES))
def test_a_missing_or_torn_section_file_is_rebuilt_from_the_log(
        deployed, capsys, name, case):
    """A section file is a cache of the log: one missing, empty, cut
    short or zeroed past a prefix is rebuilt from the log, with one
    notice, by every reader of its section, which stores the file again,
    so the next command reads it as before."""
    state_dir, prop = deployed
    path = section_path(os.path.abspath(state_dir),
                        manifest(state_dir)["sections"][name])
    reads = ([a.format(prop=prop) for a in SECTION_READERS[name]],
             ["state", "digest"])
    want = []
    for argv in reads:
        assert estate(state_dir, *argv) == 0
        want.append(capsys.readouterr().out)
    files = dir_bytes(state_dir)
    notice = (f"notice: {path} is missing or torn; rebuilt it from "
              f"{os.path.abspath(state_dir)}/chain.json\n")
    for argv, out in zip(reads, want):
        LOST_OBJECT[case](path)
        assert estate(state_dir, *argv) == 0
        assert capsys.readouterr() == (out, notice)
        assert dir_bytes(state_dir) == files
        assert estate(state_dir, *argv) == 0
        assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("name", sorted(persistence.SECTION_FILES))
def test_chain_verify_rebuilds_a_missing_or_torn_section_file(
        deployed, capsys, name):
    """`chain verify` checks the bytes of every section file, whether or
    not it reads the section: one missing or torn is rebuilt from the
    log, with one notice, and stored again."""
    state_dir, _ = deployed
    path = section_path(os.path.abspath(state_dir),
                        manifest(state_dir)["sections"][name])
    files = dir_bytes(state_dir)
    notice = (f"notice: {path} is missing or torn; rebuilt it from "
              f"{os.path.abspath(state_dir)}/chain.json\n")
    for case in sorted(LOST_OBJECT):
        LOST_OBJECT[case](path)
        assert estate(state_dir, "chain", "verify") == 0
        assert capsys.readouterr().err == notice
        assert dir_bytes(state_dir) == files


def test_a_section_file_holding_other_bytes_fails_only_its_readers(
        deployed, capsys):
    """A section file edited by hand no longer matches the digest its
    manifest names it by: the commands that read its section, and `chain
    verify`, which checks every section file, refuse it, writing nothing,
    and the others answer."""
    state_dir, prop = deployed
    path = section_path(state_dir, manifest(state_dir)["sections"][
        "registry"])
    data = read(state_dir, path)
    at = data.index(b'"keyFingerprint":"') + len(b'"keyFingerprint":"')
    with open(path, "wb") as fh:
        fh.write(data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0")
                 + data[at + 1:])
    files = dir_bytes(state_dir)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["token", "balance", "--property", prop, "--owner", SELLER,
                  "--id", "1"]):
        assert estate(state_dir, *argv) == 0
    capsys.readouterr()
    for argv in (["stakeholder", "show", "--address", SELLER],
                 ["state", "digest"], ["chain", "verify"], faucet(5, 10)):
        assert estate(state_dir, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {os.path.abspath(path)} does not "
            "match its digest\n")
    assert dir_bytes(state_dir) == files


def test_a_lost_section_file_no_replay_gives_fails_its_readers(
        base, capsys):
    """A manifest signed again over an edited registry names a file no
    replay of the log gives: once that file is lost, the readers of the
    registry refuse the checkpoint, and the others answer."""
    _resign(base, b'"roles":["Seller"]', b'"roles":["Buyer"]')
    d = manifest(base)
    path = section_path(base, d["sections"]["registry"])
    os.remove(path)
    files = dir_bytes(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    capsys.readouterr()
    for argv in (["stakeholder", "show", "--address", SELLER],
                 ["state", "digest"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {path} does not match its digest, nor "
            f"does the state of block {d['block']['index']} of "
            f"{base}/chain.json\n")
    assert dir_bytes(base) == files


def test_a_whole_write_removes_the_temp_files_a_fault_left(
        base, tmp_path, monkeypatch, capsys):
    """A fault at a section or object file's rename leaves its temp
    file; the next whole write lists objects/ and sections/ and removes
    every file but the new ledger's, temp files included."""
    other, snap = tmp_path / "other", tmp_path / "other.json"
    assert estate(other, "init", "--admin-key", ADMIN_KEY,
                  "--timestamp", "0") == 0
    assert estate(other, "state", "export", "--out", str(snap)) == 0
    real_replace = os.replace
    for suffix, argv in ((".json.tmp", ["stakeholder", "register", "--role",
                                        "Buyer", "--key", "buyer-key"]),
                         (".bin.tmp", ["object", "put", "--data", "plan"])):
        def replace(src, dst):
            if src.endswith(suffix):
                raise OSError(errno.EIO, "injected fault")
            return real_replace(src, dst)
        with monkeypatch.context() as patch:
            patch.setattr(persistence.os, "replace", replace)
            assert estate(base, *argv, "--as", ADMIN, "--timestamp",
                          "10") == 3
    temps = [name for sub in ("objects", "sections")
             for name in os.listdir(base / sub) if name.endswith(".tmp")]
    assert sorted(name.split(".", 1)[1] for name in temps) == [
        "bin.tmp", "json.tmp"]
    assert estate(base, "state", "import", "--in", str(snap), "--force") == 0
    assert os.listdir(base / "objects") == []
    assert sorted(os.listdir(base / "sections")) == sorted(
        digest_ + ".json" for digest_ in manifest(base)["sections"].values())
    assert digest(base) == digest(other)
    capsys.readouterr()


# -- the refusals and the long tail of a load ---------------------------------


def _refused_tip(state_dir):
    """Re-seal the log's last block over a command admission refuses, its
    caller no stakeholder, and put back the checkpoint before it."""
    lagging = whole_files(state_dir)
    assert estate(state_dir, *faucet(5, 10)) == 0
    blocks = load_state(str(state_dir)).state.chain.blocks
    tx = json.loads(blocks[-1].data[0])
    tx["caller"] = "0x" + "11" * 20
    blocks[-1].data[0] = canonical_json_bytes(tx)
    blocks[-1].seal()
    with open(os.path.join(state_dir, "chain.json"), "wb") as fh:
        fh.write(chain_mod.Chain(blocks).canonical_json())
    _restore_files(state_dir, lagging)


@pytest.mark.parametrize("checkpoint", ["present", "missing"])
def test_a_log_holding_no_block_is_refused(base, capsys, checkpoint):
    with open(os.path.join(base, "chain.json"), "wb") as fh:
        fh.write(b'{"blocks":[]}')
    if checkpoint == "missing":
        os.remove(os.path.join(base, "state.json"))
    files = dir_bytes(base)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["chain", "verify"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {base}/chain.json holds no block\n")
    assert dir_bytes(base) == files


@pytest.mark.parametrize("edit, refused", [
    (lambda blocks: blocks[-1].data.clear(), "block 4 is empty"),
    (lambda blocks: blocks[0].data.append(blocks[1].data[0]),
     "HashMismatch: genesis block differs"),
], ids=["empty tip", "genesis with a transaction"])
def test_a_resealed_block_no_command_writes_fails_the_rebuild(
        base, capsys, edit, refused):
    """With the checkpoint lost, a load replays the log from genesis: a
    block sealed again over what no command writes fails that replay."""
    blocks = load_state(str(base)).state.chain.blocks
    edit(blocks)
    blocks[0].seal()
    blocks[-1].seal()
    with open(os.path.join(base, "chain.json"), "wb") as fh:
        fh.write(chain_mod.Chain(blocks).canonical_json())
    os.remove(os.path.join(base, "state.json"))
    files = dir_bytes(base)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["chain", "verify"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {base}/chain.json does not replay: "
            f"{refused}\n")
    assert dir_bytes(base) == files


def test_a_checkpoint_signed_again_over_another_state_fails_replay(
        base, capsys):
    """A manifest edited and signed again loads, but ``chain replay``
    finds that the log does not give its state."""
    def richer(d):
        d["accounts"]["accounts"][SELLER] += 10 ** 6
    edit_checkpoint(base, richer)
    assert estate(base, "chain", "replay") == 3
    assert capsys.readouterr().err == (
        "error: HashMismatch: replayed state digest does not match\n")


@pytest.mark.parametrize("checkpoint", ["lagging", "missing"])
def test_a_log_whose_blocks_do_not_redo_is_refused(base, capsys, checkpoint):
    """A block after the checkpoint that admission refuses fails the
    redo of a load, and, with the checkpoint lost, the replay that
    rebuilds it: each is CorruptSnapshot, naming what did not redo."""
    _refused_tip(base)
    refused = ("NotAuthorized: 0x" + "11" * 20
               + " is not an active stakeholder")
    if checkpoint == "lagging":
        want = (f"the blocks after {base}/state.json do not redo: "
                f"{refused}")
    else:
        os.remove(os.path.join(base, "state.json"))
        want = f"{base}/chain.json does not replay: {refused}"
    files = dir_bytes(base)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["chain", "verify"], faucet(5, 11)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == f"error: CorruptSnapshot: {want}\n"
    assert dir_bytes(base) == files


def test_a_load_reads_back_past_its_first_window(base, monkeypatch, capsys):
    """A checkpoint's block more than ``TAIL_WINDOW`` bytes before the
    log's end: the load widens its read from the end until it holds the
    block's header, and loads what a whole-log read gives."""
    data = "x" * (persistence.TAIL_WINDOW // 2 + 1024)  # stored as hex
    assert estate(base, "object", "put", "--data", data, "--as", ADMIN,
                  "--timestamp", "4") == 0
    capsys.readouterr()
    log = os.path.join(base, "chain.json")
    node = load_state(str(base))
    chain = node.state.chain
    assert [block.index for block in chain.held] == [5]  # from the end
    start = read(base, "chain.json").rindex(
        b'{"hash":"%s"' % chain.held[0].hash.hex().encode())
    assert os.path.getsize(log) - start > persistence.TAIL_WINDOW
    monkeypatch.setattr(persistence, "_read_tail", lambda *args: None)
    whole = load_state(str(base))
    assert len(whole.state.chain.held) == 6
    assert node.full_digest() == whole.full_digest()
    assert node.state.chain.to_dict() == whole.state.chain.to_dict()


def test_a_manifest_naming_no_file_of_a_section_is_refused(base, capsys):
    """A manifest signed again without one section's digest is refused,
    whole, by every command."""
    d = manifest(base)
    del d["sections"]["registry"]
    tag = persistence.Checkpoint(d["block"]["index"],
                                 bytes.fromhex(d["block"]["hash"]), bytes(32))
    with open(os.path.join(base, "state.json"), "wb") as fh:
        fh.write(persistence._sign(canonical_json_bytes(
            d | {"block": to_json(tag)}), tag))
    files = dir_bytes(base)
    for argv in (["chain", "balance", "--address", SELLER],
                 ["chain", "verify"], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: {base}/state.json sections: expected "
            "a digest of each of ['contracts', 'registry', 'store'], got "
            f"{d['sections']!r:.60}\n")
    assert dir_bytes(base) == files


def test_an_object_the_store_lists_but_no_block_stores_is_refused(
        base, capsys):
    """The store's section file, re-signed to list an object no block of
    the log stores: a read of that object's bytes finds no file and no
    block to rebuild it from, and is refused; a balance read answers."""
    ghost = hashlib.sha256(b"never stored").hexdigest()
    _resign(base, b'{"store":["', f'{{"store":["{ghost}","'.encode())
    files = dir_bytes(base)
    assert estate(base, "chain", "balance", "--address", SELLER) == 0
    capsys.readouterr()
    for argv in (["object", "get", "--cid", f"cidv0-sha256:{ghost}"],
                 ["chain", "verify"]):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: CorruptSnapshot: object {ghost} is listed, but no "
            f"block of {os.path.abspath(base)}/chain.json stores it\n")
    assert dir_bytes(base) == files


def test_state_import_of_a_missing_file_creates_nothing(tmp_path, capsys):
    missing, target = tmp_path / "none.json", tmp_path / "target"
    assert estate(target, "state", "import", "--in", str(missing)) == 3
    assert capsys.readouterr().err == f"error: NotFound: {missing}\n"
    assert not target.exists()


def test_a_config_holding_a_lone_surrogate_is_refused(base, capsys):
    """``config.json``, read to rebuild a lost checkpoint, goes through
    the one reader of a state-dir file: a lone surrogate escape, which
    no write could encode, is refused by every command, naming the
    file, and nothing is written."""
    with open(os.path.join(base, "config.json"), "w") as fh:
        fh.write('{"allowlist":"\\udcff"}')
    os.remove(os.path.join(base, "state.json"))
    files = dir_bytes(base)
    for argv in (["chain", "balance", "--address", SELLER], faucet(5, 10)):
        assert estate(base, *argv) == 3
        assert capsys.readouterr().err.startswith(
            f"error: CorruptSnapshot: {base}/config.json holds a string "
            "that is not UTF-8: ")
    assert dir_bytes(base) == files
