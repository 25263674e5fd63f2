"""The log's certificate: a history reader that checks the certified bytes
of ``chain.json`` by one SHA-256, and parses only the blocks after them,
answers byte for byte what a read of the whole log answers.

The ledgers are built by random op sequences through ``Node.execute``
and stored by a random mix of whole writes, appends and script-like
holds, to lengths past several certification points, the step doubling
at 33 and 65 blocks among them. After each write the dir's certificate
covers the block the README's rule names, ``state digest`` and ``state
export`` give the same bytes as a copy of the dir whose manifest holds
no certificate (the full path), and ``state.json`` equals the manifest
of the dir that ``state export`` then ``state import`` makes, as CI's
``cmp`` asserts.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from checkpoints import edit_checkpoint, manifest
from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.node import Node
from estateledger.persistence import (LedgerDir, StoredLog, certify_at,
                                      load_state, save_state)
from test_golden import ADMIN as TOUR_ADMIN, quick_tour

ADMIN_KEY = b"admin-key-1"
ADMIN = derive_address(ADMIN_KEY)


def ref_certify_at(blocks: int) -> int:
    """The README's rule, read literally: the last index m <= blocks - 1
    that is a multiple of 2 ** max(0, bit_length(m) - 5)."""
    return max(m for m in range(blocks)
               if m % 2 ** max(0, m.bit_length() - 5) == 0)


def test_the_certified_block_is_the_readmes_function_of_the_length():
    last = 0
    for blocks in range(1, 3000):
        k = certify_at(blocks)
        assert k == ref_certify_at(blocks)
        assert last <= k < blocks  # it never moves back
        assert blocks - 1 - k < max(1, blocks / 16)
        last = k


def _op(node, i: int):
    """The `i`-th op of every sequence: a faucet, or a stored object,
    which a snapshot carries whole."""
    if i % 4 == 3:
        node.execute(ADMIN, "putObject",
                     {"dataHex": f"doc {i}".encode().hex()}, timestamp=i)
    else:
        node.execute(ADMIN, "faucet", {"to": "0x" + f"{i % 5 + 1:040x}",
                                       "amount": i * 7 % 100}, timestamp=i)


def _cli(state_dir, *argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--state-dir", str(state_dir), "--json"]) == 0
    return out.getvalue()


@contextlib.contextmanager
def _whole_reads() -> list:
    """Records the index of the held block each read of the whole log
    (``StoredLog.before``) reads up to."""
    reads, real = [], StoredLog.before
    StoredLog.before = lambda log, block: reads.append(block.index) or real(
        log, block)
    try:
        yield reads
    finally:
        StoredLog.before = real


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check(state_dir, work, ref: Node):
    """The certified path and the full path of `state_dir`, which holds
    `ref`'s ledger, answer alike, and its manifest is an import's."""
    blocks = ref.state.chain.height
    assert manifest(state_dir)["log"]["block"]["index"] == certify_at(blocks)
    with _whole_reads() as reads:
        digest = _cli(state_dir, "state", "digest")
    assert reads == []  # the certified path
    assert json.loads(digest)["digest"] == ref.full_digest()
    full = os.path.join(work, "full")
    shutil.rmtree(full, ignore_errors=True)
    shutil.copytree(state_dir, full)
    edit_checkpoint(full, lambda d: d.pop("log"))
    assert "log" not in manifest(full)
    with _whole_reads() as reads:
        assert _cli(full, "state", "digest") == digest
    assert reads == [blocks - 1]  # the full path
    snapshots = []
    for name, source in (("certified.snap", state_dir), ("full.snap", full)):
        snapshots.append(os.path.join(work, name))
        with _whole_reads() as reads:
            _cli(source, "state", "export", "--out", snapshots[-1])
        assert len(reads) == (source == full)
    assert _read(snapshots[0]) == _read(snapshots[1])
    imported = os.path.join(work, "imported")
    shutil.rmtree(imported, ignore_errors=True)
    _cli(imported, "state", "import", "--in", snapshots[0])
    assert _read(os.path.join(state_dir, "state.json")) == _read(
        os.path.join(imported, "state.json"))


WRITES = st.lists(st.tuples(st.sampled_from(("append", "whole", "hold")),
                            st.integers(1, 9)), min_size=2, max_size=6)


@given(WRITES)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
def test_the_certified_path_gives_the_full_paths_bytes(writes):
    # filled up with appends of 9 past 70 blocks, so every example crosses
    # the points where the certificate's step doubles
    writes += [("append", 9)] * max(0, 8 - sum(n for _, n in writes) // 9)
    ref = Node()
    ref.init_genesis(ADMIN_KEY, timestamp=0)
    with tempfile.TemporaryDirectory() as work:
        state_dir = os.path.join(work, "ledger")
        save_state(state_dir, ref)
        ref.state.chain.log = None  # the reference stays in memory
        i = 0
        for how, count in writes:
            ops = range(i, i + count)
            i += count
            for at in ops:
                _op(ref, at)
            if how == "hold":  # a script: one append per op, one checkpoint
                ledger = LedgerDir(state_dir)
                with ledger.writing():
                    for at in ops:
                        _op(ledger.node, at)
                        ledger.commit()
            else:
                node = load_state(state_dir)
                if how == "whole":  # the chain in memory, stored anew
                    node.state.chain.blocks
                    node.state.chain.log = None
                for at in ops:
                    _op(node, at)
                save_state(state_dir, node)
            _check(state_dir, work, ref)
        assert ref.state.chain.height > 70


def _faucet_ledger(blocks: int) -> Node:
    """A ledger of `blocks` blocks: genesis, its administrator, faucets."""
    node = Node()
    node.init_genesis(ADMIN_KEY, timestamp=0)
    for i in range(2, blocks):
        _op(node, i * 4)  # a faucet
    return node


def test_a_rebuild_certifies_the_log_it_replayed(tmp_path):
    """A lost ``state.json`` is rebuilt from the log, whose blocks the
    replay checks: the rebuilt ledger's log is certified, and the next
    write's manifest holds the certificate an import's does."""
    state_dir = tmp_path / "ledger"
    blocks = 41  # the write leaves block certify_at where it was
    assert certify_at(blocks) == certify_at(blocks + 1)
    save_state(str(state_dir), _faucet_ledger(blocks))
    os.remove(state_dir / "state.json")
    with contextlib.redirect_stderr(io.StringIO()):
        cert = load_state(str(state_dir)).state.chain.log.certificate()
    assert cert is not None and cert.block.index == certify_at(blocks)
    _cli(state_dir, "chain", "faucet", "--to", ADMIN, "--amount", "1",
         "--as", ADMIN, "--timestamp", "9")
    assert manifest(state_dir)["log"]["block"]["index"] == certify_at(
        blocks + 1)
    snapshot = str(tmp_path / "snap")
    _cli(state_dir, "state", "export", "--out", snapshot)
    _cli(tmp_path / "imported", "state", "import", "--in", snapshot)
    assert _read(state_dir / "state.json") == _read(
        tmp_path / "imported" / "state.json")


def _flip_prev_hash(log: bytes) -> bytes:
    at = log.index(b'"prevHash":"', log.index(b'"index":3,')) + 12
    return log[:at] + (b"1" if log[at:at + 1] != b"1" else b"2") + log[
        at + 1:]


def _edit_event(log: bytes) -> bytes:
    at = log.index(b'"propertyId":1}', log.index(b'"DeployedProperty"'))
    return log[:at] + b'"propertyId":2}' + log[at + len(b'"propertyId":1}'):]


@pytest.mark.parametrize("edit", [_flip_prev_hash, _edit_event])
def test_a_rebuild_does_not_certify_bytes_its_replay_did_not_seal(
        tmp_path, capsys, edit):
    """The replay checks each re-executed block's hash against the
    recorded one, not the recorded bytes: a block whose `prevHash` or
    event was edited still replays. The rebuild certifies only the
    canonical JSON of the blocks it sealed, so the write after it leaves
    the log uncertified and the history reader refuses the edit."""
    state_dir = tmp_path / "ledger"
    quick_tour(str(state_dir))
    path = state_dir / "chain.json"
    log = _read(path)
    path.write_bytes(edit(log))
    assert _read(path) != log
    os.remove(state_dir / "state.json")
    with contextlib.redirect_stderr(io.StringIO()):
        assert load_state(str(state_dir)).state.chain.log.certificate() is None
    _cli(state_dir, "chain", "faucet", "--to", TOUR_ADMIN, "--amount", "1",
         "--as", TOUR_ADMIN, "--timestamp", "100")
    assert "log" not in manifest(state_dir)
    capsys.readouterr()
    assert cli.main(["state", "digest", "--state-dir", str(state_dir)]) == 3
    assert "HashMismatch" in capsys.readouterr().err


def _write_ms(state_dir, i: int) -> float:
    start = time.perf_counter()
    _cli(state_dir, "chain", "faucet", "--to", ADMIN, "--amount", "1",
         "--as", ADMIN, "--timestamp", str(i))
    return (time.perf_counter() - start) * 1e3


def test_a_write_to_an_uncertified_log_does_not_check_it_from_genesis(
        tmp_path):
    """A bad block drops the certificate at the next certification point;
    after that an append checks the log again only when the certified
    block moves, so a write costs about what it did before the drop."""
    state_dir = tmp_path / "ledger"
    save_state(str(state_dir), _faucet_ledger(2000))
    before = min(_write_ms(state_dir, i) for i in range(15))
    path = state_dir / "chain.json"
    log = _read(path)
    at = log.index(b'"index":50,')
    at = log.index(b'"amount":', at) + len(b'"amount":')
    path.write_bytes(log[:at] + (b"1" if log[at:at + 1] != b"1" else b"2")
                     + log[at + 1:])
    for i in range(100):
        if "log" not in manifest(state_dir):
            break
        _write_ms(state_dir, 100 + i)
    assert "log" not in manifest(state_dir)
    after = min(_write_ms(state_dir, 200 + i) for i in range(15))
    assert "log" not in manifest(state_dir)
    assert after < 2 * before, (before, after)


def test_a_mistyped_certificate_fails_only_the_commands_that_read_it(
        tmp_path, capsys):
    """The manifest's "log" is read on first use: mistyped under a
    manifest signed again, it fails a write, the history digest and the
    audit, each writing nothing, while `chain balance` answers."""
    state_dir = tmp_path / "ledger"
    save_state(str(state_dir), _faucet_ledger(5))
    edit_checkpoint(state_dir, lambda d: d["log"]["block"].update(index="4"))
    files = {name: _read(state_dir / name)
             for name in ("chain.json", "state.json")}
    for argv in (["chain", "faucet", "--to", ADMIN, "--amount", "1", "--as",
                  ADMIN, "--timestamp", "9"], ["state", "digest"],
                 ["chain", "verify"]):
        assert cli.main([*argv, "--state-dir", str(state_dir)]) == 3
        assert "index: expected int, got '4'" in capsys.readouterr().err
    assert {name: _read(state_dir / name) for name in files} == files
    assert cli.main(["chain", "balance", "--address", ADMIN,
                     "--state-dir", str(state_dir)]) == 0
    capsys.readouterr()
