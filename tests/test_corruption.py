"""A corruption sweep of the block log and the log's certificate.

The ledger holds 69 blocks. Its manifest is tagged at block 67, one
block behind the log, as a crash before the checkpoint's rename leaves
it, and certifies the log through block 64 (``certify_at(68)``), so
blocks 65 and 66 lie between the certified bytes and the tag. One edit
is made at a time: to ``chain.json`` (a bit flip, a truncation, 8 bytes
duplicated, or one digit of an amount changed), before the certified
block's end, between it and the tag, or from the tag on; or to the
certificate in a manifest signed again. Then one command runs.

No exception may escape ``cli.main``. An exit 0 must give the clean
dir's answer, except after an edit inside the log's last block: a load
drops a last append it cannot read as a torn one, as after a crash, so
there the answer of the dir without that block counts too. Any other
exit code must be 2 or 3.

Tier-1 runs a short profile; ``ESTATE_SWEEP=long`` runs a longer one.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from checkpoints import edit_checkpoint, manifest
from estateledger import cli
from estateledger.addresses import derive_address
from estateledger.node import Node
from estateledger.persistence import LOG_HEAD, certify_at, save_state

ADMIN_KEY = b"admin-key-1"
ADMIN = derive_address(ADMIN_KEY)
HOLDER = "0x" + "00" * 19 + "b0"
TAG, TIP = 67, 68
SWEEP = settings(max_examples=3000 if os.environ.get("ESTATE_SWEEP") == "long"
                 else 250, derandomize=True, deadline=None, database=None)


def _run(state_dir, work, argv) -> tuple:
    """Exit code, stdout and the snapshot it wrote, if any, of one
    command on `state_dir`."""
    out = io.StringIO()
    snapshot = os.path.join(work, "out.snap")
    argv = [a.replace("{script}", os.path.join(work, "script.txt"))
            .replace("{out}", snapshot) for a in argv]
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--state-dir", state_dir, "--json"])
    written = None
    if os.path.exists(snapshot):
        with open(snapshot, "rb") as fh:
            written = fh.read()
        os.remove(snapshot)
    return code, out.getvalue(), written


COMMANDS = [["state", "digest"], ["state", "export", "--out", "{out}"],
            ["run", "{script}", "--timestamp", "99"], ["chain", "show"],
            ["chain", "verify"], ["chain", "balance", "--address", HOLDER]]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """The clean dir; the same ledger without its last block; each
    command's answer on both; and the byte ranges of the log's regions."""
    work = str(tmp_path_factory.mktemp("sweep"))
    with open(os.path.join(work, "script.txt"), "w") as fh:
        fh.write(f"chain faucet --to {HOLDER} --amount 1 --as {ADMIN}\n")
    node = Node()
    node.init_genesis(ADMIN_KEY, timestamp=0)
    while node.state.chain.height <= TAG:
        node.execute(ADMIN, "faucet", {"to": HOLDER, "amount": 17 + node.state
                                       .chain.height}, timestamp=1)
    clean, before = os.path.join(work, "clean"), os.path.join(work, "before")
    save_state(before, node)
    save_state(clean, node)
    with open(os.path.join(clean, "state.json"), "rb") as fh:
        lagging = fh.read()
    node.execute(ADMIN, "faucet", {"to": HOLDER, "amount": 5}, timestamp=2)
    save_state(clean, node)
    with open(os.path.join(clean, "state.json"), "wb") as fh:
        fh.write(lagging)
    cert = manifest(clean)["log"]
    assert cert["block"]["index"] == certify_at(TAG + 1) == 64
    answers = {}
    for name, source in (("clean", clean), ("before", before)):
        for i, argv in enumerate(COMMANDS):
            case = os.path.join(work, "case")
            shutil.copytree(source, case)
            answers[name, i] = _run(case, work, argv)
            assert answers[name, i][0] == 0, (name, argv)
            shutil.rmtree(case)
    with open(os.path.join(clean, "chain.json"), "rb") as fh:
        log = fh.read()
    blocks = node.state.chain.blocks
    tag_at = log.index(b',{"hash":"%s"' % blocks[TAG].hash.hex().encode())
    tip_at = log.index(b',{"hash":"%s"' % blocks[TIP].hash.hex().encode())
    regions = {"before k": (len(LOG_HEAD), cert["length"]),
               "k to the tag": (cert["length"], tag_at),
               "the tag on": (tag_at, len(log))}
    return work, clean, answers, regions, tip_at


def _edit_log(data: bytes, kind: str, start: int, end: int,
              at: int, bit: int) -> tuple:
    """`data` with one edit of `kind` at a place in [start, end) that
    `at` picks; and where it is."""
    pos = start + at % (end - start)
    if kind == "digit":
        amounts = [i + len(b'"amount":') for i in range(start, end)
                   if data.startswith(b'"amount":', i)]
        if amounts:
            pos = amounts[at % len(amounts)]
            digit = data[pos] - ord("0")
            return (data[:pos] + str((digit + 1 + bit % 9) % 10).encode()
                    + data[pos + 1:], pos)
    if kind == "truncate":
        return data[:pos], pos
    if kind == "duplicate":
        return data[:pos] + data[pos:pos + 8] + data[pos:], pos
    return data[:pos] + bytes([data[pos] ^ 1 << bit % 8]) + data[pos + 1:], pos


def _check(ledger, edit, command: int, in_last_block: bool):
    work, clean, answers, _, _ = ledger
    case = tempfile.mkdtemp(dir=work)
    try:
        shutil.copytree(clean, case, dirs_exist_ok=True)
        edit(case)
        got = _run(case, work, COMMANDS[command])  # nothing may escape
    finally:
        shutil.rmtree(case)
    if got[0] == 0:
        allowed = [answers["clean", command]]
        if in_last_block:
            allowed.append(answers["before", command])
        assert got in allowed, COMMANDS[command]
    else:
        assert got[0] in (2, 3), (COMMANDS[command], got)


@given(region=st.sampled_from(("before k", "k to the tag", "the tag on")),
       kind=st.sampled_from(("flip", "truncate", "duplicate", "digit")),
       at=st.integers(0, 2 ** 32), bit=st.integers(0, 63),
       command=st.integers(0, len(COMMANDS) - 1))
@SWEEP
def test_an_edited_log_gives_the_clean_answer_or_exit_2_or_3(
        ledger, region, kind, at, bit, command):
    _, clean, _, regions, tip_at = ledger
    with open(os.path.join(clean, "chain.json"), "rb") as fh:
        log = fh.read()
    edited, pos = _edit_log(log, kind, *regions[region], at, bit)

    def edit(case):
        with open(os.path.join(case, "chain.json"), "wb") as fh:
            fh.write(edited)
    _check(ledger, edit, command, pos >= tip_at)


CERT_EDITS = {
    "length + 1": lambda c: c.update(length=c["length"] + 1),
    "length - 1": lambda c: c.update(length=c["length"] - 1),
    "sha256": lambda c: c.update(sha256=("0" if c["sha256"][0] != "0"
                                         else "1") + c["sha256"][1:]),
    "index": lambda c: c["block"].update(index=c["block"]["index"] - 1),
    "hash": lambda c: c["block"].update(hash="ab" * 32),
    "a later block": lambda c: c["block"].update(index=TAG),
}


@given(edit=st.sampled_from(sorted(CERT_EDITS)),
       command=st.integers(0, len(COMMANDS) - 1))
@SWEEP
def test_an_edited_certificate_gives_the_clean_answer_or_exit_3(
        ledger, edit, command):
    _check(ledger, lambda case: edit_checkpoint(
        case, lambda d: CERT_EDITS[edit](d["log"])), command, False)


@pytest.mark.parametrize("edit", sorted(CERT_EDITS))
def test_chain_verify_refuses_a_certificate_the_log_does_not_hold(
        ledger, edit, capsys):
    work, clean, answers, _, _ = ledger
    case = tempfile.mkdtemp(dir=work)
    shutil.copytree(clean, case, dirs_exist_ok=True)
    edit_checkpoint(case, lambda d: CERT_EDITS[edit](d["log"]))
    assert cli.main(["chain", "verify", "--state-dir", case]) == 3
    assert capsys.readouterr().err == (
        f"error: CorruptSnapshot: {case}/state.json certifies bytes that "
        f"{os.path.abspath(case)}/chain.json does not hold\n")
    # the digest takes the full path, and gives the clean answer
    assert _run(case, work, COMMANDS[0]) == answers["clean", 0]
    shutil.rmtree(case)


@pytest.mark.parametrize("region", ["before k", "k to the tag"])
def test_an_amount_edited_before_the_tag_is_a_hash_mismatch(
        ledger, region, capsys):
    """The CI smoke's case: every history reader names the block."""
    work, clean, answers, regions, _ = ledger
    case = tempfile.mkdtemp(dir=work)
    shutil.copytree(clean, case, dirs_exist_ok=True)
    path = os.path.join(case, "chain.json")
    with open(path, "rb") as fh:
        log = fh.read()
    edited, pos = _edit_log(log, "digit", *regions[region], 0, 0)
    with open(path, "wb") as fh:
        fh.write(edited)
    index = int(edited[:pos].rsplit(b'"index":', 1)[1].split(b",")[0])
    assert index < TAG
    for argv in COMMANDS[:2] + COMMANDS[3:5]:
        argv = [a.replace("{out}", os.path.join(work, "out.snap"))
                for a in argv]
        assert cli.main([*argv, "--state-dir", case]) == 3
        assert capsys.readouterr() == ("", f"error: HashMismatch: block "
                                       f"{index} does not match its hash\n")
    assert not os.path.exists(os.path.join(work, "out.snap"))
    assert _run(case, work, COMMANDS[5]) == answers["clean", 5]
    shutil.rmtree(case)
