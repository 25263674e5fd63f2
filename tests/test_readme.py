"""The README quick tour, run verbatim through ``cli.main``.

Shell variables are bound from the outputs of earlier commands
(``$ADMIN`` from ``init``, ``$SELLER``/``$BUYER`` from ``stakeholder
register``, ``$PROP`` from ``factory deploy``, ``$CID`` from ``object
put``, ``$ROOT`` from ``merkle root``); ``$TREASURY`` is any address.
Every command must exit 0, and every ``# -> key: prefix...`` comment
must match the output of the command above it.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from estateledger import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TREASURY = "0x" + "00" * 19 + "fe"


def quick_tour_lines() -> list:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick tour", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


def bind(env: dict, argv: list, out: dict):
    verb = tuple(argv[:2])
    if argv[0] == "init":
        env["ADMIN"] = out["admin"]
    elif verb == ("stakeholder", "register"):
        env[argv[argv.index("--role") + 1].upper()] = out["address"]
    elif verb == ("factory", "deploy"):
        env["PROP"] = out["address"]
    elif verb == ("object", "put"):
        env["CID"] = out["cid"]
    elif verb == ("merkle", "root"):
        env["ROOT"] = out["root"]


def test_readme_quick_tour_runs_verbatim(tmp_path):
    state_dir = str(tmp_path / "estate-state")
    env = {"TREASURY": TREASURY}
    out = None
    ran = 0
    for line in quick_tour_lines():
        line = line.strip()
        expected = re.findall(r"(\w+): (\w+)\.\.\.", line)
        if line.startswith("# ->"):
            for key, prefix in expected:
                assert str(out[key]).startswith(prefix), line
            continue
        if not line or line.startswith("#") or re.match(r"[A-Z]+=", line):
            continue
        for command in line.split("&&"):
            command = re.sub(r"\$([A-Z]+)", lambda m: env[m.group(1)],
                             command.strip())
            argv = shlex.split(command)
            assert argv[0] == "estate", command
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv[1:] + ["--state-dir", state_dir, "--json"])
            assert rc == 0, command
            out = json.loads(stdout.getvalue())
            bind(env, argv[1:], out)
            ran += 1
    assert ran == 17
    assert out["replay"] == "OK"
