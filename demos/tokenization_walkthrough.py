"""Walk a property from registration to earnings, one CLI call at a time.

Runs the full lifecycle against a throwaway state directory: bootstrap
the ledger, register stakeholders, fund them, deploy a property, attach
documents, approve against the document root, mint the ownership right,
fractionalize it, sell units, and distribute rental earnings. Every
command shown here works verbatim in a shell with the `estate` entry
point installed.

Run with: python3 demos/tokenization_walkthrough.py
"""

import atexit
import contextlib
import io
import json
import shlex
import shutil
import sys
import tempfile

from estateledger import cli
from estateledger.addresses import derive_address

STATE = tempfile.mkdtemp(prefix="estate-demo-")
atexit.register(shutil.rmtree, STATE, ignore_errors=True)
ADMIN = derive_address(b"demo-admin")
SELLER = derive_address(b"demo-seller")
BUYER = derive_address(b"demo-buyer")
TREASURY = "0x" + "00" * 19 + "fe"


def estate(command: str, quiet: bool = False) -> dict:
    """Run one CLI command in-process and return its JSON result."""
    argv = shlex.split(command) + ["--state-dir", STATE, "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        print(f"  command failed with exit code {rc}", file=sys.stderr)
        sys.exit(rc)
    result = json.loads(out.getvalue())
    if not quiet:
        print(f"$ estate {command}")
        for key in sorted(result):
            print(f"    {key}: {result[key]}")
    return result


def heading(text: str):
    print()
    print(f"== {text} ==")


heading("bootstrap: genesis block plus the first administrator")
estate("init --admin-key demo-admin --timestamp 1")

heading("register the marketplace participants")
estate(f"stakeholder register --role Seller --key demo-seller "
       f"--as {ADMIN} --timestamp 2")
estate(f"stakeholder register --role Buyer --key demo-buyer "
       f"--as {ADMIN} --timestamp 3")

heading("fund them with native coins")
estate(f"chain faucet --to {SELLER} --amount 5000 --as {ADMIN} --timestamp 4")
estate(f"chain faucet --to {BUYER} --amount 3000 --as {ADMIN} --timestamp 5")

heading("stand up the factory and deploy a property")
estate(f"factory init --version 1 --as {ADMIN} --timestamp 6")
deployed = estate(
    f"factory deploy --treasury {TREASURY} --upgrader {ADMIN} "
    f"--admin {SELLER} --uri ipfs://title/{{id}}.json "
    f"--name 'Harbor View 7' --as {SELLER} --timestamp 7")
PROP = deployed["address"]

heading("attach the title documents and approve against their root")
deed = estate(f"object put --data 'deed of Harbor View 7' "
              f"--as {SELLER} --timestamp 8")
estate(f"property adddoc --property {PROP} --cid {deed['cid']} "
       f"--as {SELLER} --timestamp 9")
survey = estate(f"object put --data 'land survey, Harbor View 7' "
                f"--as {SELLER} --timestamp 10")
estate(f"property adddoc --property {PROP} --cid {survey['cid']} "
       f"--as {SELLER} --timestamp 11")
root = estate(f"merkle root --property {PROP}")["root"]
estate(f"property approve --property {PROP} --parent-hash {root} "
       f"--as {ADMIN} --timestamp 12")

heading("mint the ownership right, then split it into 1000 units")
estate(f"property mint --property {PROP} --id 1 --price 1200 "
       f"--as {SELLER} --value 1200 --timestamp 13")
estate(f"property fractionalize --property {PROP} --right-id 1 "
       f"--units 1000 --price-per-unit 4 --as {SELLER} --timestamp 14")

heading("the buyer purchases 250 units at the listed price")
estate(f"property transfer --property {PROP} --to {BUYER} --id frac:1 "
       f"--amount 250 --value 1000 --as {BUYER} --timestamp 15")

heading("distribute 2001 in rental earnings pro rata")
dist = estate(f"property distribute --property {PROP} --right-id 1 "
              f"--total 2001 --value 2001 --as {SELLER} --timestamp 16")

heading("audit: balances, chain verification, full replay")
for who, addr in [("seller", SELLER), ("buyer", BUYER),
                  ("treasury", TREASURY)]:
    bal = estate(f"chain balance --address {addr}", quiet=True)["balance"]
    print(f"    {who:8} {bal}")
estate("chain verify")
estate("chain replay")
