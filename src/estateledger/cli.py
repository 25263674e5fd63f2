"""Command-line entry point.

Grammar: estate <noun> <verb> [args] --as <addr> [--value <n>]
[--timestamp <t>] [--state-dir <dir>] [--json], plus the top-level
`init` and `run` commands. Exit codes: 0 success, 2 parse error,
3 domain error, 4 authorization error.

Every mutating command executes as one block against the persisted
state directory; queries read the state without touching it.
"""

import argparse
import json
import os
import shlex
import sys
import time

from .addresses import check_address
from .canonical import canonical_json_bytes
from .errors import LedgerError, err
from .identity import parse_role
from .merkle import MerkleProof, MerkleTree, verify_proof
from .node import Node
from .persistence import LedgerDir, read_snapshot, write_snapshot
from .records import to_json
from .storage import cid_digest, resolve_uri
from .tokens import check_token_id, fractional_of, swap_descriptor_digest


class Parser(argparse.ArgumentParser):
    def parse_args(self, argv):
        # a command's own parser skips the command words its prog names
        return super().parse_args(argv[self.prog.count(" "):])

    # argparse exits the process on error; we want an exit code instead
    def error(self, message):
        raise err("ParseError", message)


def parse_key(s: str) -> bytes:
    if s.startswith("hex:"):
        try:
            return bytes.fromhex(s[4:])
        except ValueError:
            raise err("ParseError", f"bad hex key {s!r}")
    return s.encode("utf-8")


def parse_token_id(s: str) -> int:
    if s.startswith("frac:"):
        return fractional_of(parse_token_id(s[5:]))
    try:
        return int(s, 16) if s.startswith("0x") else int(s)
    except ValueError:
        raise err("ParseError", f"bad token id {s!r}")


def parse_id_list(s: str) -> list:
    return [parse_token_id(part) for part in s.split(",")] if s else []

def parse_int_list(s: str) -> list:
    try:
        return [int(part) for part in s.split(",")] if s else []
    except ValueError:
        raise err("ParseError", f"bad integer list {s!r}")


def parse_legs(s: str) -> list:
    # "id:amount,id:amount"; ids may themselves contain colons (frac:R)
    legs = []
    if not s:
        return legs
    for part in s.split(","):
        token, sep, amount = part.rpartition(":")
        if not sep:
            raise err("ParseError", f"leg {part!r} is not id:amount")
        try:
            legs.append([parse_token_id(token), int(amount)])
        except ValueError:
            raise err("ParseError", f"bad leg amount in {part!r}")
    return legs


def parse_hex_digest(s: str) -> bytes:
    try:
        digest = bytes.fromhex(s)
    except ValueError:
        raise err("ParseError", f"not hex: {s!r}")
    if len(digest) != 32:
        raise err("ParseError", "digests are 32 bytes")
    return digest


def parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise err("ParseError", f"expected true or false, got {s!r}")


def parse_doc(s: str) -> dict:
    # cid|name|description, trailing parts optional
    parts = s.split("|")
    return {"link": parts[0],
            "name": parts[1] if len(parts) > 1 else "",
            "description": parts[2] if len(parts) > 2 else ""}


def parse_json_object(s: str) -> dict:
    try:
        value = json.loads(s)
    except (ValueError, RecursionError) as exc:  # or nested past the limit
        raise err("ParseError", f"bad JSON {s!r:.60}: {exc}")
    if not isinstance(value, dict):
        raise err("ParseError", f"expected a JSON object, got {s!r}")
    return value


# -- leaf arguments ------------------------------------------------------------
# COMMANDS, at the end of this module, maps each (noun, verb) pair to its
# leaf arguments, which build_parser adds after COMMON to that command's
# parser, and its handler. Each argument is (flag, add_argument kwargs). A
# list in place of the flag is a required mutually exclusive group of them.

REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}
EMPTY = {"default": ""}
REPEATABLE = {"action": "append", "default": []}
FROM_ADDR = {"dest": "from_addr", "required": True}
PROPERTY = ("--property", REQUIRED)

COMMON = [
    ("--state-dir", {"default": "estate-state"}),
    ("--as", {"dest": "caller"}),
    ("--value", {"type": int, "default": 0}),
    ("--timestamp", {"type": int}),
    ("--json", {"action": "store_true", "dest": "as_json"}),
]

SWAP_ARGS = [
    PROPERTY, ("--party-a", REQUIRED),
    ("--party-b", REQUIRED), ("--legs-a", EMPTY), ("--legs-b", EMPTY),
    ("--value-a", {"type": int, "default": 0}),
    ("--value-b", {"type": int, "default": 0}),
]


def _add_args(parser, args):
    for flag, kwargs in args:
        if isinstance(flag, list):
            _add_args(parser.add_mutually_exclusive_group(**kwargs), flag)
        else:
            parser.add_argument(flag, **kwargs)


def build_parser(argv=None) -> Parser:
    """The parser of `argv`: when its first words name a command, that
    command's alone, with `noun` and `verb` as defaults; otherwise (no argv,
    root help, a bare noun, an unknown noun or verb, an option before the
    command) the whole tree, so help and error text list every choice."""
    for key in ((argv[0], None), tuple(argv[:2])) if argv else ():
        if key in COMMANDS:
            words = [word for word in key if word]
            leaf = Parser(prog=" ".join(["estate"] + words))
            leaf.set_defaults(**dict(zip(("noun", "verb"), words)))
            _add_args(leaf, COMMON + COMMANDS[key][0])
            return leaf
    root = Parser(prog="estate", description=__doc__)
    nouns = root.add_subparsers(dest="noun", required=True)
    verbs = {}
    for (noun, verb), (args, _) in COMMANDS.items():
        if verb is None:
            leaf = nouns.add_parser(noun)
        else:
            if noun not in verbs:
                verbs[noun] = nouns.add_parser(noun).add_subparsers(
                    dest="verb", required=True)
            leaf = verbs[noun].add_parser(verb)
        _add_args(leaf, COMMON + args)
    return root


# -- handlers ------------------------------------------------------------------
# Every handler is called as handler(args, ledger), `ledger` being the
# LedgerDir of --state-dir that an `estate run` script shares with its
# lines. A read's handler is query(read) over `ledger.node`; a mutating
# command's is mutation(operation, build_params), which commits under
# `ledger.writing()`. init, run and state import replace or lock the
# whole dir, so a script refuses them (SCRIPT_REFUSED). Params builders
# check address arguments and raise parse errors before --as is checked
# or the state is loaded.


def _timestamp(args) -> int:
    return args.timestamp if args.timestamp is not None else int(time.time())


def mutation(operation: str, build_params):
    """The handler of a mutating command: `operation` with the params
    `build_params(args)` runs as one block and is saved to the state dir
    before the handler returns."""
    def run(args, ledger) -> dict:
        params = build_params(args)
        if not args.caller:
            raise err("ParseError", "this command needs --as <address>")
        with ledger.writing():
            result = ledger.node.execute(args.caller, operation, params,
                                         value=args.value,
                                         timestamp=_timestamp(args))
            ledger.commit()
        return result
    return run


def query(read):
    """The handler of a read: `read(args, node)` over the ledger."""
    return lambda args, ledger: read(args, ledger.node)


def _leaves_from_args(args, ledger) -> list:
    leaves = [parse_hex_digest(h) for h in args.leaf]
    leaves.extend(cid_digest(c) for c in args.cid)
    if getattr(args, "property", None):
        prop = ledger.node.state.property_at(args.property)
        leaves.extend(cid_digest(c) for c in prop.documents)
    return leaves


def _object_put_params(args) -> dict:
    if args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
    else:
        data = args.data.encode("utf-8")
    return {"dataHex": data.hex()}


def _swap_terms(args) -> tuple:
    return (check_address(args.party_a), parse_legs(args.legs_a),
            args.value_a, check_address(args.party_b),
            parse_legs(args.legs_b), args.value_b)


SWAP_KEYS = ("partyA", "legsA", "valueA", "partyB", "legsB", "valueB")


def _factory_init_params(args) -> dict:
    params = {"versionId": args.version, "behaviorTag": args.tag}
    for key in ("admin", "upgrader"):
        if getattr(args, key):
            params[key] = check_address(getattr(args, key))
    return params


def _object_get(args, node) -> dict:
    data = node.state.store.get(args.cid)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        return {"cid": args.cid, "bytes": len(data), "out": args.out}
    try:
        return {"cid": args.cid, "text": data.decode("utf-8")}
    except UnicodeDecodeError:
        return {"cid": args.cid, "hex": data.hex()}


def _token_balance(args, node) -> dict:
    prop = node.state.property_at(args.property)
    ids = parse_id_list(args.id)
    amounts = prop.tokens.balance_of_batch([args.owner] * len(ids), ids)
    return {"balances": dict(zip(map(str, ids), amounts))}


def _chain_verify(args, node) -> dict:
    node.state.store.read_all()  # an audit checks every object file too
    if not node.state.chain.verify():
        raise err("HashMismatch", "chain verification FAILED")
    return {"chain": "OK", "blocks": len(node.state.chain.blocks)}


def _chain_show(args, node) -> dict:
    if args.index is None:
        return node.state.chain.to_dict()
    blocks = node.state.chain.blocks
    if not 0 <= args.index < len(blocks):
        raise err("IndexOutOfRange", f"block {args.index} of {len(blocks)}")
    return blocks[args.index].to_dict()


def _chain_replay(args, node) -> dict:
    digest = node.full_digest()
    if node.replay().full_digest() != digest:
        raise err("HashMismatch", "replayed state digest does not match")
    return {"replay": "OK", "digest": digest}


def _state_export(args, node) -> dict:
    write_snapshot(args.out, node)
    return {"out": args.out, "digest": node.full_digest()}


def _init(args, ledger) -> dict:
    node = Node()
    if args.allowlist:
        node.state.config["allowlist"] = os.path.abspath(args.allowlist)
    with ledger.writing(create=True):
        admin = node.init_genesis(parse_key(args.admin_key),
                                  args.info_cid, _timestamp(args))
        ledger.commit(node)
    return {"admin": admin, "genesis": node.state.chain.blocks[0].hash.hex()}


def _state_import(args, ledger) -> dict:
    with ledger.writing(create=True, overwrite=args.force):
        node = read_snapshot(args.infile)
        ledger.commit(node)
    return {"imported": args.infile, "digest": node.full_digest()}


def _merkle_prove(args, ledger) -> dict:
    tree = MerkleTree(_leaves_from_args(args, ledger))
    proof = tree.prove(args.index)
    return {"leaf": tree.leaves[args.index].hex(), "root": tree.root.hex(),
            "proof": proof.to_dict()}


def _merkle_verify(args, _) -> dict:
    raw = args.proof
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        proof = MerkleProof.from_dict(json.loads(raw))
    except (ValueError, KeyError, TypeError, RecursionError):
        raise err("ParseError", "proof is not valid proof JSON")
    return {"valid": verify_proof(parse_hex_digest(args.root),
                                  parse_hex_digest(args.leaf), proof)}


# commands that replace or lock the whole state dir: a script refuses them
SCRIPT_REFUSED = {("init", None), ("run", None), ("state", "import")}


def _script_command(args, line: str):
    """The parsed command of one script line, bound to the default
    timestamp of the `estate run` command `args`."""
    try:
        tokens = shlex.split(line)
    except ValueError as exc:  # an unbalanced quote
        raise err("ParseError", str(exc))
    if tokens[0] == "as":
        if len(tokens) < 3:
            raise err("ParseError", "bare caller prefix")
        caller, tokens = tokens[1], tokens[2:]
        if "--as" not in tokens:
            tokens += ["--as", caller]
    sub = build_parser(tokens).parse_args(tokens)
    key = (sub.noun, getattr(sub, "verb", None))
    if key in SCRIPT_REFUSED:
        raise err("ParseError",
                  f"{' '.join(filter(None, key))} cannot run inside a script")
    if args.timestamp is not None and sub.timestamp is None:
        sub.timestamp = args.timestamp
    return sub


def run_script(args, ledger) -> dict:
    """Run each line of the script against one ledger, loaded once under
    one lock; a mutating line is saved before the next line runs, so a
    failing line leaves the lines before it committed."""
    with open(args.script, "r", encoding="utf-8") as fh:
        # text mode has already turned \r\n and \r into \n; str.splitlines
        # would also break at \x0c, \x85 and U+2028
        lines = fh.read().split("\n")
    executed = 0
    with ledger.writing():
        node = ledger.node
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                dispatch(_script_command(args, line), ledger)
            except LedgerError as exc:
                raise LedgerError(exc.code, f"line {lineno}: {exc.message}")
            executed += 1
    return {"script": args.script, "commands": executed,
            "digest": node.full_digest()}


# -- the command table: (noun, verb) -> (leaf arguments, handler) -------------
# Nouns and verbs appear in help and error text in the table's order.

COMMANDS = {
    ("init", None): ([("--admin-key", REQUIRED), ("--info-cid", EMPTY),
                      ("--allowlist", {})], _init),
    ("run", None): ([("script", {})], run_script),
    ("stakeholder", "register"): (
        [("--role", REQUIRED), ("--key", REQUIRED), ("--info-cid", EMPTY)],
        mutation("registerStakeholder", lambda a: {
            "role": a.role, "publicKey": parse_key(a.key).hex(),
            "infoCid": a.info_cid})),
    ("stakeholder", "remove"): ([("--target", REQUIRED)], mutation(
        "removeStakeholder", lambda a: {"target": check_address(a.target)})),
    ("stakeholder", "show"): ([("--address", REQUIRED)], query(
        lambda a, n: to_json(n.state.registry.get(a.address)))),
    ("stakeholder", "has-role"): (
        [("--address", REQUIRED), ("--role", REQUIRED)],
        query(lambda a, n: {"hasRole": n.state.registry.has_role(
            a.address, parse_role(a.role))})),
    ("object", "put"): ([([("--file", {}), ("--data", {})], REQUIRED)],
                        mutation("putObject", _object_put_params)),
    ("object", "get"): ([("--cid", REQUIRED), ("--out", {})],
                        query(_object_get)),
    ("object", "metadata"): (
        [("--name", REQUIRED), ("--description", EMPTY),
         ("--doc", REPEATABLE), ("--extra", {})],
        mutation("buildRightMetadata", lambda a: {
            "nameOfRight": a.name, "description": a.description,
            "documents": [parse_doc(d) for d in a.doc],
            "extra": parse_json_object(a.extra) if a.extra else None})),
    ("object", "resolve"): (
        [("--base-uri", REQUIRED), ("--id", REQUIRED)],
        lambda a, _: {"uri": resolve_uri(
            a.base_uri, check_token_id(parse_token_id(a.id)))}),
    ("merkle", "root"): (
        [("--leaf", REPEATABLE), ("--cid", REPEATABLE), ("--property", {})],
        lambda a, ledger: {
            "root": MerkleTree(_leaves_from_args(a, ledger)).root.hex()}),
    ("merkle", "prove"): ([("--index", REQUIRED_INT), ("--leaf", REPEATABLE),
                           ("--cid", REPEATABLE), ("--property", {})],
                          _merkle_prove),
    ("merkle", "verify"): ([("--root", REQUIRED), ("--leaf", REQUIRED),
                            ("--proof", REQUIRED)], _merkle_verify),
    ("property", "adddoc"): ([PROPERTY, ("--cid", REQUIRED)], mutation(
        "registerDocument",
        lambda a: {"property": a.property, "cid": a.cid})),
    ("property", "approve"): (
        [PROPERTY, ("--parent-hash", REQUIRED)],
        mutation("approvedProperty", lambda a: {
            "property": a.property,
            "parentHash": parse_hex_digest(a.parent_hash).hex()})),
    ("property", "mint"): (
        [PROPERTY, ("--id", REQUIRED), ("--price", REQUIRED_INT),
         ("--data", EMPTY)],
        mutation("mintNFT", lambda a: {
            "property": a.property, "id": parse_token_id(a.id),
            "data": a.data, "price": a.price})),
    ("property", "mint-batch"): (
        [PROPERTY, ("--ids", REQUIRED), ("--amounts", REQUIRED),
         ("--prices", REQUIRED), ("--data", EMPTY)],
        mutation("mintBatchNFTs", lambda a: {
            "property": a.property, "ids": parse_id_list(a.ids),
            "amounts": parse_int_list(a.amounts), "data": a.data,
            "prices": parse_int_list(a.prices)})),
    ("property", "fractionalize"): (
        [PROPERTY, ("--right-id", REQUIRED), ("--units", REQUIRED_INT),
         ("--price-per-unit", REQUIRED_INT)],
        mutation("mintFractional", lambda a: {
            "property": a.property, "rightId": parse_token_id(a.right_id),
            "units": a.units, "pricePerUnit": a.price_per_unit})),
    ("property", "transfer"): (
        [PROPERTY, ("--to", REQUIRED), ("--id", REQUIRED),
         ("--amount", REQUIRED_INT), ("--data", EMPTY)],
        mutation("transferNFT", lambda a: {
            "property": a.property, "to": check_address(a.to),
            "id": parse_token_id(a.id), "amount": a.amount,
            "data": a.data})),
    ("property", "burn"): (
        [PROPERTY, ("--from", FROM_ADDR), ("--id", REQUIRED),
         ("--amount", REQUIRED_INT)],
        mutation("burnNFT", lambda a: {
            "property": a.property, "from": check_address(a.from_addr),
            "id": parse_token_id(a.id), "amount": a.amount})),
    ("property", "burn-batch"): (
        [PROPERTY, ("--from", FROM_ADDR), ("--ids", REQUIRED),
         ("--amounts", REQUIRED)],
        mutation("burnBatchNFTs", lambda a: {
            "property": a.property, "from": check_address(a.from_addr),
            "ids": parse_id_list(a.ids),
            "amounts": parse_int_list(a.amounts)})),
    ("property", "set-price"): (
        [PROPERTY, ("--id", REQUIRED), ("--price-per-unit", REQUIRED_INT)],
        mutation("setPrice", lambda a: {
            "property": a.property, "id": parse_token_id(a.id),
            "pricePerUnit": a.price_per_unit})),
    ("property", "distribute"): (
        [PROPERTY, ("--right-id", REQUIRED), ("--total", REQUIRED_INT)],
        mutation("distributeEarnings", lambda a: {
            "property": a.property, "rightId": parse_token_id(a.right_id),
            "total": a.total})),
    ("property", "info"): ([PROPERTY], query(
        lambda a, n: to_json(n.state.property_at(a.property)))),
    ("property", "id"): ([PROPERTY], query(lambda a, n: {
        "propertyId": n.state.property_at(a.property).property_id})),
    ("property", "supply"): ([PROPERTY, ("--id", REQUIRED)], query(
        lambda a, n: {"supply": n.state.property_at(a.property)
                      .total_supply(parse_token_id(a.id))})),
    ("property", "exists"): ([PROPERTY, ("--id", REQUIRED)], query(
        lambda a, n: {"exists": n.state.property_at(a.property)
                      .exists(parse_token_id(a.id))})),
    ("property", "uri"): ([PROPERTY, ("--id", REQUIRED)], query(
        lambda a, n: {"uri": n.state.property_at(a.property)
                      .uri_of(parse_token_id(a.id))})),
    ("token", "balance"): (
        [PROPERTY, ("--owner", REQUIRED), ("--id", REQUIRED)],
        query(_token_balance)),
    ("token", "approve"): (
        [PROPERTY, ("--operator", REQUIRED), ("--approved", REQUIRED)],
        mutation("setApprovalForAll", lambda a: {
            "property": a.property, "operator": check_address(a.operator),
            "approved": parse_bool(a.approved)})),
    ("token", "transfer"): (
        [PROPERTY, ("--from", FROM_ADDR), ("--to", REQUIRED),
         ("--ids", REQUIRED), ("--amounts", REQUIRED)],
        mutation("safeTransferBatch", lambda a: {
            "property": a.property, "from": check_address(a.from_addr),
            "to": check_address(a.to), "ids": parse_id_list(a.ids),
            "amounts": parse_int_list(a.amounts)})),
    ("token", "consent"): (SWAP_ARGS, mutation("consentSwap", lambda a: {
        "property": a.property,
        "digest": swap_descriptor_digest(*_swap_terms(a))})),
    ("token", "swap"): (SWAP_ARGS, mutation("atomicSwap", lambda a: {
        "property": a.property, **dict(zip(SWAP_KEYS, _swap_terms(a)))})),
    ("factory", "init"): (
        [("--version", REQUIRED_INT), ("--tag", {"default": "base"}),
         ("--admin", {}), ("--upgrader", {})],
        mutation("initializeFactory", _factory_init_params)),
    ("factory", "deploy"): (
        [("--treasury", REQUIRED), ("--upgrader", REQUIRED),
         ("--admin", REQUIRED), ("--uri", REQUIRED), ("--name", EMPTY),
         ("--description", EMPTY)],
        mutation("deployProperty", lambda a: {
            "treasury": check_address(a.treasury),
            "upgrader": check_address(a.upgrader),
            "admin": check_address(a.admin), "uri": a.uri,
            "contractName": a.name, "description": a.description})),
    ("factory", "pause"): ([], mutation("pause", lambda a: {})),
    ("factory", "unpause"): ([], mutation("unpause", lambda a: {})),
    ("factory", "upgrade"): (
        [("--version", REQUIRED_INT), ("--tag", {"default": "base"})],
        mutation("authorizeUpgrade", lambda a: {
            "versionId": a.version, "behaviorTag": a.tag})),
    ("factory", "info"): ([], query(lambda a, n: to_json(n.state.factory))),
    ("factory", "proxy-length"): ([], query(lambda a, n: {
        "proxyLength": n.state.factory.proxy_length()})),
    ("chain", "verify"): ([], query(_chain_verify)),
    ("chain", "show"): ([("--index", {"type": int})], query(_chain_show)),
    ("chain", "replay"): ([], query(_chain_replay)),
    ("chain", "faucet"): (
        [("--to", REQUIRED), ("--amount", REQUIRED_INT)],
        mutation("faucet", lambda a: {
            "to": check_address(a.to), "amount": a.amount})),
    ("chain", "transfer"): (
        [("--to", REQUIRED), ("--amount", REQUIRED_INT)],
        mutation("transferNative", lambda a: {
            "to": check_address(a.to), "amount": a.amount})),
    ("chain", "balance"): ([("--address", REQUIRED)], query(lambda a, n: {
        "address": a.address, "balance": n.state.native.balance(a.address)})),
    ("state", "digest"): (
        [("--scope", {"choices": ("full", "ledger", "properties"),
                      "default": "full"})],
        query(lambda a, n: {"scope": a.scope,
                            "digest": getattr(n, f"{a.scope}_digest")()})),
    ("state", "export"): ([("--out", REQUIRED)], query(_state_export)),
    ("state", "import"): ([("--in", {"dest": "infile", "required": True}),
                           ("--force", {"action": "store_true"})],
                          _state_import),
    ("state", "show"): ([], query(lambda a, n: n.state.state_dict())),
}


def dispatch(args, ledger: LedgerDir) -> dict:
    """Run the command `args` names on `ledger`. A file may be missing,
    unreadable or not UTF-8, or a write fail naming no file; converting
    here gives script lines their "line N:" prefix too."""
    try:
        return COMMANDS[args.noun, getattr(args, "verb", None)][1](
            args, ledger)
    except UnicodeError as exc:
        raise err("ParseError", str(exc)) from exc
    except OSError as exc:
        if exc.filename is None:
            raise err("IOError", exc.strerror or str(exc)) from exc
        raise err("NotFound", f"{exc.filename}: {exc.strerror}") from exc


def format_result(result: dict, as_json: bool) -> str:
    if as_json:
        return canonical_json_bytes(result).decode("utf-8")
    lines = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, (dict, list)):
            value = canonical_json_bytes(value).decode("utf-8")
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


EXIT_CODES = {"ParseError": 2, "NotAuthorized": 4}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            for arg in argv:  # argv bytes that are not UTF-8 hold surrogates
                arg.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise err("ParseError", str(exc)) from exc
        args = build_parser(argv).parse_args(argv)
        result = dispatch(args, LedgerDir(args.state_dir))
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 3)
    print(format_result(result, getattr(args, "as_json", False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
