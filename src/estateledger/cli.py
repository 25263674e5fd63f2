"""Command-line entry point.

Grammar: estate <noun> <verb> [args] --as <addr> [--value <n>]
[--timestamp <t>] [--state-dir <dir>] [--json], plus the top-level
`init` and `run` commands. Exit codes: 0 success, 2 parse error,
3 domain error, 4 authorization error.

Every mutating command executes as one block against the persisted
state directory; queries read the state without touching it.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import shlex
import shutil
import sys
import time

from .addresses import check_address
from .canonical import canonical_json_bytes, sha256_hex
from .errors import LedgerError, err
from .identity import parse_role
from .merkle import MerkleTree, read_proof, verify_proof
from .node import Node
from .persistence import (LedgerDir, _write_atomic, check_certificate,
                          check_sections, read_snapshot, write_snapshot)
from .records import to_json
from .storage import cid_digest, resolve_uri
from .tokens import check_token_id, fractional_of, swap_descriptor_digest


@functools.cache
def _help_width() -> int:
    """The width argparse gives a formatter, asked of the terminal once."""
    return shutil.get_terminal_size().columns - 2


class Parser(argparse.ArgumentParser):
    # argparse builds a formatter on every add_argument, to check its
    # metavar, and each would ask the terminal for its width
    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=_help_width())

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
# leaf arguments and its handler. table_parse reads a well-formed command
# line straight from COMMON and those arguments; what it declines goes to
# argparse, to which build_parser adds the same arguments, so that argparse
# words every refusal and help text. Each argument is (flag, add_argument
# kwargs). A list in place of the flag is a required mutually exclusive
# group of them. A mutating command's row, mutation(...), gives each its
# parse and op param.

REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}
EMPTY = {"default": ""}
REPEATABLE = {"action": "append", "default": []}
PROPERTY = ("--property", REQUIRED)
TO = ("--to", REQUIRED, check_address)
FROM = ("--from", {"dest": "from_addr", "required": True}, check_address)
ID = ("--id", REQUIRED, parse_token_id)
IDS = ("--ids", REQUIRED, parse_id_list)
AMOUNT = ("--amount", REQUIRED_INT)
AMOUNTS = ("--amounts", REQUIRED, parse_int_list)
RIGHT_ID = ("--right-id", REQUIRED, parse_token_id)
VERSION = ("--version", REQUIRED_INT, None, "versionId")
TAG = ("--tag", {"default": "base"}, None, "behaviorTag")

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


def command_key(argv):
    """The (noun, verb) key of the command the first words of `argv`
    name; None if they name none."""
    for key in ((argv[0], None), tuple(argv[:2])) if argv else ():
        if key in COMMANDS:
            return key
    return None


def build_parser(argv=None) -> Parser:
    """The argparse parser of `argv`, which parses what table_parse
    declines, words its refusal or prints its help, and is the reference
    table_parse is tested against: when the first words of `argv` name a
    command, that command's alone, with `noun` and `verb` as defaults;
    otherwise (no argv, root help, a bare noun, an unknown noun or verb, an
    option before the command) the whole tree, so help and error text list
    every choice."""
    key = command_key(argv)
    if key is not None:
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


@functools.cache
def _row_spec(key) -> tuple:
    """(flags, defaults, required, groups, positionals) of the command
    `key`, as its argparse parser holds them: flags maps each exact flag to
    its (dest, add_argument kwargs), required holds the dests of required
    flags, and groups the dests of each exclusive group."""
    flags, required, groups, positionals = {}, set(), [], []
    defaults = dict(zip(("noun", "verb"), filter(None, key)))

    def add(args) -> set:
        dests = set()
        for flag, kwargs in args:
            if isinstance(flag, list):  # a required exclusive group
                groups.append(add(flag))
                continue
            dest = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
            dests.add(dest)
            unset = False if kwargs.get("action") == "store_true" else None
            defaults[dest] = kwargs.get("default", unset)
            if not flag.startswith("-"):
                positionals.append(dest)
            else:
                flags[flag] = dest, kwargs
                if kwargs.get("required"):
                    required.add(dest)
        return dests
    add(COMMON + COMMANDS[key][0])
    return flags, defaults, required, groups, positionals


def table_parse(argv, **defaults):
    """The Namespace that build_parser(argv), with `defaults` set, parses
    a well-formed `argv` to, read straight from its command's row. None,
    for argparse to parse, for any other argv: no command, a flag that is
    not exact (an abbreviation, -h, --), a value that starts with "-" or
    fails its type or choices, a missing required flag, two flags of one
    group, or a positional too many or too few."""
    key = command_key(argv)
    if key is None:
        return None
    flags, values, required, groups, positionals = _row_spec(key)
    values, seen, rest = {**values, **defaults}, set(), []
    tokens = iter(argv[1 if key[1] is None else 2:])
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
            continue
        flag, explicit, value = token.partition("=")
        if flag not in flags:
            return None
        dest, kwargs = flags[flag]
        if kwargs.get("action") == "store_true":
            if explicit:
                return None
            value = True
        else:
            if not explicit:
                value = next(tokens, "-")  # "-": a last flag lacks its value
            if value.startswith("-"):
                return None
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value not in kwargs.get("choices", (value,)):
                return None
            if kwargs.get("action") == "append":
                value = values[dest] + [value]
        values[dest] = value
        seen.add(dest)
    if (len(rest) != len(positionals) or not required <= seen
            or any(len(dests & seen) != 1 for dests in groups)):
        return None
    values.update(zip(positionals, rest))
    return argparse.Namespace(**values)


def parse(argv, **defaults) -> argparse.Namespace:
    """`argv` parsed from the command table, or, when table_parse declines
    it, by build_parser's parser with `defaults` set, which also words a
    refusal or prints help."""
    args = table_parse(argv, **defaults)
    if args is None:
        parser = build_parser(argv)
        parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


# -- handlers ------------------------------------------------------------------
# Every handler is called as handler(args, ledger), `ledger` being the
# LedgerDir of --state-dir that an `estate run` script shares with its
# lines. A read's handler is query(read) over `ledger.node`, but for the
# two that write an --out file, which refuse one in the state dir before
# they load it; a mutating command's builds its op params, raising parse
# errors before --as is checked or the state is loaded, and hands them to
# commit. init, run and state import replace or lock the whole dir, so a
# script refuses them (SCRIPT_REFUSED), and a script line that gives
# --state-dir too.


def _timestamp(args) -> int:
    return args.timestamp if args.timestamp is not None else int(time.time())


def commit(args, ledger, operation: str, params: dict) -> dict:
    """Run `operation` with `params` as one block, saved to the state dir
    before this returns."""
    if not args.caller:
        raise err("ParseError", "this command needs --as <address>")
    with ledger.writing():
        result = ledger.node.execute(args.caller, operation, params,
                                     value=args.value,
                                     timestamp=_timestamp(args))
        ledger.commit()
    return result


def _field(flag, kwargs, parse=None, param=None) -> tuple:
    """(dest, op param, parse) of one argument of a mutation row."""
    words = flag[2:].split("-")
    return (kwargs.get("dest", "_".join(words)),
            param or words[0] + "".join(map(str.title, words[1:])), parse)


def mutation(operation: str, *arguments) -> tuple:
    """The row of a mutating command. Each argument is (flag, kwargs[,
    parse[, param]]): the op param `param`, by default the flag's words in
    camelCase, holds its value, through `parse` if given. The handler
    builds the params in order, then commits `operation`."""
    fields = [_field(*argument) for argument in arguments]

    def run(args, ledger) -> dict:
        params = {}
        for dest, param, parse in fields:
            value = getattr(args, dest)
            params[param] = value if parse is None else parse(value)
        return commit(args, ledger, operation, params)
    return [argument[:2] for argument in arguments], run


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


def _object_put(args, ledger) -> dict:
    if args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
    else:
        data = args.data.encode("utf-8")
    return commit(args, ledger, "putObject", {"dataHex": data.hex()})


def _swap_terms(args) -> tuple:
    return (check_address(args.party_a), parse_legs(args.legs_a),
            args.value_a, check_address(args.party_b),
            parse_legs(args.legs_b), args.value_b)


def _token_consent(args, ledger) -> dict:
    return commit(args, ledger, "consentSwap", {
        "property": args.property,
        "digest": swap_descriptor_digest(*_swap_terms(args))})


def _token_swap(args, ledger) -> dict:
    keys = ("partyA", "legsA", "valueA", "partyB", "legsB", "valueB")
    return commit(args, ledger, "atomicSwap", {
        "property": args.property, **dict(zip(keys, _swap_terms(args)))})


def _factory_init(args, ledger) -> dict:
    params = {"versionId": args.version, "behaviorTag": args.tag}
    for key in ("admin", "upgrader"):
        if getattr(args, key):
            params[key] = check_address(getattr(args, key))
    return commit(args, ledger, "initializeFactory", params)


def _outside(ledger, out: str) -> str:
    """`out`, refused unless it resolves outside the state dir, whose
    files a write there could replace: the log among them."""
    path, state = os.path.realpath(out), os.path.realpath(ledger.path)
    if os.path.commonpath((path, state)) == state:
        raise err("ParseError", f"--out {out} is in the state dir")
    return out


def _object_get(args, ledger) -> dict:
    out = args.out and _outside(ledger, args.out)
    data = ledger.node.state.store.get(args.cid)
    if out:  # renamed over `out`, so a link there is replaced, not written
        _write_atomic({out: data}, durable=False)
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
    node.state.store.read_all()  # an audit checks every object file too,
    check_sections(node)  # and every section file's bytes
    if not node.state.chain.verify():
        raise err("HashMismatch", "chain verification FAILED")
    check_certificate(node)  # and the bytes the manifest certifies
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


def _state_export(args, ledger) -> dict:
    write_snapshot(_outside(ledger, args.out), ledger.node)
    return {"out": args.out, "digest": ledger.node.full_digest()}


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
            "proof": to_json(proof)}


def _merkle_verify(args, _) -> dict:
    raw = args.proof
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:  # text that is not JSON, or nested past the parser's limit
        proof = read_proof(json.loads(raw))
    except (ValueError, RecursionError):
        raise err("ParseError", "proof is not valid proof JSON") from None
    return {"valid": verify_proof(parse_hex_digest(args.root),
                                  parse_hex_digest(args.leaf), proof)}


# state digest --scope: scope -> the digest of a node
DIGESTS = {
    "full": lambda node: node.full_digest(),
    "ledger": lambda node: node.ledger_digest(),
    "properties": lambda node: sha256_hex(canonical_json_bytes(
        node.state.state_dict(keys=("properties",))["properties"])),
}


# commands that replace or lock the whole state dir: a script refuses them
SCRIPT_REFUSED = {("init", None), ("run", None), ("state", "import")}


def _script_command(args, line: str):
    """The parsed command of one script line, bound to the default
    timestamp of the `estate run` command `args`."""
    try:
        tokens = shlex.split(line)
    except ValueError as exc:  # an unbalanced quote
        raise err("ParseError", str(exc))
    caller = None
    if tokens[0] == "as":
        if len(tokens) < 3:
            raise err("ParseError", "bare caller prefix")
        caller, tokens = tokens[1], tokens[2:]
    key = command_key(tokens)
    try:  # argparse's help prints usage and exits; a line may not
        with contextlib.redirect_stdout(io.StringIO()):
            # no default, so that a line giving --state-dir, in any prefix
            # of the flag, parses to a value
            sub = parse(tokens, state_dir=None)
    except SystemExit:
        raise err("ParseError", "a script line cannot ask for help") from None
    if sub.caller is None:  # an explicit --as wins over the prefix
        sub.caller = caller
    if key in SCRIPT_REFUSED:  # a line parses only by its command's parser
        raise err("ParseError",
                  f"{' '.join(filter(None, key))} cannot run inside a script")
    if sub.state_dir is not None:  # every line runs on the script's dir
        raise err("ParseError", "a script line cannot give --state-dir")
    if args.timestamp is not None and sub.timestamp is None:
        sub.timestamp = args.timestamp
    return sub


def run_script(args, ledger) -> dict:
    """Run each line of the script against one ledger, loaded once under
    one lock; a mutating line is committed, its block appended and
    fsynced, before the next line runs, so a failing line leaves the
    lines before it committed. The checkpoint is written once, as the
    hold ends."""
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
    ("stakeholder", "register"): mutation(
        "registerStakeholder", ("--role", REQUIRED),
        ("--key", REQUIRED, lambda key: parse_key(key).hex(), "publicKey"),
        ("--info-cid", EMPTY)),
    ("stakeholder", "remove"): mutation(
        "removeStakeholder", ("--target", REQUIRED, check_address)),
    ("stakeholder", "show"): ([("--address", REQUIRED)], query(
        lambda a, n: to_json(n.state.registry.get(a.address)))),
    ("stakeholder", "has-role"): (
        [("--address", REQUIRED), ("--role", REQUIRED)],
        query(lambda a, n: {"hasRole": n.state.registry.has_role(
            a.address, parse_role(a.role))})),
    ("object", "put"): ([([("--file", {}), ("--data", {})], REQUIRED)],
                        _object_put),
    ("object", "get"): ([("--cid", REQUIRED), ("--out", {})], _object_get),
    ("object", "metadata"): mutation(
        "buildRightMetadata", ("--name", REQUIRED, None, "nameOfRight"),
        ("--description", EMPTY),
        ("--doc", REPEATABLE, lambda docs: [parse_doc(d) for d in docs],
         "documents"),
        ("--extra", {}, lambda s: parse_json_object(s) if s else None)),
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
    ("property", "adddoc"): mutation(
        "registerDocument", PROPERTY, ("--cid", REQUIRED)),
    ("property", "approve"): mutation(
        "approvedProperty", PROPERTY,
        ("--parent-hash", REQUIRED, lambda h: parse_hex_digest(h).hex())),
    ("property", "mint"): mutation(
        "mintNFT", PROPERTY, ID, ("--price", REQUIRED_INT), ("--data", EMPTY)),
    ("property", "mint-batch"): mutation(
        "mintBatchNFTs", PROPERTY, IDS, AMOUNTS,
        ("--prices", REQUIRED, parse_int_list), ("--data", EMPTY)),
    ("property", "fractionalize"): mutation(
        "mintFractional", PROPERTY, RIGHT_ID, ("--units", REQUIRED_INT),
        ("--price-per-unit", REQUIRED_INT)),
    ("property", "transfer"): mutation(
        "transferNFT", PROPERTY, TO, ID, AMOUNT, ("--data", EMPTY)),
    ("property", "burn"): mutation("burnNFT", PROPERTY, FROM, ID, AMOUNT),
    ("property", "burn-batch"): mutation(
        "burnBatchNFTs", PROPERTY, FROM, IDS, AMOUNTS),
    ("property", "set-price"): mutation(
        "setPrice", PROPERTY, ID, ("--price-per-unit", REQUIRED_INT)),
    ("property", "distribute"): mutation(
        "distributeEarnings", PROPERTY, RIGHT_ID, ("--total", REQUIRED_INT)),
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
    ("token", "approve"): mutation(
        "setApprovalForAll", PROPERTY,
        ("--operator", REQUIRED, check_address),
        ("--approved", REQUIRED, parse_bool)),
    ("token", "transfer"): mutation(
        "safeTransferBatch", PROPERTY, FROM, TO, IDS, AMOUNTS),
    ("token", "consent"): (SWAP_ARGS, _token_consent),
    ("token", "swap"): (SWAP_ARGS, _token_swap),
    ("factory", "init"): (
        [VERSION[:2], TAG[:2], ("--admin", {}), ("--upgrader", {})],
        _factory_init),
    ("factory", "deploy"): mutation(
        "deployProperty", ("--treasury", REQUIRED, check_address),
        ("--upgrader", REQUIRED, check_address),
        ("--admin", REQUIRED, check_address), ("--uri", REQUIRED),
        ("--name", EMPTY, None, "contractName"), ("--description", EMPTY)),
    ("factory", "pause"): mutation("pause"),
    ("factory", "unpause"): mutation("unpause"),
    ("factory", "upgrade"): mutation("authorizeUpgrade", VERSION, TAG),
    ("factory", "info"): ([], query(lambda a, n: to_json(n.state.factory))),
    ("factory", "proxy-length"): ([], query(lambda a, n: {
        "proxyLength": n.state.factory.proxy_length()})),
    ("chain", "verify"): ([], query(_chain_verify)),
    ("chain", "show"): ([("--index", {"type": int})], query(_chain_show)),
    ("chain", "replay"): ([], query(_chain_replay)),
    ("chain", "faucet"): mutation("faucet", TO, AMOUNT),
    ("chain", "transfer"): mutation("transferNative", TO, AMOUNT),
    ("chain", "balance"): ([("--address", REQUIRED)], query(lambda a, n: {
        "address": a.address, "balance": n.state.native.balance(a.address)})),
    ("state", "digest"): (
        [("--scope", {"choices": tuple(DIGESTS), "default": "full"})],
        query(lambda a, n: {"scope": a.scope,
                            "digest": DIGESTS[a.scope](n)})),
    ("state", "export"): ([("--out", REQUIRED)], _state_export),
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
        args = parse(argv)
        result = dispatch(args, LedgerDir(args.state_dir))
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 3)
    print(format_result(result, getattr(args, "as_json", False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
