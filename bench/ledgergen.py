"""Seeded op generator with an expected-outcome model of the ledger.

The model follows the rules the README states, not the package's code:
addresses, proxy addresses, merkle roots, proofs and swap digests are
recomputed here with hashlib and json, and every coin and fractional
unit the program should hold is tracked with plain dicts. Each
generated op carries the outcome the model expects, ``None`` for
success or the error code the program must raise, so the program
receives only the generated inputs and its outputs are checked against
a second implementation.

Sizes are fixed per preset; the seed only chooses who trades what, so
every seed yields the same op counts, the same chain lengths and the
same share of expected rejections.
"""

import hashlib
import json
import random
import shlex
from dataclasses import dataclass, field

T0 = 1_700_000_000
FRAC_FLAG = 1 << 255
RIGHT_ID = 1  # every property mints right 1 and fractionalizes it
FRAC_ID = RIGHT_ID | FRAC_FLAG


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def address_of(key: bytes) -> str:
    return "0x" + _sha(key)[:20].hex()


FACTORY_ADDRESS = "0x" + _sha(b"estate-factory")[:20].hex()


def proxy_address(index: int) -> str:
    raw = bytes.fromhex(FACTORY_ADDRESS[2:]) + index.to_bytes(8, "big")
    return "0x" + _sha(raw)[:20].hex()


def cid_of(data: bytes) -> str:
    return "cidv0-sha256:" + hashlib.sha256(data).hexdigest()


def _merkle_levels(leaves: list) -> list:
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        nxt = [_sha(level[i] + level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])  # odd trailing node is promoted
        levels.append(nxt)
    return levels


def merkle_root(cids: list) -> bytes:
    return _merkle_levels([bytes.fromhex(c.split(":")[1]) for c in cids])[-1][0]


def merkle_proof(cids: list, index: int) -> dict:
    levels = _merkle_levels([bytes.fromhex(c.split(":")[1]) for c in cids])
    steps, j = [], index
    for level in levels[:-1]:
        sib = j ^ 1
        if sib < len(level):
            steps.append({"digest": level[sib].hex(),
                          "side": "left" if sib < j else "right"})
        j //= 2
    return {"leafIndex": index, "siblings": steps}


def swap_digest(party_a, legs_a, value_a, party_b, legs_b, value_b) -> str:
    return hashlib.sha256(canonical({
        "legsA": legs_a, "legsB": legs_b, "partyA": party_a,
        "partyB": party_b, "valueA": value_a, "valueB": value_b,
    })).hexdigest()


@dataclass
class Op:
    caller: str
    operation: str
    params: dict
    value: int = 0
    ts: int = 0
    expect: str = None  # None: success; else the error code expected
    result: dict = None  # expected subset of the result dict
    mix: str = ""        # the MARKET_MIX kind it was generated for


@dataclass(frozen=True)
class Sizes:
    holders: int            # funded stakeholders; the first few are sellers
    properties: int         # each approved and fractionalized
    docs: tuple             # documents registered per property
    units: int              # fractional units minted per property
    setup_purchases: int    # purchases per property during set-up
    trade_rounds: int       # rounds of MARKET_MIX per trade pass
    audit_rounds: int       # rounds of MARKET_MIX appended to the audit ledger
    cli_rounds: int         # rounds of CLI_READS + CLI_WRITES per session
    script_lines: int       # mutation lines in the session's `estate run`


SIZES = {
    "full": Sizes(holders=100, properties=3, docs=(40, 4, 4), units=100_000,
                  setup_purchases=20, trade_rounds=15, audit_rounds=2,
                  cli_rounds=2, script_lines=10),
    "tiny": Sizes(holders=8, properties=2, docs=(5, 2), units=10_000,
                  setup_purchases=3, trade_rounds=1, audit_rounds=1,
                  cli_rounds=1, script_lines=3),
}

# one round of the trade loop: successful kinds plus one expected
# rejection, so every seed runs the same count of each kind. The paper
# gives the lifecycle, not how often each step happens, and there is no
# traffic log: these weights, like CLI_READS and CLI_WRITES, are assumed
MARKET_MIX = (("purchase", 6), ("owner_transfer", 3), ("native", 4),
              ("distribute", 1), ("set_price", 2), ("swap", 1),
              ("reject", 1))
REJECT_KINDS = ("overdraw", "owner_with_value", "underpay", "no_consent",
                "foreign_set_price")


@dataclass
class Step:
    """One `estate` invocation of the CLI session."""

    kind: str                 # "read", "write" or "script"
    argv: list                # without --state-dir and --json
    ops: list = field(default_factory=list)  # the writes it issues, in order
    expect: dict = None       # expected subset of its JSON output; a value
                              # of None is filled in from the shadow node
    expect_code: str = None   # error code it must fail with
    mix: str = ""             # the CLI_READS / CLI_WRITES kind, or "script"


# one round of the CLI session: an operator's reads interleaved with writes
CLI_READS = (("chain_balance", 4), ("token_balance", 3), ("property_info", 1),
             ("property_supply", 2), ("state_digest", 1), ("merkle_root", 1),
             ("merkle_prove", 2), ("merkle_verify", 2), ("chain_verify", 1))
CLI_WRITES = (("native", 3), ("overdraw", 1), ("faucet", 1), ("purchase", 2),
              ("set_price", 1), ("distribute", 1), ("document", 1))


@dataclass
class Model:
    """What the ledger must hold; updated only by ops expected to succeed."""

    admin: str = ""
    holders: list = field(default_factory=list)
    props: list = field(default_factory=list)   # property addresses
    sellers: dict = field(default_factory=dict)  # property -> right owner
    treasury: dict = field(default_factory=dict)
    native: dict = field(default_factory=dict)   # address -> coins
    units: dict = field(default_factory=dict)    # property -> {addr: units}
    price: dict = field(default_factory=dict)    # property -> unit price
    docs: dict = field(default_factory=dict)     # property -> [cid]
    blocks: int = 0
    faucet_total: int = 0


class Generator:
    """Emits ops against a model; each op's expectation is decided, and
    on success applied, before the next op is generated."""

    def __init__(self, model: Model, rng: random.Random):
        self.m = model
        self.rng = rng

    def _emit(self, caller, operation, params, value=0, expect=None,
              result=None) -> Op:
        op = Op(caller, operation, params, value, T0 + self.m.blocks,
                expect, result)
        if expect is None:
            self.m.blocks += 1
        return op

    def _move(self, src, dst, amount):
        self.m.native[src] -= amount
        self.m.native[dst] += amount

    def _buyers(self, prop):
        return [h for h in self.m.holders if h != self.m.sellers[prop]]

    # -- set-up ------------------------------------------------------------

    def faucet(self, to, amount) -> Op:
        self.m.native[to] += amount
        self.m.faucet_total += amount
        return self._emit(self.m.admin, "faucet",
                          {"to": to, "amount": amount})

    def put_document(self, seller, prop, text: str) -> list:
        cid = cid_of(text.encode("utf-8"))
        put = self._emit(seller, "putObject",
                         {"dataHex": text.encode("utf-8").hex()},
                         result={"cid": cid})
        self.m.docs[prop].append(cid)
        add = self._emit(seller, "registerDocument",
                         {"property": prop, "cid": cid})
        return [put, add]

    def document_text(self, prop_index: int, n: int) -> str:
        return (f"deed {prop_index}.{n:04d} "
                f"{self.rng.getrandbits(128):032x}")

    def setup(self, seed: int, sizes: Sizes) -> list:
        """Ops that build the starting ledger after genesis."""
        m, rng, ops = self.m, self.rng, []
        ops.append(self._emit(m.admin, "initializeFactory",
                              {"versionId": 1, "behaviorTag": "base"}))
        for i in range(sizes.holders):
            key = f"bench-{seed}-holder-{i}".encode("utf-8")
            role = "Seller" if i < sizes.properties else "Buyer"
            addr = address_of(key)
            ops.append(self._emit(m.admin, "registerStakeholder",
                                  {"role": role, "publicKey": key.hex(),
                                   "infoCid": ""}, result={"address": addr}))
            m.holders.append(addr)
            m.native[addr] = 0
        for h in m.holders:
            ops.append(self.faucet(h, rng.randint(500_000, 999_999)))
        for p in range(sizes.properties):
            seller, prop = m.holders[p], proxy_address(p)
            treasury = address_of(f"bench-treasury-{p}".encode("utf-8"))
            ops.append(self._emit(
                seller, "deployProperty",
                {"treasury": treasury, "upgrader": m.admin, "admin": m.admin,
                 "uri": f"ipfs://bench/{p}/{{id}}.json",
                 "contractName": f"Estate {p}",
                 "description": f"benchmark estate {p}"},
                result={"address": prop}))
            m.props.append(prop)
            m.sellers[prop], m.treasury[prop] = seller, treasury
            m.native.setdefault(treasury, 0)
            m.native.setdefault(prop, 0)
            m.docs[prop] = []
            for n in range(sizes.docs[p]):
                ops.extend(self.put_document(seller, prop,
                                             self.document_text(p, n)))
            ops.append(self._emit(
                m.admin, "approvedProperty",
                {"property": prop,
                 "parentHash": merkle_root(m.docs[prop]).hex()}))
            right_price = rng.randint(1000, 9999)
            ops.append(self._emit(seller, "mintNFT",
                                  {"property": prop, "id": RIGHT_ID,
                                   "data": "", "price": right_price},
                                  value=right_price))
            self._move(seller, treasury, right_price)
            m.price[prop] = rng.randint(10, 99)
            ops.append(self._emit(seller, "mintFractional",
                                  {"property": prop, "rightId": RIGHT_ID,
                                   "units": sizes.units,
                                   "pricePerUnit": m.price[prop]}))
            m.units[prop] = {seller: sizes.units}
        order = [p for p in m.props for _ in range(sizes.setup_purchases)]
        rng.shuffle(order)
        ops.extend(self.purchase(p) for p in order)
        return ops

    # -- market ops --------------------------------------------------------

    def purchase(self, prop, underpay=False) -> Op:
        m, rng = self.m, self.rng
        amount = rng.randint(5, 20)
        cost = amount * m.price[prop]
        units = m.units[prop]
        # a caller already holding >= amount would take the owner path
        cands = [h for h in self._buyers(prop)
                 if units.get(h, 0) < amount and m.native[h] >= cost]
        caller = rng.choice(cands)
        params = {"property": prop, "to": caller, "id": FRAC_ID,
                  "amount": amount, "data": ""}
        if underpay:
            return self._emit(caller, "transferNFT", params, cost - 1,
                              expect="InsufficientPayment")
        seller = m.sellers[prop]
        self._move(caller, seller, cost)
        if units[seller] < amount:
            raise RuntimeError("generator: seller inventory exhausted")
        units[seller] -= amount
        units[caller] = units.get(caller, 0) + amount
        return self._emit(caller, "transferNFT", params, cost)

    def owner_transfer(self, prop, with_value=False) -> Op:
        m, rng = self.m, self.rng
        units = m.units[prop]
        caller = rng.choice(sorted(h for h in self._buyers(prop)
                                   if units.get(h, 0) > 0))
        amount = rng.randint(1, min(units[caller], 10))
        to = rng.choice([h for h in m.holders if h != caller])
        params = {"property": prop, "to": to, "id": FRAC_ID,
                  "amount": amount, "data": ""}
        if with_value:
            # the transferNFT quirk: holding >= amount means owner mode,
            # and owner mode refuses any attached value
            return self._emit(caller, "transferNFT", params,
                              amount * m.price[prop],
                              expect="UnexpectedValue")
        units[caller] -= amount
        if not units[caller]:
            del units[caller]
        units[to] = units.get(to, 0) + amount
        return self._emit(caller, "transferNFT", params)

    def native(self, overdraw=False) -> Op:
        m, rng = self.m, self.rng
        amount = rng.randint(1000, 9999)
        caller = rng.choice([h for h in m.holders if m.native[h] >= amount])
        to = rng.choice([h for h in m.holders if h != caller])
        if overdraw:
            return self._emit(caller, "transferNative",
                              {"to": to, "amount": m.native[caller] + 1},
                              expect="InsufficientFunds")
        self._move(caller, to, amount)
        return self._emit(caller, "transferNative",
                          {"to": to, "amount": amount})

    def distribute(self, prop) -> Op:
        m = self.m
        seller, total = m.sellers[prop], self.rng.randint(10_000, 99_999)
        holders = m.units[prop]
        supply = sum(holders.values())
        if m.native[seller] < total:
            raise RuntimeError("generator: seller cannot fund a distribution")
        m.native[seller] -= total
        paid = 0
        for addr, held in holders.items():
            share = held * total // supply
            m.native[addr] += share
            paid += share
        m.native[m.treasury[prop]] += total - paid
        return self._emit(seller, "distributeEarnings",
                          {"property": prop, "rightId": RIGHT_ID,
                           "total": total}, total)

    def set_price(self, prop, foreign=False) -> Op:
        m = self.m
        price = self.rng.randint(10, 99)
        params = {"property": prop, "id": FRAC_ID, "pricePerUnit": price}
        if foreign:
            caller = self.rng.choice(self._buyers(prop))
            return self._emit(caller, "setPrice", params,
                              expect="NotAuthorized")
        m.price[prop] = price
        return self._emit(m.sellers[prop], "setPrice", params)

    def swap(self, prop, consented=True) -> list:
        m, rng = self.m, self.rng
        units = m.units[prop]
        a = rng.choice(sorted(h for h in self._buyers(prop)
                              if units.get(h, 0) > 0))
        n = rng.randint(1, min(units[a], 10))
        value_b = rng.randint(100, 999)
        b = rng.choice([h for h in m.holders
                        if h != a and m.native[h] >= value_b])
        legs_a = [[FRAC_ID, n]]
        digest = swap_digest(a, legs_a, 0, b, [], value_b)
        swap_params = {"property": prop, "partyA": a, "partyB": b,
                       "legsA": legs_a, "legsB": [], "valueA": 0,
                       "valueB": value_b}
        if not consented:
            return [self._emit(a, "atomicSwap", swap_params,
                               expect="MissingConsent")]
        ops = [self._emit(party, "consentSwap",
                          {"property": prop, "digest": digest})
               for party in (a, b)]
        units[a] -= n
        if not units[a]:
            del units[a]
        units[b] = units.get(b, 0) + n
        self._move(b, a, value_b)
        ops.append(self._emit(a, "atomicSwap", swap_params))
        return ops

    def reject(self, kind, prop) -> Op:
        if kind == "overdraw":
            return self.native(overdraw=True)
        if kind == "owner_with_value":
            return self.owner_transfer(prop, with_value=True)
        if kind == "underpay":
            return self.purchase(prop, underpay=True)
        if kind == "no_consent":
            return self.swap(prop, consented=False)[0]
        return self.set_price(prop, foreign=True)

    def market(self, rounds: int) -> list:
        """A trade pass: `rounds` copies of MARKET_MIX in seeded order."""
        kinds = [k for k, n in MARKET_MIX for _ in range(n * rounds)]
        self.rng.shuffle(kinds)
        rejects = [REJECT_KINDS[i % len(REJECT_KINDS)] for i in range(rounds)]
        self.rng.shuffle(rejects)
        ops = []
        for kind in kinds:
            prop = self.rng.choice(self.m.props)
            if kind == "swap":
                new = self.swap(prop)
            elif kind == "reject":
                new = [self.reject(rejects.pop(), prop)]
            elif kind in ("purchase", "owner_transfer", "distribute",
                          "set_price"):
                new = [getattr(self, kind)(prop)]
            else:
                new = [self.native()]
            for op in new:
                op.mix = kind
            ops.extend(new)
        return ops


    # -- CLI session -------------------------------------------------------

    def read(self, kind) -> Step:
        m, rng = self.m, self.rng
        prop = rng.choice(m.props)
        holder = rng.choice(m.holders)
        docs = m.docs[m.props[0]]  # the property with many documents
        if kind == "chain_balance":
            return Step("read", ["chain", "balance", "--address", holder],
                        expect={"address": holder,
                                "balance": m.native[holder]})
        if kind == "token_balance":
            return Step("read", ["token", "balance", "--property", prop,
                                 "--owner", holder, "--id", token_arg(FRAC_ID)],
                        expect={"balances": {
                            str(FRAC_ID): m.units[prop].get(holder, 0)}})
        if kind == "property_info":
            return Step("read", ["property", "info", "--property", prop],
                        expect={"address": prop, "approved": True,
                                "documents": list(m.docs[prop])})
        if kind == "property_supply":
            return Step("read", ["property", "supply", "--property", prop,
                                 "--id", token_arg(FRAC_ID)],
                        expect={"supply": sum(m.units[prop].values())})
        if kind == "state_digest":
            return Step("read", ["state", "digest"],
                        expect={"scope": "full", "digest": None})
        if kind == "chain_verify":
            return Step("read", ["chain", "verify"],
                        expect={"chain": "OK", "blocks": m.blocks})
        root = merkle_root(docs).hex()
        if kind == "merkle_root":
            return Step("read", ["merkle", "root", "--property", m.props[0]],
                        expect={"root": root})
        index = rng.randrange(len(docs))
        leaf = docs[index].split(":")[1]
        proof = merkle_proof(docs, index)
        if kind == "merkle_prove":
            return Step("read", ["merkle", "prove", "--index", str(index),
                                 "--property", m.props[0]],
                        expect={"root": root, "leaf": leaf, "proof": proof})
        return Step("read", ["merkle", "verify", "--root", root, "--leaf",
                             leaf, "--proof", canonical(proof).decode()],
                    expect={"valid": True})

    def writes(self, kind) -> list:
        m, rng = self.m, self.rng
        prop = rng.choice(m.props)
        if kind == "document":
            seller, many = m.sellers[m.props[0]], m.props[0]
            text = self.document_text(0, len(m.docs[many]))
            ops = self.put_document(seller, many, text)
        elif kind == "native":
            ops = [self.native()]
        elif kind == "overdraw":
            ops = [self.native(overdraw=True)]
        elif kind == "faucet":
            ops = [self.faucet(rng.choice(m.holders),
                               rng.randint(100_000, 999_999))]
        else:
            ops = [getattr(self, kind)(prop)]
        return [Step("write", cli_argv(op), [op], expect=op.result,
                     expect_code=op.expect) for op in ops]

    def session(self, rounds: int, script_lines: int) -> list:
        """`rounds` copies of the CLI mix in seeded order, plus one
        `estate run` script of `script_lines` mutations."""
        kinds = [("read", k) for k, n in CLI_READS for _ in range(n * rounds)]
        kinds += [("write", k) for k, n in CLI_WRITES
                  for _ in range(n * rounds)]
        kinds.append(("script", ""))
        self.rng.shuffle(kinds)
        steps = []
        for cls, kind in kinds:
            if cls == "read":
                new = [self.read(kind)]
            elif cls == "write":
                new = self.writes(kind)
            else:
                ops = [self.native() if i % 2 else
                       self.purchase(self.rng.choice(self.m.props))
                       for i in range(script_lines)]
                new = [Step("script", ["run"], ops,
                            expect={"commands": script_lines,
                                    "digest": None})]
            for step in new:
                step.mix = kind or cls
            steps.extend(new)
        return steps


def build_model(seed: int, sizes: Sizes) -> tuple:
    """(admin key, set-up ops, generator); the generator's model is the
    state the set-up ops must leave behind."""
    rng = random.Random(seed)
    admin_key = f"bench-{seed}-admin".encode("utf-8")
    model = Model(admin=address_of(admin_key), blocks=2)  # genesis + bootstrap
    model.native[model.admin] = 0
    gen = Generator(model, rng)
    return admin_key, gen.setup(seed, sizes), gen


def token_arg(token_id: int) -> str:
    return f"frac:{token_id ^ FRAC_FLAG}" if token_id & FRAC_FLAG \
        else str(token_id)


def cli_argv(op: Op) -> list:
    """The `estate` command line that issues exactly `op`."""
    p = op.params
    if op.operation == "transferNative":
        argv = ["chain", "transfer", "--to", p["to"],
                "--amount", str(p["amount"])]
    elif op.operation == "faucet":
        argv = ["chain", "faucet", "--to", p["to"],
                "--amount", str(p["amount"])]
    elif op.operation == "transferNFT":
        argv = ["property", "transfer", "--property", p["property"],
                "--to", p["to"], "--id", token_arg(p["id"]),
                "--amount", str(p["amount"])]
    elif op.operation == "setPrice":
        argv = ["property", "set-price", "--property", p["property"],
                "--id", token_arg(p["id"]),
                "--price-per-unit", str(p["pricePerUnit"])]
    elif op.operation == "distributeEarnings":
        argv = ["property", "distribute", "--property", p["property"],
                "--right-id", str(p["rightId"]), "--total", str(p["total"])]
    elif op.operation == "putObject":
        argv = ["object", "put", "--data",
                bytes.fromhex(p["dataHex"]).decode("utf-8")]
    elif op.operation == "registerDocument":
        argv = ["property", "adddoc", "--property", p["property"],
                "--cid", p["cid"]]
    else:
        raise ValueError(f"no CLI form for {op.operation}")
    argv += ["--as", op.caller, "--timestamp", str(op.ts)]
    if op.value:
        argv += ["--value", str(op.value)]
    return argv


def script_text(step: Step) -> str:
    return "".join(shlex.join(cli_argv(op)) + "\n" for op in step.ops)
