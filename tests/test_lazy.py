"""A write decodes whole only the sections its op writes, and reads only
the stakeholder and property records it uses: a mistyped record refuses
the commands that read it, with nothing written, and no other command.

Each op is run from one loaded ledger through ``LedgerDir``, as the CLI
runs a write, in a copy of a dir whose checkpoint is edited by hand and
signed again (``checkpoints.edit_checkpoint``)."""

import os
import shutil

import pytest

from checkpoints import edit_checkpoint, manifest
from estateledger import cli, node as node_mod
from estateledger.addresses import derive_address
from estateledger.errors import LedgerError
from estateledger.factory import FACTORY_ADDRESS, proxy_address
from estateledger.identity import StakeholderRecord
from estateledger.merkle import merkle_root
from estateledger.node import Node, PendingState
from estateledger.persistence import LedgerDir, save_state
from estateledger.property_contract import PropertyContract
from estateledger.records import Records
from estateledger.storage import cid_digest, make_cid
from estateledger.tokens import fractional_of, swap_descriptor_digest

ADMIN = derive_address(b"admin-key-1")
SELLER = derive_address(b"seller-key")
BUYER = derive_address(b"buyer-key")
REALTOR = derive_address(b"realtor-key")  # no op of the matrix uses it
PROP = proxy_address(FACTORY_ADDRESS, 0)
OTHER = proxy_address(FACTORY_ADDRESS, 1)  # no op of the matrix uses it
FRAC = fractional_of(1)
CID = make_cid(b"deed")
ROOT = merkle_root([cid_digest(CID)]).hex()  # the first property's documents
LEGS = [[FRAC, 1]]
SWAP = swap_descriptor_digest(SELLER, LEGS, 0, BUYER, [], 1)


def _ledger() -> Node:
    """An admin, a seller, a buyer and a realtor; two properties, the
    first approved, with rights 1 and 2 minted to the seller, right 1
    cut into 100 units listed at 2 each, and a swap both parties agreed."""
    node = Node()
    node.init_genesis(b"admin-key-1", timestamp=1)

    def ex(caller, op, **params):
        node.execute(caller, op, params, timestamp=2)
    for key, role in ((b"seller-key", "Seller"), (b"buyer-key", "Buyer"),
                      (b"realtor-key", "Realtor")):
        ex(ADMIN, "registerStakeholder", role=role, publicKey=key.hex())
    for to in (SELLER, BUYER):
        ex(ADMIN, "faucet", to=to, amount=1000)
    ex(ADMIN, "initializeFactory", versionId=1)
    for _ in range(2):
        ex(SELLER, "deployProperty", treasury=SELLER, upgrader=ADMIN,
           admin=ADMIN, uri="u/{id}")
    ex(SELLER, "putObject", dataHex=b"deed".hex())
    ex(SELLER, "registerDocument", property=PROP, cid=CID)
    ex(ADMIN, "approvedProperty", property=PROP, parentHash=ROOT)
    ex(SELLER, "mintBatchNFTs", property=PROP, ids=[1, 2], amounts=[1, 1],
       prices=[0, 0])
    ex(SELLER, "mintFractional", property=PROP, rightId=1, units=100,
       pricePerUnit=2)
    for party in (SELLER, BUYER):
        ex(party, "consentSwap", property=PROP, digest=SWAP)
    return node


# op -> (caller, params, attached value): each succeeds on ``_ledger()``
CASES = {
    "registerStakeholder": (ADMIN, {"role": "Buyer",
                                    "publicKey": b"new-key".hex()}, 0),
    "removeStakeholder": (ADMIN, {"target": BUYER}, 0),
    "transferNative": (SELLER, {"to": BUYER, "amount": 1}, 0),
    "faucet": (ADMIN, {"to": BUYER, "amount": 1}, 0),
    "putObject": (SELLER, {"dataHex": b"plan".hex()}, 0),
    "buildRightMetadata": (SELLER, {"nameOfRight": "r"}, 0),
    "registerDocument": (SELLER, {"property": PROP, "cid": CID}, 0),
    "approvedProperty": (ADMIN, {"property": PROP, "parentHash": ROOT}, 0),
    "deployProperty": (SELLER, {"treasury": SELLER, "upgrader": ADMIN,
                                "admin": ADMIN, "uri": "u/{id}"}, 0),
    "pause": (ADMIN, {}, 0),
    "authorizeUpgrade": (ADMIN, {"versionId": 2}, 0),
    "mintNFT": (SELLER, {"property": PROP, "id": 3, "price": 0}, 0),
    "mintBatchNFTs": (SELLER, {"property": PROP, "ids": [4], "amounts": [1],
                               "prices": [0]}, 0),
    "mintFractional": (SELLER, {"property": PROP, "rightId": 2, "units": 10,
                                "pricePerUnit": 1}, 0),
    "transferNFT": (BUYER, {"property": PROP, "to": BUYER, "id": FRAC,
                            "amount": 1}, 2),  # a purchase
    "burnNFT": (SELLER, {"property": PROP, "from": SELLER, "id": 2,
                         "amount": 1}, 0),
    "burnBatchNFTs": (SELLER, {"property": PROP, "from": SELLER, "ids": [2],
                               "amounts": [1]}, 0),
    "setPrice": (SELLER, {"property": PROP, "id": FRAC,
                          "pricePerUnit": 3}, 0),
    "distributeEarnings": (SELLER, {"property": PROP, "rightId": 1,
                                    "total": 10}, 10),
    "setApprovalForAll": (SELLER, {"property": PROP, "operator": BUYER,
                                   "approved": True}, 0),
    "safeTransferBatch": (SELLER, {"property": PROP, "from": SELLER,
                                   "to": BUYER, "ids": [FRAC],
                                   "amounts": [1]}, 0),
    "consentSwap": (SELLER, {"property": PROP, "digest": "ab" * 32}, 0),
    "atomicSwap": (SELLER, {"property": PROP, "partyA": SELLER,
                            "legsA": LEGS, "valueA": 0, "partyB": BUYER,
                            "legsB": [], "valueB": 1}, 0),
}
# the section file each section an op declares it writes is stored in
FILES = {"native": "accounts", "registry": "registry", "store": "store",
         "factory": "contracts", "properties": "contracts"}
# one mistyped value in each file, of a record no op of the matrix uses
MISTYPED = {
    "accounts": lambda d: d["accounts"]["accounts"].update({REALTOR: "7"}),
    "registry": lambda d: d["stakeholders"]["stakeholders"][REALTOR].update(
        publicInfo=7),
    "store": lambda d: d["store"].append("7"),
    "contracts": lambda d: d["properties"][OTHER].update(approved=1),
}


def test_the_matrix_runs_every_op_the_ledger_can_run():
    # the ledger's registry holds an admin, and its factory is initialized
    # and not paused
    assert set(node_mod.OPS) - set(CASES) == {
        "bootstrapAdmin", "initializeFactory", "unpause"}


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """The dir of ``_ledger()``."""
    state_dir = str(tmp_path_factory.mktemp("lazy") / "ledger")
    save_state(state_dir, _ledger())
    open(os.path.join(state_dir, ".lock"), "a").close()  # as a write makes
    return state_dir


def _copy(template, tmp_path, edit=None) -> str:
    state_dir = str(tmp_path / "case")
    shutil.copytree(template, state_dir)
    if edit is not None:
        edit_checkpoint(state_dir, edit)
    return state_dir


def _dir_bytes(state_dir) -> dict:
    out = {}
    for root, _, names in os.walk(state_dir):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                out[os.path.relpath(os.path.join(root, name), state_dir)] = (
                    fh.read())
    return out


def _write(state_dir, op) -> str:
    """Run case `op` as the CLI runs a write: the code it is refused
    with, or "" once its block is saved."""
    caller, params, value = CASES[op]
    ledger = LedgerDir(state_dir)
    try:
        with ledger.writing():
            ledger.node.execute(caller, op, params, value=value,
                                timestamp=3)
            ledger.commit()
    except LedgerError as exc:
        return exc.code
    return ""


def _section_file(state_dir, name) -> tuple:
    digest = manifest(state_dir)["sections"][name]
    with open(os.path.join(state_dir, "sections", digest + ".json"),
              "rb") as fh:
        return digest, fh.read()


@pytest.mark.parametrize("op", sorted(CASES))
def test_each_op_succeeds_on_the_clean_ledger(template, tmp_path, op):
    assert _write(_copy(template, tmp_path), op) == ""


@pytest.mark.parametrize("op", sorted(CASES))
def test_a_mistyped_record_an_op_touches_refuses_it(template, tmp_path, op):
    """Admission reads the caller's record: mistyped, it refuses the op
    and no file changes."""
    caller = CASES[op][0]
    state_dir = _copy(template, tmp_path, lambda d: d["stakeholders"][
        "stakeholders"][caller].update(publicInfo=7))
    files = _dir_bytes(state_dir)
    assert _write(state_dir, op) == "CorruptSnapshot"
    assert _dir_bytes(state_dir) == files


@pytest.mark.parametrize("op, file", sorted(
    {(op, FILES[section]) for op in CASES
     for section in node_mod.OPS[op].writes}))
def test_a_mistyped_record_in_a_section_an_op_writes_refuses_it(
        template, tmp_path, op, file):
    """A section an op writes is decoded whole before admission, every
    record of it, so a mistyped one refuses the op before its append."""
    state_dir = _copy(template, tmp_path, MISTYPED[file])
    files = _dir_bytes(state_dir)
    assert _write(state_dir, op) == "CorruptSnapshot"
    assert _dir_bytes(state_dir) == files


@pytest.mark.parametrize("op", sorted(
    op for op in CASES if "registry" not in node_mod.OPS[op].writes))
def test_a_mistyped_record_an_op_only_reads_past_is_left_as_it_is(
        template, tmp_path, op):
    """An op that reads the registry and does not write it reads the
    records it uses alone: it passes over a mistyped one it does not use,
    and keeps the registry's file."""
    state_dir = _copy(template, tmp_path, MISTYPED["registry"])
    registry = _section_file(state_dir, "registry")
    assert _write(state_dir, op) == ""
    assert _section_file(state_dir, "registry") == registry


def test_a_purchase_decodes_the_contracts_and_the_accounts_whole(
        template, tmp_path, monkeypatch):
    seen, real = [], node_mod.EXECUTORS["transferNFT"]

    def spy(state, *args):
        seen.append((sorted(vars(state).keys() & node_mod.SECTIONS),
                     type(vars(state)["properties"])))
        return real(state, *args)
    monkeypatch.setitem(node_mod.EXECUTORS, "transferNFT", spy)
    assert _write(_copy(template, tmp_path), "transferNFT") == ""
    assert seen == [(["factory", "native", "properties", "registry"],
                     Records)]


@pytest.fixture
def built(monkeypatch) -> dict:
    """The number of stakeholder and property records built so far."""
    counts = {StakeholderRecord: 0, PropertyContract: 0}
    for cls in counts:
        real = cls.__init__

        def init(self, *args, real=real, cls=cls, **kwargs):
            counts[cls] += 1
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return counts


def test_a_faucet_builds_its_callers_record_of_a_hundred(
        tmp_path, built, capsys):
    """On a ledger of 101 stakeholders and 3 properties, a faucet builds
    at most 2 stakeholder records and no property; the full digest all of
    them."""
    node = Node()
    node.init_genesis(b"admin-key-1", timestamp=1)
    for i in range(100):
        node.execute(ADMIN, "registerStakeholder", {
            "role": "Buyer", "publicKey": f"key {i}".encode().hex()},
            timestamp=2)
    node.execute(ADMIN, "initializeFactory", {"versionId": 1}, timestamp=2)
    for _ in range(3):
        node.execute(ADMIN, "deployProperty", {
            "treasury": ADMIN, "upgrader": ADMIN, "admin": ADMIN,
            "uri": "u/{id}"}, timestamp=2)
    state_dir = str(tmp_path / "ledger")
    save_state(state_dir, node)

    def estate(*argv):
        return cli.main([*argv, "--state-dir", state_dir])
    built.update(dict.fromkeys(built, 0))
    assert estate("chain", "faucet", "--to", BUYER, "--amount", "5",
                  "--as", ADMIN, "--timestamp", "3") == 0
    assert built[StakeholderRecord] <= 2 and built[PropertyContract] == 0
    built.update(dict.fromkeys(built, 0))
    assert estate("state", "digest") == 0
    assert built == {StakeholderRecord: 101, PropertyContract: 3}
    capsys.readouterr()


def test_a_loaded_state_settles_once_every_record_is_read(template):
    """A loaded state is a ``PendingState`` until every section and
    record is read, then a plain one, its maps plain dicts again."""
    ledger = LedgerDir(template)
    state = ledger.node.state
    assert type(state) is PendingState
    state.decode()
    assert type(state) is node_mod.LedgerState
    assert type(state.properties) is Records
    assert type(state.registry.stakeholders) is Records


def test_a_write_reports_its_sections_in_one_order(template, tmp_path):
    """With the accounts and the contracts both mistyped, the section
    reported is the same whatever order the sections are named in, as
    a set of names iterates in an order that moves with the hash seed."""
    def edit(d):
        MISTYPED["accounts"](d)
        MISTYPED["contracts"](d)
    state_dir = _copy(template, tmp_path, edit)
    messages = set()
    for names in (["native", "properties"], ["properties", "native"]):
        with pytest.raises(LedgerError) as exc:
            LedgerDir(state_dir).node.state.decode(names)
        assert exc.value.code == "CorruptSnapshot"
        messages.add(exc.value.message)
    assert len(messages) == 1
