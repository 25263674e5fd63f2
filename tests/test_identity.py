import hashlib

import pytest

from estateledger.errors import LedgerError
from estateledger.identity import (AllowlistVerifier, Role,
                                   StakeholderRegistry, parse_role)
from estateledger.records import read, to_json


def seeded_registry():
    reg = StakeholderRegistry()
    admin = reg.register("", Role.ADMINISTRATOR, b"root-admin",
                         bootstrap=True)
    return reg, admin


def test_address_is_sha256_prefix():
    # derivation recomputed with hashlib directly
    reg, admin = seeded_registry()
    key = b"some seller key"
    addr = reg.register(admin, Role.SELLER, key)
    assert addr == "0x" + hashlib.sha256(key).digest()[:20].hex()


def test_duplicate_key_rejected():
    reg, admin = seeded_registry()
    reg.register(admin, Role.SELLER, b"k1")
    with pytest.raises(LedgerError) as e:
        reg.register(admin, Role.BUYER, b"k1")
    assert e.value.code == "DuplicateKey"


def test_non_admin_cannot_register():
    reg, admin = seeded_registry()
    seller = reg.register(admin, Role.SELLER, b"k1")
    with pytest.raises(LedgerError) as e:
        reg.register(seller, Role.BUYER, b"k2")
    assert e.value.code == "NotAuthorized"
    assert len(reg.stakeholders) == 2


def test_empty_key_rejected():
    reg, admin = seeded_registry()
    with pytest.raises(LedgerError) as e:
        reg.register(admin, Role.SELLER, b"")
    assert e.value.code == "VerificationRejected"


def test_allowlist_verifier(tmp_path):
    key_ok, key_bad = b"approved-key", b"unapproved-key"
    listfile = tmp_path / "allow.txt"
    listfile.write_text("# fingerprints\n"
                        + hashlib.sha256(key_ok).hexdigest() + "\n")
    verifier = AllowlistVerifier(str(listfile))

    reg, admin = seeded_registry()
    reg.register(admin, Role.SELLER, key_ok, verifier=verifier)
    with pytest.raises(LedgerError) as e:
        reg.register(admin, Role.BUYER, key_bad, verifier=verifier)
    assert e.value.code == "VerificationRejected"

    # the file is consulted live: extending it admits the key
    with open(listfile, "a") as fh:
        fh.write(hashlib.sha256(key_bad).hexdigest() + "\n")
    reg.register(admin, Role.BUYER, key_bad, verifier=verifier)


def test_allowlist_missing_file_rejects():
    verifier = AllowlistVerifier("/nonexistent/allow.txt")
    reg, admin = seeded_registry()
    with pytest.raises(LedgerError) as e:
        reg.register(admin, Role.SELLER, b"k", verifier=verifier)
    assert e.value.code == "VerificationRejected"


def test_removal_freezes_without_confiscating():
    reg, admin = seeded_registry()
    seller = reg.register(admin, Role.SELLER, b"k1")
    reg.remove(admin, seller)
    assert reg.is_active(seller) is False
    assert reg.has_role(seller, Role.SELLER) is False
    # the record survives, only the active flag flips
    assert reg.get(seller).key_fingerprint


def test_remove_unknown_or_inactive():
    reg, admin = seeded_registry()
    with pytest.raises(LedgerError) as e:
        reg.remove(admin, "0x" + "12" * 20)
    assert e.value.code == "UnknownAccount"
    seller = reg.register(admin, Role.SELLER, b"k1")
    reg.remove(admin, seller)
    with pytest.raises(LedgerError) as e:
        reg.remove(admin, seller)
    assert e.value.code == "UnknownAccount"


def test_last_administrator_protected():
    reg, admin = seeded_registry()
    with pytest.raises(LedgerError) as e:
        reg.remove(admin, admin)
    assert e.value.code == "LastAdministrator"
    assert reg.is_active_admin(admin)


def test_second_admin_unlocks_removal():
    reg, admin = seeded_registry()
    other = reg.register(admin, Role.ADMINISTRATOR, b"k2")
    reg.remove(other, admin)
    assert reg.active_admins() == [other]
    # and now the survivor is protected again
    with pytest.raises(LedgerError) as e:
        reg.remove(other, other)
    assert e.value.code == "LastAdministrator"


def test_has_role_cases():
    reg, admin = seeded_registry()
    assert reg.has_role("0x" + "12" * 20, Role.SELLER) is False
    seller = reg.register(admin, Role.SELLER, b"k1")
    assert reg.has_role(seller, Role.SELLER) is True
    assert reg.has_role(seller, Role.BUYER) is False
    reg.remove(admin, seller)
    assert reg.has_role(seller, Role.SELLER) is False


def test_parse_role():
    assert parse_role("Realtor") is Role.REALTOR
    with pytest.raises(LedgerError) as e:
        parse_role("Landlord")
    assert e.value.code == "ParseError"


def test_serialization_round_trip():
    reg, admin = seeded_registry()
    seller = reg.register(admin, Role.SELLER, b"k1")
    reg.remove(admin, seller)
    again = read(StakeholderRegistry, to_json(reg))
    assert to_json(again) == to_json(reg)
    assert again.is_active(seller) is False
