"""``golden_check.py``, the stdlib runner of the golden pins, runs every
``test_*`` function it is given and fails on one it cannot run."""

import inspect
import types

import golden_check


class Owner:
    value = "original"


class Child(Owner):
    pass


def _pins(**tests) -> types.ModuleType:
    module = types.ModuleType("pins")
    vars(module).update(tests)
    return module


def test_every_pin_of_test_golden_asks_only_for_provided_fixtures():
    for name, fn in vars(golden_check.test_golden).items():
        if name.startswith("test_"):
            assert set(inspect.signature(fn).parameters) \
                <= golden_check.FIXTURES, name


def test_a_pin_needing_an_unknown_fixture_fails_the_run(capsys):
    ran = []

    def test_fine(tmp_path):
        ran.append(tmp_path.is_dir())

    def test_needs_capsys(tmp_path, capsys):
        ran.append("never")

    assert golden_check.main(_pins(test_fine=test_fine,
                                   test_needs_capsys=test_needs_capsys)) == 1
    assert ran == [True]
    out = capsys.readouterr().out
    assert "NOT RUN  test_needs_capsys: needs capsys" in out
    assert "1 failed or not run" in out


def test_monkeypatch_is_undone_after_each_pin():
    seen = []

    def test_a_patch(monkeypatch):
        monkeypatch.setattr(Owner, "value", "patched")
        monkeypatch.setattr(Child, "value", "shadowed")
        seen.append((Owner.value, Child.value))

    def test_b_failing_patch(monkeypatch):
        monkeypatch.setattr(Owner, "value", "patched")
        raise AssertionError("a failing pin")

    def test_c_after(monkeypatch):
        seen.append((Owner.value, Child.value, "value" in vars(Child)))

    assert golden_check.main(_pins(test_a_patch=test_a_patch,
                                   test_b_failing_patch=test_b_failing_patch,
                                   test_c_after=test_c_after)) == 1
    assert seen == [("patched", "shadowed"), ("original", "original", False)]
    assert Owner.value == Child.value == "original"
