"""Run the golden byte pins of ``test_golden.py`` without pytest.

Every ``test_*`` function there runs, each with a fresh temporary
directory as ``tmp_path`` and a fresh ``MonkeyPatch`` as ``monkeypatch``,
whose patches are undone after the test. The script exits 1 if any pin
fails, or if a test asks for a fixture it does not provide, so no pin
can drop out unseen. It imports nothing outside the standard library
and the package, so it checks byte identity under every interpreter the
package supports (3.10 and later), for example:

    python tests/golden_check.py
    for py in ~/.pyenv/versions/3.1*/bin/python3; do
        for seed in 0 1; do
            PYTHONHASHSEED=$seed "$py" tests/golden_check.py
        done
    done
"""

import inspect
import os
import pathlib
import platform
import sys
import tempfile
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import test_golden  # noqa: E402  (needs the paths above)


FIXTURES = {"tmp_path", "monkeypatch"}
MISSING = object()


class MonkeyPatch:
    """The part of pytest's ``monkeypatch`` fixture the pins use."""

    def __init__(self):
        self._undo = []

    def setattr(self, owner, name, value):
        # the owner's own entry, so an inherited attribute is deleted again
        self._undo.append((owner, name, vars(owner).get(name, MISSING)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def main(pins=test_golden) -> int:
    if not __debug__:
        print("golden_check: the pins are asserts; run it without -O")
        return 2
    print(f"python {platform.python_version()} "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}")
    failed = 0
    for name, fn in sorted(vars(pins).items()):
        if not name.startswith("test_"):
            continue
        params = set(inspect.signature(fn).parameters)
        if not params <= FIXTURES:  # counts as a failed pin
            failed += 1
            print(f"NOT RUN  {name}: needs "
                  f"{', '.join(sorted(params - FIXTURES))}")
            continue
        patch = MonkeyPatch()
        with tempfile.TemporaryDirectory() as tmp:
            fixtures = {"tmp_path": pathlib.Path(tmp), "monkeypatch": patch}
            try:
                fn(**{p: fixtures[p] for p in params})
            except Exception:  # a failed pin or an error: report, go on
                failed += 1
                print(f"FAIL     {name}")
                traceback.print_exc(limit=-1, file=sys.stdout)
                continue
            finally:
                patch.undo()
        print(f"ok       {name}")
    print(f"{failed} failed or not run" if failed else "all pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
