"""Run the golden byte pins of ``test_golden.py`` without pytest.

Every ``test_*`` function there that needs no fixture but ``tmp_path``
runs on a fresh temporary directory, and the script exits 1 if any pin
fails. It imports nothing outside the standard library and the package,
so it checks byte identity under every interpreter the package supports
(3.10 and later), for example:

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


def main() -> int:
    if not __debug__:
        print("golden_check: the pins are asserts; run it without -O")
        return 2
    print(f"python {platform.python_version()} "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}")
    failed = 0
    for name, fn in sorted(vars(test_golden).items()):
        if not name.startswith("test_"):
            continue
        params = set(inspect.signature(fn).parameters)
        if not params <= {"tmp_path"}:
            print(f"not run  {name}: needs {', '.join(sorted(params))}")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fn(**{p: pathlib.Path(tmp) for p in params})
            except Exception:  # a failed pin or an error: report, go on
                failed += 1
                print(f"FAIL     {name}")
                traceback.print_exc(limit=-1, file=sys.stdout)
                continue
        print(f"ok       {name}")
    print(f"{failed} failed" if failed else "all pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
