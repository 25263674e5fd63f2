"""`cli.table_parse` checked against argparse, with or without pytest.

A command line is drawn from one row of the command table: each of its
flags and `COMMON`'s given exactly, as `--flag=value`, abbreviated,
without its value, or not at all, with values such as `-5`, `''`,
`' 7'`, `x` and `--json`; then strays such as an unknown flag, `-h`,
`--`, a repeated flag or one positional too many, all in a drawn order.
`check` asserts that the table parser either declines the line or gives
exactly what `build_parser(argv).parse_args(argv)` gives, in a lone
command and in a script line (`state_dir=None`). The pytest suite draws
lines with hypothesis; run as a script, this module draws them from a
seeded `random.Random`, so it needs only the standard library and runs
under every interpreter the package supports, whose argparse edge cases
differ:

    python tests/parse_parity.py [lines per row and mode]
    for py in ~/.pyenv/versions/3.1*/bin/python3; do
        "$py" tests/parse_parity.py
    done

It exits 1 on a line the two parse differently, or on a row whose
well-formed line (every flag given exactly) the table parser declines.
"""

import pathlib
import platform
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from estateledger import cli  # noqa: E402  (needs the path above)
from estateledger.errors import LedgerError  # noqa: E402

VALUES = ["7", "0", "-5", "", " 7", "x", "--json", "1_0", "a b", "-", "x=y"]
STRAYS = [["--bogus"], ["--bogus", "7"], ["-h"], ["--help"], ["--"],
          ["stray"], ["-5"]]
SCRIPT = {"state_dir": None}  # the defaults a script line is parsed with


def arguments(key) -> list:
    """(flag, kwargs) of every argument of the row `key` and of COMMON,
    the members of a group each on its own."""
    out = []
    for flag, kwargs in cli.COMMON + cli.COMMANDS[key][0]:
        out.extend(flag if isinstance(flag, list) else [(flag, kwargs)])
    return out


def well_formed(key) -> list:
    """The argv of `key` that gives each of its flags exactly, a group by
    its first member only."""
    argv = [word for word in key if word]
    for flag, kwargs in cli.COMMON + cli.COMMANDS[key][0]:
        if isinstance(flag, list):
            flag, kwargs = flag[0]
        if not flag.startswith("-"):
            argv.append("script.txt")
        elif kwargs.get("action") == "store_true":
            argv.append(flag)
        else:
            argv += [flag, str(kwargs.get("choices", ["7"])[-1])]
    return argv


def good_values(kwargs) -> list:
    """Values argparse takes for an argument of `kwargs`."""
    if "choices" in kwargs:
        return [str(choice) for choice in kwargs["choices"]]
    if kwargs.get("type") is int:
        return ["7", "0", " 7", "1_0", "+3"]
    return ["7", "", "x", "a b", "x=y", " -x"]


def forms(flag, kwargs, good) -> list:
    """Ways a line may give one argument, as token lists ([] leaves it
    out): if `good`, only with a value argparse takes and leaving out only
    an argument that is not required; otherwise any value, an abbreviated
    flag, or a flag without its value."""
    values = good_values(kwargs) if good else VALUES + good_values(kwargs)
    if not flag.startswith("-"):  # a positional: once, and only once
        return [[v] for v in values] + ([] if good else [[], ["x", "x"]])
    omit = [] if good and kwargs.get("required") else [[]]
    if kwargs.get("action") == "store_true":
        given = [[flag], [flag, flag]]
        if not good:
            given += [[f"{flag}={v}"] for v in values] + [
                [flag[:k]] for k in range(3, len(flag))]
    else:
        given = [tokens for v in values for tokens in (
            [flag, v], [f"{flag}={v}"], [flag, values[0], flag, v])]
        if not good:
            given += [[flag]] + [tokens for k in range(3, len(flag))
                                 for tokens in ([flag[:k], "7"],
                                                [f"{flag[:k]}=7"])]
    return omit + given


def draw_argv(key, choose) -> list:
    """One command line of the row `key`; choose(options) picks one of a
    sequence, either by hypothesis or by a seeded random.Random. Most
    arguments are given in a form argparse takes, so that a fair share of
    lines is accepted."""
    chunks = [choose(forms(flag, kwargs, choose([True, True, True, False])))
              for flag, kwargs in arguments(key)]
    chunks += [choose(STRAYS) for _ in range(choose([0, 0, 0, 1, 2]))]
    argv = [word for word in key if word]
    while chunks:
        argv += chunks.pop(choose(range(len(chunks))))
    return argv


def check(argv, **defaults) -> bool:
    """Whether table_parse accepts `argv`. An AssertionError, or the
    ParseError or SystemExit argparse raises, if it accepts a line that
    argparse parses to another Namespace or refuses."""
    got = cli.table_parse(argv, **defaults)
    if got is None:
        return False
    parser = cli.build_parser(argv)
    parser.set_defaults(**defaults)
    want = parser.parse_args(argv)
    # by repr, so that True and 1, or "7" and 7, do not pass as equal
    if ({name: repr(v) for name, v in vars(got).items()}
            != {name: repr(v) for name, v in vars(want).items()}):
        raise AssertionError(f"{argv}: table {got}, argparse {want}")
    return True


def main() -> int:
    lines = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    rng = random.Random(0)
    counts = {"accepted": 0, "declined": 0, "mismatched": 0}
    for key in cli.COMMANDS:
        for defaults in ({}, SCRIPT):
            if not check(well_formed(key), **defaults):
                counts["mismatched"] += 1
                print(f"declined the well-formed line {well_formed(key)}")
            for _ in range(lines):
                argv = draw_argv(key, rng.choice)
                try:
                    accepted = check(argv, **defaults)
                except (AssertionError, LedgerError, SystemExit) as exc:
                    counts["mismatched"] += 1
                    print(f"mismatch on {argv} {defaults}: {exc!r}")
                    continue
                counts["accepted" if accepted else "declined"] += 1
    print(f"python {platform.python_version()}: "
          + ", ".join(f"{n} {name}" for name, n in counts.items()))
    return 1 if counts["mismatched"] else 0


if __name__ == "__main__":
    sys.exit(main())
