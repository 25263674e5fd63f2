"""Smoke self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

From the repository root, runs every workload of BENCHMARK.json with
``--size tiny``, untraced and traced, and checks that:

- each run passes its output checks and prints exactly the metrics
  BENCHMARK.json lists, with their units, end-to-end ones non-zero;
- a second run of the same seed ends in the same digest;
- audit_replay on a ledger with one flipped byte fails (so the checks
  are not vacuous);
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(workload, trace=0, *extra, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len("env: "):]) for line in lines
                if line.startswith("env: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, env, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1, 0):
            rc, env, result = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(rc == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: passes its output checks")
            if result is None:
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == wanted[trace],
                  f"{tag}: prints exactly the BENCHMARK.json metrics")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{tag}: end-to-end metrics are non-zero")
            digests.append(env.get("final_digest"))
        check(len(set(digests)) == 1 and digests[0],
              f"{workload}: runs of one seed end in the same digest")

    rc, _, result = bench("audit_replay", 0, "--flip-byte")
    check(rc != 0 and (result is None or not result["correct"]),
          "audit_replay: a flipped byte in the ledger fails the run")

    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        rc, _, result = bench("trade_loop", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None,
          "without the package sources: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
