"""estateledger benchmark.

    python3 bench/run.py --workload <trade_loop|cli_session|audit_replay>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package is imported from ``src/``;
scratch state goes to ``.bench_run/`` and is removed at exit, except the
span file a traced run leaves there. Before the result, stdout carries
an ``env:`` line (the run environment) and a ``detail:`` line (figures
specific to the workload); the last line is the JSON result. With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; BENCHMARK.json names them and gives their units.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "estateledger")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: str) -> str:
    """Type of the filesystem holding `path`, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if ((path == mount or path.startswith(mount.rstrip("/") + "/"))
                        and len(mount) >= len(best)):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _line_counts() -> dict:
    """`wc -l src/estateledger/*.py`."""
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for bench/selftest.py: small sizes, and a corrupted audit ledger
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--flip-byte", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"bench: no estateledger package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ledgergen
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = layers.Tracer(units) if args.trace else None
    run = workloads.Run(args.seed, ledgergen.SIZES[args.size], args.seconds,
                        tracer, workdir, args.flip_byte)
    try:
        metrics, detail = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        trace_path = os.path.join(
            ROOT, ".bench_run", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_path)
        run.env["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
    checks = run.checks
    run.env.update(
        workload=args.workload, seed=args.seed, size=args.size,
        python=platform.python_version(), cpu=_cpu_model(),
        nproc=os.cpu_count(), state_dir_fs=_fs_type(ROOT),
        passes={"untraced": len(run.untraced_passes),
                "traced": len(run.traced_passes)},
        reference_ms={"median": statistics.median(run.reference_all),
                      "calibrated_to": workloads.REFERENCE_MS},
        wc_l=_line_counts())
    detail["failed_ratio"] = checks.failed / max(checks.attempted, 1)
    if checks.problems:
        detail["problems"] = checks.problems
    print("env: " + json.dumps(run.env, sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
