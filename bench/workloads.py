"""The three workloads: trade_loop, cli_session and audit_replay.

Each is a single-client closed loop: the next request is issued when the
previous one has returned. A run sets up its starting ledger (SETUPS
times, reporting the median), then repeats passes of one fixed seeded
request sequence, each pass from a fresh copy of that ledger, until the
measuring time is used up. Every pass ends in the same state, so every
pass is checked: each request's outcome against the generator's
expectation, the final ledger against the generator's model, and the
final digest against the other passes.

Times are calibrated. On a shared machine the speed of a core swings
by up to 2x, within a second and over minutes, as neighbours come and
go. While set-up and untraced passes run, a timer signal interrupts the
run every CALIBRATE_EVERY_S to time a fixed reference job (stdlib only,
calling no package code). The samples taken inside a request cut it
into stretches; each stretch is scaled by REFERENCE_MS over the median
of the 2 reference times before and the 2 after it: the figures read
as milliseconds on a core that runs the reference job in REFERENCE_MS.
A request's figure is its median calibrated time over the untraced
passes.

With a tracer, passes alternate untraced and traced. Only untraced
passes feed end-to-end figures; traced passes feed the per-layer ones.
"""

import bisect
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import time

from estateledger import cli, persistence
from estateledger.errors import LedgerError
from estateledger.node import Node

import ledgergen
from layers import written_bytes

SETUPS = 3  # set-ups per untraced run; setup_s is their median

# the reference job: copy, encode, hash and decode a fixed ledger-shaped
# value, the same kinds of work the package spends its time on
_REFERENCE = {
    "blocks": [{"index": i, "prevHash": f"{i:064x}", "transactions": [
        {"caller": f"0x{i:040x}", "operation": "transferNative",
         "params": {"amount": i * 7919 % 100_000, "to": f"0x{i + 1:040x}"}}]}
        for i in range(120)],
    "accounts": {f"0x{i:040x}": i * 31 for i in range(100)},
}
# its time on a quiet core of the 2-vCPU Intel Xeon (Python 3.11) the
# benchmark was defined on
REFERENCE_MS = 1.5
CALIBRATE_EVERY_S = 0.05


def reference_ms() -> float:
    start = time.perf_counter_ns()
    blob = json.dumps(copy.deepcopy(_REFERENCE), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    hashlib.sha256(blob).digest()
    json.loads(blob)
    return (time.perf_counter_ns() - start) / 1e6


def calibrated_ms(requests: list, samples: list) -> list:
    """Calibrate (start ns, duration ns) requests against reference
    (start ns, end ns, ms) samples. The samples taken inside a request
    cut it into stretches; each stretch counts its time times
    REFERENCE_MS over the median of the 2 samples before it and the 2
    after it. Scaling a long request by one median over all its samples
    would let that median jump between a slow and a fast phase of the
    core, so the figure would jump with it."""
    starts = [start for start, _, _ in samples]
    out = []
    for start, dur in requests:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, start + dur)
        at, total = start, 0.0
        for j in range(lo, hi + 1):
            until = samples[j][0] if j < hi else start + dur
            near = [ms for *_, ms in samples[max(j - 2, 0):j + 2]]
            total += (until - at) / statistics.median(near)
            if j < hi:
                at = samples[j][1]
        out.append(total / 1e6 * REFERENCE_MS)
    return out


class Checks:
    """Request outcomes (attempted / failed) and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def request(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.require(False, what)

    def require(self, ok: bool, what: str):
        if not ok and what not in self.problems and len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _subset(got: dict, expect: dict) -> bool:
    return all(got.get(k) == v for k, v in (expect or {}).items())


def execute(node_: Node, op) -> str:
    """Issue `op`; the error code it raised, or None."""
    try:
        result = node_.execute(op.caller, op.operation, op.params, op.value,
                               op.ts)
    except LedgerError as exc:
        return exc.code
    return None if _subset(result, op.result) else "UnexpectedResult"


def build_ledger(admin_key: bytes, ops: list, checks: Checks,
                 timed) -> Node:
    """Genesis plus `ops`; `timed(fn, *args)` issues each call."""
    node_ = Node()
    timed(node_.init_genesis, admin_key, "", ledgergen.T0)
    for op in ops:
        code = timed(execute, node_, op)
        checks.require(code == op.expect,
                       f"set-up {op.operation}: got {code}, want {op.expect}")
    return node_


def check_ledger(checks: Checks, node_: Node, model, where: str):
    """The invariants every finished ledger must meet."""
    st = node_.state
    checks.require(st.chain.verify(), f"{where}: chain does not verify")
    checks.require(len(st.chain.blocks) == model.blocks,
                   f"{where}: {len(st.chain.blocks)} blocks, "
                   f"model has {model.blocks}")
    checks.require(sum(st.native.accounts.values()) == model.faucet_total,
                   f"{where}: native supply differs from the faucet total")
    checks.require(st.native.accounts == model.native,
                   f"{where}: native balances differ from the model")
    for addr, prop in st.properties.items():
        tokens = prop.tokens
        checks.require(
            set(tokens.supplies) == set(tokens.balances) and all(
                tokens.supplies[t] == sum(tokens.balances[t].values())
                for t in tokens.supplies),
            f"{where}: a token supply of {addr} differs from its holdings")
        checks.require(
            tokens.balances.get(ledgergen.FRAC_ID, {}) == model.units[addr],
            f"{where}: fractional holdings of {addr} differ from the model")


def op_mix(kinds: list, request_ms: list) -> dict:
    """Each op kind's share of a pass's requests and its median figure.
    The shares are the generator's assumed mix, not measured traffic, so
    a change in ops_per_s or a quantile reads against them."""
    by_kind = {}
    for kind, ms in zip(kinds, request_ms):
        by_kind.setdefault(kind, []).append(ms)
    return {kind: {"share": len(ms) / len(kinds),
                   "p50_ms": statistics.median(ms)}
            for kind, ms in sorted(by_kind.items())}


def quantile(samples: list, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[
        round(q * 100) - 1]


class Run:
    """State shared by one workload run."""

    def __init__(self, seed, sizes, seconds, tracer, workdir,
                 flip_byte=False):
        self.seed = seed
        self.sizes = sizes
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.flip_byte = flip_byte
        self.checks = Checks()
        self.setup_times = []
        self.untraced_passes = []   # calibrated ms of each untraced pass
        self.traced_passes = []
        self.calibrated = []        # per untraced pass: each request's ms
        self.request_ms = None      # each request's median over them
        self.reference_all = []     # every reference sample's ms
        self._sampling = False
        self.env = {}

    def _sample(self, samples: list):
        if self._sampling:  # a tick that lands inside a sample
            return
        # with the collector off, no collection is charged to the job or
        # pushed by its allocations into the program's requests; the job
        # frees what it allocates, so the collector's counts end as before
        self._sampling, enabled = True, gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            ms = min(reference_ms(), reference_ms())
            samples.append((start, time.perf_counter_ns(), ms))
        finally:
            if enabled:
                gc.enable()
            self._sampling = False

    @contextlib.contextmanager
    def calibrating(self, timer=True):
        """Yield a list that fills with reference samples: one on entry,
        one on exit and, with `timer`, one every CALIBRATE_EVERY_S in
        between, taken from a SIGALRM handler so that samples also fall
        inside long requests."""
        samples = []
        self._sample(samples)
        if timer:
            old = signal.signal(signal.SIGALRM,
                                lambda *_: self._sample(samples))
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                             CALIBRATE_EVERY_S)
        try:
            yield samples
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            self._sample(samples)
            self.reference_all += [ms for *_, ms in samples]

    def set_up(self, build):
        """Call `build(timed)` SETUPS times (once when tracing); each must
        yield a node with the same digest. Returns the last node. The
        calls `build` issues through `timed` make up the set-up time."""
        digests = set()
        for _ in range(1 if self.tracer else SETUPS):
            requests = []

            def timed(fn, *args):
                start = time.perf_counter_ns()
                out = fn(*args)
                requests.append((start, time.perf_counter_ns() - start))
                return out

            with self.calibrating() as samples:
                result = build(timed)
            self.setup_times.append(
                sum(calibrated_ms(requests, samples)) / 1e3)
            digests.add(result.full_digest())
        self.checks.require(len(digests) == 1,
                            "set-ups of one seed gave different digests")
        return result

    def measure(self, one_pass):
        """Repeat `one_pass(traced)` until the time is up. It returns
        (start ns, duration ns) of each request of the pass, in order."""
        start = time.perf_counter()
        i = 0
        while (i == 0 or time.perf_counter() - start < self.seconds
               or (self.tracer and not self.traced_passes)):
            traced = self.tracer is not None and i % 2 == 1
            # no timer in traced passes: its samples would land in spans
            with self.calibrating(timer=not traced) as samples:
                requests = one_pass(traced)
            requests = calibrated_ms(requests, samples)
            if traced:
                self.traced_passes.append(sum(requests))
            else:
                self.untraced_passes.append(sum(requests))
                self.calibrated.append(requests)
            i += 1
        self.request_ms = [statistics.median(ms)
                           for ms in zip(*self.calibrated)]

    @contextlib.contextmanager
    def tracing(self, traced: bool):
        """Wrap the layers for the requests of a traced pass only, so
        restoring the ledger and checking it afterwards stay untraced."""
        if not traced:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def layer_metrics(self, base: Node) -> dict:
        traced = len(self.traced_passes)
        return self.tracer.metrics(traced, {
            "storage.objects": len(base.state.store.objects),
            "identity.stakeholders": len(base.state.registry.stakeholders),
            "trace.spans": len(self.tracer.spans) / traced,
            "trace.overhead_ms": (statistics.median(self.traced_passes)
                                  - statistics.median(self.untraced_passes)),
        })

    def e2e(self, ops: int, ops_ms: float, samples_ms: list) -> dict:
        """`ops` ops take `ops_ms`; `samples_ms` are the requests that
        are latency samples."""
        return {
            "setup_s": statistics.median(self.setup_times),
            "ops_per_s": ops / (ops_ms / 1e3),
            "op_p50_ms": statistics.median(samples_ms),
            "op_p95_ms": quantile(samples_ms, 0.95),
        }


# -- trade_loop --------------------------------------------------------------


def trade_loop(run: Run) -> tuple:
    admin_key, setup_ops, gen = ledgergen.build_model(run.seed, run.sizes)
    market = gen.market(run.sizes.trade_rounds)
    base = run.set_up(lambda timed: build_ledger(admin_key, setup_ops,
                                                 run.checks, timed))
    digests, ends = set(), []

    def one_pass(traced):
        node_ = copy.deepcopy(base)
        lat, codes = [], []
        with run.tracing(traced):
            for i, op in enumerate(market):
                if traced:
                    run.tracer.request = i + 1
                t0 = time.perf_counter_ns()
                codes.append(execute(node_, op))
                lat.append((t0, time.perf_counter_ns() - t0))
        for op, code in zip(market, codes):
            run.checks.request(code == op.expect,
                               f"{op.operation}: got {code}, want {op.expect}")
        digests.add(node_.full_digest())
        ends.append(len(node_.state.chain.blocks))
        check_ledger(run.checks, node_, gen.m, "trade pass")
        return lat

    run.measure(one_pass)
    run.checks.require(len(digests) == 1, "passes ended in different states")
    run.env.update(chain_blocks_start=len(base.state.chain.blocks),
                   chain_blocks_end=ends[0], final_digest=digests.pop(),
                   requests_per_pass=len(market))
    if run.tracer:
        return run.layer_metrics(base), {}
    return (run.e2e(len(market), sum(run.request_ms), run.request_ms),
            {"op_mix": op_mix([op.mix for op in market], run.request_ms)})


# -- cli_session ------------------------------------------------------------


def _build_and_save(admin_key, ops, checks, state_dir, timed) -> Node:
    node_ = build_ledger(admin_key, ops, checks, timed)
    shutil.rmtree(state_dir, ignore_errors=True)
    timed(persistence.save_state, state_dir, node_)
    return node_


FSYNC_POLICY = ("the program's own: save_state fsyncs every file it "
                "writes, no directory fsync")


def cli_session(run: Run) -> tuple:
    sizes = run.sizes
    admin_key, setup_ops, gen = ledgergen.build_model(run.seed, sizes)
    steps = gen.session(sizes.cli_rounds, sizes.script_lines)
    pristine = os.path.join(run.workdir, "pristine")
    base = run.set_up(lambda timed: _build_and_save(
        admin_key, setup_ops, run.checks, pristine, timed))

    # the same writes, issued in process through Node.execute, give the
    # digests the session's reads and its final state must show
    shadow = copy.deepcopy(base)
    for step in steps:
        for op in step.ops:
            code = execute(shadow, op)
            run.checks.require(code == op.expect,
                               f"shadow {op.operation}: got {code}")
        if step.expect and step.expect.get("digest", "") is None:
            step.expect["digest"] = shadow.full_digest()
    want_digest = shadow.full_digest()

    state_dir = os.path.join(run.workdir, "session")
    script = os.path.join(run.workdir, "session.script")
    with open(script, "w", encoding="utf-8") as fh:
        fh.write(ledgergen.script_text(
            next(s for s in steps if s.kind == "script")))
    argvs = [s.argv + ([script] if s.kind == "script" else [])
             + ["--state-dir", state_dir, "--json"] for s in steps]
    written = []  # bytes the writes of each untraced pass wrote
    digests, ends = set(), []

    def one_pass(traced):
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.copytree(pristine, state_dir)
        records, nbytes = [], 0
        with run.tracing(traced):
            for i, (step, argv) in enumerate(zip(steps, argvs)):
                if traced:
                    run.tracer.request = i + 1
                out, err = io.StringIO(), io.StringIO()
                before = written_bytes() if step.kind != "read" else None
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    t0 = time.perf_counter_ns()
                    rc = cli.main(argv)
                    dt = time.perf_counter_ns() - t0
                if before is not None:
                    nbytes += written_bytes() - before
                records.append((step, rc, out.getvalue(), err.getvalue(),
                                (t0, dt)))
        for step, rc, out, err, _ in records:
            if step.expect_code:
                ok = rc != 0 and err.startswith(f"error: {step.expect_code}")
            else:
                ok = rc == 0 and _subset(json.loads(out), step.expect)
            run.checks.request(ok, f"{' '.join(step.argv[:2])}: rc {rc} "
                                   f"{err.strip() or out[:200]}")
        if not traced:
            written.append(nbytes)
        final = persistence.load_state(state_dir)
        digests.add(final.full_digest())
        ends.append(len(final.state.chain.blocks))
        check_ledger(run.checks, final, gen.m, "cli pass")
        return [timing for *_, timing in records]

    run.measure(one_pass)
    shutil.rmtree(state_dir, ignore_errors=True)
    run.checks.require(digests == {want_digest},
                       "CLI state differs from the in-process replay")
    ops_per_pass = len(steps) - 1 + sizes.script_lines
    run.env.update(chain_blocks_start=len(base.state.chain.blocks),
                   chain_blocks_end=ends[0], final_digest=want_digest,
                   requests_per_pass=ops_per_pass, fsync=FSYNC_POLICY)
    if run.tracer:
        return run.layer_metrics(base), {}
    by_kind = {"read": [], "write": [], "script": []}
    for step, ms in zip(steps, run.request_ms):
        by_kind[step.kind].append(ms)
    mutations = sum(len(s.ops) for s in steps
                    if s.kind != "read" and not s.expect_code)
    # the script is one invocation of many lines: it counts toward
    # ops_per_s line by line but is not an op latency sample
    metrics = run.e2e(ops_per_pass, sum(run.request_ms),
                      by_kind["read"] + by_kind["write"])
    detail = {
        "read_p50_ms": statistics.median(by_kind["read"]),
        "read_p95_ms": quantile(by_kind["read"], 0.95),
        "write_p50_ms": statistics.median(by_kind["write"]),
        "write_p95_ms": quantile(by_kind["write"], 0.95),
        "script_lines_per_s": sizes.script_lines / (by_kind["script"][0] / 1e3),
        "write_bytes_per_op": statistics.median(written) / mutations,
        "samples": {k: len(v) for k, v in by_kind.items()},
        "op_mix": op_mix([step.mix for step in steps], run.request_ms),
    }
    return metrics, detail


# -- audit_replay -----------------------------------------------------------


def _flip_digit(state_dir: str):
    """Change one digit of a recorded amount: the JSON still parses, but
    the block no longer matches its hash."""
    path = os.path.join(state_dir, "chain.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    at = data.index(b'"amount":', len(data) // 2) + len(b'"amount":')
    data[at] = ord("8") if data[at] == ord("9") else data[at] + 1
    with open(path, "wb") as fh:
        fh.write(data)


AUDIT_STEPS = ("load_state", "verify", "full_digest", "ledger_digest",
               "replay", "snapshot_round_trip")
# a pass is about 2 s of wall time, nearly all of it replay, so a run
# holds a dozen passes; each step but replay is repeated within a pass,
# or its figure would be the median of a dozen 5 ms samples
STEP_REPEATS = 5
AUDIT_PASS = tuple(name for name in AUDIT_STEPS
                   for _ in range(1 if name == "replay" else STEP_REPEATS))


def audit_replay(run: Run) -> tuple:
    admin_key, setup_ops, gen = ledgergen.build_model(run.seed, run.sizes)
    ops = setup_ops + gen.market(run.sizes.audit_rounds)
    state_dir = os.path.join(run.workdir, "audit")
    base = run.set_up(lambda timed: _build_and_save(
        admin_key, ops, run.checks, state_dir, timed))
    if run.flip_byte:
        _flip_digit(state_dir)
    live_full, live_ledger = base.full_digest(), base.ledger_digest()
    blocks = len(base.state.chain.blocks)

    def one_pass(traced):
        """Each run of an audit step is one request; a load that fails
        ends the pass, and the requests it skipped count as failed."""
        checks = run.checks
        lat, got = [], []
        with run.tracing(traced):
            node_ = None
            for name in AUDIT_PASS:
                t0 = time.perf_counter_ns()
                try:
                    if name == "load_state":
                        node_ = persistence.load_state(state_dir)
                        ok = True
                    elif name == "verify":
                        ok = node_.state.chain.verify()
                    elif name == "full_digest":
                        ok = node_.full_digest() == live_full
                    elif name == "ledger_digest":
                        ok = node_.ledger_digest() == live_ledger
                    elif name == "replay":
                        ok = node_.replay().full_digest() == live_full
                    else:
                        snapshot = persistence.export_snapshot(node_)
                        ok = persistence.import_snapshot(
                            snapshot).full_digest() == live_full
                except LedgerError as exc:
                    ok = exc.code
                lat.append((t0, time.perf_counter_ns() - t0))
                got.append(ok)
                if name == "load_state" and ok is not True:
                    break
        lat += [(0, 0)] * (len(AUDIT_PASS) - len(lat))
        got += ["skipped"] * (len(AUDIT_PASS) - len(got))
        for name, ok in zip(AUDIT_PASS, got):
            checks.request(ok is True, f"audit step {name}: {ok}")
        if node_ is not None:
            check_ledger(checks, node_, gen.m, "audited ledger")
        return lat

    run.measure(one_pass)
    shutil.rmtree(state_dir, ignore_errors=True)
    run.env.update(chain_blocks_start=blocks, chain_blocks_end=blocks,
                   final_digest=live_full, requests_per_pass=len(AUDIT_PASS),
                   fsync=FSYNC_POLICY)
    if run.tracer:
        return run.layer_metrics(base), {}
    # a step's figure is the median over its repeats of their medians
    # over the passes
    steps_ms = {name: statistics.median(
        ms for step, ms in zip(AUDIT_PASS, run.request_ms) if step == name)
        for name in AUDIT_STEPS}
    audit_ms = sum(steps_ms.values())
    metrics = run.e2e(len(AUDIT_STEPS), audit_ms, list(steps_ms.values()))
    detail = {
        "audit_s": audit_ms / 1e3,
        "replay_blocks_per_s": (blocks - 1) / (steps_ms["replay"] / 1e3),
        "load_ms": steps_ms["load_state"],
        "step_ms": steps_ms,
    }
    return metrics, detail


WORKLOADS = {"trade_loop": trade_loop, "cli_session": cli_session,
             "audit_replay": audit_replay}
