"""Per-layer timings and counts, taken from outside the package.

A layer is one module of estateledger, plus ``runtime`` for the garbage
collector. ``Tracer.install`` wraps the modules' public functions and
methods, the ``Node`` executors and the ``copy.deepcopy`` that ``node``,
``tokens`` and ``property_contract`` call; ``uninstall`` puts every
original back. Nothing under ``src/`` is edited. Wrapped calls record a
span (id, parent span, request, name, start, end) in memory; counters
record calls and bytes. A layer's ``_ms`` metric is the total time of
its spans, except ``node.admit`` and ``cli.dispatch``, which are self
time: the span minus the time of the spans it called.
"""

import copy
import gc
import json
import os
import sys
import time
from collections import Counter

from estateledger import canonical, chain, cli, merkle, node, persistence
from estateledger.errors import LedgerError


def written_bytes():
    """Bytes this process has passed to write(2) so far (wchar), or None
    where /proc/self/io is not readable."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class _CopyModule:
    """Stands in for `copy` inside one module, with deepcopy wrapped."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy

    def __getattr__(self, name):
        return getattr(copy, name)


class Tracer:
    def __init__(self, units: dict):
        self.units = units        # per-layer metric name -> unit
        self.ns = Counter()       # span name -> nanoseconds
        self.counts = Counter()   # counter name -> calls or bytes
        self.spans = []           # (id, parent, request, name, start, end)
        self.request = 0          # set by the workload before each request
        self._stack = []          # [span id, nanoseconds spent in children]
        self._next_id = 1
        self._undo = []
        self._gc_start = None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, self_time=False):
        stack, ns, spans = self._stack, self.ns, self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                ns[name] += end - start - (frame[1] if self_time else 0)
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, self.request, name, start, end))
        return wrapper

    def count(self, name, fn, out_bytes=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1
            if out_bytes:
                counts[out_bytes] += len(out)
            return out
        return wrapper

    def _rejections(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except LedgerError as exc:
                counts["node.rejected_total"] += 1
                counts[f"node.rejected.{exc.code}"] += 1
                raise
        return wrapper

    def _save_sizes(self, fn):
        counts = self.counts

        def wrapper(state_dir, node_, *args, **kwargs):
            before = written_bytes()
            out = fn(state_dir, node_, *args, **kwargs)
            if before is not None:
                counts["persistence.save_bytes"] += written_bytes() - before
            for fname, key in (("chain.json", "persistence.chain_json_bytes"),
                               ("state.json", "persistence.state_json_bytes")):
                path = os.path.join(state_dir, fname)
                if os.path.exists(path):
                    counts[key] += os.path.getsize(path)
            return out
        return wrapper

    def _merkle_leaves(self, fn):
        counts = self.counts

        def wrapper(tree, leaves, *args, **kwargs):
            counts["merkle.leaves"] += len(leaves)
            return fn(tree, leaves, *args, **kwargs)
        return wrapper

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            self.ns["runtime.gc"] += time.perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1
            self._gc_start = None

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, name, value):
        missing = object()
        self._undo.append((owner, name, vars(owner).get(name, missing),
                           missing))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper):
        """Replace `original` under every name any estateledger module
        imported it as."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("estateledger"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self):
        # a module that stops calling copy.deepcopy simply reports zero
        for layer, span, calls in (
                ("node", "node.snapshot", "node.deepcopy_calls"),
                ("tokens", "tokens.scratch_copy", "tokens.scratch_copy_calls"),
                ("property_contract", "property_contract.scratch_copy",
                 "property_contract.scratch_copy_calls")):
            mod = sys.modules[f"estateledger.{layer}"]
            if "copy" in vars(mod):
                self._set(mod, "copy", _CopyModule(
                    self.count(calls, self.span(span, copy.deepcopy))))
        self._set(node.Node, "execute", self._rejections(
            self.span("node.admit", node.Node.execute, self_time=True)))
        self._set(node.Node, "replay",
                  self.span("node.replay", node.Node.replay))
        self._executors = dict(node.EXECUTORS)
        for op, fn in self._executors.items():
            node.EXECUTORS[op] = self.span(f"node.executor.{op}", fn)
        self._set(chain.Chain, "append_block",
                  self.span("chain.append_block", chain.Chain.append_block))
        self._set(chain.Chain, "verify",
                  self.span("chain.verify", chain.Chain.verify))
        self._set(chain.Block, "to_dict",
                  self.count("chain.block_to_dict_calls",
                             chain.Block.to_dict))
        self._set(chain.Block, "from_dict", classmethod(self.count(
            "chain.block_from_dict_calls",
            vars(chain.Block)["from_dict"].__func__)))
        self._rebind(canonical.canonical_json_bytes, self.count(
            "canonical.json_bytes_calls", canonical.canonical_json_bytes,
            out_bytes="canonical.json_bytes_out"))
        for name in ("load_state", "export_snapshot", "import_snapshot"):
            fn = getattr(persistence, name)
            self._rebind(fn, self.span(f"persistence.{name}", fn))
        self._rebind(persistence.save_state, self._save_sizes(
            self.span("persistence.save_state", persistence.save_state)))
        self._rebind(cli.build_parser,
                     self.span("cli.parse", cli.build_parser))
        self._set(cli.Parser, "parse_args",
                  self.span("cli.parse", cli.Parser.parse_args))
        self._rebind(cli.dispatch,
                     self.span("cli.dispatch", cli.dispatch, self_time=True))
        self._set(merkle.MerkleTree, "__init__", self._merkle_leaves(
            self.span("merkle.tree_build", merkle.MerkleTree.__init__)))
        self._set(merkle.MerkleTree, "prove",
                  self.span("merkle.prove", merkle.MerkleTree.prove))
        self._rebind(merkle.verify_proof,
                     self.span("merkle.verify_proof", merkle.verify_proof))
        gc.callbacks.append(self._gc)

    def uninstall(self):
        gc.callbacks.remove(self._gc)
        node.EXECUTORS.update(self._executors)
        while self._undo:
            owner, name, value, missing = self._undo.pop()
            if value is missing:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, extra: dict) -> dict:
        """Every per-layer metric as a total per traced pass: a metric
        `x_ms` is the time of spans named `x`, any other a counter.
        `extra` supplies values measured outside the wrappers."""
        out = {}
        for name, unit in self.units.items():
            if name in extra:
                out[name] = extra[name]
            elif unit == "ms":
                out[name] = self.ns[name[:-3]] / 1e6 / passes
            else:
                out[name] = self.counts[name] / passes
        return out

    def write(self, path: str):
        """Spans as JSON lines, then one line of counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": req, "name": name,
                                     "start_ns": start, "end_ns": end}))
                fh.write("\n")
            fh.write(json.dumps({"counters": dict(self.counts),
                                 "span_ns": dict(self.ns)}) + "\n")
