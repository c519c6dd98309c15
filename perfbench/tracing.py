"""Spans around the public functions of each peerdeploy module.

The wrappers live here, not in the program: `Tracer.install` replaces each
function where its callers look it up (a module attribute or a class
attribute) and `uninstall` puts the originals back. Spans are kept in memory
as columns (name, start, end, parent, op id) and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

from peerdeploy import ids, overlay, repo, routing, scenario, simnet, store

# (span name, owners to patch, attribute). An owner is the module or class
# through which callers reach the function.
SPANS = [
    ("ids.derive_key", (ids, store, scenario), "derive_key"),
    ("routing.next_hop", (routing, overlay), "next_hop_from_state"),
    ("routing.leaf_insert", (routing.LeafSet,), "insert"),
    ("routing.table_insert", (routing.RoutingTable,), "insert"),
    ("simnet.send", (simnet.SimNetwork,), "send"),
    ("simnet.loop", (simnet.SimNetwork,), "_step"),
    ("simnet.live_ids", (simnet.SimNetwork,), "live_ids"),
    ("simnet.sweep", (simnet.SimNetwork,), "sweep_eviction"),
    ("overlay.join", (overlay,), "join"),
    ("overlay.leave", (overlay,), "leave"),
    ("overlay.learn", (overlay.OverlayNode,), "learn"),
    ("overlay.repair", (overlay.OverlayNode,), "repair"),
    ("store.lookup", (store,), "lookup"),
    ("store.publish", (store,), "publish"),
    ("store.evict", (store.NodeStore,), "evict"),
    ("store.handoff", (overlay,), "handoff_on_join"),
    ("store.relinquish", (overlay,), "relinquish_roots"),
    ("repo.resolve", (repo,), "resolve"),
    ("repo.install", (repo,), "install"),
    ("repo.lifecycle", (repo,), "start"),
    ("repo.lifecycle", (repo,), "stop"),
    ("repo.lifecycle", (repo,), "uninstall"),
    ("repo.publish_local", (repo,), "publish_local"),
    ("scenario.build_network", (scenario,), "build_network"),
]

# Spans whose messages sent per call are reported.
MESSAGE_SPANS = ("overlay.join", "overlay.leave", "store.lookup")
COUNTERS = ("simnet.sweep.stores_scanned", "simnet.sweep.useful", "store.evict.evicted",
            "store.evict.useful", "repo.install.fetches")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.sent: list[int] = []
        self.counts: dict[str, float] = {}
        self.op_id = 0
        self.sends = 0
        self._stack: list[list[int]] = []  # [span index, start, child ns, sends at entry]
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.sent.append(0)
        return self.names.index(name)

    def bump(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    # -- wrapping

    def span(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0)
            frame = [index, 0, 0, self.sends]
            stack.append(frame)
            frame[1] = start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[index] = end
                self.calls[nid] += 1
                self.self_ns[nid] += duration - frame[2]
                self.sent[nid] += self.sends - frame[3]
                if stack:
                    stack[-1][2] += duration

        return traced

    def install(self) -> "Tracer":
        counted = {
            "simnet.send": self._count_send,
            "simnet.sweep": self._count_sweep,
            "store.evict": self._count_evict,
            "repo.install": self._count_install,
            "repo.resolve": self._count_resolve,
        }
        for name, owners, attr in SPANS:
            for owner in owners:
                original = getattr(owner, attr)
                inner = counted[name](original) if name in counted else original
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.span(name, inner))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count_send(self, fn):
        def send(*args, **kwargs):
            self.sends += 1
            return fn(*args, **kwargs)
        return send

    def _count_sweep(self, fn):
        def sweep(*args, **kwargs):
            scanned = self.calls_of("store.evict")
            evicted = fn(*args, **kwargs)
            self.bump("simnet.sweep.stores_scanned", self.calls_of("store.evict") - scanned)
            self.bump("simnet.sweep.useful", evicted > 0)
            return evicted
        return sweep

    def _count_evict(self, fn):
        def evict(*args, **kwargs):
            evicted = fn(*args, **kwargs)
            self.bump("store.evict.evicted", len(evicted))
            self.bump("store.evict.useful", bool(evicted))
            return evicted
        return evict

    def _count_install(self, fn):
        def install(*args, **kwargs):
            fetched = self.calls_of("store.lookup")
            try:
                return fn(*args, **kwargs)
            finally:
                self.bump("repo.install.fetches", self.calls_of("store.lookup") - fetched)
        return install

    def _count_resolve(self, fn):
        def resolve(*args, **kwargs):
            groups = fn(*args, **kwargs)
            self.bump("repo.resolve.closure", sum(len(g.members) for g in groups))
            return groups
        return resolve

    # -- results

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[nid], "count")
            out[name + ".self_s"] = (self.self_ns[nid] / 1e9, "s")
            if name in MESSAGE_SPANS:
                out[name + ".msgs_per_call"] = (
                    self.sent[nid] / self.calls[nid] if self.calls[nid] else 0.0, "msgs/call")
        for name in COUNTERS:
            out[name] = (self.counts.get(name, 0), "count")
        resolves = self.calls_of("repo.resolve")
        out["repo.resolve.closure_mean"] = (
            self.counts.get("repo.resolve.closure", 0) / resolves if resolves else 0.0, "bundles")
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start ns, end ns, parent span
        index (-1 for none), op id. Line i (after the header) is span i."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_op)
            names = self.names
            out.writelines(f"{names[n]}\t{s}\t{e}\t{p}\t{o}\n" for n, s, e, p, o in rows)
