"""Deterministic discrete-event message transport between overlay nodes.

Time is an integer tick counter. Every message becomes exactly one delivery
or one timeout event; events dequeue in (time, insertion sequence) order, so
a run with the same seed and the same call sequence replays bit-exactly.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from enum import Enum
from hashlib import blake2b
from typing import Any, Callable, Optional

from . import ids
from .errors import (
    DuplicateNodeError,
    LivelockSuspectedError,
    NoSuchNodeError,
    RoutingFailureError,
)


class NodeStatus(Enum):
    JOINING = "JOINING"
    LIVE = "LIVE"
    DEPARTED = "DEPARTED"


# A module name for the status the transport tests on every message: a global
# read, where `NodeStatus.DEPARTED` goes through the enum class.
_DEPARTED = NodeStatus.DEPARTED


class MessageKind(Enum):
    JOIN = "JOIN"
    JOIN_REPLY = "JOIN_REPLY"
    ANNOUNCE = "ANNOUNCE"
    ROUTE_STEP = "ROUTE_STEP"
    PUBLISH = "PUBLISH"
    PUBLISH_ACK = "PUBLISH_ACK"
    LOOKUP = "LOOKUP"
    LOOKUP_REPLY = "LOOKUP_REPLY"
    FETCH = "FETCH"
    FETCH_REPLY = "FETCH_REPLY"
    REMOVE = "REMOVE"
    REMOVE_REPLY = "REMOVE_REPLY"
    DROP = "DROP"
    TRANSFER = "TRANSFER"
    TRANSFER_ACK = "TRANSFER_ACK"
    HANDOFF = "HANDOFF"
    GOODBYE = "GOODBYE"
    REPAIR = "REPAIR"
    REPAIR_REPLY = "REPAIR_REPLY"


@dataclass
class SimConfig:
    latency_min: int = 10
    latency_max: int = 100  # exclusive
    timeout: int = 500
    retries: int = 3
    maintenance_interval: int = 100

    def __post_init__(self):
        if self.latency_min < 0 or self.latency_max <= self.latency_min:
            raise ValueError("latency bounds must satisfy 0 <= min < max")
        if self.timeout <= self.latency_max:
            raise ValueError("timeout must exceed the maximum latency")
        if self.retries < 0 or self.maintenance_interval <= 0:
            raise ValueError("retries must be >= 0 and maintenance_interval > 0")


@dataclass(slots=True)
class Message:
    kind: MessageKind
    from_id: int
    to_id: int
    data: dict[str, Any]
    op: Optional[Operation]
    deadline: int


# A handler gets (op, node, msg), so a method of the op's class is one; both
# reach the network as `op.net` and `node.net`. On delivery the node is the
# receiver; on a timeout it is the sender, or None when the sender has
# departed too. The op is None for a message that belongs to no operation.
# Each kind has at most one handler of each sort.
Handler = Callable[[Optional["Operation"], Any, Message], None]

_DELIVER: dict[MessageKind, Handler] = {}
_TIMEOUT: dict[MessageKind, Handler] = {}


def _register(handlers: dict[MessageKind, Handler], kind: MessageKind):
    def wrap(fn: Handler) -> Handler:
        if kind in handlers:
            raise ValueError(f"{kind.value} is handled by {handlers[kind].__qualname__} already")
        handlers[kind] = fn
        return fn

    return wrap


def on_deliver(kind: MessageKind):
    return _register(_DELIVER, kind)


def on_timeout(kind: MessageKind):
    return _register(_TIMEOUT, kind)


class Operation:
    """Bookkeeping for one protocol exchange (route, publish, ...). `run`
    starts it through `start` in the network of its first node, which it
    reaches as `self.net`, and drains the event queue; its messages carry
    it, and methods of its class handle them. It ends once, through
    `complete` or `fail`: both call `end`, which drops it from `net.ops` (the
    open ops) and counts it. An op awaits answers only through `fan_out`,
    which adds them to `pending`; `settle` takes one answer off, and the last
    completes it with `result`.

    The one retry rule: a message of the op that is lost may go again while
    no more than SimConfig.retries messages about its key were lost. The
    count is per key, whichever node sent them."""

    kind = "op"

    def __init__(self):
        self.net: SimNetwork | None = None  # set by SimNetwork.new_op
        self.op_id: int | None = None
        self.done = False
        self.result: Any = None
        self.error: Exception | None = None
        self.pending = 0
        self.lost: dict[int, int] | None = None  # made at the first loss

    def run(self, node) -> Any:
        """Start the op at `node` and drain the event queue; by then it has ended, or stalled."""
        node.net.new_op(self)
        self.start(node)
        self.net.run_until_quiescent()
        if not self.done:
            self.fail(LivelockSuspectedError(f"{self.kind} stalled with an empty event queue"))
        if self.error is not None:
            raise self.error
        return self.result

    def may_retry(self, key: int) -> bool:
        """Count one more loss for `key`; True while the op may send it again."""
        lost = self.lost = self.lost or {}
        lost[key] = lost.get(key, 0) + 1
        return lost[key] <= self.net.config.retries

    def fan_out(self, sender: int, kind: MessageKind,
                sends: list[tuple[int, dict[str, Any] | None]]) -> None:
        """Send `kind` from `sender` per (target, data) pair, adding one awaited
        answer each; an op that then awaits none is complete."""
        self.pending += len(sends)
        for target, data in sends:
            self.net.send(sender, target, kind, data, op=self)
        if self.pending == 0:
            self.complete(None)

    def settle(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.complete(self.result)

    def complete(self, result: Any) -> None:
        self.result = result
        self.end()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.end()

    def end(self) -> None:
        """Retire the op, which ends exactly once, and count it."""
        self.done = True
        net = self.net
        del net.ops[self.op_id]
        self.record(net.metrics)

    def record(self, metrics: "Metrics") -> None:
        """Count the finished op in the metrics document. Handoff and
        relinquish are steps of a join or a leave, which count themselves."""


class RoutedOp(Operation):
    """A request carried hop by hop toward the root of `key`.

    Every node the request reaches is appended to `path` and runs `arrive`,
    which may take the op over (a lookup that finds an entry). Otherwise the
    node forwards `message` to its next hop, or, when it names itself, runs
    `at_root`. So path[0] is the node the op started at and path[-1] the node
    it is at; the op keeps no other copy of either. A next hop already on
    `path` fails the op: a walk that comes back to a node would loop. A
    reply walks `path` backwards as `reply` messages, skipping nodes that
    died, or every middle node when DIRECT; `reply_home` runs on path[0],
    and a walk that is not DIRECT runs `reply_at` on each node it passes. A
    forward timeout re-routes from the sender, whose repair dropped the dead
    contact, while `may_retry` allows it. A subclass that defines `message`
    has `advance` and `timed_out` handle it, and one that defines `reply`
    has `reply_arrived` and `reply_lost` handle that. Every subclass
    supplies `at_root(node)`, and one that replies `reply_home(node, data)`.
    """

    message: MessageKind
    reply: MessageKind
    DIRECT = False  # True: the reply goes from path[-1] straight to path[0]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "message" in cls.__dict__:
            on_deliver(cls.message)(cls.advance)
            on_timeout(cls.message)(cls.timed_out)
        if "reply" in cls.__dict__:
            on_deliver(cls.reply)(cls.reply_arrived)
            on_timeout(cls.reply)(cls.reply_lost)

    def __init__(self, key: int):
        super().__init__()
        self.key = key
        self.path: list[int] = []

    def advance(self, node, msg: Message | None = None) -> None:
        if not self.path or self.path[-1] != node.id:
            self.path.append(node.id)
        if self.arrive(node):
            self.route_on(node)

    start = advance  # a routed op starts with its first step, at its origin

    def route_on(self, node) -> None:
        nh = self.next_hop(node)
        if nh == node.id:
            self.at_root(node)
        else:
            self.forward(node, nh)

    def forward(self, node, nh: int) -> None:
        if nh in self.path:
            self.fail(self.failure(f"revisited {ids.to_hex(nh)}"))
        else:
            self.net.send(node.id, nh, self.message, op=self)

    def timed_out(self, sender, msg: Message) -> None:
        if sender is None:
            self.fail(self.failure("lost a path node"))
        elif not self.may_retry(self.key):
            self.fail(self.failure(f"timed out at {ids.to_hex(msg.to_id)} "
                                   f"after {self.net.config.retries} retries"))
        else:
            self.advance(sender)

    def reply_from(self, node, data: dict[str, Any]) -> None:
        """Start the reply at the last node of the path."""
        index = len(self.path) - 1
        if index == 0:
            self.reply_home(node, data)
        else:
            self.pass_back(node.id, index, data)

    def pass_back(self, from_id: int, index: int, data: dict[str, Any]) -> None:
        """Send the reply from path[index] on to path[index - 1], or to path[0] if DIRECT."""
        index = 0 if self.DIRECT else index - 1
        self.net.send(from_id, self.path[index], self.reply, {**data, "index": index}, op=self)

    def reply_arrived(self, node, msg: Message) -> None:
        index = msg.data["index"]
        if index == 0:
            self.reply_home(node, msg.data)
        else:
            self.reply_at(node, msg.data)
            self.pass_back(node.id, index, msg.data)

    def reply_lost(self, sender, msg: Message) -> None:
        # The receiver died: skip it and keep walking toward path[0].
        index = msg.data["index"]
        if sender is None:
            self.fail(self.failure("lost its reply path"))
        elif index == 0:
            self.fail(self.failure("lost its requester during the reply"))
        else:
            self.pass_back(msg.from_id, index, msg.data)

    def record(self, metrics: "Metrics") -> None:
        failed = self.error is not None
        metrics.record_op(self.kind, hops=None if failed else self.hops(), failed=failed)

    # Hooks with a default.

    def arrive(self, node) -> bool:
        """Runs on every node reached; False when the op was handled here."""
        return True

    def next_hop(self, node) -> int:
        return node.next_hop(self.key)

    def failure(self, reason: str) -> Exception:
        return RoutingFailureError(f"{self.kind} to {ids.to_hex(self.key)} {reason}",
                                   partial_path=list(self.path))

    def hops(self) -> int | None:
        return len(self.path) - 1


class Metrics:
    """Monotone counters plus point-in-time store snapshots."""

    def __init__(self):
        self.sent: dict[str, int] = {}
        self.delivered: dict[str, int] = {}
        self.timeouts: dict[str, int] = {}
        self.op_counts: dict[str, int] = {}
        self.op_failures: dict[str, int] = {}
        self.hop_histograms: dict[str, dict[int, int]] = {}
        self.events_processed = 0
        self.evictions = 0
        self.node_failures = 0
        self.dumps: list[dict[str, Any]] = []
        self.replica_samples: list[dict[str, Any]] = []
        self.assertions: list[dict[str, Any]] = []
        self.workloads: list[dict[str, Any]] = []

    def record_op(self, op_kind: str, hops: int | None = None, failed: bool = False) -> None:
        self.op_counts[op_kind] = self.op_counts.get(op_kind, 0) + 1
        if failed:
            self.op_failures[op_kind] = self.op_failures.get(op_kind, 0) + 1
        if hops is not None:
            hist = self.hop_histograms.setdefault(op_kind, {})
            hist[hops] = hist.get(hops, 0) + 1

    def to_document(self, net: "SimNetwork") -> dict[str, Any]:
        """The document DOCUMENT_SHAPE declares; `serialize_metrics` orders its keys."""
        ops: dict[str, Any] = {}
        for op_kind, count in self.op_counts.items():
            hist = self.hop_histograms.get(op_kind, {})
            total = sum(hist.values())
            weighted = sum(h * c for h, c in hist.items())
            ops[op_kind] = {
                "count": count,
                "failures": self.op_failures.get(op_kind, 0),
                "hops": {
                    "histogram": {str(h): c for h, c in hist.items()},
                    "mean": round(weighted / total, 6) if total else 0.0,
                    "max": max(hist) if hist else 0,
                },
            }
        return {
            "clock": net.clock,
            "seed": net.seed,
            "config": asdict(net.config),
            "messages": {
                "sent": dict(self.sent),
                "delivered": dict(self.delivered),
                "timeouts": dict(self.timeouts),
            },
            "operations": ops,
            "events_processed": self.events_processed,
            "evictions": self.evictions,
            "node_failures": self.node_failures,
            "live_nodes": len(net.live_ids()),
            "dumps": self.dumps,
            "replica_samples": self.replica_samples,
            "assertions": self.assertions,
            "workloads": self.workloads,
        }


# Every field of the metrics document. A type is a leaf: an int is never a
# bool, a float may be written as an int, and no number is negative. A dict
# is an object with exactly those fields, except that a dict keyed by `str`
# (any text) or by `int` (decimal digits) is an object whose keys are data. A
# one-item list is a list whose items all have that shape.
_COUNTS = {str: int}
DOCUMENT_SHAPE: dict[str, Any] = {
    "clock": int, "seed": int, "live_nodes": int,
    "events_processed": int, "evictions": int, "node_failures": int,
    "config": {f.name: int for f in fields(SimConfig)},
    "messages": {"sent": _COUNTS, "delivered": _COUNTS, "timeouts": _COUNTS},
    "operations": {str: {"count": int, "failures": int,
                         "hops": {"histogram": {int: int}, "mean": float, "max": int}}},
    "dumps": [{"clock": int, "nodes": [{
        "id": str, "name": str, "bytes": int,
        "entries": [{"key": str, "name": str, "role": str, "hits": int, "last_access": int}],
    }]}],
    "replica_samples": [{"clock": int, "counts": _COUNTS}],
    "assertions": [{"index": int, "predicate": str, "passed": bool}],
    "workloads": [{"kind": str, "nodes": int, "bundles": int, "requests": int,
                   "exponent": float, "outcomes": _COUNTS}],
}
_KINDS = {dict: "an object", list: "a list", int: "an integer", float: "a number",
          str: "a string", bool: "a boolean"}


def check_document(value: Any, shape: Any = DOCUMENT_SHAPE, where: str = "document") -> None:
    """Raise ValueError naming the path of the first field that `shape` does not allow."""
    kind = shape if isinstance(shape, type) else type(shape)
    if not isinstance(value, (int, float) if kind is float else kind) \
            or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where} is not {_KINDS[kind]}")
    if kind in (int, float) and value < 0:
        raise ValueError(f"{where} is negative")
    if kind is list:
        for i, item in enumerate(value):
            check_document(item, shape[0], f"{where}[{i}]")
    elif kind is dict and (keys := next(iter(shape))) in (str, int):
        for key, item in value.items():
            if keys is int and not key.isdecimal():
                raise ValueError(f"{where}.{key} is not an integer key")
            check_document(item, shape[keys], f"{where}.{key}")
    elif kind is dict:
        if value.keys() != shape.keys():
            odd = min(value.keys() ^ shape.keys())
            raise ValueError(f"{where}.{odd} is {'missing' if odd in shape else 'not a field'}")
        for key, item in shape.items():
            check_document(value[key], item, f"{where}.{key}")


def serialize_metrics(document: dict[str, Any]) -> str:
    """Canonical JSON text: sorted keys, tight separators, one trailing newline."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


class _HexCache(dict):
    """Id -> its 32-digit hex text, formatted once per id."""

    def __missing__(self, node_id: int) -> str:
        text = self[node_id] = f"{node_id:032x}"
        return text


class SimNetwork:
    def __init__(self, seed: int = 0, config: SimConfig | None = None, store_config=None):
        self.seed = seed
        self.config = config or SimConfig()
        self.store_config = store_config
        self.clock = 0
        self.rng = random.Random(seed)
        self.nodes: dict[int, Any] = {}
        self.metrics = Metrics()
        self.ops: dict[int, Operation] = {}
        self._queue: list[tuple[int, int, str, Message]] = []
        self._seq = 0
        self._op_seq = 0
        # sender -> (hash state fed "seed:sender:", receiver -> sends)
        self._senders: dict[int, tuple[blake2b, dict[int, int]]] = {}
        self._hex = _HexCache()
        self._live: list[int] = []  # ids of LIVE nodes, ascending

    # --- registry ---

    def register(self, node) -> None:
        existing = self.nodes.get(node.id)
        if existing is not None and existing.status is not NodeStatus.DEPARTED:
            raise DuplicateNodeError(f"node {ids.to_hex(node.id)} already present")
        self.nodes[node.id] = node

    def node(self, node_id: int):
        node = self.nodes.get(node_id)
        if node is None:
            raise NoSuchNodeError(f"unknown node {ids.to_hex(node_id)}")
        return node

    def live_node(self, node_id: int):
        node = self.node(node_id)
        if node.status is not NodeStatus.LIVE:
            raise NoSuchNodeError(f"node {ids.to_hex(node_id)} is not live")
        return node

    def reachable(self, node_id: int):
        """The node if it has not departed (it may still be joining), else None."""
        node = self.nodes.get(node_id)
        return node if node is not None and node.status is not _DEPARTED else None

    def live_ids(self) -> list[int]:
        """The ids of the live nodes, ascending, as a list the caller may keep."""
        return self._live[:]

    def set_status(self, node, status: NodeStatus) -> None:
        """Change a registered node's status. Every change after the node's
        construction goes through here, which keeps the live-id list."""
        was_live = node.status is NodeStatus.LIVE
        node.status = status
        if status is NodeStatus.LIVE and not was_live:
            bisect.insort(self._live, node.id)
        elif was_live and status is not NodeStatus.LIVE:
            del self._live[bisect.bisect_left(self._live, node.id)]

    # --- operations ---

    def new_op(self, op: Operation) -> Operation:
        self._op_seq += 1
        op.op_id = self._op_seq
        op.net = self
        self.ops[op.op_id] = op
        return op

    # --- transport ---

    def _latency(self, from_id: int, to_id: int) -> int:
        # Keyed by (seed, endpoints, per-pair sequence) so delivery times replay
        # regardless of unrelated rng consumption. blake2b hashes a stream, so
        # each sender's prefix is hashed once and copied per send; counting
        # per sender keeps no tuple per pair.
        hexes, config = self._hex, self.config
        sender = self._senders.get(from_id)
        if sender is None:
            prefix = blake2b(f"{self.seed}:{hexes[from_id]}:".encode(), digest_size=8)
            sender = self._senders[from_id] = (prefix, {})
        prefix, sent_to = sender
        n = sent_to[to_id] = sent_to.get(to_id, 0) + 1
        h = prefix.copy()
        h.update(f"{hexes[to_id]}:{n}".encode())
        low = config.latency_min
        return low + int.from_bytes(h.digest(), "big") % (config.latency_max - low)

    def send(self, from_id: int, to_id: int, kind: MessageKind,
             data: dict[str, Any] | None = None, op: Operation | None = None) -> Message:
        """The one way into the transport: queue the message for delivery, or
        for its timeout when the receiver has departed."""
        nodes = self.nodes
        sender = nodes.get(from_id)
        if sender is None:
            raise NoSuchNodeError(f"unknown node {ids.to_hex(from_id)}")
        if sender.status is _DEPARTED:
            raise NoSuchNodeError("departed nodes cannot send")
        clock = self.clock
        deadline = clock + self.config.timeout
        msg = Message(kind, from_id, to_id, data or {}, op, deadline)
        sent, name = self.metrics.sent, kind._value_  # _value_: no enum descriptor
        sent[name] = sent.get(name, 0) + 1
        receiver = nodes.get(to_id)
        seq = self._seq = self._seq + 1
        if receiver is None or receiver.status is _DEPARTED:
            heapq.heappush(self._queue, (deadline, seq, "timeout", msg))
        else:
            heapq.heappush(self._queue, (clock + self._latency(from_id, to_id), seq,
                                         "deliver", msg))
        return msg

    # --- event loop ---

    def _step(self) -> None:
        time, _, tag, msg = heapq.heappop(self._queue)
        if time > self.clock:
            self.clock = time
        self.metrics.events_processed += 1
        kind = msg.kind._value_
        if tag == "deliver":
            node = self.nodes.get(msg.to_id)
            if node is None or node.status is _DEPARTED:
                # Receiver died while the message was in flight.
                self._seq += 1
                heapq.heappush(self._queue, (max(msg.deadline, self.clock), self._seq,
                                             "timeout", msg))
                return
            delivered = self.metrics.delivered
            delivered[kind] = delivered.get(kind, 0) + 1
            node.observe(msg.from_id)
            handler = _DELIVER.get(msg.kind)
        else:
            timeouts = self.metrics.timeouts
            timeouts[kind] = timeouts.get(kind, 0) + 1
            node = self.reachable(msg.from_id)
            if node is not None:
                node.repair(msg.to_id)
            handler = _TIMEOUT.get(msg.kind)
        # A message that belongs to an op does nothing once that op is over.
        op = msg.op
        if handler is not None and (op is None or not op.done):
            handler(op, node, msg)
        # The one eviction trigger besides the sweep: whatever a delivery
        # wrote, the receiver's store ends it within its capacity.
        if tag == "deliver" and (store := node.store).overflowing():
            self.metrics.evictions += len(store.evict(self.clock))

    def run_until_quiescent(self) -> None:
        while self._queue:
            self._step()

    def advance(self, ticks: int) -> None:
        """Process everything due within `ticks`, sweeping eviction at each
        maintenance boundary, then move the clock to the target. A boundary
        where no event lands and no store is due would sweep for nothing,
        so the loop jumps straight to the next one that can."""
        target = self.clock + ticks
        interval = self.config.maintenance_interval
        boundary = self._next_sweep((self.clock // interval + 1) * interval)
        while boundary <= target:
            while self._queue and self._queue[0][0] <= boundary:
                self._step()
            if self.clock < boundary:
                self.clock = boundary
            self.sweep_eviction()
            boundary = self._next_sweep(boundary + interval)
        while self._queue and self._queue[0][0] <= target:
            self._step()
        if self.clock < target:
            self.clock = target

    def _next_sweep(self, earliest: int) -> float:
        """The first maintenance boundary at or after both `earliest` and the
        time the next queued event lands or a live store falls due to evict;
        inf when neither will happen."""
        nodes = self.nodes
        due = min((nodes[node_id].store.due_at() for node_id in self._live), default=math.inf)
        if self._queue:
            due = min(due, self._queue[0][0])
        if due == math.inf:
            return due
        interval = self.config.maintenance_interval
        return max(earliest, -(-due // interval) * interval)

    def sweep_eviction(self) -> int:
        """Evict on every live store that is due; the others would evict nothing."""
        now = self.clock
        evicted = 0
        for node_id in self._live:
            store = self.nodes[node_id].store
            if store.due_at() <= now:
                evicted += len(store.evict(now))
        self.metrics.evictions += evicted
        return evicted

    # --- failure injection ---

    def fail(self, node_id: int) -> None:
        node = self.reachable(node_id)
        if node is None:
            raise NoSuchNodeError(f"no live node {ids.to_hex(node_id)}")
        self.set_status(node, NodeStatus.DEPARTED)
        self.metrics.node_failures += 1

