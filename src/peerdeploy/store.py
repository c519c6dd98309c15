"""Key-addressed component storage with trail deposition and path caching.

Publishing routes the payload from its source to the key's root and, on the
acknowledgement walking back, leaves a key/location association (TRAIL) on
every strictly intermediate node. Lookups short-circuit at the first node on
their path holding any entry (the junction); with caching on, the payload is
replicated along the reverse lookup path, which is what makes popular
components accumulate replicas.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import ids, routing
from .errors import (
    IntegrityError,
    InvalidNameError,
    LookupFailedError,
    NoSuchNodeError,
    NotFoundError,
    NotOwnerError,
    PublishFailedError,
    RoutingFailureError,
    UnavailableError,
    VersionConflictError,
)
from .ids import circular_distance, derive_key
from .simnet import (
    Message,
    MessageKind,
    NodeStatus,
    Operation,
    SimNetwork,
    on_deliver,
    on_timeout,
)


class Role(Enum):
    SOURCE = "SOURCE"
    ROOT = "ROOT"
    TRAIL = "TRAIL"
    CACHE = "CACHE"
    RETAINED = "RETAINED"


PINNED_ROLES = frozenset({Role.SOURCE, Role.ROOT, Role.RETAINED})
PAYLOAD_ROLES = frozenset({Role.SOURCE, Role.ROOT, Role.CACHE, Role.RETAINED})


def content_digest(data: bytes) -> str:
    """128-bit content digest as 32 lowercase hex digits."""
    return hashlib.md5(data).hexdigest()


@dataclass(frozen=True)
class ComponentPayload:
    data: bytes
    digest: str
    size: int

    @classmethod
    def from_bytes(cls, data: bytes) -> "ComponentPayload":
        return cls(data=data, digest=content_digest(data), size=len(data))

    def verify(self) -> bool:
        return self.size == len(self.data) and self.digest == content_digest(self.data)


@dataclass
class StoreEntry:
    key: int
    name: str
    role: Role
    payload: Optional[ComponentPayload]
    origin: Optional[int]  # publisher's node id, kept through role changes
    root_hint: Optional[int]  # last known root for the key
    deposited_at: int
    last_access: int
    hits: int = 0

    @property
    def locations(self) -> set[int]:
        return {loc for loc in (self.origin, self.root_hint) if loc is not None}

    @property
    def pinned(self) -> bool:
        return self.role in PINNED_ROLES


@dataclass
class StoreConfig:
    cache_capacity: int = 64
    ttl: int = 1000
    cache_on_lookup: bool = True

    def __post_init__(self):
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.ttl <= 0:
            raise ValueError("ttl must be > 0")


@dataclass
class PublishTrail:
    key: int
    source: int
    root: int
    path: list[int]


@dataclass
class RemovalReport:
    name: str
    key: int
    requester: int
    root: int


class NodeStore:
    """One node's entries, keyed by the 128-bit component key.

    Two marks let the maintenance sweep pass over a store that cannot evict
    anything: `_oldest` is at most the last_access of every non-pinned entry
    (None when there is none), and `_overflow` is set once an insert may have
    pushed the non-pinned count past cache_capacity. evict() resets both.
    Simulated time only moves forward, so the program's direct writes of
    `last_access` only raise it and leave `_oldest` a valid, if early, bound.
    """

    def __init__(self, config: StoreConfig | None = None):
        self._config = config or StoreConfig()
        self.entries: dict[int, StoreEntry] = {}
        self._oldest: Optional[int] = None
        self._overflow = False

    @property
    def config(self) -> StoreConfig:
        return self._config

    @config.setter
    def config(self, config: StoreConfig) -> None:
        # A smaller capacity can leave the store over it without an insert.
        self._config = config
        self._overflow = True

    def get(self, key: int) -> Optional[StoreEntry]:
        return self.entries.get(key)

    def delete(self, key: int) -> bool:
        return self.entries.pop(key, None) is not None

    def put_payload(self, key: int, name: str, role: Role, payload: ComponentPayload,
                    origin: Optional[int], root_hint: Optional[int], now: int) -> StoreEntry:
        """Install or refresh a payload-bearing entry, upgrading whatever role
        was there before. Authoritative roles always win over cached ones."""
        entry = self.entries.get(key)
        if entry is None:
            entry = StoreEntry(key=key, name=name, role=role, payload=payload,
                               origin=origin, root_hint=root_hint,
                               deposited_at=now, last_access=now)
            self.entries[key] = entry
            return self._watch(entry, inserted=True)
        entry.name = name
        entry.payload = payload
        if role in PINNED_ROLES or not entry.pinned:
            entry.role = role
        if origin is not None:
            entry.origin = origin
        if root_hint is not None:
            entry.root_hint = root_hint
        entry.deposited_at = now
        entry.last_access = now
        return self._watch(entry, inserted=False)

    def put_trail(self, key: int, name: str, origin: Optional[int],
                  root_hint: Optional[int], now: int) -> StoreEntry:
        """Record the key/location association; never downgrades a payload."""
        entry = self.entries.get(key)
        if entry is None:
            entry = StoreEntry(key=key, name=name, role=Role.TRAIL, payload=None,
                               origin=origin, root_hint=root_hint,
                               deposited_at=now, last_access=now)
            self.entries[key] = entry
            return self._watch(entry, inserted=True)
        if origin is not None:
            entry.origin = origin
        if root_hint is not None:
            entry.root_hint = root_hint
        entry.deposited_at = now
        entry.last_access = now
        return self._watch(entry, inserted=False)

    def _watch(self, entry: StoreEntry, inserted: bool) -> StoreEntry:
        """Keep the eviction marks valid after a put wrote `entry`."""
        if not entry.pinned:
            if self._oldest is None or entry.last_access < self._oldest:
                self._oldest = entry.last_access
            if inserted and len(self.entries) > self._config.cache_capacity:
                self._overflow = True
        return entry

    def due_at(self) -> float:
        """Earliest time at which evict() can remove anything: 0 when the
        cache may be over capacity, inf when nothing is evictable."""
        if self._overflow:
            return 0
        if self._oldest is None:
            return math.inf
        return self._oldest + self._config.ttl + 1

    def non_pinned_count(self) -> int:
        return sum(1 for e in self.entries.values() if not e.pinned)

    def total_bytes(self) -> int:
        return sum(e.payload.size for e in self.entries.values() if e.payload)

    def evict(self, now: int) -> list[int]:
        """TTL pass over untouched TRAIL/CACHE entries, then LRU down to
        capacity. Pinned roles are structurally excluded from both passes.
        Both passes take the least recently used first, so together they
        remove a prefix of the transient entries in (last_access, key) order."""
        transient = sorted((e for e in self.entries.values() if not e.pinned),
                           key=lambda e: (e.last_access, e.key))
        expired = bisect.bisect_left(transient, now - self._config.ttl,
                                     key=lambda e: e.last_access)
        cut = max(expired, len(transient) - self._config.cache_capacity)
        evicted = [entry.key for entry in transient[:cut]]
        for key in evicted:
            del self.entries[key]
        self._oldest = transient[cut].last_access if cut < len(transient) else None
        self._overflow = False
        return evicted


def _next_hop(node, k: int) -> int:
    return routing.next_hop_from_state(node.id, node.leaf_set, node.routing_table, k)


def _require_live(net: SimNetwork, node_id: int):
    node = net.node(node_id)
    if node.status is not NodeStatus.LIVE:
        raise NoSuchNodeError(f"node {ids.to_hex(node_id)} is not live")
    return node


# --------------------------------------------------------------------------
# publish


class PublishOp(Operation):
    kind = "publish"

    def __init__(self, key: int, name: str, payload: ComponentPayload, source: int):
        super().__init__()
        self.key = key
        self.name = name
        self.payload = payload
        self.source = source
        self.root: int | None = None
        self.path: list[int] = []


def publish(net: SimNetwork, source: int, name: str, payload: ComponentPayload) -> PublishTrail:
    node = _require_live(net, source)
    if not name:
        raise InvalidNameError("component name must be non-empty")
    if not payload.verify():
        raise IntegrityError(f"payload digest mismatch for {name!r}")
    key = derive_key(name)
    existing = node.store.get(key)
    if existing is not None and existing.payload is not None \
            and existing.payload.digest != payload.digest:
        raise VersionConflictError(f"{name!r} already held locally with different content")
    op = net.new_op(PublishOp(key, name, payload, source))
    _publish_advance(net, node, op)
    trail: PublishTrail = net.drive(op)
    net.metrics.record_op("publish", hops=len(trail.path) - 1)
    return trail


def _publish_advance(net: SimNetwork, node, op: PublishOp) -> None:
    if not op.path or op.path[-1] != node.id:
        op.path.append(node.id)
    nh = _next_hop(node, op.key)
    if nh == node.id:
        _publish_at_root(net, node, op)
        return
    net.post(node.id, nh, MessageKind.PUBLISH, op=op)


def _publish_at_root(net: SimNetwork, root, op: PublishOp) -> None:
    existing = root.store.get(op.key)
    if existing is not None and existing.payload is not None \
            and existing.role in (Role.ROOT, Role.SOURCE) \
            and existing.payload.digest != op.payload.digest:
        net.fail_op(op, VersionConflictError(
            f"{op.name!r} already published with different content"))
        return
    op.root = root.id
    root.store.put_payload(op.key, op.name, Role.ROOT, op.payload,
                           origin=op.source, root_hint=root.id, now=net.clock)
    if len(op.path) == 1:
        # Source and root are the same node: SOURCE collapses into ROOT.
        net.complete_op(op, PublishTrail(op.key, op.source, root.id, list(op.path)))
        return
    net.post(root.id, op.path[-2], MessageKind.PUBLISH_ACK,
             {"index": len(op.path) - 2}, op=op)


@on_deliver(MessageKind.PUBLISH)
def _publish_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if isinstance(op, PublishOp) and not op.done:
        _publish_advance(net, node, op)


@on_timeout(MessageKind.PUBLISH)
def _publish_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, PublishOp) or op.done:
        return
    sender = net.nodes.get(msg.from_id)
    if sender is None or sender.status is NodeStatus.DEPARTED:
        net.fail_op(op, PublishFailedError(f"publisher path node died for {op.name!r}"))
        return
    op.retries += 1
    if op.retries > net.config.retries:
        net.fail_op(op, PublishFailedError(
            f"publish of {op.name!r} exhausted {net.config.retries} retries"))
        return
    _publish_advance(net, sender, op)


@on_deliver(MessageKind.PUBLISH_ACK)
def _publish_ack_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, PublishOp) or op.done:
        return
    index = msg.data["index"]
    if index == 0:
        node.store.put_payload(op.key, op.name, Role.SOURCE, op.payload,
                               origin=op.source, root_hint=op.root, now=net.clock)
        net.complete_op(op, PublishTrail(op.key, op.source, op.root, list(op.path)))
        return
    node.store.put_trail(op.key, op.name, origin=op.source,
                         root_hint=op.root, now=net.clock)
    _post_insert_pressure(net, node)
    net.post(node.id, op.path[index - 1], MessageKind.PUBLISH_ACK,
             {"index": index - 1}, op=op)


@on_timeout(MessageKind.PUBLISH_ACK)
def _publish_ack_timeout(net: SimNetwork, msg: Message) -> None:
    # A reverse-path node died mid-acknowledgement; skip it and keep walking
    # toward the source so the publish still completes.
    op = net.ops.get(msg.op_id)
    if not isinstance(op, PublishOp) or op.done:
        return
    index = msg.data["index"]
    sender = net.nodes.get(msg.from_id)
    if sender is None or sender.status is NodeStatus.DEPARTED:
        net.fail_op(op, PublishFailedError(f"publish ack chain broke for {op.name!r}"))
        return
    if index == 0:
        net.fail_op(op, PublishFailedError(f"source departed mid-publish of {op.name!r}"))
        return
    net.post(sender.id, op.path[index - 1], MessageKind.PUBLISH_ACK,
             {"index": index - 1}, op=op)


def _post_insert_pressure(net: SimNetwork, node) -> None:
    if node.store.non_pinned_count() > node.store.config.cache_capacity:
        net.metrics.evictions += len(node.store.evict(net.clock))


# --------------------------------------------------------------------------
# lookup


class LookupOp(Operation):
    kind = "lookup"

    def __init__(self, key: int, name: str, client: int):
        super().__init__()
        self.key = key
        self.name = name
        self.client = client
        self.path: list[int] = []
        self.served_by: int | None = None
        self.serve_hops: int | None = None
        self.fetch_targets: list[int] = []
        self.fetch_stage = 0
        self.fetch_junction: int | None = None
        self.fetch_hit_dead = False


def lookup(net: SimNetwork, client: int, name: str) -> tuple[ComponentPayload, int, int]:
    """Resolve name to its payload. Returns (payload, served_by, forward hops)."""
    node = _require_live(net, client)
    key = derive_key(name)
    op = net.new_op(LookupOp(key, name, client))
    _lookup_advance(net, node, op)
    try:
        result = net.drive(op)
    except Exception:
        net.metrics.record_op("lookup", failed=True)
        raise
    payload, served_by, hops = result
    assert payload.verify(), "served payload failed digest check"
    net.metrics.record_op("lookup", hops=hops)
    return result


def _lookup_advance(net: SimNetwork, node, op: LookupOp) -> None:
    if not op.path or op.path[-1] != node.id:
        op.path.append(node.id)
    entry = node.store.get(op.key)
    if entry is not None:
        if entry.payload is not None:
            _lookup_serve(net, node, op, entry)
        else:
            _lookup_fetch_begin(net, node, op, entry)
        return
    nh = _next_hop(node, op.key)
    if nh == node.id:
        _lookup_fail_at_root(net, op)
        return
    net.post(node.id, nh, MessageKind.LOOKUP, op=op)


def _lookup_fail_at_root(net: SimNetwork, op: LookupOp) -> None:
    # The route ended with nothing to serve. If some named payload holder was
    # unreachable along the way the component may still exist, which is a
    # different answer than a clean miss at the root.
    if op.fetch_hit_dead:
        net.fail_op(op, UnavailableError(
            f"named holders of {op.name!r} are unreachable"))
    else:
        net.fail_op(op, NotFoundError(f"{op.name!r} has no entry at its root"))


def _lookup_serve(net: SimNetwork, node, op: LookupOp, entry: StoreEntry) -> None:
    entry.hits += 1
    entry.last_access = net.clock
    op.served_by = node.id
    op.serve_hops = len(op.path) - 1
    index = len(op.path) - 1
    if index == 0:
        net.complete_op(op, (entry.payload, node.id, 0))
        return
    net.post(node.id, op.path[index - 1], MessageKind.LOOKUP_REPLY,
             {"index": index - 1, "payload": entry.payload,
              "origin": entry.origin, "root_hint": entry.root_hint}, op=op)


@on_deliver(MessageKind.LOOKUP)
def _lookup_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if isinstance(op, LookupOp) and not op.done:
        _lookup_advance(net, node, op)


@on_timeout(MessageKind.LOOKUP)
def _lookup_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    sender = net.nodes.get(msg.from_id)
    if sender is None or sender.status is NodeStatus.DEPARTED:
        net.fail_op(op, LookupFailedError(f"lookup path for {op.name!r} broke"))
        return
    op.retries += 1
    if op.retries > net.config.retries:
        net.fail_op(op, LookupFailedError(
            f"lookup of {op.name!r} exhausted {net.config.retries} retries"))
        return
    # The generic repair already dropped the dead hop; re-route via an alternate.
    _lookup_advance(net, sender, op)


@on_deliver(MessageKind.LOOKUP_REPLY)
def _lookup_reply_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    index = msg.data["index"]
    payload = msg.data["payload"]
    if index == 0:
        net.complete_op(op, (payload, op.served_by, op.serve_hops))
        return
    if node.store.config.cache_on_lookup:
        node.store.put_payload(op.key, op.name, Role.CACHE, payload,
                               origin=msg.data.get("origin"),
                               root_hint=msg.data.get("root_hint"), now=net.clock)
        _post_insert_pressure(net, node)
    net.post(node.id, op.path[index - 1], MessageKind.LOOKUP_REPLY,
             {"index": index - 1, "payload": payload,
              "origin": msg.data.get("origin"),
              "root_hint": msg.data.get("root_hint")}, op=op)


@on_timeout(MessageKind.LOOKUP_REPLY)
def _lookup_reply_timeout(net: SimNetwork, msg: Message) -> None:
    # Skip a reverse-path node that died; the payload still reaches the client.
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    index = msg.data["index"]
    sender = net.nodes.get(msg.from_id)
    if sender is None or sender.status is NodeStatus.DEPARTED:
        net.fail_op(op, LookupFailedError(f"reply path for {op.name!r} broke"))
        return
    if index == 0:
        net.fail_op(op, LookupFailedError(f"client departed during lookup of {op.name!r}"))
        return
    data = dict(msg.data)
    data["index"] = index - 1
    net.post(sender.id, op.path[index - 1], MessageKind.LOOKUP_REPLY, data, op=op)


def _lookup_fetch_begin(net: SimNetwork, node, op: LookupOp, entry: StoreEntry) -> None:
    # Trail junction: the association names where the payload lives; prefer
    # the root copy, fall back to the source.
    op.fetch_junction = node.id
    op.fetch_stage = 0
    op.fetch_targets = []
    for loc in (entry.root_hint, entry.origin):
        if loc is not None and loc != node.id and loc not in op.fetch_targets:
            op.fetch_targets.append(loc)
    if not op.fetch_targets:
        _lookup_fetch_exhausted(net, op)
        return
    net.post(node.id, op.fetch_targets[0], MessageKind.FETCH, {"key": op.key}, op=op)


def _lookup_fetch_next(net: SimNetwork, op: LookupOp) -> None:
    op.fetch_stage += 1
    junction = net.nodes.get(op.fetch_junction)
    if junction is None or junction.status is NodeStatus.DEPARTED:
        net.fail_op(op, LookupFailedError(f"junction departed during fetch of {op.name!r}"))
        return
    if op.fetch_stage >= len(op.fetch_targets):
        _lookup_fetch_exhausted(net, op)
        return
    net.post(op.fetch_junction, op.fetch_targets[op.fetch_stage],
             MessageKind.FETCH, {"key": op.key}, op=op)


def _lookup_fetch_exhausted(net: SimNetwork, op: LookupOp) -> None:
    """Every holder the trail named came up empty, so the association is
    stale. Drop it and resume plain routing from the junction; churn may
    have re-homed the payload closer to the root."""
    junction = net.nodes.get(op.fetch_junction)
    if junction is None or junction.status is NodeStatus.DEPARTED:
        net.fail_op(op, LookupFailedError(f"junction departed during fetch of {op.name!r}"))
        return
    entry = junction.store.get(op.key)
    if entry is not None and entry.payload is not None:
        # A payload arrived here in the meantime; serve it after all.
        _lookup_serve(net, junction, op, entry)
        return
    if entry is not None:
        junction.store.delete(op.key)
    nh = _next_hop(junction, op.key)
    if nh == junction.id:
        _lookup_fail_at_root(net, op)
        return
    net.post(junction.id, nh, MessageKind.LOOKUP, op=op)


@on_deliver(MessageKind.FETCH)
def _fetch_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    entry = node.store.get(msg.data["key"])
    if entry is not None and entry.payload is not None:
        entry.hits += 1
        entry.last_access = net.clock
        net.post(node.id, msg.from_id, MessageKind.FETCH_REPLY,
                 {"payload": entry.payload}, op=op)
    else:
        net.post(node.id, msg.from_id, MessageKind.FETCH_REPLY, {"payload": None}, op=op)


@on_timeout(MessageKind.FETCH)
def _fetch_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    op.fetch_hit_dead = True
    _lookup_fetch_next(net, op)


@on_deliver(MessageKind.FETCH_REPLY)
def _fetch_reply_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    payload = msg.data["payload"]
    if payload is None:
        _lookup_fetch_next(net, op)
        return
    entry = node.store.get(op.key)
    if entry is None:
        entry = node.store.put_trail(op.key, op.name, None, None, net.clock)
    if node.store.config.cache_on_lookup and entry.payload is None:
        entry = node.store.put_payload(op.key, op.name, Role.CACHE, payload,
                                       origin=entry.origin, root_hint=entry.root_hint,
                                       now=net.clock)
        _post_insert_pressure(net, node)
    # Serve from the junction whether or not it kept a copy.
    entry.hits += 1
    entry.last_access = net.clock
    op.served_by = node.id
    op.serve_hops = len(op.path) - 1
    index = len(op.path) - 1
    if index == 0:
        net.complete_op(op, (payload, node.id, 0))
        return
    net.post(node.id, op.path[index - 1], MessageKind.LOOKUP_REPLY,
             {"index": index - 1, "payload": payload,
              "origin": entry.origin, "root_hint": entry.root_hint}, op=op)


@on_timeout(MessageKind.FETCH_REPLY)
def _fetch_reply_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, LookupOp) or op.done:
        return
    net.fail_op(op, LookupFailedError(f"junction unreachable during fetch of {op.name!r}"))


# --------------------------------------------------------------------------
# remove


class RemoveOp(Operation):
    kind = "remove"

    def __init__(self, key: int, name: str, requester: int):
        super().__init__()
        self.key = key
        self.name = name
        self.requester = requester
        self.path: list[int] = []


def remove(net: SimNetwork, requester: int, name: str) -> RemovalReport:
    """Withdraw a published component. Only its publisher may do so; trails
    and caches are left to expire via TTL rather than chased."""
    node = _require_live(net, requester)
    key = derive_key(name)
    entry = node.store.get(key)
    if entry is None:
        raise NotFoundError(f"{name!r} is unknown at {ids.to_hex(requester)}")
    owns = entry.role is Role.SOURCE or (
        entry.origin == requester and entry.role in (Role.ROOT, Role.RETAINED))
    if not owns:
        raise NotOwnerError(f"{ids.to_hex(requester)} does not own {name!r}")
    op = net.new_op(RemoveOp(key, name, requester))
    _remove_advance(net, node, op)
    report: RemovalReport = net.drive(op)
    net.metrics.record_op("remove")
    return report


def _remove_advance(net: SimNetwork, node, op: RemoveOp) -> None:
    if not op.path or op.path[-1] != node.id:
        op.path.append(node.id)
    nh = _next_hop(node, op.key)
    if nh == node.id:
        _remove_at_root(net, node, op)
        return
    net.post(node.id, nh, MessageKind.REMOVE, op=op)


def _remove_at_root(net: SimNetwork, root, op: RemoveOp) -> None:
    entry = root.store.get(op.key)
    if entry is None or entry.payload is None:
        net.fail_op(op, NotFoundError(f"{op.name!r} has no root entry to remove"))
        return
    root.store.delete(op.key)
    if root.id == op.requester:
        net.complete_op(op, RemovalReport(op.name, op.key, op.requester, root.id))
        return
    net.post(root.id, op.requester, MessageKind.REMOVE_REPLY, {"root": root.id}, op=op)


@on_deliver(MessageKind.REMOVE)
def _remove_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if isinstance(op, RemoveOp) and not op.done:
        _remove_advance(net, node, op)


@on_timeout(MessageKind.REMOVE)
def _remove_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, RemoveOp) or op.done:
        return
    sender = net.nodes.get(msg.from_id)
    if sender is None or sender.status is NodeStatus.DEPARTED:
        net.fail_op(op, RoutingFailureError(
            f"removal path for {op.name!r} broke", partial_path=op.path))
        return
    op.retries += 1
    if op.retries > net.config.retries:
        net.fail_op(op, RoutingFailureError(
            f"removal of {op.name!r} exhausted retries", partial_path=op.path))
        return
    _remove_advance(net, sender, op)


@on_deliver(MessageKind.REMOVE_REPLY)
def _remove_reply_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, RemoveOp) or op.done:
        return
    # Root confirmed the deletion; drop the requester's own pinned copy too so
    # the name actually disappears once trails and caches age out.
    node.store.delete(op.key)
    net.complete_op(op, RemovalReport(op.name, op.key, op.requester, msg.data["root"]))


# --------------------------------------------------------------------------
# eviction / replica observability


def evict(node, now: int) -> list[int]:
    return node.store.evict(now)


def replica_count(net: SimNetwork, name: str) -> int:
    key = derive_key(name)
    count = 0
    for node_id in net.live_ids():
        entry = net.nodes[node_id].store.get(key)
        if entry is not None and entry.payload is not None:
            count += 1
    return count


# --------------------------------------------------------------------------
# handoff on join


class HandoffOp(Operation):
    kind = "handoff"

    def __init__(self, new_id: int):
        super().__init__()
        self.new_id = new_id
        self.pending_scans = 0
        self.pending_transfers = 0
        self.transferred: list[int] = []
        self.unresolved: list[int] = []
        self.attempts: dict[int, int] = {}

    def maybe_finish(self, net: SimNetwork) -> None:
        if not self.done and self.pending_scans == 0 and self.pending_transfers == 0:
            net.complete_op(self, (sorted(self.transferred), sorted(self.unresolved)))


def handoff_on_join(net: SimNetwork, new_id: int) -> tuple[list[int], list[int]]:
    """Ask the new node's leaf neighbours to hand over every key it now roots.

    Returns (transferred keys, unresolved keys). The demoted neighbour keeps
    its payload as a pinned RETAINED copy.
    """
    node = net.node(new_id)
    neighbours = node.leaf_set.members()
    op = net.new_op(HandoffOp(new_id))
    op.pending_scans = len(neighbours)
    if not neighbours:
        net.complete_op(op, ([], []))
        return net.drive(op)
    for neighbour in neighbours:
        net.post(new_id, neighbour, MessageKind.HANDOFF, op=op)
    return net.drive(op)


@on_deliver(MessageKind.HANDOFF)
def _handoff_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, HandoffOp) or op.done:
        return
    joiner = op.new_id
    for key in sorted(node.store.entries):
        entry = node.store.entries[key]
        if entry.role is not Role.ROOT:
            continue
        here = (circular_distance(node.id, key), node.id)
        there = (circular_distance(joiner, key), joiner)
        if there < here:
            op.pending_transfers += 1
            net.post(node.id, joiner, MessageKind.TRANSFER,
                     {"key": key, "name": entry.name, "payload": entry.payload,
                      "origin": entry.origin, "reason": "handoff"}, op=op)
    net.post(node.id, msg.from_id, MessageKind.HANDOFF_DONE, op=op)


@on_timeout(MessageKind.HANDOFF)
def _handoff_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, HandoffOp) or op.done:
        return
    op.pending_scans -= 1
    op.maybe_finish(net)


@on_deliver(MessageKind.HANDOFF_DONE)
def _handoff_done_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if not isinstance(op, HandoffOp) or op.done:
        return
    op.pending_scans -= 1
    op.maybe_finish(net)


@on_deliver(MessageKind.TRANSFER)
def _transfer_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if op is None or op.done:
        return
    node.store.put_payload(msg.data["key"], msg.data["name"], Role.ROOT,
                           msg.data["payload"], origin=msg.data.get("origin"),
                           root_hint=node.id, now=net.clock)
    net.post(node.id, msg.from_id, MessageKind.TRANSFER_ACK,
             {"key": msg.data["key"], "name": msg.data["name"],
              "reason": msg.data.get("reason")}, op=op)


@on_timeout(MessageKind.TRANSFER)
def _transfer_timeout(net: SimNetwork, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if op is None or op.done:
        return
    key = msg.data["key"]
    if isinstance(op, HandoffOp):
        attempts = op.attempts.get(key, 0) + 1
        op.attempts[key] = attempts
        sender = net.nodes.get(msg.from_id)
        if attempts <= 1 and sender is not None and sender.status is not NodeStatus.DEPARTED:
            net.post(sender.id, op.new_id, MessageKind.TRANSFER, dict(msg.data), op=op)
            return
        op.pending_transfers -= 1
        op.unresolved.append(key)
        op.maybe_finish(net)
    elif isinstance(op, RelinquishOp):
        _relinquish_retry(net, op, msg)


@on_deliver(MessageKind.TRANSFER_ACK)
def _transfer_ack_deliver(net: SimNetwork, node, msg: Message) -> None:
    op = net.ops.get(msg.op_id)
    if op is None or op.done:
        return
    key = msg.data["key"]
    if isinstance(op, HandoffOp):
        entry = node.store.get(key)
        if entry is not None and entry.role is Role.ROOT:
            entry.role = Role.RETAINED
            entry.root_hint = msg.from_id
            entry.last_access = net.clock
        op.pending_transfers -= 1
        op.transferred.append(key)
        op.maybe_finish(net)
    elif isinstance(op, RelinquishOp):
        op.pending -= 1
        op.transferred.append((key, msg.from_id))
        op.maybe_finish(net)


@on_timeout(MessageKind.TRANSFER_ACK)
def _transfer_ack_timeout(net: SimNetwork, msg: Message) -> None:
    # The acknowledged copy exists; only the old holder's demotion was lost,
    # and that holder is gone anyway. Count the key as transferred.
    op = net.ops.get(msg.op_id)
    if op is None or op.done:
        return
    key = msg.data["key"]
    if isinstance(op, HandoffOp):
        op.pending_transfers -= 1
        op.transferred.append(key)
        op.maybe_finish(net)
    elif isinstance(op, RelinquishOp):
        op.pending -= 1
        op.transferred.append((key, msg.from_id))
        op.maybe_finish(net)


# --------------------------------------------------------------------------
# graceful-leave root transfer


class RelinquishOp(Operation):
    kind = "relinquish"

    def __init__(self, leaver: int):
        super().__init__()
        self.leaver = leaver
        self.pending = 0
        self.transferred: list[tuple[int, int]] = []  # (key, new root)
        self.unresolved: list[int] = []
        self.attempts: dict[int, list[int]] = {}

    def maybe_finish(self, net: SimNetwork) -> None:
        if not self.done and self.pending == 0:
            net.complete_op(self, (self.transferred, sorted(self.unresolved)))


def relinquish_roots(net: SimNetwork, node) -> tuple[list[tuple[int, int]], list[int]]:
    """Before a graceful departure, move every ROOT entry to its next root,
    chosen as the leaf member closest to the key."""
    op = net.new_op(RelinquishOp(node.id))
    members = node.leaf_set.members()
    for key in sorted(node.store.entries):
        entry = node.store.entries[key]
        if entry.role is not Role.ROOT:
            continue
        target = _closest_member(members, key)
        if target is None:
            continue  # last node standing; the key leaves with it
        op.pending += 1
        op.attempts[key] = [target]
        net.post(node.id, target, MessageKind.TRANSFER,
                 {"key": key, "name": entry.name, "payload": entry.payload,
                  "origin": entry.origin, "reason": "leave"}, op=op)
    if op.pending == 0:
        net.complete_op(op, ([], []))
    return net.drive(op)


def _closest_member(members: list[int], key: int) -> int | None:
    best = None
    best_key = None
    for member in members:
        cand = (circular_distance(member, key), member)
        if best_key is None or cand < best_key:
            best_key = cand
            best = member
    return best


def _relinquish_retry(net: SimNetwork, op: RelinquishOp, msg: Message) -> None:
    key = msg.data["key"]
    leaver = net.nodes.get(op.leaver)
    tried = op.attempts.setdefault(key, [])
    if leaver is not None and leaver.status is not NodeStatus.DEPARTED and len(tried) < 3:
        members = [m for m in leaver.leaf_set.members() if m not in tried]
        target = _closest_member(members, key)
        if target is not None:
            tried.append(target)
            net.post(op.leaver, target, MessageKind.TRANSFER, dict(msg.data), op=op)
            return
    op.pending -= 1
    op.unresolved.append(key)
    op.maybe_finish(net)
