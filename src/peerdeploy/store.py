"""Key-addressed component storage with trail deposition and path caching.

Publishing routes the payload from its source to the key's root, which
sends a pinned RETAINED copy on to the key's heir, and, on the
acknowledgement walking back, leaves a key/location association (TRAIL) on
every strictly intermediate node. Lookups short-circuit at the first node on
their path holding any entry (the junction), and the payload is cached along
the reverse lookup path, which is what makes popular components accumulate
replicas.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import ids
from .errors import (
    IntegrityError,
    InvalidNameError,
    LookupFailedError,
    NotFoundError,
    NotOwnerError,
    PublishFailedError,
    RoutingFailureError,
    UnavailableError,
    VersionConflictError,
)
from .ids import derive_key, ring_root
from .simnet import (
    Message,
    MessageKind,
    Operation,
    RoutedOp,
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


# The roles eviction may remove; every other role is pinned. A tuple test
# compares identities, where a set would hash the member in Python code.
TRANSIENT_ROLES = (Role.TRAIL, Role.CACHE)


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
    last_access: int
    hits: int = 0

    @property
    def pinned(self) -> bool:
        return self.role not in TRANSIENT_ROLES


@dataclass
class StoreConfig:
    cache_capacity: int = 64
    ttl: int = 1000

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

    `entries` is read from outside; only put(), delete() and evict() change
    it, and put() and hit() are the only writers of an entry's role, hits
    and last_access. `_transient` holds the TRAIL and CACHE entries in the
    order their last_access was last written; simulated time only moves
    forward, so its first entry is the least recently used one. The config
    may be swapped or edited in place: due_at() reads it on every call."""

    def __init__(self, config: StoreConfig | None = None):
        self.config = config or StoreConfig()
        self.entries: dict[int, StoreEntry] = {}
        self._transient: dict[int, StoreEntry] = {}

    def get(self, key: int) -> Optional[StoreEntry]:
        return self.entries.get(key)

    def delete(self, key: int) -> None:
        self._transient.pop(key, None)
        self.entries.pop(key, None)

    def put(self, key: int, name: str, role: Role, payload: Optional[ComponentPayload],
            origin: Optional[int], root_hint: Optional[int], now: int) -> StoreEntry:
        """Install or refresh the entry for `key`: the one place that decides
        its role. A put with a payload takes the name, the payload and the
        role, except that a transient role never replaces a pinned one. A
        TRAIL put (no payload) never downgrades an entry; it refreshes only
        the locations and last_access. Unknown locations (None) keep theirs."""
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = StoreEntry(key, name, Role.TRAIL, None, None, None, now)
        if payload is not None:
            entry.name = name
            entry.payload = payload
            if role not in TRANSIENT_ROLES or not entry.pinned:
                entry.role = role
        if origin is not None:
            entry.origin = origin
        if root_hint is not None:
            entry.root_hint = root_hint
        self._touch(entry, now)
        return entry

    def hit(self, entry: StoreEntry, now: int) -> None:
        """Count a serve of `entry` and refresh its last_access."""
        entry.hits += 1
        self._touch(entry, now)

    def _touch(self, entry: StoreEntry, now: int) -> None:
        entry.last_access = now
        self._transient.pop(entry.key, None)
        if entry.role in TRANSIENT_ROLES:
            self._transient[entry.key] = entry

    def due_at(self) -> float:
        """Earliest time at which evict() removes something: 0 while the
        TRAIL/CACHE entries outnumber cache_capacity, inf when there is none."""
        transient = self._transient
        if not transient:
            return math.inf
        if len(transient) > self.config.cache_capacity:
            return 0
        return next(iter(transient.values())).last_access + self.config.ttl + 1

    def overflowing(self) -> bool:
        return len(self._transient) > self.config.cache_capacity

    def total_bytes(self) -> int:
        return sum(e.payload.size for e in self.entries.values() if e.payload)

    def evict(self, now: int) -> list[int]:
        """TTL pass over untouched TRAIL/CACHE entries, then LRU down to
        capacity. Pinned roles are structurally excluded from both passes.
        Both passes take the least recently used first, so together they
        remove a prefix of the transient entries in (last_access, key) order."""
        # The index is in last_access order already; the sort puts ties in key order.
        transient = sorted(self._transient.values(), key=lambda e: (e.last_access, e.key))
        expired = bisect.bisect_left(transient, now - self.config.ttl,
                                     key=lambda e: e.last_access)
        cut = max(expired, len(transient) - self.config.cache_capacity)
        evicted = [entry.key for entry in transient[:cut]]
        for key in evicted:
            del self.entries[key]
            del self._transient[key]
        return evicted


# --------------------------------------------------------------------------
# publish


class PublishOp(RoutedOp):
    kind = "publish"
    message = MessageKind.PUBLISH
    reply = MessageKind.PUBLISH_ACK

    def __init__(self, key: int, name: str, payload: ComponentPayload):
        super().__init__(key)
        self.name = name
        self.payload = payload

    def at_root(self, root) -> None:
        existing = root.store.get(self.key)
        if existing is not None and existing.payload is not None \
                and existing.role in (Role.ROOT, Role.SOURCE) \
                and existing.payload.digest != self.payload.digest:
            self.fail(VersionConflictError(
                f"{self.name!r} already published with different content"))
            return
        source = self.path[0]
        root.store.put(self.key, self.name, Role.ROOT, self.payload,
                       origin=source, root_hint=root.id, now=self.net.clock)
        # The heir, the next-closest id, gets the key's second pinned copy,
        # unless it is the source, which holds the SOURCE. The op awaits that
        # copy and its reply walk.
        members = root.leaf_set.members()
        heir = ring_root(members, self.key) if members else source
        copy = {"key": self.key, "name": self.name, "payload": self.payload,
                "origin": source, "role": Role.RETAINED}
        self.pending += 1
        self.fan_out(root.id, MessageKind.TRANSFER, [(heir, copy)] if heir != source else [])
        self.reply_from(root, {})

    def reply_at(self, node, data: dict) -> None:
        node.store.put(self.key, self.name, Role.TRAIL, None, origin=self.path[0],
                       root_hint=self.path[-1], now=self.net.clock)

    def reply_home(self, node, data: dict) -> None:
        # A source that is its own root keeps the ROOT entry alone.
        source, root = self.path[0], self.path[-1]
        if len(self.path) > 1:
            node.store.put(self.key, self.name, Role.SOURCE, self.payload,
                           origin=source, root_hint=root, now=self.net.clock)
        self.result = PublishTrail(self.key, source, root, list(self.path))
        self.settle()

    def failure(self, reason: str) -> Exception:
        return PublishFailedError(f"publish of {self.name!r} {reason}")


def publish(net: SimNetwork, source: int, name: str, payload: ComponentPayload) -> PublishTrail:
    node = net.live_node(source)
    if not name:
        raise InvalidNameError("component name must be non-empty")
    if not payload.verify():
        raise IntegrityError(f"payload digest mismatch for {name!r}")
    key = derive_key(name)
    existing = node.store.get(key)
    if existing is not None and existing.payload is not None \
            and existing.payload.digest != payload.digest:
        raise VersionConflictError(f"{name!r} already held locally with different content")
    return PublishOp(key, name, payload).run(node)


# --------------------------------------------------------------------------
# lookup


class LookupOp(RoutedOp):
    """Stops at the first node holding any entry for the key. A payload is
    served from there; a trail names holders to fetch it from (root copy
    first, then the source), and when none has it the stale trail is dropped
    and routing resumes from that junction."""

    kind = "lookup"
    message = MessageKind.LOOKUP
    reply = MessageKind.LOOKUP_REPLY

    def __init__(self, key: int, name: str):
        super().__init__(key)
        self.name = name
        self.fetch_targets: list[int] = []  # holders still to ask, next first
        self.fetch_hit_dead = False

    def arrive(self, node) -> bool:
        entry = node.store.get(self.key)
        if entry is None:
            return True
        if entry.payload is not None:
            self.serve(node, entry, entry.payload)
        else:
            self.fetch_targets = [loc for loc in dict.fromkeys((entry.root_hint, entry.origin))
                                  if loc is not None and loc != node.id]
            self.fetch_next(node)
        return False

    def at_root(self, node) -> None:
        # The route ended with nothing to serve. If some named payload holder
        # was unreachable along the way the component may still exist, which
        # is a different answer than a clean miss at the root.
        if self.fetch_hit_dead:
            self.fail(UnavailableError(f"named holders of {self.name!r} are unreachable"))
        else:
            self.fail(NotFoundError(f"{self.name!r} has no entry at its root"))

    def serve(self, node, entry: StoreEntry, payload: ComponentPayload) -> None:
        """Serve from `node`, the last node of the path."""
        node.store.hit(entry, self.net.clock)
        self.reply_from(node, {"payload": payload})

    def reply_at(self, node, data: dict) -> None:
        # A CACHE copy names no holder: only a TRAIL's locations are read.
        node.store.put(self.key, self.name, Role.CACHE, data["payload"],
                       origin=None, root_hint=None, now=self.net.clock)

    def reply_home(self, node, data: dict) -> None:
        self.complete((data["payload"], self.path[-1], len(self.path) - 1))

    def failure(self, reason: str) -> Exception:
        return LookupFailedError(f"lookup of {self.name!r} {reason}")

    def fetch_next(self, junction) -> None:
        """Ask the next holder the trail names, or give up on the trail. The
        junction holding the trail is the last node of the path."""
        if self.fetch_targets:
            self.net.send(junction.id, self.fetch_targets.pop(0), MessageKind.FETCH,
                          {"key": self.key}, op=self)
            return
        # Every named holder came up empty: the association is stale. Churn
        # may have re-homed the payload closer to the root. The junction
        # arrives again: it serves a payload that reached it meanwhile, or
        # routes on.
        entry = junction.store.get(self.key)
        if entry is not None and entry.payload is None:
            junction.store.delete(self.key)
        self.advance(junction)

    @on_deliver(MessageKind.FETCH)
    def fetch_asked(self, node, msg: Message) -> None:
        entry = node.store.get(msg.data["key"])
        payload = None
        if entry is not None and entry.payload is not None:
            node.store.hit(entry, self.net.clock)
            payload = entry.payload
        self.net.send(node.id, msg.from_id, MessageKind.FETCH_REPLY, {"payload": payload},
                      op=self)

    @on_timeout(MessageKind.FETCH)
    def fetch_lost(self, junction, msg: Message) -> None:
        if junction is None:
            self.fail(self.failure("lost its junction during a fetch"))
            return
        self.fetch_hit_dead = True
        self.fetch_next(junction)

    @on_deliver(MessageKind.FETCH_REPLY)
    def fetched(self, node, msg: Message) -> None:
        payload = msg.data["payload"]
        if payload is None:
            self.fetch_next(node)
            return
        # One write: a CACHE copy, unless a payload reached the junction meanwhile.
        entry = node.store.get(self.key)
        if entry is None or entry.payload is None:
            entry = node.store.put(self.key, self.name, Role.CACHE, payload, None, None,
                                   self.net.clock)
        self.serve(node, entry, payload)

    @on_timeout(MessageKind.FETCH_REPLY)
    def fetch_reply_lost(self, holder, msg: Message) -> None:
        self.fail(self.failure("lost its junction during a fetch"))


def lookup(net: SimNetwork, client: int, name: str) -> tuple[ComponentPayload, int, int]:
    """Resolve name to its payload. Returns (payload, served_by, forward hops)."""
    result = LookupOp(derive_key(name), name).run(net.live_node(client))
    if not result[0].verify():
        raise IntegrityError(f"served payload of {name!r} failed its digest check")
    return result


# --------------------------------------------------------------------------
# remove


class RemoveOp(RoutedOp):
    kind = "remove"
    message = MessageKind.REMOVE
    reply = MessageKind.REMOVE_REPLY
    DIRECT = True

    def __init__(self, key: int, name: str):
        super().__init__(key)
        self.name = name

    def at_root(self, root) -> None:
        entry = root.store.get(self.key)
        if entry is None or entry.payload is None:
            self.fail(NotFoundError(f"{self.name!r} has no root entry to remove"))
            return
        root.store.delete(self.key)
        # The key's RETAINED copies sit at former roots and at the heir, all
        # of them leaf members of the root. The op awaits each DROP and the reply.
        self.pending += 1
        self.fan_out(root.id, MessageKind.DROP, [(member, None)
                                                 for member in root.leaf_set.members()
                                                 if member != self.path[0]])
        self.reply_from(root, {})

    @on_deliver(MessageKind.DROP)
    def drop_retained(self, node, msg: Message) -> None:
        entry = node.store.get(self.key)
        if entry is not None and entry.role is Role.RETAINED:
            node.store.delete(self.key)
        self.settle()

    # A dead leaf member holds nothing to drop.
    @on_timeout(MessageKind.DROP)
    def drop_lost(self, root, msg: Message) -> None:
        self.settle()

    def reply_home(self, node, data: dict) -> None:
        # Root confirmed the deletion; drop the requester's own pinned copy too so
        # the name actually disappears once trails and caches age out.
        node.store.delete(self.key)
        self.result = RemovalReport(self.name, self.key, node.id, self.path[-1])
        self.settle()

    def failure(self, reason: str) -> Exception:
        return RoutingFailureError(f"removal of {self.name!r} {reason}",
                                   partial_path=list(self.path))

    def hops(self) -> None:
        return None


def remove(net: SimNetwork, requester: int, name: str) -> RemovalReport:
    """Withdraw a published component. Only its publisher may do so. The
    root's entry, the RETAINED copies in the root's leaf set and the
    publisher's entry go; trails and caches are left to expire via TTL
    rather than chased."""
    node = net.live_node(requester)
    key = derive_key(name)
    entry = node.store.get(key)
    if entry is None:
        raise NotFoundError(f"{name!r} is unknown at {ids.to_hex(requester)}")
    owns = entry.role is Role.SOURCE or (
        entry.origin == requester and entry.role in (Role.ROOT, Role.RETAINED))
    if not owns:
        raise NotOwnerError(f"{ids.to_hex(requester)} does not own {name!r}")
    return RemoveOp(key, name).run(node)


# --------------------------------------------------------------------------
# replica observability


def replica_count(net: SimNetwork, name: str) -> int:
    key = derive_key(name)
    count = 0
    for node_id in net.live_ids():
        entry = net.nodes[node_id].store.get(key)
        if entry is not None and entry.payload is not None:
            count += 1
    return count


# --------------------------------------------------------------------------
# root transfer: handoff on join, relinquish on graceful leave


class TransferOp(Operation):
    """Moves ROOT entries to the node that now roots them: one TRANSFER per
    key, awaited through `fan_out`. A TRANSFER names the role it writes, so
    a publish sends its heir copy as a RETAINED one, which is neither acked
    nor sent again. The one ack rule: the old root, if still
    reachable and still the ROOT holder, keeps a pinned RETAINED copy whose
    root_hint names the new root. A TRANSFER that is lost goes again, from
    the same sender, to next_target(sender, key) while the sender is alive
    and `may_retry` allows it; otherwise the key is unresolved."""

    def __init__(self):
        super().__init__()
        self.transferred: list[tuple[int, int]] = []
        self.unresolved: list[int] = []

    def move_roots(self, node) -> None:
        """Send each ROOT entry of `node`, in key order, to next_target(node,
        key); a target of None keeps the key where it is."""
        sends = []
        for key in sorted(node.store.entries):
            entry = node.store.entries[key]
            if entry.role is Role.ROOT and (target := self.next_target(node, key)) is not None:
                sends.append((target, {"key": key, "name": entry.name, "payload": entry.payload,
                                       "origin": entry.origin, "role": Role.ROOT}))
        self.fan_out(node.id, MessageKind.TRANSFER, sends)

    start = move_roots  # a relinquish moves the leaver's own roots

    @on_deliver(MessageKind.TRANSFER)
    def take_root(self, node, msg: Message) -> None:
        """Write the role the TRANSFER names. A ROOT is acked; a RETAINED
        copy settles here, since an ack would demote the sender's ROOT."""
        data = msg.data
        role = data["role"]
        node.store.put(data["key"], data["name"], role, data["payload"], origin=data["origin"],
                       root_hint=node.id if role is Role.ROOT else msg.from_id,
                       now=self.net.clock)
        if role is Role.RETAINED:
            self.settle()
        else:
            self.net.send(node.id, msg.from_id, MessageKind.TRANSFER_ACK, {"key": data["key"]},
                          op=self)

    @on_timeout(MessageKind.TRANSFER)
    def transfer_lost(self, sender, msg: Message) -> None:
        key = msg.data["key"]
        if msg.data["role"] is Role.RETAINED:  # the heir is dead: its copy is lost
            self.settle()
            return
        target = None
        if self.may_retry(key) and sender is not None:
            target = self.next_target(sender, key)
        if target is None:
            self.unresolved.append(key)
            self.settle()
        else:
            self.net.send(sender.id, target, MessageKind.TRANSFER, msg.data, op=self)

    @on_deliver(MessageKind.TRANSFER_ACK)
    def acked(self, old_root, msg: Message) -> None:
        """The new root holds the key; `old_root` is None when the ack was lost."""
        key = msg.data["key"]
        entry = old_root.store.get(key) if old_root is not None else None
        if entry is not None and entry.role is Role.ROOT:
            old_root.store.put(key, entry.name, Role.RETAINED, entry.payload,
                               origin=None, root_hint=msg.from_id, now=self.net.clock)
        self.transferred.append((key, msg.from_id))
        self.settle()

    @on_timeout(MessageKind.TRANSFER_ACK)
    def ack_lost(self, new_root, msg: Message) -> None:
        # The copy exists; only the old root's demotion is lost, and it is gone.
        self.acked(None, msg)


class HandoffOp(TransferOp):
    """A neighbour's scan settles its HANDOFF once its TRANSFERs are out, so
    only their acks go back to the joiner. A joiner that died leaves every
    key it was sent to time out retries + 1 times, unresolved at its old root."""

    kind = "handoff"

    def __init__(self, new_id: int):
        super().__init__()
        self.new_id = new_id

    def start(self, joiner) -> None:
        # Once every key sits at its root, only the joiner's nearest leaf
        # member on each side can hold a ROOT that the joiner now owns.
        leaf = joiner.leaf_set
        self.fan_out(joiner.id, MessageKind.HANDOFF,
                     [(member, None) for member in sorted(set(leaf.left[:1] + leaf.right[:1]))])

    @on_deliver(MessageKind.HANDOFF)
    def scan(self, node, msg: Message) -> None:
        """A ring neighbour of the joiner moves the roots the joiner now holds."""
        self.move_roots(node)
        self.settle()

    # A silent neighbour counts as answered: a dead one has nothing to hand over.
    @on_timeout(MessageKind.HANDOFF)
    def answered(self, node, msg: Message) -> None:
        self.settle()

    def next_target(self, old_root, key: int) -> int | None:
        """The joiner, when it is closer to `key` than the old root is."""
        joiner = self.new_id
        return joiner if ring_root(sorted((old_root.id, joiner)), key) == joiner else None


class RelinquishOp(TransferOp):
    """Each of a key's retries + 1 tries goes to the leaver's leaf member closest
    to it. A lost TRANSFER's target has departed; the leaver's repair dropped it."""

    kind = "relinquish"

    def next_target(self, leaver, key: int) -> int | None:
        members = leaver.leaf_set.members()
        return ring_root(members, key) if members else None


def handoff_on_join(joiner) -> tuple[list[int], list[int]]:
    """Ask the joiner's two ring neighbours to hand over every key it now roots.

    Returns (transferred keys, unresolved keys), each sorted. A neighbour
    that hands a key over keeps it as a pinned RETAINED copy, as every old
    root does under TransferOp's ack rule.
    """
    op = HandoffOp(joiner.id)
    op.run(joiner)
    return sorted(key for key, _ in op.transferred), sorted(op.unresolved)


def relinquish_roots(leaver) -> tuple[list[tuple[int, int]], list[int]]:
    """Before a graceful departure, move every ROOT entry to its next root,
    chosen as the leaf member closest to the key; the leaver keeps each moved
    key as a RETAINED copy until it departs. Returns ((key, new root) pairs
    in the order their acks arrived, unresolved keys)."""
    op = RelinquishOp()
    op.run(leaver)
    return op.transferred, sorted(op.unresolved)
