"""Overlay membership and routing: routed paths, join, leave, lazy repair.

A node's view of the ring is its leaf set plus a prefix routing table; both
are repaired lazily when a timeout exposes a dead contact.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ids
from .errors import BootstrapUnreachableError
from .ids import shared_prefix_len
from .routing import LeafSet, RoutingTable, next_hop_from_state
from .simnet import (
    Message,
    MessageKind,
    NodeStatus,
    RoutedOp,
    SimNetwork,
    on_deliver,
)
from .store import NodeStore, handoff_on_join, relinquish_roots

_LIVE = NodeStatus.LIVE  # a global read; the enum class attribute costs ten times more


class OverlayNode:
    """One participant: routing state plus its component store, bound to the
    network it lives in. Its store takes that network's store settings."""

    def __init__(self, net: SimNetwork, node_id: int, name: str | None = None):
        self.net = net
        self.id = node_id
        self.name = name if name is not None else ids.to_hex(node_id)
        self.status = NodeStatus.JOINING
        self.leaf_set = LeafSet(node_id)
        self.routing_table = RoutingTable(node_id)
        self.store = NodeStore(net.store_config)
        # Contacts observe has passed to learn since the routing state last
        # lost an entry: without a removal learn is idempotent (a full leaf
        # side only gets nearer, a taken table cell stays taken). forget and
        # repair, the only paths that remove entries, clear it.
        self._offered: set[int] = set()

    def __repr__(self) -> str:
        return f"OverlayNode({self.name}, {self.status.value})"

    def next_hop(self, k: int) -> int:
        return next_hop_from_state(self.id, self.leaf_set, self.routing_table, k)

    def known_contacts(self) -> list[int]:
        return sorted(set(self.leaf_set.members()) | set(self.routing_table.entries()))

    def learn(self, candidate: int) -> bool:
        """Adopt a contact; True when that changed the routing state. Both
        structures refuse this node's own id."""
        in_leaf = self.leaf_set.insert(candidate)
        in_table = self.routing_table.insert(candidate)
        return in_leaf or in_table

    def learn_live(self, candidates) -> bool:
        """Learn every candidate that is a live node other than this one;
        True when that changed the routing state."""
        changed = False
        for cand in candidates:
            changed = self.observe(cand) or changed
        return changed

    def forget(self, dead_id: int) -> bool:
        self._offered.clear()
        in_leaf = self.leaf_set.remove(dead_id)
        in_table = self.routing_table.remove(dead_id)
        return in_leaf or in_table

    def observe(self, contact: int) -> bool:
        """Learn `contact` if it is a live node other than this one; True when
        that changed the routing state. Every delivered message advertises
        its sender through here."""
        offered = self._offered
        if contact in offered:
            return False
        peer = self.net.nodes.get(contact)
        if contact == self.id or peer is None or peer.status is not _LIVE:
            return False
        offered.add(contact)
        return self.learn(contact)

    def repair(self, dead_id: int) -> None:
        """Drop a contact that timed out; losing a leaf member triggers a
        refill request toward the remaining extremes."""
        self._offered.clear()
        was_member = self.leaf_set.remove(dead_id)
        self.routing_table.remove(dead_id)
        if not was_member or self.status is NodeStatus.DEPARTED:
            return
        targets = self.leaf_set.extremes()
        if not targets:
            # Whole leaf set gone; fall back on table contacts for a refill.
            targets = self.routing_table.entries()[:2]
        for target in targets:
            self.net.send(self.id, target, MessageKind.REPAIR)


# --------------------------------------------------------------------------
# route


class RouteOp(RoutedOp):
    kind = "route"
    message = MessageKind.ROUTE_STEP

    def at_root(self, node: OverlayNode) -> None:
        self.complete(list(self.path))


def route(net: SimNetwork, start: int, k: int) -> list[int]:
    """Follow next_hop from start until some node names itself, the key's
    root. A dead hop is routed around; spent retries raise with the partial path."""
    return RouteOp(k).run(net.live_node(start))


# --------------------------------------------------------------------------
# join


@dataclass
class JoinReport:
    new_id: int
    bootstrap: int | None
    path: list[int]  # nodes the join request crossed after the joiner, bootstrap first
    announced: list[int]
    transferred: list[int]  # keys handed over to the joiner
    unresolved: list[int]  # keys whose handoff never completed


class JoinOp(RoutedOp):
    """Routes toward the joiner's own id; the key is the joiner. The joiner,
    path[0], knows no one yet and hands the request to its bootstrap. Once
    the reply is home, the joiner announces itself to its leaf members and
    to the contacts within one row of its deepest, and the op completes."""

    kind = "join"
    message = MessageKind.JOIN
    reply = MessageKind.JOIN_REPLY
    DIRECT = True

    def __init__(self, new_id: int, bootstrap: int | None):
        super().__init__(new_id)
        self.bootstrap = bootstrap
        self.candidates: set[int] = set()
        self.announced: list[int] = []

    def arrive(self, node: OverlayNode) -> bool:
        if node.id == self.key:
            if self.bootstrap is None:
                self.complete(None)  # the first node: no ring to join yet
            else:
                self.forward(node, self.bootstrap)
            return False
        self.candidates.add(node.id)
        # Rows 0..r of this node's table all hold ids agreeing with the joiner
        # on at least their row's prefix, so they seed the joiner's own rows.
        r = shared_prefix_len(node.id, self.key)
        for row in range(min(r + 1, ids.DIGITS)):
            self.candidates.update(node.routing_table.row_entries(row))
        return True

    def next_hop(self, node: OverlayNode) -> int:
        nh = node.next_hop(self.key)
        if nh == self.key:
            # Stale reference from an earlier life of this id; the joiner
            # cannot be its own terminal.
            node.forget(self.key)
            nh = node.next_hop(self.key)
        return nh

    def at_root(self, node: OverlayNode) -> None:
        self.candidates.update(node.leaf_set.members())
        self.reply_from(node, {})

    def reply_home(self, joiner: OverlayNode, data: dict) -> None:
        joiner.learn_live(sorted(self.candidates))
        contacts = joiner.known_contacts()
        # A contact that shares a prefix of p digits with the joiner could
        # only take it into its row p, and a shallow row's cell is as good
        # as always taken: so announce to the leaf members, which need the
        # joiner to route correctly, and to the contacts within one row of
        # the deepest.
        shared = [shared_prefix_len(contact, self.key) for contact in contacts]
        floor = max(shared, default=0) - 1
        leaf = joiner.leaf_set.members()
        self.announced = [contact for contact, p in zip(contacts, shared)
                          if p >= floor or contact in leaf]
        # One-way, as in Pastry: `run` drains the queue, so every
        # announcement has landed or timed out before `join` goes on.
        for contact in self.announced:
            self.net.send(joiner.id, contact, MessageKind.ANNOUNCE)
        self.complete(None)

    def record(self, metrics) -> None:
        """Nothing: `join` counts the join once the drain shows whether the joiner lives."""

    def failure(self, reason: str) -> Exception:
        if len(self.path) == 1:
            return BootstrapUnreachableError(
                f"bootstrap {ids.to_hex(self.bootstrap)} never answered: {reason}")
        error = super().failure(reason)
        error.partial_path = self.path[1:]
        return error


def join(net: SimNetwork, new_id: int, bootstrap: int | None,
         name: str | None = None) -> JoinReport:
    """Bring a new node into the ring via one existing contact.

    The joiner hands its join request to the bootstrap, which routes it
    toward the new id; every node it crosses contributes routing rows, the
    terminal contributes its leaf set. The joiner then announces itself,
    with no ack, to its leaf members and to the contacts that share at
    most one digit less with it than its deepest contact does; the others
    almost always hold a node already in the cell it would take. Finally
    its two ring neighbours hand over the keys it now roots.
    """
    if bootstrap is None:
        if net.live_ids():
            raise BootstrapUnreachableError(
                "a bootstrap contact is required unless the network is empty")
    elif (boot := net.nodes.get(bootstrap)) is None or boot.status is not NodeStatus.LIVE:
        raise BootstrapUnreachableError(f"bootstrap {ids.to_hex(bootstrap)} is not live")
    node = OverlayNode(net, new_id, name=name)
    net.register(node)
    op = JoinOp(new_id, bootstrap)
    try:
        op.run(node)
        if net.reachable(new_id) is None:
            raise op.failure("lost the joiner during its announce round")
    except Exception:
        # The id never became LIVE; leave it departed so stale references
        # aimed at it clean up through the normal timeout path.
        net.set_status(node, NodeStatus.DEPARTED)
        net.metrics.record_op("join", failed=True)
        raise
    net.metrics.record_op("join", hops=op.hops())
    net.set_status(node, NodeStatus.LIVE)
    # The first node has no neighbour to take keys from.
    transferred, unresolved = handoff_on_join(node) if bootstrap is not None else ([], [])
    return JoinReport(new_id, bootstrap, op.path[1:], list(op.announced),
                      transferred, unresolved)


# --------------------------------------------------------------------------
# leave


@dataclass
class LeaveReport:
    node_id: int
    graceful: bool
    transferred: list[tuple[int, int]]  # (key, node that took the root role)
    unresolved: list[int]


def leave(net: SimNetwork, node_id: int, graceful: bool = True) -> LeaveReport:
    """Take a node out of the ring.

    Graceful departure first re-homes every ROOT entry onto the member that
    becomes the key's new root, then says goodbye to every known contact so
    leaf sets mend immediately. An abrupt departure just goes silent and
    leaves repair to timeouts.
    """
    node = net.live_node(node_id)
    if graceful:
        transferred, unresolved = relinquish_roots(node)
        members = node.leaf_set.members()
        for contact in node.known_contacts():
            net.send(node_id, contact, MessageKind.GOODBYE, {"members": members})
        net.run_until_quiescent()
        net.set_status(node, NodeStatus.DEPARTED)
    else:
        net.fail(node_id)
        transferred, unresolved = [], []
    net.metrics.record_op("leave")
    return LeaveReport(node_id, graceful, transferred, unresolved)


@on_deliver(MessageKind.ANNOUNCE)
def _announce_deliver(op: None, node: OverlayNode, msg: Message) -> None:
    # The sender is still JOINING, so passive observation skipped it; an
    # announcement is the explicit instruction to adopt it.
    node.learn(msg.from_id)


@on_deliver(MessageKind.GOODBYE)
def _goodbye_deliver(op: None, node: OverlayNode, msg: Message) -> None:
    node.forget(msg.from_id)
    node.learn_live(msg.data["members"])


# --------------------------------------------------------------------------
# leaf repair


@on_deliver(MessageKind.REPAIR)
def _repair_deliver(op: None, node: OverlayNode, msg: Message) -> None:
    node.net.send(node.id, msg.from_id, MessageKind.REPAIR_REPLY,
                  {"members": node.leaf_set.members()})


@on_deliver(MessageKind.REPAIR_REPLY)
def _repair_reply_deliver(op: None, node: OverlayNode, msg: Message) -> None:
    node.learn_live(msg.data["members"])
