"""Membership protocol: join, route, leave, repair, stabilize."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from peerdeploy import build_network, join, leave, publish, lookup, route
from peerdeploy.errors import (
    BootstrapUnreachableError,
    DuplicateNodeError,
    LookupFailedError,
    NoSuchNodeError,
    PublishFailedError,
    RoutingFailureError,
)
from peerdeploy.ids import DIGIT_BITS, DIGITS, RADIX, derive_key, shared_prefix_len
from peerdeploy.overlay import OverlayNode
from peerdeploy.routing import HALF_LEAF
from peerdeploy.simnet import NodeStatus, SimNetwork
from peerdeploy.store import ComponentPayload, LookupOp, PublishOp, Role
from oracles import RING, oracle_prefix_len, oracle_root, stabilize


def test_first_node_joins_empty_network():
    net = SimNetwork(seed=0)
    report = join(net, 42, None, name="first")
    assert report.path == []
    assert net.live_ids() == [42]
    assert net.nodes[42].status is NodeStatus.LIVE
    joins = net.metrics.to_document(net)["operations"]["join"]
    assert (joins["count"], joins["hops"]["histogram"]) == (1, {"0": 1})


def test_bootstrap_required_when_network_nonempty():
    net = SimNetwork(seed=0)
    join(net, 42, None)
    with pytest.raises(BootstrapUnreachableError):
        join(net, 43, None)
    assert 43 not in net.nodes


def test_dead_bootstrap_rejected():
    net = SimNetwork(seed=0)
    join(net, 42, None)
    join(net, 99, 42)
    net.fail(42)
    with pytest.raises(BootstrapUnreachableError):
        join(net, 17, 42)


@pytest.mark.parametrize("bootstrap", ["departed", "unknown"])
def test_a_join_through_a_departed_or_unknown_bootstrap_sends_nothing(bootstrap):
    net, names = build_network(8, seed=5)
    contact = names["n1"] if bootstrap == "departed" else 12345
    if bootstrap == "departed":
        net.fail(contact)
    assert contact not in net.live_ids()
    sent = dict(net.metrics.sent)
    new_id = derive_key("newcomer")
    with pytest.raises(BootstrapUnreachableError, match="is not live"):
        join(net, new_id, contact)
    assert net.metrics.sent == sent
    assert new_id not in net.nodes


def test_duplicate_id_rejected():
    net = SimNetwork(seed=0)
    join(net, 42, None)
    with pytest.raises(DuplicateNodeError):
        join(net, 42, 42)


def test_join_report_carries_route():
    net, names = build_network(20, seed=2)
    report = join(net, 7, net.live_ids()[0], name="latecomer")
    assert report.new_id == 7
    assert len(report.path) >= 1
    assert len(report.announced) >= 1
    assert net.nodes[7].status is NodeStatus.LIVE


def test_a_join_announces_to_its_leaf_and_its_two_deepest_rows():
    """A contact two or more rows shallower than the joiner's deepest would
    only take the joiner into a cell that is as good as always taken, so
    the joiner announces itself to its leaf members and to the contacts
    that share at least one digit less than the deepest one does."""
    net, _ = build_network(256, seed=3)
    sent = net.metrics.sent["ANNOUNCE"]
    new_id = derive_key("latecomer12")
    report = join(net, new_id, net.live_ids()[0], name="latecomer12")
    joiner = net.nodes[new_id]
    contacts = joiner.known_contacts()
    depth = max(oracle_prefix_len(contact, new_id) for contact in contacts)
    leaf = set(joiner.leaf_set.members())
    assert report.announced == [
        contact for contact in contacts
        if contact in leaf or oracle_prefix_len(contact, new_id) >= depth - 1]
    assert net.metrics.sent["ANNOUNCE"] - sent == len(report.announced)
    # This joiner knows a contact of each sort the rule tells apart: a
    # leaf member below the cut, and table contacts at it and below it.
    sorts = {(oracle_prefix_len(contact, new_id) - (depth - 1), contact in leaf)
             for contact in contacts}
    assert {(-1, True), (0, False), (-1, False)} <= sorts


def test_leaf_sets_match_ring_neighbours():
    net, _ = build_network(40, seed=17)
    live = sorted(net.live_ids())
    for nid in live:
        node = net.nodes[nid]
        ring = sorted((x for x in live if x != nid), key=lambda x: (x - nid) % RING)
        assert node.leaf_set.right == ring[:4]
        assert node.leaf_set.left == list(reversed(ring[-4:]))


def test_route_delivers_to_oracle_root():
    net, _ = build_network(32, seed=11)
    live = net.live_ids()
    rng = random.Random(3)
    for _ in range(200):
        key = rng.getrandbits(128)
        start = live[rng.randrange(len(live))]
        path = route(net, start, key)
        assert path[0] == start
        assert path[-1] == oracle_root(live, key)
        assert len(path) == len(set(path)), "no id may appear twice"


def test_route_single_node():
    net = SimNetwork(seed=0)
    join(net, 1234, None)
    assert route(net, 1234, 999) == [1234]


def test_route_timeout_reports_partial_path_then_retry_succeeds():
    net, _ = build_network(24, seed=19)
    live = net.live_ids()
    rng = random.Random(1)
    # find a (start, key) pair whose first hop we can kill
    for _ in range(100):
        key = rng.getrandbits(128)
        start = live[rng.randrange(len(live))]
        first_hop = net.nodes[start].next_hop(key)
        if first_hop not in (start, oracle_root(live, key)):
            break
    net.fail(first_hop)  # silent death: peers notice only on contact
    try:
        route(net, start, key)
        # a lucky alternate may still deliver; force the assertion only on error
    except RoutingFailureError as exc:
        assert exc.partial_path[0] == start
    # the failed hop was forgotten on timeout; a retry must now succeed
    path = route(net, start, key)
    assert path[-1] == oracle_root(net.live_ids(), key)


def test_graceful_leave_transfers_roots():
    net, names = build_network(24, seed=7)
    payloads = {}
    for i in range(12):
        name = f"t{i}.jar"
        payloads[name] = ComponentPayload.from_bytes(f"t{i}".encode() * 40)
        publish(net, net.live_ids()[i % 24], name, payloads[name])
    victim = net.live_ids()[5]
    report = leave(net, victim, graceful=True)
    assert report.graceful is True
    assert net.nodes[victim].status is NodeStatus.DEPARTED
    live = net.live_ids()
    # every key is still retrievable and owned by the full-scan root
    for name, payload in payloads.items():
        got, _, _ = lookup(net, live[0], name)
        assert got.digest == payload.digest
        key = derive_key(name)
        holders = [nid for nid in live
                   if (e := net.nodes[nid].store.get(key)) and e.role is Role.ROOT]
        assert holders == [oracle_root(live, key)]


def test_abrupt_leave_then_lookup_retries_via_alternates():
    net, names = build_network(24, seed=15)
    payload = ComponentPayload.from_bytes(b"will-survive" * 30)
    publish(net, names["n3"], "hardy.jar", payload)
    # kill a third of the network abruptly, sparing the payload holders
    key = derive_key("hardy.jar")
    holders = {nid for nid in net.live_ids()
               if (e := net.nodes[nid].store.get(key)) and e.payload is not None}
    victims = [nid for nid in net.live_ids() if nid not in holders][:8]
    for victim in victims:
        leave(net, victim, graceful=False)
    report_ok = 0
    for client in net.live_ids()[:10]:
        got, _, _ = lookup(net, client, "hardy.jar")
        assert got.digest == payload.digest
        report_ok += 1
    assert report_ok == 10


def test_leave_requires_live_node():
    net, _ = build_network(4, seed=0)
    with pytest.raises(NoSuchNodeError):
        leave(net, 424242, graceful=True)
    victim = net.live_ids()[0]
    leave(net, victim, graceful=False)
    with pytest.raises(NoSuchNodeError):
        leave(net, victim, graceful=True)


def test_rejoin_after_leave_is_fresh():
    net, names = build_network(8, seed=4)
    victim = names["n2"]
    leave(net, victim, graceful=True)
    assert victim not in net.live_ids()
    report = join(net, victim, net.live_ids()[0], name="n2-again")
    assert victim in net.live_ids()
    assert report.path, "rejoin must route like any other join"


def test_stabilize_converges_after_churn():
    net, names = build_network(20, seed=9)
    for victim in net.live_ids()[:5]:
        net.fail(victim)
    rounds = stabilize(net)
    assert rounds >= 1
    live = set(net.live_ids())
    for nid in live:
        node = net.nodes[nid]
        assert set(node.known_contacts()) <= live


def test_join_hops_scale_with_size():
    net, _ = build_network(64, seed=23)
    report = join(net, derive_key("probe-node"), net.live_ids()[0])
    assert 1 <= len(report.path) <= 8


def test_repair_refills_from_the_table_once_the_whole_leaf_set_is_gone():
    net, names = build_network(40, seed=3)
    node = net.nodes[names["n5"]]
    members = node.leaf_set.members()
    assert len(members) == 8
    for member in members:
        net.fail(member)
    for member in members:
        node.repair(member)
    net.run_until_quiescent()
    refilled = node.leaf_set.members()
    assert len(refilled) == 8
    assert all(net.nodes[m].status is NodeStatus.LIVE for m in refilled)


def test_route_fails_when_its_next_hop_is_already_on_the_path():
    # A roots the key. With B gone from its leaf set, A's table sends the
    # key's first digit to B, and B's leaf set sends the key back to A.
    a, b, key = (0x2 << 124) - 1, (0x3 << 124) - 1, 0x2 << 124
    net = SimNetwork(seed=0)
    join(net, a, None)
    join(net, b, a)
    net.nodes[a].leaf_set.remove(b)
    with pytest.raises(RoutingFailureError, match="revisited") as err:
        route(net, a, key)
    assert err.value.partial_path == [a, b]


@pytest.mark.parametrize("make, error", [
    (lambda key: PublishOp(key, "p.jar", ComponentPayload.from_bytes(b"p")), PublishFailedError),
    (lambda key: LookupOp(key, "p.jar"), LookupFailedError),
], ids=["publish", "lookup"])
def test_every_walk_fails_with_its_own_error_when_it_comes_back(make, error):
    # The loop of the route test above. The walk is stepped by hand, so that
    # a walk that never stops fails the test instead of hanging it.
    a, b, key = (0x2 << 124) - 1, (0x3 << 124) - 1, 0x2 << 124
    net = SimNetwork(seed=0)
    join(net, a, None)
    join(net, b, a)
    net.nodes[a].leaf_set.remove(b)
    op = net.new_op(make(key))
    op.advance(net.nodes[a])
    for _ in range(100):
        if op.done:
            break
        net._step()
    assert isinstance(op.error, error) and "revisited" in str(op.error)
    assert op.path == [a, b]


def test_a_node_shows_its_name_and_status():
    net, names = build_network(2)
    assert repr(net.nodes[names["n0"]]) == "OverlayNode(n0, LIVE)"


def test_learn_live_says_whether_the_routing_state_changed():
    net, names = build_network(64, seed=3)
    node = net.nodes[names["n0"]]
    leaf, table = node.leaf_set, node.routing_table
    # A leaf member that the table does not hold: it changes the leaf set alone.
    member = next(m for m in leaf.members() if m not in table.entries())
    assert node.forget(member) is True
    assert node.forget(member) is False
    assert node.learn_live([member]) is True
    assert node.learn_live([member]) is False
    # A live id beyond both full leaf sides, whose table cell holds another
    # id, changes nothing.
    assert len(leaf.left) == len(leaf.right) == HALF_LEAF

    def cell(c):
        r = shared_prefix_len(node.id, c)
        return table.rows[r].get((c >> (DIGIT_BITS * (DIGITS - 1 - r))) & (RADIX - 1))

    outside = [c for c in net.live_ids()
               if c != node.id and not leaf.in_range(c) and cell(c) not in (None, c)]
    assert outside
    for contact in outside:
        assert node.learn(contact) is False


# -- the learn memo


class AlwaysLearns(OverlayNode):
    """Reference node: every observed live contact goes to learn."""

    def observe(self, contact):
        peer = self.net.nodes.get(contact)
        return (contact != self.id and peer is not None
                and peer.status is NodeStatus.LIVE and self.learn(contact))


def _network_around(cls, owner, pool):
    net = SimNetwork(seed=0)
    node = cls(net, owner)
    net.register(node)
    for contact in pool:
        peer = OverlayNode(net, contact)
        net.register(peer)
        net.set_status(peer, NodeStatus.LIVE)
    return net, node


STATUSES = [NodeStatus.JOINING, NodeStatus.LIVE, NodeStatus.DEPARTED]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.integers(1, 2**12 - 1), min_size=1, max_size=14, unique=True),
       steps=st.lists(st.tuples(st.sampled_from(
           ["observe", "learn_live", "learn", "forget", "repair", "status"]),
           st.integers(0, 13), st.integers(0, 13)), max_size=60))
def test_the_learn_memo_changes_no_routing_state(pool, steps):
    # Each id is fixed by its first three digits (its low bits repeat them,
    # so none is the owner). A dozen such ids fill both leaf sides and contend
    # for the same table cells, so offers are refused, adopted and pushed out
    # again while forget, repair and a contact's status move under them.
    owner = 0x800 << 116
    pool = [(x << 116) | x for x in pool]
    (net, node), (ref_net, ref) = (_network_around(cls, owner, pool)
                                   for cls in (OverlayNode, AlwaysLearns))
    for verb, i, j in steps:
        contact = pool[i % len(pool)]
        if verb == "status":
            for each in (net, ref_net):
                each.set_status(each.nodes[contact], STATUSES[j % 3])
            continue
        if verb == "observe":
            got, want = node.observe(contact), ref.observe(contact)
        elif verb == "learn_live":
            offered = pool[i % len(pool):][:j % 4 + 1]
            got, want = node.learn_live(offered), ref.learn_live(offered)
        elif verb == "repair":
            got, want = node.repair(contact), ref.repair(contact)
        else:
            got, want = getattr(node, verb)(contact), getattr(ref, verb)(contact)
        assert got == want, (verb, contact)
        assert (node.leaf_set.left, node.leaf_set.right) == (ref.leaf_set.left,
                                                              ref.leaf_set.right)
        assert node.routing_table.rows == ref.routing_table.rows
