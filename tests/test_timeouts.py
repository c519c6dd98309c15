"""Timeout and retry branches of every routed operation and of root transfer.

Each test drives one operation into one timeout branch and pins its result
(or error type) together with the messages sent, the timeouts and the events
processed since the network was built. Deaths in mid-flight are injected by
wrapping the delivery handler of one message kind: the wrapper takes its
arguments as `*args`, so it does not depend on the handler's signature.
"""

import pytest

from peerdeploy import build_network, join, leave, lookup, publish, remove, route
from peerdeploy import simnet
from peerdeploy.errors import (
    BootstrapUnreachableError,
    LookupFailedError,
    PublishFailedError,
    RoutingFailureError,
)
from peerdeploy.ids import derive_key, to_hex
from peerdeploy.simnet import Message, MessageKind, NodeStatus, SimConfig
from peerdeploy.store import ComponentPayload, Role
import pins
from oracles import oracle_root
from test_expiry import start_lookup


def payload_of(name: str) -> ComponentPayload:
    return ComponentPayload.from_bytes(name.encode() * 20)


def walk(net, start: int, key: int) -> list[int]:
    """The path a routed message takes from start, read off the routing state."""
    path = [start]
    while (nh := net.nodes[path[-1]].next_hop(key)) != path[-1]:
        path.append(nh)
    return path


# (messages sent, timeouts, events processed) since the network was built,
# pinned per test in pins.json's "timeouts" section. A change that moves one
# of these figures changes behaviour and has to say why.
def counts(net):
    m = net.metrics
    return dict(m.sent), dict(m.timeouts), m.events_processed


def kill_on_delivery(monkeypatch, net, kind: MessageKind, victim, nth: int = 1,
                     after: bool = False):
    """Fail the node `victim(msg)` names when the nth message of `kind` is
    delivered: before its handler runs, or right after it with after=True."""
    original = simnet._DELIVER[kind]
    seen = []

    def wrapped(*args):
        msg = next(a for a in args if isinstance(a, Message))
        seen.append(msg)
        if len(seen) == nth and not after:
            net.fail(victim(msg))
        result = original(*args)
        if len(seen) == nth and after:
            net.fail(victim(msg))
        return result

    monkeypatch.setitem(simnet._DELIVER, kind, wrapped)


def kill_after_first_send(monkeypatch, net, kind: MessageKind, victim) -> None:
    """Fail `victim` once the first message of `kind` is on its way: the
    message is in flight, whatever the latencies of other messages."""
    original = net.send

    def wrapped(from_id, to_id, sent_kind, *args, **kwargs):
        msg = original(from_id, to_id, sent_kind, *args, **kwargs)
        if sent_kind is kind and net.reachable(victim) is not None:
            net.fail(victim)
        return msg

    monkeypatch.setattr(net, "send", wrapped)


def kill_every_target(monkeypatch, net, kind: MessageKind) -> None:
    """Fail the target of each message of `kind` as it is sent, so every
    copy is lost."""
    original = net.send

    def wrapped(from_id, to_id, sent_kind, *args, **kwargs):
        msg = original(from_id, to_id, sent_kind, *args, **kwargs)
        if sent_kind is kind and net.reachable(to_id) is not None:
            net.fail(to_id)
        return msg

    monkeypatch.setattr(net, "send", wrapped)


# -- route, publish, lookup, remove


def test_route_goes_around_a_dead_hop():
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    path = walk(net, names["n0"], key)
    assert len(path) == 3
    net.fail(path[1])
    around = route(net, names["n0"], key)
    assert len(around) == 3 and around[0] == path[0] and around[-1] == path[-1]
    assert path[1] not in around
    assert net.metrics.timeouts == {"ROUTE_STEP": 1}
    pins.check("timeouts", "route_timeout", counts(net))


def test_route_fails_when_the_sender_of_a_lost_step_has_died(monkeypatch):
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    path = walk(net, names["n0"], key)
    assert len(path) == 3
    net.fail(path[2])
    # path[1] forwards to the dead root and dies before that step times out.
    kill_on_delivery(monkeypatch, net, MessageKind.ROUTE_STEP, lambda msg: path[1],
                     after=True)
    with pytest.raises(RoutingFailureError, match="lost a path node") as err:
        route(net, names["n0"], key)
    assert err.value.partial_path == path[:2]
    assert not net.ops
    pins.check("timeouts", "route_sender_dead", counts(net))


def test_publish_reroutes_around_a_silently_dead_hop():
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    path = walk(net, names["n0"], key)
    assert len(path) == 3
    net.fail(path[1])
    trail = publish(net, names["n0"], "x0.jar", payload_of("x0.jar"))
    assert path[1] not in trail.path
    assert trail.root == oracle_root(net.live_ids(), key)
    assert net.metrics.timeouts["PUBLISH"] == 1
    pins.check("timeouts", "publish_reroute", counts(net))


def test_publish_ack_skips_a_reverse_path_node_that_dies(monkeypatch):
    net, names = build_network(64, seed=4)
    source, key = names["n1"], derive_key("x8.jar")
    path = walk(net, source, key)
    assert len(path) == 4
    kill_on_delivery(monkeypatch, net, MessageKind.PUBLISH_ACK, lambda msg: path[1])
    trail = publish(net, source, "x8.jar", payload_of("x8.jar"))
    assert trail.path == path
    assert net.nodes[source].store.get(key).role is Role.SOURCE
    assert net.nodes[path[2]].store.get(key).role is Role.TRAIL
    assert net.metrics.timeouts["PUBLISH_ACK"] == 1
    pins.check("timeouts", "publish_ack_skip", counts(net))


def test_publish_fails_when_its_source_dies_during_the_ack(monkeypatch):
    net, names = build_network(64, seed=4)
    source = names["n0"]
    path = walk(net, source, derive_key("x0.jar"))
    assert len(path) == 3
    kill_on_delivery(monkeypatch, net, MessageKind.PUBLISH_ACK, lambda msg: source)
    with pytest.raises(PublishFailedError):
        publish(net, source, "x0.jar", payload_of("x0.jar"))
    assert not net.ops
    pins.check("timeouts", "publish_source_dies", counts(net))


def test_lookup_reply_skips_a_reverse_path_node_that_dies(monkeypatch):
    net, names = build_network(64, seed=4)
    client, key = names["n1"], derive_key("x8.jar")
    path = walk(net, client, key)
    assert len(path) == 4
    # Published from the root itself, so no trail shortens the lookup.
    publish(net, path[-1], "x8.jar", payload_of("x8.jar"))
    kill_on_delivery(monkeypatch, net, MessageKind.LOOKUP_REPLY, lambda msg: path[1])
    payload, served_by, hops = lookup(net, client, "x8.jar")
    assert payload == payload_of("x8.jar")
    assert (served_by, hops) == (path[-1], 3)
    assert net.nodes[path[2]].store.get(key).role is Role.CACHE
    assert net.metrics.timeouts["LOOKUP_REPLY"] == 1
    pins.check("timeouts", "lookup_reply_skip", counts(net))


def test_lookup_fails_when_its_client_dies_during_the_reply(monkeypatch):
    net, names = build_network(64, seed=4)
    client = names["n0"]
    path = walk(net, client, derive_key("x0.jar"))
    assert len(path) == 3
    publish(net, path[-1], "x0.jar", payload_of("x0.jar"))
    kill_on_delivery(monkeypatch, net, MessageKind.LOOKUP_REPLY, lambda msg: client)
    with pytest.raises(LookupFailedError):
        lookup(net, client, "x0.jar")
    assert not net.ops
    pins.check("timeouts", "lookup_client_dies", counts(net))


def test_lookup_fails_when_its_whole_reply_path_dies(monkeypatch):
    net, names = build_network(64, seed=4)
    client = names["n0"]
    path = walk(net, client, derive_key("x0.jar"))
    assert len(path) == 3
    publish(net, path[-1], "x0.jar", payload_of("x0.jar"))
    # The client dies as the reply reaches path[1], and path[1] dies once it
    # has passed the reply on: no live node is left to skip the dead one.
    kill_on_delivery(monkeypatch, net, MessageKind.LOOKUP_REPLY, lambda msg: client)
    kill_on_delivery(monkeypatch, net, MessageKind.LOOKUP_REPLY, lambda msg: msg.to_id,
                     after=True)
    with pytest.raises(LookupFailedError, match="lost its reply path"):
        lookup(net, client, "x0.jar")
    assert not net.ops
    pins.check("timeouts", "lookup_reply_path_lost", counts(net))


@pytest.mark.parametrize("case", ["reply_lost", "fetch_lost"])
def test_lookup_fails_when_its_junction_dies_during_a_fetch(monkeypatch, case):
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    trail = publish(net, names["n1"], "x0.jar", payload_of("x0.jar"))
    assert len(trail.path) == 3
    junction, client = trail.path[1], names["n16"]
    assert walk(net, client, key)[:2] == [client, junction]
    if case == "reply_lost":
        # The junction dies once its FETCH is out; the holder's reply times out.
        kill_on_delivery(monkeypatch, net, MessageKind.FETCH, lambda msg: msg.from_id)
    else:
        # The root is dead, so the FETCH times out after the junction has died.
        net.fail(trail.root)
        kill_on_delivery(monkeypatch, net, MessageKind.LOOKUP, lambda msg: msg.to_id,
                         after=True)
    with pytest.raises(LookupFailedError, match="lost its junction during a fetch"):
        lookup(net, client, "x0.jar")
    assert not net.ops
    pins.check("timeouts", f"lookup_junction_{case}", counts(net))


def test_a_fetch_with_no_holder_left_serves_the_copy_that_reached_the_junction(monkeypatch):
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    trail = publish(net, names["n1"], "x0.jar", payload_of("x0.jar"))
    junction, clients = trail.path[1], [names["n16"], names["n5"]]
    assert all(walk(net, client, key)[:2] == [client, junction] for client in clients)
    # The source is dead, and the root dies once it has answered the first
    # FETCH. The second lookup's FETCHes to both time out; by then the first
    # one's reply has left a CACHE copy at the junction, which serves it.
    net.fail(trail.path[0])
    kill_on_delivery(monkeypatch, net, MessageKind.FETCH, lambda msg: trail.root, after=True)
    for client in clients:
        start_lookup(net, client, "x0.jar")
    first, second = net.ops.values()
    net.run_until_quiescent()
    assert net.metrics.timeouts == {"FETCH": 2}
    assert (first.fetch_hit_dead, second.fetch_hit_dead) == (False, True)
    for op in first, second:
        assert op.error is None
        assert op.result == (payload_of("x0.jar"), junction, 1)
    assert net.nodes[junction].store.get(key).role is Role.CACHE


def test_remove_retries_after_a_timeout():
    net, names = build_network(64, seed=4)
    source, key = names["n0"], derive_key("x0.jar")
    trail = publish(net, source, "x0.jar", payload_of("x0.jar"))
    assert len(trail.path) == 3
    net.fail(trail.path[1])
    report = remove(net, source, "x0.jar")
    assert report.root == trail.root
    assert net.nodes[trail.root].store.get(key) is None
    assert net.nodes[source].store.get(key) is None
    assert net.metrics.timeouts["REMOVE"] == 1
    pins.check("timeouts", "remove_retry", counts(net))


# -- join


def test_join_reroutes_around_a_dead_hop_past_the_bootstrap():
    net, names = build_network(64, seed=4)
    bootstrap = net.live_ids()[0]
    new_id = derive_key("x8.jar")
    hop = net.nodes[bootstrap].next_hop(new_id)
    assert hop != bootstrap
    net.fail(hop)
    report = join(net, new_id, bootstrap, name="late")
    assert report.path[0] == bootstrap and hop not in report.path
    assert net.nodes[new_id].status is NodeStatus.LIVE
    assert net.metrics.timeouts["JOIN"] == 1
    pins.check("timeouts", "join_reroute", counts(net))


def test_join_exhausts_its_retries_on_the_routed_path():
    net, names = build_network(64, seed=4, sim_config=SimConfig(retries=0))
    bootstrap = net.live_ids()[0]
    new_id = derive_key("x8.jar")
    net.fail(net.nodes[bootstrap].next_hop(new_id))
    with pytest.raises(RoutingFailureError) as err:
        join(net, new_id, bootstrap, name="late")
    assert err.value.partial_path == [bootstrap]
    assert net.nodes[new_id].status is NodeStatus.DEPARTED
    pins.check("timeouts", "join_exhausted", counts(net))


def test_join_recontacts_a_dead_bootstrap_until_it_gives_up(monkeypatch):
    net, names = build_network(64, seed=4)
    bootstrap = net.live_ids()[0]
    # The bootstrap dies while the joiner's first join request is in flight.
    kill_after_first_send(monkeypatch, net, MessageKind.JOIN, bootstrap)
    with pytest.raises(BootstrapUnreachableError):
        join(net, derive_key("x8.jar"), bootstrap, name="late")
    assert net.metrics.sent["JOIN"] - net.metrics.delivered["JOIN"] == net.config.retries + 1
    pins.check("timeouts", "join_bootstrap_dead", counts(net))


# -- the texts an exhausted retry rule writes


def test_route_to_a_dead_first_hop_fails_after_0_retries():
    net, names = build_network(64, seed=4, sim_config=SimConfig(retries=0))
    key = derive_key("x0.jar")
    hop = walk(net, names["n0"], key)[1]
    net.fail(hop)
    with pytest.raises(RoutingFailureError) as err:
        route(net, names["n0"], key)
    assert str(err.value) == f"route to {to_hex(key)} timed out at {to_hex(hop)} after 0 retries"


def test_join_to_a_dead_bootstrap_fails_after_3_retries(monkeypatch):
    net, names = build_network(64, seed=4)
    bootstrap = net.live_ids()[0]
    kill_after_first_send(monkeypatch, net, MessageKind.JOIN, bootstrap)
    with pytest.raises(BootstrapUnreachableError) as err:
        join(net, derive_key("x8.jar"), bootstrap, name="late")
    assert str(err.value) == (f"bootstrap {to_hex(bootstrap)} never answered: "
                              f"timed out at {to_hex(bootstrap)} after 3 retries")


# -- root transfer

# A joiner id whose handoff leaves a root transfer in flight once the second
# of its two ring neighbours has scanned (32 nodes, seed 4, 40 bundles).
HANDOFF_RESEND_ID = 0xad45f23d3b1a11df587fd2803bab6c39


def test_handoff_transfer_is_resent_to_a_dead_joiner(monkeypatch):
    net, names = build_network(32, seed=4)
    for i in range(40):
        publish(net, names[f"n{i % 32}"], f"h{i}.jar", payload_of(f"h{i}.jar"))
    new_id = HANDOFF_RESEND_ID
    bootstrap = net.live_ids()[0]
    # The joiner dies once the second of its two ring neighbours has scanned,
    # while a root transfer toward it is still in flight.
    kill_on_delivery(monkeypatch, net, MessageKind.HANDOFF, lambda msg: new_id,
                     nth=2, after=True)
    report = join(net, new_id, bootstrap, name="late")
    assert report.unresolved
    assert net.metrics.timeouts["TRANSFER"] == (net.config.retries + 1) * len(report.unresolved)
    pins.check("timeouts", "handoff_resend", counts(net))


def test_handoff_counts_a_key_whose_ack_times_out_as_transferred(monkeypatch):
    net, names = build_network(32, seed=4)
    for i in range(40):
        publish(net, names[f"n{i % 32}"], f"h{i}.jar", payload_of(f"h{i}.jar"))
    new_id = HANDOFF_RESEND_ID
    # The old root dies as its first transfer arrives, so the acknowledgements
    # of both keys it hands over are lost.
    kill_on_delivery(monkeypatch, net, MessageKind.TRANSFER, lambda msg: msg.from_id)
    report = join(net, new_id, net.live_ids()[0], name="late")
    assert len(report.transferred) == 2 and not report.unresolved
    assert net.metrics.timeouts["TRANSFER_ACK"] == 2
    pins.check("timeouts", "handoff_ack_lost", counts(net))


def test_relinquish_transfer_moves_on_to_the_next_target():
    net, names = build_network(32, seed=4)
    trail = publish(net, names["n5"], "r.jar", payload_of("r.jar"))
    root, key = trail.root, trail.key
    members = net.nodes[root].leaf_set.members()
    first_choice = oracle_root(members, key)
    net.fail(first_choice)
    report = leave(net, root)
    second_choice = oracle_root([m for m in members if m != first_choice], key)
    assert report.transferred == [(key, second_choice)]
    assert net.nodes[second_choice].store.get(key).role is Role.ROOT
    assert net.metrics.timeouts["TRANSFER"] == 1
    pins.check("timeouts", "relinquish_next_target", counts(net))


def test_relinquish_gives_up_after_retries_plus_one_targets():
    net, names = build_network(32, seed=4)
    trail = publish(net, names["n5"], "r.jar", payload_of("r.jar"))
    root, key = trail.root, trail.key
    members = net.nodes[root].leaf_set.members()
    tries = net.config.retries + 1
    for _ in range(tries):
        closest = oracle_root(members, key)
        net.fail(closest)
        members.remove(closest)
    sent = net.metrics.sent["TRANSFER"]  # the publish's copy to the heir
    report = leave(net, root)
    assert report.transferred == [] and report.unresolved == [key]
    assert net.metrics.sent["TRANSFER"] - sent == tries
    assert net.metrics.timeouts["TRANSFER"] == tries
    pins.check("timeouts", "relinquish_gives_up", counts(net))


# -- the one retry budget

BUDGET_KEY = derive_key("x.jar")


def away_from_root(net) -> int:
    """A live node that is not the root of BUDGET_KEY."""
    return next(n for n in net.live_ids() if net.nodes[n].next_hop(BUDGET_KEY) != n)


def raises(error, call):
    def case(net):
        with pytest.raises(error):
            call(net)
    return case


def withdraw(net):
    source = away_from_root(net)
    publish(net, source, "x.jar", payload_of("x.jar"))
    remove(net, source, "x.jar")


def publish_x(net):
    """Set-up of the transfer cases, before any TRANSFER is lost: the
    publish sends one of its own, the heir's copy."""
    publish(net, net.live_ids()[0], "x.jar", payload_of("x.jar"))


def hand_off_to_a_dead_joiner(net):
    # The joiner's id is the key, so the joiner roots it.
    report = join(net, BUDGET_KEY, net.live_ids()[0], name="late")
    assert report.unresolved == [BUDGET_KEY]


def relinquish_to_dead_members(net):
    root = oracle_root(net.live_ids(), BUDGET_KEY)
    assert leave(net, root).unresolved == [BUDGET_KEY]


# op -> (the kind whose every copy is lost, a call in which the op gives up,
# and a set-up that runs before the first loss, or None)
BUDGET_CASES = {
    "route": (MessageKind.ROUTE_STEP, raises(
        RoutingFailureError, lambda net: route(net, away_from_root(net), BUDGET_KEY)), None),
    "join": (MessageKind.JOIN, raises(
        BootstrapUnreachableError, lambda net: join(net, BUDGET_KEY, net.live_ids()[0])), None),
    "publish": (MessageKind.PUBLISH, raises(
        PublishFailedError,
        lambda net: publish(net, away_from_root(net), "x.jar", payload_of("x.jar"))), None),
    "lookup": (MessageKind.LOOKUP, raises(
        LookupFailedError, lambda net: lookup(net, away_from_root(net), "x.jar")), None),
    "remove": (MessageKind.REMOVE, raises(RoutingFailureError, withdraw), None),
    "handoff": (MessageKind.TRANSFER, hand_off_to_a_dead_joiner, publish_x),
    "relinquish": (MessageKind.TRANSFER, relinquish_to_dead_members, publish_x),
}


@pytest.mark.parametrize("retries", [0, 2])
@pytest.mark.parametrize("op", list(BUDGET_CASES))
def test_every_op_sends_a_lost_message_retries_plus_one_times(monkeypatch, op, retries):
    """SimConfig.retries is the one budget: when every copy of an op's
    message about its key is lost, the op sends retries + 1, then gives up."""
    net, _ = build_network(32, seed=4, sim_config=SimConfig(retries=retries))
    kind, give_up, setup = BUDGET_CASES[op]
    if setup is not None:
        setup(net)
    sent, lost = net.metrics.sent.get(kind.value, 0), net.metrics.timeouts.get(kind.value, 0)
    kill_every_target(monkeypatch, net, kind)
    give_up(net)
    assert net.metrics.sent[kind.value] - sent == retries + 1
    assert net.metrics.timeouts[kind.value] - lost == retries + 1
    assert not net.ops
