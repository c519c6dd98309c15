"""Replies whose recipient died: every message sent inside an op must end it.

A join's JOIN_REPLY, the TRANSFERs of its handoff and a removal's
REMOVE_REPLY are sent to the node that started the op. When that node dies
first, the message times out, and the timeout has to finish the op, or the
op stalls with an empty event queue. Deaths are injected as in
test_timeouts.py.
"""

import pytest

from peerdeploy import build_network, join, overlay, publish, remove, simnet
from peerdeploy.errors import RoutingFailureError
from peerdeploy.ids import derive_key
from peerdeploy.simnet import MessageKind, NodeStatus
from peerdeploy.store import Role, handoff_on_join
from test_timeouts import HANDOFF_RESEND_ID, kill_on_delivery, payload_of, walk


def root_holders(net) -> dict[int, list[int]]:
    """Key -> the live nodes holding a ROOT entry for it."""
    holders: dict[int, list[int]] = {}
    for node_id in net.live_ids():
        for key, entry in net.nodes[node_id].store.entries.items():
            if entry.role is Role.ROOT:
                holders.setdefault(key, []).append(node_id)
    return holders


def published_network():
    net, names = build_network(32, seed=4)
    for i in range(40):
        publish(net, names[f"n{i % 32}"], f"h{i}.jar", payload_of(f"h{i}.jar"))
    return net, names


def test_join_fails_when_the_joiner_dies_during_its_announce_round(monkeypatch):
    net, _ = published_network()
    before, handoffs = root_holders(net), net.metrics.sent["HANDOFF"]
    metrics = net.metrics
    histogram = dict(metrics.hop_histograms["join"])
    new_id = HANDOFF_RESEND_ID
    kill_on_delivery(monkeypatch, net, MessageKind.ANNOUNCE, lambda msg: msg.from_id)
    with pytest.raises(RoutingFailureError, match="lost the joiner during its announce round"):
        join(net, new_id, net.live_ids()[0], name="late")
    # Counted once, as a failure, with no hops.
    assert metrics.op_counts["join"] == 33
    assert metrics.op_failures.get("join", 0) == 1
    assert metrics.hop_histograms["join"] == histogram
    assert not net.ops
    assert net.nodes[new_id].status is NodeStatus.DEPARTED
    assert net.metrics.sent["HANDOFF"] == handoffs
    assert root_holders(net) == before


def test_join_fails_when_the_joiner_dies_before_its_join_reply(monkeypatch):
    net, _ = build_network(32, seed=4)
    bootstrap, root = net.live_ids()[:2]
    new_id = root + 1
    assert walk(net, bootstrap, new_id) == [bootstrap, root]
    # The joiner dies once the bootstrap has passed its JOIN on to the root.
    kill_on_delivery(monkeypatch, net, MessageKind.JOIN, lambda msg: new_id, after=True)
    with pytest.raises(RoutingFailureError,
                       match="lost its requester during the reply") as err:
        join(net, new_id, bootstrap, name="late")
    assert err.value.partial_path == [bootstrap, root]
    assert not net.ops
    assert net.nodes[new_id].status is NodeStatus.DEPARTED
    assert net.metrics.timeouts == {"JOIN_REPLY": 1}


def test_handoff_settles_when_the_joiner_dies_during_its_scan(monkeypatch):
    new_id = HANDOFF_RESEND_ID
    clean, _ = published_network()
    handed_over = join(clean, new_id, clean.live_ids()[0], name="late").transferred
    assert handed_over
    net, _ = published_network()
    before = root_holders(net)
    kill_on_delivery(monkeypatch, net, MessageKind.HANDOFF, lambda msg: msg.from_id)
    report = join(net, new_id, net.live_ids()[0], name="late")
    assert not net.ops
    assert net.nodes[new_id].status is NodeStatus.DEPARTED
    # The keys the joiner would have rooted stay with their old roots.
    assert (report.transferred, report.unresolved) == ([], handed_over)
    # Each of those keys was sent to the dead joiner retries + 1 times, and timed out each time.
    assert net.metrics.timeouts == {"TRANSFER": (net.config.retries + 1) * len(handed_over)}
    assert root_holders(net) == before


def test_handoff_counts_a_neighbour_that_died_before_its_handoff_as_answered(monkeypatch):
    new_id = HANDOFF_RESEND_ID
    clean, _ = published_network()
    handed_over = join(clean, new_id, clean.live_ids()[0], name="late").transferred
    net, _ = published_network()
    before = root_holders(net)
    assert {holder for key in handed_over for holder in before[key]} == {
        clean.nodes[new_id].leaf_set.left[0]}
    dead = []

    def fail_the_right_neighbour(joiner):
        # The joiner is live and has its leaf set; its HANDOFFs are not sent yet.
        dead.append(joiner.leaf_set.right[0])
        net.fail(dead[0])
        return handoff_on_join(joiner)

    monkeypatch.setattr(overlay, "handoff_on_join", fail_the_right_neighbour)
    report = join(net, new_id, net.live_ids()[0], name="late")
    assert dead and not net.ops
    # The left neighbour held every key the joiner now roots and handed them over.
    assert (report.transferred, report.unresolved) == (handed_over, [])
    assert net.metrics.timeouts == {"HANDOFF": 1}


def test_remove_fails_when_its_requester_dies_before_the_reply(monkeypatch):
    net, names = build_network(32, seed=4)
    source, key = names["n3"], derive_key("x.jar")
    trail = publish(net, source, "x.jar", payload_of("x.jar"))
    path = walk(net, source, key)
    assert len(path) > 1 and path[-1] == trail.root
    # The requester dies as its REMOVE reaches the root.
    kill_on_delivery(monkeypatch, net, MessageKind.REMOVE, lambda msg: source,
                     nth=len(path) - 1)
    with pytest.raises(RoutingFailureError, match="lost its requester during the reply"):
        remove(net, source, "x.jar")
    assert not net.ops
    assert net.metrics.timeouts["REMOVE_REPLY"] == 1
    assert key not in root_holders(net)


def test_a_remove_whose_requester_is_the_root_sends_no_reply():
    net, names = build_network(32, seed=4)
    requester, key = names["n3"], derive_key("r11.jar")
    assert walk(net, requester, key) == [requester]
    publish(net, requester, "r11.jar", payload_of("r11.jar"))
    report = remove(net, requester, "r11.jar")
    assert (report.requester, report.root) == (requester, requester)
    assert "REMOVE" not in net.metrics.sent and "REMOVE_REPLY" not in net.metrics.sent
    assert net.nodes[requester].store.get(key) is None
    assert not net.ops


def test_every_routed_reply_walks_through_the_one_reply_handler():
    kinds, replies = [simnet.RoutedOp], []
    while kinds:
        kind = kinds.pop()
        kinds += kind.__subclasses__()
        if hasattr(kind, "reply"):
            replies.append(kind.reply)
    assert sorted(r.value for r in replies) == [
        "JOIN_REPLY", "LOOKUP_REPLY", "PUBLISH_ACK", "REMOVE_REPLY"]
    for reply in replies:
        assert simnet._DELIVER[reply] is simnet.RoutedOp.reply_arrived
        assert simnet._TIMEOUT[reply] is simnet.RoutedOp.reply_lost


# Kinds sent outside any op: nothing waits for them, so a lost one needs no
# handler. An ANNOUNCE is one-way: its join ends once the queue drains.
WITHOUT_OP = {MessageKind.ANNOUNCE, MessageKind.GOODBYE, MessageKind.REPAIR,
              MessageKind.REPAIR_REPLY}


def operation_classes() -> dict[str, type]:
    """Every Operation subclass, Operation included, by class name."""
    found, classes = {}, [simnet.Operation]
    while classes:
        cls = classes.pop()
        found[cls.__name__] = cls
        classes += cls.__subclasses__()
    return found


def test_every_message_of_an_op_is_handled_by_a_method_of_its_op():
    ops = operation_classes()
    for kind in set(MessageKind) - WITHOUT_OP:
        for handlers in (simnet._DELIVER, simnet._TIMEOUT):
            owner, _, name = handlers[kind].__qualname__.rpartition(".")
            assert owner in ops, (kind, handlers[kind].__qualname__)
            assert getattr(ops[owner], name) is handlers[kind]
    for kind in WITHOUT_OP:
        assert "." not in simnet._DELIVER[kind].__qualname__
    routed = [cls for cls in ops.values() if issubclass(cls, simnet.RoutedOp)]
    for cls in routed:
        if "message" in vars(cls):
            assert simnet._DELIVER[cls.message] is cls.advance
            assert simnet._TIMEOUT[cls.message] is cls.timed_out
        if "reply" in vars(cls):
            assert simnet._DELIVER[cls.reply] is cls.reply_arrived
            assert simnet._TIMEOUT[cls.reply] is cls.reply_lost


@pytest.mark.parametrize("register, table", [
    (simnet.on_deliver, "_DELIVER"), (simnet.on_timeout, "_TIMEOUT")])
def test_a_second_handler_for_a_kind_is_refused(register, table, monkeypatch):
    # A copy stands in for the table, so a registration that got through
    # would not outlive the test.
    handlers = dict(getattr(simnet, table))
    monkeypatch.setattr(simnet, table, handlers)
    before = dict(handlers)
    with pytest.raises(ValueError, match="^FETCH is handled by LookupOp.fetch_"):
        register(MessageKind.FETCH)(lambda op, node, msg: None)
    with pytest.raises(ValueError, match="^LOOKUP is handled by RoutedOp.advance"):
        type("LookupAgain", (simnet.RoutedOp,), {"message": MessageKind.LOOKUP})
    assert handlers == before


def test_every_message_kind_sent_in_an_op_has_a_timeout_handler():
    missing = {kind for kind in MessageKind
               if kind not in simnet._TIMEOUT and kind not in WITHOUT_OP}
    assert missing == set()
