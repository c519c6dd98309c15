"""Deterministic event core: latency, delivery, timeouts, replay."""

import json
import random
from hashlib import blake2b

import pytest

from peerdeploy import build_network, join, leave, lookup, publish, serialize_metrics, simnet
from peerdeploy.errors import LivelockSuspectedError, NoSuchNodeError, PeerDeployError
from peerdeploy.ids import derive_key
from peerdeploy.simnet import MessageKind, NodeStatus, SimConfig, SimNetwork
from peerdeploy.store import ComponentPayload
from test_expiry import payload_of, start_lookup


def test_latency_is_deterministic_and_bounded():
    config = SimConfig()
    net_a = SimNetwork(seed=77)
    net_b = SimNetwork(seed=77)
    net_c = SimNetwork(seed=78)
    samples_a = [net_a._latency(1, 2) for _ in range(50)]
    samples_b = [net_b._latency(1, 2) for _ in range(50)]
    samples_c = [net_c._latency(1, 2) for _ in range(50)]
    assert samples_a == samples_b
    assert samples_a != samples_c
    assert all(config.latency_min <= s <= config.latency_max for s in samples_a)
    # per-pair sequence makes successive sends differ, not repeat
    assert len(set(samples_a)) > 1


@pytest.mark.parametrize("settings", [
    {"maintenance_interval": 0}, {"maintenance_interval": -100}, {"retries": -1},
    {"latency_min": -1}, {"latency_max": 10}, {"timeout": 100}])
def test_config_rejects_settings_that_break_the_run(settings):
    with pytest.raises(ValueError):
        SimConfig(**settings)


@pytest.mark.parametrize("settings", [
    {"maintenance_interval": 1}, {"retries": 0},
    {"latency_min": 0, "latency_max": 1, "timeout": 2}])
def test_config_accepts_the_smallest_valid_settings(settings):
    config = SimConfig(**settings)
    assert {name: getattr(config, name) for name in settings} == settings


def test_latency_depends_on_endpoints():
    net = SimNetwork(seed=5)
    a = [net._latency(1, 2) for _ in range(20)]
    net2 = SimNetwork(seed=5)
    b = [net2._latency(2, 1) for _ in range(20)]
    assert a != b


N0, N1, N2 = derive_key("n0"), derive_key("n1"), derive_key("n2")


@pytest.mark.parametrize("seed,from_id,to_id,expected", [
    (0, 1, 2, [96]),
    (0, 1, 2, [96, 18, 60]),
    (7, 2, 1, [65]),
    (42, N0, N1, [96]),
    (42, N1, N0, [82, 95]),
    (201, (1 << 128) - 1, 0, [80, 99, 56, 25, 47]),
])
def test_latency_values_are_pinned(seed, from_id, to_id, expected):
    # Golden values: the metrics documents see latencies only through the
    # order of deliveries.
    net = SimNetwork(seed=seed)
    assert [net._latency(from_id, to_id) for _ in expected] == expected


def test_latency_sequence_is_per_ordered_pair():
    net = SimNetwork(seed=42)
    pairs = [(N0, N1), (N1, N0), (N0, N2)] * 3
    assert [net._latency(a, b) for a, b in pairs] == [96, 82, 34, 65, 95, 13, 50, 47, 30]


def test_latency_hashes_the_seed_both_endpoints_and_the_pair_count():
    # Each sender's prefix is hashed once and its state copied per send; the
    # digest must stay that of the whole material.
    config, seed = SimConfig(), 201
    low, spread = config.latency_min, config.latency_max - config.latency_min
    net = SimNetwork(seed=seed)
    sends: dict[tuple[int, int], int] = {}
    for a, b in [(N0, N1), (N1, N0), (N0, N2), (N0, N1), (N2, N0), (N0, N2), (N1, N2)] * 3:
        n = sends[a, b] = sends.get((a, b), 0) + 1
        digest = blake2b(f"{seed}:{a:032x}:{b:032x}:{n}".encode(), digest_size=8).digest()
        assert net._latency(a, b) == low + int.from_bytes(digest, "big") % spread


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_ids_follow_every_status_change(seed):
    """Joins, graceful leaves, failures and rejoins of departed ids keep
    live_ids() equal to a full scan, and each call returns a fresh list."""
    rng = random.Random(seed)
    net, _ = build_network(12, seed=seed)
    departed: list[int] = []

    def check() -> None:
        scan = sorted(i for i, n in net.nodes.items() if n.status is NodeStatus.LIVE)
        held = net.live_ids()
        assert held == scan
        held.reverse()
        held.append(-1)
        assert net.live_ids() == scan

    check()
    for _ in range(40):
        live = net.live_ids()
        action = rng.choice(("join", "leave", "fail", "rejoin"))
        if action in ("leave", "fail") and len(live) > 4:
            victim = rng.choice(live)
            if action == "leave":
                leave(net, victim)
            else:
                net.fail(victim)
            departed.append(victim)
        else:
            if action == "rejoin" and departed:
                node_id = departed.pop(rng.randrange(len(departed)))
            else:
                node_id = rng.getrandbits(128)
            try:
                join(net, node_id, live[0])
            except PeerDeployError:
                pass  # a failed join leaves the id departed; check() covers it
        check()


def test_message_conservation():
    """Every sent message ends as exactly one delivery or timeout."""
    net, names = build_network(16, seed=3)
    publish(net, names["n0"], "c.jar", ComponentPayload.from_bytes(b"c" * 64))
    lookup(net, names["n5"], "c.jar")
    net.run_until_quiescent()
    metrics = net.metrics
    sent = sum(metrics.sent.values())
    delivered = sum(metrics.delivered.values())
    timeouts = sum(metrics.timeouts.values())
    assert sent == delivered + timeouts
    assert timeouts == 0  # nobody died in this scenario


def test_failed_node_processes_no_events():
    net, names = build_network(12, seed=8)
    victim = names["n4"]
    before = net.metrics.events_processed
    net.fail(victim)
    # messages already in flight toward the victim become timeouts, and the
    # victim's handlers never run again
    net.run_until_quiescent()
    lookup_ok = 0
    publish(net, names["n0"], "x.jar", ComponentPayload.from_bytes(b"x"))
    for name in ("n1", "n2", "n3"):
        try:
            lookup(net, names[name], "x.jar")
            lookup_ok += 1
        except Exception:
            pass
    assert lookup_ok == 3
    assert net.nodes[victim].status.value == "DEPARTED"
    sent = sum(net.metrics.sent.values())
    delivered = sum(net.metrics.delivered.values())
    timeouts = sum(net.metrics.timeouts.values())
    assert sent == delivered + timeouts


def test_fail_unknown_node_raises():
    net = SimNetwork(seed=0)
    with pytest.raises(NoSuchNodeError):
        net.fail(12345)


# -- the four ways a message can fail to arrive


@pytest.fixture
def quiet_ring():
    """A quiescent 4-node ring and its live ids, the sender first."""
    net, _ = build_network(4, seed=1)
    net.run_until_quiescent()
    return net, *net.live_ids()


def record_timeouts(monkeypatch, kind):
    """Record (clock, receiver) for each timeout of `kind`."""
    seen = []
    monkeypatch.setitem(simnet._TIMEOUT, kind,
                        lambda op, node, msg: seen.append((node.net.clock, msg.to_id)))
    return seen


def test_send_from_an_unknown_id_raises_as_node_does(quiet_ring):
    net, _, receiver, *_ = quiet_ring
    unknown = 12345
    assert unknown not in net.nodes
    sent = dict(net.metrics.sent)
    with pytest.raises(NoSuchNodeError) as caught:
        net.send(unknown, receiver, MessageKind.REPAIR)
    assert str(caught.value) == f"unknown node {unknown:032x}"
    with pytest.raises(NoSuchNodeError) as by_lookup:
        net.node(unknown)
    assert str(caught.value) == str(by_lookup.value)
    assert net.metrics.sent == sent and not net._queue


def test_send_from_a_departed_node_raises_and_counts_nothing(quiet_ring):
    net, sender, receiver, *_ = quiet_ring
    net.fail(sender)
    sent = dict(net.metrics.sent)
    with pytest.raises(NoSuchNodeError) as caught:
        net.send(sender, receiver, MessageKind.REPAIR)
    assert str(caught.value) == "departed nodes cannot send"
    assert net.metrics.sent == sent and not net._queue


def test_message_to_a_departed_node_times_out_at_its_deadline(quiet_ring, monkeypatch):
    net, sender, receiver, *_ = quiet_ring
    net.fail(receiver)
    seen = record_timeouts(monkeypatch, MessageKind.REPAIR)
    msg = net.send(sender, receiver, MessageKind.REPAIR)
    assert msg.deadline == net.clock + net.config.timeout
    net.run_until_quiescent()
    assert seen == [(msg.deadline, receiver)]
    assert net.metrics.timeouts == {"REPAIR": 1}


def test_events_due_at_the_same_time_run_in_send_order(quiet_ring, monkeypatch):
    net, sender, first, second, _ = quiet_ring
    net.fail(first)
    net.fail(second)
    seen = record_timeouts(monkeypatch, MessageKind.REPAIR)
    to_first = net.send(sender, first, MessageKind.REPAIR)
    to_second = net.send(sender, second, MessageKind.REPAIR)
    assert to_first.deadline == to_second.deadline
    net.run_until_quiescent()
    assert seen[:2] == [(to_first.deadline, first), (to_first.deadline, second)]


def test_receiver_that_dies_in_flight_times_out_at_the_later_of_deadline_and_clock(
        quiet_ring, monkeypatch):
    net, sender, receiver, other, _ = quiet_ring
    seen = record_timeouts(monkeypatch, MessageKind.REPAIR)

    def queued():
        return [(time, tag) for time, _, tag, _ in net._queue]

    first = net.send(sender, receiver, MessageKind.REPAIR)
    net.fail(receiver)
    net._step()  # the delivery finds the receiver gone
    # It landed before the deadline, which the timeout keeps.
    assert queued() == [(first.deadline, "timeout")]
    net.run_until_quiescent()
    assert seen == [(first.deadline, receiver)]
    # With the clock moved by hand past the deadline, the clock is kept.
    second = net.send(sender, other, MessageKind.REPAIR)
    net.fail(other)
    net.clock = late = second.deadline + 7
    net._step()
    assert queued() == [(late, "timeout")]
    net.run_until_quiescent()
    assert seen == [(first.deadline, receiver), (late, other)]
    assert net.metrics.timeouts == {"REPAIR": 2}


def test_advance_moves_clock_exactly():
    net, _ = build_network(4, seed=1)
    start = net.clock
    net.advance(2500)
    assert net.clock == start + 2500


def test_quiescence_after_single_publish():
    """The queue drains within (path + 2) hops of max latency."""
    net, names = build_network(16, seed=6)
    trail = publish(net, names["n2"], "bound.jar", ComponentPayload.from_bytes(b"b" * 32))
    started = net.clock
    net.run_until_quiescent()
    # generous static bound: every message costs at most max latency
    assert net.clock - started <= (len(trail.path) + 2) * net.config.latency_max
    assert not net._queue


def test_metrics_document_replays_bit_exact():
    docs = []
    for _ in range(2):
        net, names = build_network(10, seed=41)
        publish(net, names["n1"], "r.jar", ComponentPayload.from_bytes(b"r" * 128))
        for client in ("n3", "n7", "n9"):
            lookup(net, names[client], "r.jar")
        net.advance(1000)
        docs.append(serialize_metrics(net.metrics.to_document(net)))
    assert docs[0] == docs[1]


def test_metrics_serialization_is_canonical():
    doc = {"b": 1, "a": {"z": [3, 2], "y": 0}}
    text = serialize_metrics(doc)
    assert text == '{"a":{"y":0,"z":[3,2]},"b":1}\n'
    assert json.loads(text) == doc


def test_operation_failure_surfaces_to_caller():
    net = SimNetwork(seed=0)
    from peerdeploy import join
    join(net, 5, None, name="solo")
    with pytest.raises(Exception):
        lookup(net, 5, "missing.jar")


def test_ops_that_overlap_all_end_and_count():
    """Two lookups started by hand finish while a third drains the queue;
    each leaves `net.ops` and is counted once."""
    net, names = build_network(32, seed=3)
    for i in range(3):
        publish(net, names[f"n{i}"], f"o{i}.jar", payload_of(f"o{i}.jar"))
    lookups = net.metrics.op_counts.get("lookup", 0)
    start_lookup(net, names["n10"], "o0.jar")
    start_lookup(net, names["n20"], "o1.jar")
    lookup(net, names["n30"], "o2.jar")
    assert not net.ops
    operations = net.metrics.to_document(net)["operations"]
    assert operations["lookup"]["count"] == lookups + 3


class SendsNothing(simnet.Operation):
    kind = "silent"

    def start(self, node):
        pass


def test_an_op_left_open_by_an_empty_queue_fails_as_a_stall():
    net, names = build_network(4, seed=0)
    op = SendsNothing()
    with pytest.raises(LivelockSuspectedError, match="silent stalled"):
        op.run(net.nodes[names["n0"]])
    assert op.done and isinstance(op.error, LivelockSuspectedError)
    assert not net.ops


def test_seed_changes_latency_schedule():
    results = []
    for seed in (1, 2):
        net, names = build_network(8, seed=seed)
        publish(net, names["n0"], "s.jar", ComponentPayload.from_bytes(b"s"))
        net.run_until_quiescent()
        results.append(net.clock)
    assert results[0] != results[1]
