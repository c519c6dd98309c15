"""Event-driven expiry: `advance` skips the maintenance boundaries at which no
store can evict, and evicts exactly what a sweep at every boundary would."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from peerdeploy import build_network, leave, lookup, publish, route, serialize_metrics
from peerdeploy import simnet, store
from peerdeploy.errors import PeerDeployError
from peerdeploy.ids import derive_key
from peerdeploy.simnet import MessageKind, SimNetwork
from peerdeploy.store import ComponentPayload, NodeStore, Role, StoreConfig
import pins
from oracles import check_store, oracle_root


def payload_of(text: str) -> ComponentPayload:
    return ComponentPayload.from_bytes(text.encode() * 20)


# -- the reference schedule: every live store's evict at every boundary


def reference_sweep(net) -> None:
    for node_id in net.live_ids():
        net.metrics.evictions += len(net.nodes[node_id].store.evict(net.clock))


def reference_advance(net, ticks: int) -> None:
    target = net.clock + ticks
    interval = net.config.maintenance_interval
    boundary = (net.clock // interval + 1) * interval
    while True:
        horizon = min(boundary, target)
        while net._queue and net._queue[0][0] <= horizon:
            net._step()
        if boundary > target:
            break
        if net.clock < boundary:
            net.clock = boundary
        reference_sweep(net)
        boundary += interval
    if net.clock < target:
        net.clock = target


def reference_evict(store_, now: int) -> list[int]:
    """The two-pass eviction: expired TRAIL/CACHE entries, then LRU down to
    capacity, each pass in (last_access, key) order."""
    ttl = store_.config.ttl
    transient = [e for e in store_.entries.values() if not e.pinned]
    expired = sorted((e for e in transient if now - e.last_access > ttl),
                     key=lambda e: (e.last_access, e.key))
    kept = sorted((e for e in transient if now - e.last_access <= ttl),
                  key=lambda e: (e.last_access, e.key))
    victims = expired + kept[:max(0, len(kept) - store_.config.cache_capacity)]
    for entry in victims:
        del store_.entries[entry.key]
    return [entry.key for entry in victims]


@settings(max_examples=200, deadline=None)
@given(entries=st.dictionaries(st.integers(0, 50),
                               st.tuples(st.sampled_from(list(Role)), st.integers(0, 30)),
                               max_size=12),
       capacity=st.integers(0, 5), ttl=st.integers(1, 20), now=st.integers(0, 60))
def test_evict_matches_the_two_pass_reference(entries, capacity, ttl, now):
    stores = [NodeStore(StoreConfig(cache_capacity=capacity, ttl=ttl)) for _ in range(2)]
    # Written in last_access order, as simulated time writes them; entries of
    # equal last_access go in the order drawn, not in key order.
    order = sorted(entries.items(), key=lambda item: item[1][1])
    for node_store in stores:
        for key, (role, last_access) in order:
            node_store.put(key, f"k{key}", role, None if role is Role.TRAIL else payload_of("k"),
                           origin=None, root_hint=None, now=last_access)
    assert stores[0].evict(now) == reference_evict(stores[1], now)
    assert stores[0].entries.keys() == stores[1].entries.keys()


def start_lookup(net, client: int, name: str) -> None:
    """Leave a lookup in flight, so that the next advance carries it and its
    reply path caches the payload between boundaries."""
    op = net.new_op(store.LookupOp(derive_key(name), name))
    op.advance(net.nodes[client])


def lookup_past_an_expired_trail(monkeypatch):
    """Look f1.jar up from n6: the lookup stops at a TRAIL and fetches, and the
    sweep at the next boundary evicts that TRAIL before the payload comes
    back. Returns, per FETCH_REPLY, the junction's entry for the key before
    and after the reply (None where it holds none)."""
    net, names = build_network(32, seed=0, store_config=StoreConfig(ttl=100))
    for i in range(2):
        publish(net, names[f"n{i}"], f"f{i}.jar", payload_of(f"f{i}.jar"))
    key = derive_key("f1.jar")
    original = simnet._DELIVER[MessageKind.FETCH_REPLY]
    on_reply = []

    def deliver(op, node, msg):
        before = node.store.get(key)
        original(op, node, msg)
        on_reply.append((before, node.store.get(key)))

    monkeypatch.setitem(simnet._DELIVER, MessageKind.FETCH_REPLY, deliver)
    start_lookup(net, names["n6"], "f1.jar")
    (op,) = net.ops.values()
    net.advance(2000)
    assert op.done and op.error is None
    assert op.result == (payload_of("f1.jar"), op.path[-1], len(op.path) - 1)
    return on_reply


def test_a_fetch_reply_serves_from_a_junction_whose_trail_expired_meanwhile(monkeypatch):
    """The junction takes the reply all the same: it keeps a CACHE copy and
    serves from it."""
    on_reply = lookup_past_an_expired_trail(monkeypatch)
    ((before, after),) = on_reply
    assert before is None
    assert (after.role, after.payload, after.hits) == (Role.CACHE, payload_of("f1.jar"), 1)


def test_the_first_boundary_follows_the_time_of_the_next_event_not_its_sequence():
    """Many sends at one clock value push the sequence number of the event at
    the head of the queue far past its time. The publish in flight then leaves
    a TRAIL that expires long before the boundary that sequence number would
    name, and `advance` must evict it as a sweep at every boundary does."""
    nets = []
    for _ in range(2):
        net, _ = build_network(4, seed=1, store_config=StoreConfig(ttl=1))
        key = derive_key("far.jar")
        root = oracle_root(net.live_ids(), key)
        # The heir takes a pinned copy, so the TRAIL goes to one of the others.
        other = oracle_root([n for n in net.live_ids() if n != root], key)
        rest = [n for n in net.live_ids() if n not in (root, other)]
        middle = oracle_root(rest, key)
        (source,) = set(rest) - {middle}
        # The source forgets all but the middle node, so the publish takes two hops.
        for node_id in (other, root):
            net.nodes[source].forget(node_id)
        for _ in range(2000):
            net.send(source, 12345, MessageKind.REPAIR)  # to no node: times out at +500
        op = net.new_op(store.PublishOp(key, "far.jar", payload_of("far.jar")))
        op.advance(net.nodes[source])
        assert op.path == [source] and net._queue[0][1] > net.clock + 1000
        nets.append((net, op))
    (net, op), (reference, _) = nets
    net.advance(1000)
    reference_advance(reference, 1000)
    assert op.done and len(op.path) == 3 and op.path[1] == middle
    assert net.metrics.evictions == 1
    assert state(net) == state(reference)


def script(seed: int, nodes: int, names: int, steps: int) -> list[tuple]:
    rng = random.Random(seed)

    def ticks() -> int:
        # 0, a part of an interval, whole intervals, and long idle stretches
        return rng.choice([0, rng.randrange(1, 100), 100 * rng.randrange(1, 5),
                           rng.randrange(100, 1500), rng.randrange(1500, 6000)])

    actions: list[tuple] = []
    for _ in range(steps):
        draw = rng.random()
        if draw < 0.4:
            actions.append(("lookup", rng.randrange(nodes), rng.randrange(names)))
        elif draw < 0.55:
            actions.append(("in_flight", rng.randrange(nodes), rng.randrange(names), ticks()))
        elif draw < 0.8:
            actions.append(("advance", ticks()))
        elif draw < 0.86:
            actions.append(("sweep",))
        elif draw < 0.92:
            actions.append(("put", rng.randrange(nodes), rng.randrange(names)))
        elif draw < 0.96:
            actions.append(("leave", rng.randrange(nodes)))
        elif draw < 0.98:
            actions.append(("swap", rng.choice([300, 2500, 20_000]), rng.choice([0, 2, 64])))
        else:
            # fresh entries first, so that a smaller capacity has some to evict
            actions.append(("put", rng.randrange(nodes), rng.randrange(names)))
            actions.append(("edit", rng.choice([0, 1, 2, 64])))
    return actions


def apply(net, action: tuple, names: list[str], advance, sweep) -> str:
    live = net.live_ids()
    kind = action[0]
    try:
        if kind == "lookup":
            lookup(net, live[action[1] % len(live)], names[action[2]])
        elif kind == "in_flight":
            start_lookup(net, live[action[1] % len(live)], names[action[2]])
            advance(net, action[3])
        elif kind == "advance":
            advance(net, action[1])
        elif kind == "sweep":
            sweep(net)
        elif kind == "put":
            # inserts that no delivery follows: an overflow waits for the
            # next delivery to the store, or for the next boundary
            node_store = net.nodes[live[action[1] % len(live)]].store
            for i in range(action[2], action[2] + 3):
                name = names[i % len(names)]
                node_store.put(derive_key(name), name, Role.CACHE, payload_of(name),
                               origin=None, root_hint=None, now=net.clock)
        elif kind == "leave" and len(live) > 8:
            leave(net, live[action[1] % len(live)], graceful=True)
        elif kind == "swap":
            config = StoreConfig(ttl=action[1], cache_capacity=action[2])
            for node_id in live:
                net.nodes[node_id].store.config = config
        elif kind == "edit":
            # Every live store holds the one config the net was built or
            # swapped with. The boundary one interval on must see the edit.
            net.nodes[live[0]].store.config.cache_capacity = action[1]
            advance(net, net.config.maintenance_interval)
    except PeerDeployError as exc:
        return type(exc).__name__
    return "ok"


def state(net) -> tuple:
    stores = {node_id: sorted((key, entry.role.value)
                              for key, entry in net.nodes[node_id].store.entries.items())
              for node_id in net.live_ids()}
    return net.clock, net.metrics.evictions, stores


@pytest.mark.parametrize("config", [
    StoreConfig(cache_capacity=2),
    StoreConfig(),
], ids=["capacity2", "default"])
@pytest.mark.parametrize("seed", [1, 2])
def test_advance_evicts_like_a_sweep_at_every_boundary(config, seed):
    nets = [build_network(64, seed=seed, store_config=dataclasses.replace(config))[0]
            for _ in range(2)]
    names = [f"e{i}.jar" for i in range(24)]
    for net in nets:
        rng = random.Random(seed)
        live = net.live_ids()
        for name in names:
            publish(net, live[rng.randrange(len(live))], name, payload_of(name))
    for action in script(seed, 64, len(names), 150):
        outcomes = [
            apply(nets[0], action, names, SimNetwork.advance, SimNetwork.sweep_eviction),
            apply(nets[1], action, names, reference_advance, reference_sweep),
        ]
        assert outcomes[0] == outcomes[1], action
        assert state(nets[0]) == state(nets[1]), action
        for net in nets:
            for node_id in net.live_ids():
                check_store(net.nodes[node_id].store)
    assert nets[0].metrics.evictions > 0
    documents = [serialize_metrics(net.metrics.to_document(net)) for net in nets]
    assert documents[0] == documents[1]


def test_a_store_over_capacity_evicts_after_the_delivery_that_filled_it():
    """A fetch reply caches the payload at the junction and serves that copy.
    At capacity 0 the copy must go after the serve, not between the put and
    the serve, or the serve puts back into the index an entry the store no
    longer holds, and the next evict of that store fails."""
    net, _ = build_network(64, seed=0)
    rng = random.Random(0)
    live = net.live_ids()
    names = [f"b{i}.jar" for i in range(20)]
    for name in names:
        publish(net, live[rng.randrange(len(live))], name, payload_of(name))
    for node_id in live:
        net.nodes[node_id].store.config = StoreConfig(cache_capacity=0)
    name = names[rng.randrange(len(names))]
    assert name == "b15.jar"  # its lookup stops at a TRAIL and fetches
    lookup(net, live[rng.randrange(len(live))], name)
    net.advance(1000)
    for node_id in live:
        check_store(net.nodes[node_id].store)
        assert not net.nodes[node_id].store.overflowing()


# -- work, counted rather than timed


@pytest.fixture
def evict_calls(monkeypatch):
    calls: list[tuple[int, list[int]]] = []
    original = NodeStore.evict

    def counted(self, now):
        evicted = original(self, now)
        calls.append((now, evicted))
        return evicted

    monkeypatch.setattr(NodeStore, "evict", counted)
    return calls


def pinned_only_network(nodes: int = 16):
    net, _ = build_network(nodes, seed=4)
    live = net.live_ids()
    for i in range(8):
        name = f"pin{i}.jar"
        # published from its own root, so no trail is left on the way
        publish(net, oracle_root(live, derive_key(name)), name, payload_of(name))
    entries = [e for node in net.nodes.values() for e in node.store.entries.values()]
    assert all(e.pinned for e in entries)
    pins.check("expiry", "pinned_only_entries", len(entries))
    return net


def test_idle_advance_over_pinned_entries_calls_no_evict(evict_calls):
    net = pinned_only_network()
    evict_calls.clear()
    net.advance(1_000_000)
    assert evict_calls == []


@pytest.mark.parametrize("lag", [0, 1])
def test_one_cached_entry_expires_in_one_sweep(evict_calls, lag):
    net = pinned_only_network()
    node = net.nodes[net.live_ids()[3]]
    key = derive_key("brief.jar")
    ttl, interval = node.store.config.ttl, net.config.maintenance_interval
    # Insert so that last_access + ttl + lag falls on a boundary: with lag 0
    # the entry is still a tick too young there, with lag 1 it just expired.
    net.advance(-(net.clock + ttl + lag) % interval)
    node.store.put(key, "brief.jar", Role.CACHE, payload_of("brief"),
                   origin=None, root_hint=None, now=net.clock)
    first_past_ttl = ((net.clock + ttl) // interval + 1) * interval
    evict_calls.clear()
    net.advance(1_000_000)
    assert evict_calls == [(first_past_ttl, [key])]
    assert node.store.get(key) is None
    assert net.metrics.evictions == 1


def test_a_serve_that_refreshes_the_oldest_entry_moves_its_sweep(evict_calls):
    net = pinned_only_network(64)
    live = net.live_ids()
    name, key = "pin0.jar", derive_key("pin0.jar")
    client = next(node_id for node_id in live if len(route(net, node_id, key)) >= 3)
    lookup(net, client, name)  # caches a copy on every node between client and root
    cached = [node_id for node_id in live
              if (e := net.nodes[node_id].store.get(key)) and e.role is Role.CACHE]
    assert cached
    ttl = net.nodes[client].store.config.ttl
    net.advance(ttl // 2)
    lookup(net, client, name)  # served by the first copy on the route, which it refreshes
    evict_calls.clear()
    net.advance(10 * ttl)
    assert all(net.nodes[node_id].store.get(key) is None for node_id in cached)
    assert evict_calls and all(evicted for _, evicted in evict_calls)
