"""Component store: publish trails, lookup semantics, eviction, handoff."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from peerdeploy import build_network, join, leave, lookup, publish, remove, replica_count
from peerdeploy.errors import (
    IntegrityError,
    InvalidNameError,
    NotFoundError,
    NotOwnerError,
    RoutingFailureError,
    UnavailableError,
    VersionConflictError,
)
from peerdeploy.ids import derive_key
from peerdeploy.overlay import LeaveReport, route
from peerdeploy.simnet import MessageKind, SimConfig, SimNetwork
from peerdeploy.store import (
    ComponentPayload,
    NodeStore,
    Role,
    StoreConfig,
    content_digest,
    handoff_on_join,
    relinquish_roots,
)
from oracles import check_store, oracle_root, reference_due_at
from test_timeouts import kill_every_target


def payload_of(text: str, repeat: int = 50) -> ComponentPayload:
    return ComponentPayload.from_bytes(text.encode() * repeat)


def holders_of(net, name, payload_only=True):
    key = derive_key(name)
    out = set()
    for nid in net.live_ids():
        entry = net.nodes[nid].store.get(key)
        if entry is not None and (entry.payload is not None or not payload_only):
            out.add(nid)
    return out


# -- publish


def test_publish_deposits_trail_on_every_path_node():
    net, names = build_network(48, seed=31)
    for i in range(20):
        name = f"p{i}.jar"
        trail = publish(net, net.live_ids()[i % 48], name, payload_of(name))
        key = derive_key(name)
        assert trail.path[0] == trail.source
        assert trail.path[-1] == trail.root
        assert trail.root == oracle_root(net.live_ids(), key)
        for nid in trail.path:
            assert net.nodes[nid].store.get(key) is not None, "hole in the trail"
        # roles: source keeps payload, intermediates keep the association
        # only, bar the heir, which keeps a pinned copy
        heir = heir_of(net, key, trail.root)
        assert net.nodes[trail.source].store.get(key).role in (Role.SOURCE, Role.ROOT)
        assert net.nodes[trail.root].store.get(key).role is Role.ROOT
        if heir != trail.source:
            entry = net.nodes[heir].store.get(key)
            assert (entry.role, entry.payload) == (Role.RETAINED, payload_of(name))
            assert (entry.origin, entry.root_hint) == (trail.source, trail.root)
        for nid in trail.path[1:-1]:
            entry = net.nodes[nid].store.get(key)
            assert entry.role is (Role.RETAINED if nid == heir else Role.TRAIL)
            assert (entry.payload is None) == (nid != heir)
            assert (entry.origin, entry.root_hint) == (trail.source, trail.root)


def test_publish_single_node_collapses_roles():
    net = SimNetwork(seed=0)
    join(net, 77, None, name="solo")
    trail = publish(net, 77, "solo.jar", payload_of("solo"))
    assert trail.source == trail.root == 77
    entry = net.nodes[77].store.get(derive_key("solo.jar"))
    assert entry.role is Role.ROOT
    assert entry.payload is not None


def test_publish_replica_count_is_two_when_source_differs():
    net, names = build_network(16, seed=1)
    key = derive_key("pair.jar")
    source = next(nid for nid in net.live_ids()
                  if nid != oracle_root(net.live_ids(), key))
    publish(net, source, "pair.jar", payload_of("pair"))
    assert replica_count(net, "pair.jar") == 2


def test_publish_version_conflict_rejected():
    net, names = build_network(8, seed=2)
    publish(net, names["n0"], "v.jar", payload_of("one"))
    with pytest.raises(VersionConflictError):
        publish(net, names["n1"], "v.jar", payload_of("two"))
    # republishing identical content is a refresh, not a conflict
    publish(net, names["n2"], "v.jar", payload_of("one"))


def test_publish_rejects_bad_names():
    net, names = build_network(2, seed=0)
    with pytest.raises(InvalidNameError):
        publish(net, names["n0"], "", payload_of("x"))


def test_publish_rejects_a_payload_whose_digest_does_not_match_its_bytes():
    net, names = build_network(4, seed=0)
    real = payload_of("real")
    forged = ComponentPayload(real.data, payload_of("other").digest, real.size)
    sent = dict(net.metrics.sent)
    with pytest.raises(IntegrityError, match="digest mismatch"):
        publish(net, names["n0"], "forged.jar", forged)
    assert net.metrics.sent == sent


def test_publish_rejects_other_bytes_under_a_name_the_source_holds():
    net, names = build_network(8, seed=2)
    publish(net, names["n0"], "held.jar", payload_of("one"))
    sent = dict(net.metrics.sent)
    with pytest.raises(VersionConflictError, match="held locally"):
        publish(net, names["n0"], "held.jar", payload_of("two"))
    assert net.metrics.sent == sent


def test_content_digest_is_stable():
    data = b"digest me" * 10
    assert content_digest(data) == content_digest(data)
    assert content_digest(data) != content_digest(data + b"!")
    payload = ComponentPayload.from_bytes(data)
    assert payload.digest == content_digest(data)
    assert payload.size == len(data)
    assert payload.verify()


# -- lookup


def test_lookup_returns_bit_exact_payload():
    net, names = build_network(32, seed=3)
    blob = bytes(random.Random(0).randrange(256) for _ in range(3000))
    publish(net, names["n5"], "bits.jar", ComponentPayload.from_bytes(blob))
    got, served_by, hops = lookup(net, names["n20"], "bits.jar")
    assert got.data == blob
    assert got.digest == content_digest(blob)
    assert hops >= 0


def test_lookup_serves_from_first_entry_holder_on_path():
    net, _ = build_network(64, seed=5)
    live = net.live_ids()
    rng = random.Random(8)
    for i in range(10):
        name = f"首{i}.jar"
        publish(net, live[rng.randrange(len(live))], name, payload_of("x"))
    key_names = [f"首{i}.jar" for i in range(10)]
    for _ in range(60):
        name = key_names[rng.randrange(10)]
        key = derive_key(name)
        client = live[rng.randrange(len(live))]
        expected_path = route(net, client, key)
        first_holder = next(
            (nid for nid in expected_path
             if net.nodes[nid].store.get(key) is not None), None)
        _, served_by, hops = lookup(net, client, name)
        assert first_holder is not None
        assert served_by == first_holder or hops <= expected_path.index(first_holder)
        root_hops = len(expected_path) - 1
        assert hops <= root_hops, "short-circuit must not cost more than the root route"


def test_lookup_raises_integrity_error_on_a_payload_corrupted_in_place():
    net, names = build_network(8, seed=6)
    trail = publish(net, names["n0"], "rot.jar", payload_of("rot"))
    entry = net.nodes[trail.root].store.get(trail.key)
    assert entry.role is Role.ROOT
    entry.payload = ComponentPayload(b"rotten", entry.payload.digest, entry.payload.size)
    with pytest.raises(IntegrityError, match="rot.jar"):
        lookup(net, trail.root, "rot.jar")


def test_lookup_missing_name_not_found():
    net, names = build_network(8, seed=6)
    with pytest.raises(NotFoundError):
        lookup(net, names["n0"], "absent.jar")


def test_lookup_caching_grows_replicas_monotonically():
    net, _ = build_network(48, seed=7)
    live = net.live_ids()
    publish(net, live[0], "pop.jar", payload_of("pop"))
    rng = random.Random(2)
    seen = holders_of(net, "pop.jar")
    for _ in range(40):
        client = live[rng.randrange(len(live))]
        lookup(net, client, "pop.jar")
        now = holders_of(net, "pop.jar")
        assert now >= seen, "holder set shrank without an eviction"
        seen = now
    assert len(seen) >= 2


def test_lookup_unavailable_when_all_holders_dead_but_trail_survives():
    net, _ = build_network(64, seed=3)
    live = net.live_ids()
    # need a publish path with an intermediate other than the heir, which
    # holds a payload, so a TRAIL outlives the holders
    chosen = None
    for i in range(60):
        name = f"gone{i}.jar"
        key = derive_key(name)
        heir = heir_of(net, key, oracle_root(live, key))
        for publisher in live[:10]:
            if set(route(net, publisher, key)[1:-1]) - {heir}:
                chosen = (publisher, name)
                break
        if chosen:
            break
    assert chosen, "no multi-hop publish path found"
    publisher, name = chosen
    publish(net, publisher, name, payload_of(name))
    key = derive_key(name)
    trail_holders = [nid for nid in net.live_ids()
                     if (e := net.nodes[nid].store.get(key)) and e.role is Role.TRAIL]
    for holder in holders_of(net, name):
        leave(net, holder, graceful=False)
    assert trail_holders
    with pytest.raises(UnavailableError):
        lookup(net, trail_holders[0], name)
    # the stale trail was discarded; the network converges to not-found
    with pytest.raises(NotFoundError):
        lookup(net, trail_holders[0], name)
    junction = net.nodes[trail_holders[0]].store
    assert junction.get(key) is None
    assert junction.due_at() == reference_due_at(junction)


# -- remove


def test_publish_remove_single_node_not_found():
    net = SimNetwork(seed=0)
    join(net, 5, None)
    publish(net, 5, "one.jar", payload_of("one"))
    remove(net, 5, "one.jar")
    with pytest.raises(NotFoundError):
        lookup(net, 5, "one.jar")


def test_remove_requires_ownership():
    net, names = build_network(16, seed=9)
    publish(net, names["n3"], "own.jar", payload_of("own"))
    lookup(net, names["n7"], "own.jar")  # n7 now caches a copy
    thief = next(name for name in names
                 if names[name] in holders_of(net, "own.jar")
                 and names[name] != names["n3"])
    with pytest.raises(NotOwnerError):
        remove(net, names[thief], "own.jar")
    with pytest.raises(NotFoundError):
        remove(net, names["n9"], "never.jar")


def test_remove_then_expiry_makes_all_lookups_not_found():
    net, names = build_network(64, seed=10)
    publish(net, names["n8"], "temp.jar", payload_of("temp"))
    for client in list(names.values())[:10]:
        lookup(net, client, "temp.jar")
    remove(net, names["n8"], "temp.jar")
    ttl = net.nodes[net.live_ids()[0]].store.config.ttl
    net.advance(ttl + net.config.maintenance_interval)
    net.sweep_eviction()
    rng = random.Random(4)
    live = net.live_ids()
    for _ in range(20):
        client = live[rng.randrange(len(live))]
        with pytest.raises(NotFoundError):
            lookup(net, client, "temp.jar")
    assert replica_count(net, "temp.jar") == 0


def test_lookup_deletes_a_trail_whose_holders_answer_empty():
    net, names = build_network(64, seed=4)
    key = derive_key("x0.jar")
    trail = publish(net, names["n1"], "x0.jar", payload_of("x0"))
    assert len(trail.path) == 3
    remove(net, names["n1"], "x0.jar")
    middle = net.nodes[trail.path[1]].store
    assert middle.get(key).role is Role.TRAIL  # remove leaves the path's trail
    sent = dict(net.metrics.sent)
    for client in names.values():
        with pytest.raises(NotFoundError):
            lookup(net, client, "x0.jar")
    # The first lookup to reach the trail asks root and origin, both answer
    # without a payload, and the stale trail goes; no later lookup fetches.
    assert net.metrics.sent["FETCH"] - sent.get("FETCH", 0) == 2
    assert net.metrics.sent["FETCH_REPLY"] - sent.get("FETCH_REPLY", 0) == 2
    assert middle.get(key) is None


def test_a_trail_that_names_no_other_holder_sends_no_fetch():
    net, names = build_network(16, seed=2)
    publish(net, names["n0"], "self.jar", payload_of("self"))
    key = derive_key("self.jar")
    junction = next(nid for nid in net.live_ids() if net.nodes[nid].store.get(key) is None)
    net.nodes[junction].store.put(key, "self.jar", Role.TRAIL, None, origin=None,
                                  root_hint=junction, now=net.clock)
    sent = dict(net.metrics.sent)
    payload, served_by, _ = lookup(net, junction, "self.jar")
    assert payload == payload_of("self") and served_by != junction
    assert net.metrics.sent.get("FETCH", 0) == sent.get("FETCH", 0)
    assert net.nodes[junction].store.get(key) is None  # the stale trail went


# -- the heir's copy: the key's second pinned copy, at the next-closest id


def heir_of(net, key: int, root: int) -> int:
    return oracle_root([n for n in net.live_ids() if n != root], key)


def test_the_heir_keeps_a_copy_that_serves_once_the_root_fails():
    net, names = build_network(64, seed=5)
    trail = publish(net, names["n3"], "heir.jar", payload_of("heir"))
    heir = heir_of(net, trail.key, trail.root)
    assert heir != trail.source
    entry = net.nodes[heir].store.get(trail.key)
    assert (entry.role, entry.payload, entry.origin, entry.root_hint) == (
        Role.RETAINED, payload_of("heir"), trail.source, trail.root)
    leave(net, trail.root, graceful=False)
    # No lookup ends not-found at the heir, the key's new root: it serves.
    served_by = [lookup(net, client, "heir.jar")[1] for client in net.live_ids()]
    assert heir in served_by


def test_a_source_that_is_its_own_root_still_leaves_the_heir_copy():
    net, _ = build_network(32, seed=4)
    key = derive_key("self.jar")
    root = oracle_root(net.live_ids(), key)
    trail = publish(net, root, "self.jar", payload_of("self"))
    assert trail.path == [root]
    assert net.nodes[root].store.get(key).role is Role.ROOT
    assert net.nodes[heir_of(net, key, root)].store.get(key).role is Role.RETAINED
    assert net.metrics.delivered["TRANSFER"] == 1 and not net.ops


def test_a_dead_heir_settles_the_publish_with_no_resend(monkeypatch):
    net, names = build_network(32, seed=4)
    kill_every_target(monkeypatch, net, MessageKind.TRANSFER)
    trail = publish(net, names["n3"], "x.jar", payload_of("x"))
    assert net.metrics.sent["TRANSFER"] == 1
    assert net.metrics.timeouts == {"TRANSFER": 1}
    assert net.metrics.op_failures.get("publish", 0) == 0 and not net.ops
    assert net.nodes[trail.root].store.get(trail.key).role is Role.ROOT
    assert net.nodes[trail.source].store.get(trail.key).role is Role.SOURCE


def test_a_remove_after_the_root_fails_drops_the_heir_copy_and_the_source():
    net, names = build_network(32, seed=4)
    source = names["n3"]
    trail = publish(net, source, "x.jar", payload_of("x"))
    heir = heir_of(net, trail.key, trail.root)
    leave(net, trail.root, graceful=False)
    report = remove(net, source, "x.jar")
    assert (report.requester, report.root) == (source, heir)
    assert net.nodes[source].store.get(trail.key) is None
    assert replica_count(net, "x.jar") == 0


# -- eviction


def test_evict_expires_untouched_cache_and_trail():
    net, names = build_network(24, seed=12)
    publish(net, names["n1"], "ttl.jar", payload_of("ttl"))
    lookup(net, names["n9"], "ttl.jar")
    key = derive_key("ttl.jar")
    transient = [nid for nid in net.live_ids()
                 if (e := net.nodes[nid].store.get(key))
                 and e.role in (Role.TRAIL, Role.CACHE)]
    assert transient, "scenario needs transient entries"
    ttl = net.nodes[transient[0]].store.config.ttl
    net.advance(ttl + net.config.maintenance_interval * 2)
    for nid in transient:
        entry = net.nodes[nid].store.get(key)
        assert entry is None, "transient entry outlived its ttl"
    # pinned entries survive unbounded idle time: the source, root and heir copies
    assert replica_count(net, "ttl.jar") == 3


def test_evict_lru_respects_capacity_and_pins():
    config = StoreConfig(cache_capacity=4, ttl=10_000_000)
    net = SimNetwork(seed=0, store_config=config)
    join(net, 9, None, name="solo")
    node = net.nodes[9]
    publish(net, 9, "mine.jar", payload_of("mine"))
    # manufacture cache pressure directly on the store
    for i in range(12):
        key = derive_key(f"c{i}.jar")
        node.store.put(key, f"c{i}.jar", Role.CACHE, payload_of("c"),
                       origin=None, root_hint=None, now=net.clock + i)
    node.store.evict(net.clock + 100)
    check_store(node.store)
    assert sum(not entry.pinned for entry in node.store.entries.values()) <= 4
    # oldest transients went first
    assert node.store.get(derive_key("c11.jar")) is not None
    assert node.store.get(derive_key("c0.jar")) is None
    assert node.store.get(derive_key("mine.jar")) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_evict_never_removes_pinned_fuzz(now):
    config = StoreConfig(cache_capacity=2, ttl=50)
    net = SimNetwork(seed=1, store_config=config)
    join(net, 3, None)
    node = net.nodes[3]
    publish(net, 3, "keep.jar", payload_of("keep"))
    rng = random.Random(now)
    for i in range(10):
        role = Role.CACHE if i % 2 else Role.TRAIL
        key = derive_key(f"f{i}.jar")
        if role is Role.CACHE:
            node.store.put(key, f"f{i}.jar", role, payload_of("f"),
                           origin=None, root_hint=None, now=rng.randrange(0, 1000))
        else:
            node.store.put(key, f"f{i}.jar", role, None, origin=1, root_hint=2,
                           now=rng.randrange(0, 1000))
    node.store.evict(now)
    assert node.store.get(derive_key("keep.jar")) is not None


@pytest.mark.parametrize("settings", [{"cache_capacity": -1}, {"ttl": 0}])
def test_store_config_rejects_settings_that_break_eviction(settings):
    with pytest.raises(ValueError):
        StoreConfig(**settings)


def test_cache_put_never_unpins_an_authoritative_entry():
    net = SimNetwork(seed=0)
    join(net, 5, None, name="solo")
    publish(net, 5, "held.jar", payload_of("held"))
    store = net.nodes[5].store
    key = derive_key("held.jar")
    store.put(key, "held.jar", Role.CACHE, payload_of("held"),
              origin=None, root_hint=None, now=net.clock)
    net.advance(store.config.ttl + 2 * net.config.maintenance_interval)
    entry = store.get(key)
    assert entry is not None and entry.role is Role.ROOT


# -- role precedence of NodeStore.put

OLD, NEW = payload_of("old"), payload_of("new")
INF = float("inf")
S, R, T, C, K = Role.SOURCE, Role.ROOT, Role.TRAIL, Role.CACHE, Role.RETAINED

# The prior entry is "old.jar", written at t=10 with origin 1 and root_hint 2
# and OLD as its payload (none for TRAIL). The put writes "new.jar" at t=20
# with origin None and root_hint 4, and NEW as its payload (none for TRAIL).
# (prior role, put role) -> (role, name, payload, origin, root_hint, due_at);
# last_access is 20 in every case. A change that moves one of these rows
# changes role precedence and has to say why.
PRECEDENCE = {
    (None, S): (S, "new.jar", NEW, None, 4, INF),
    (None, R): (R, "new.jar", NEW, None, 4, INF),
    (None, C): (C, "new.jar", NEW, None, 4, 1021),
    (None, K): (K, "new.jar", NEW, None, 4, INF),
    (None, T): (T, "new.jar", None, None, 4, 1021),
    (S, S): (S, "new.jar", NEW, 1, 4, INF),
    (S, R): (R, "new.jar", NEW, 1, 4, INF),
    (S, C): (S, "new.jar", NEW, 1, 4, INF),
    (S, K): (K, "new.jar", NEW, 1, 4, INF),
    (S, T): (S, "old.jar", OLD, 1, 4, INF),
    (R, S): (S, "new.jar", NEW, 1, 4, INF),
    (R, R): (R, "new.jar", NEW, 1, 4, INF),
    (R, C): (R, "new.jar", NEW, 1, 4, INF),
    (R, K): (K, "new.jar", NEW, 1, 4, INF),
    (R, T): (R, "old.jar", OLD, 1, 4, INF),
    (T, S): (S, "new.jar", NEW, 1, 4, INF),
    (T, R): (R, "new.jar", NEW, 1, 4, INF),
    (T, C): (C, "new.jar", NEW, 1, 4, 1021),
    (T, K): (K, "new.jar", NEW, 1, 4, INF),
    (T, T): (T, "old.jar", None, 1, 4, 1021),
    (C, S): (S, "new.jar", NEW, 1, 4, INF),
    (C, R): (R, "new.jar", NEW, 1, 4, INF),
    (C, C): (C, "new.jar", NEW, 1, 4, 1021),
    (C, K): (K, "new.jar", NEW, 1, 4, INF),
    (C, T): (C, "old.jar", OLD, 1, 4, 1021),
    (K, S): (S, "new.jar", NEW, 1, 4, INF),
    (K, R): (R, "new.jar", NEW, 1, 4, INF),
    (K, C): (K, "new.jar", NEW, 1, 4, INF),
    (K, K): (K, "new.jar", NEW, 1, 4, INF),
    (K, T): (K, "old.jar", OLD, 1, 4, INF),
}


@pytest.mark.parametrize("prior, role", list(PRECEDENCE),
                         ids=[f"{p.name if p else 'NONE'}-{r.name}" for p, r in PRECEDENCE])
def test_put_role_precedence(prior, role):
    store = NodeStore()
    key = derive_key("pre.jar")
    if prior is not None:
        store.put(key, "old.jar", prior, None if prior is T else OLD,
                  origin=1, root_hint=2, now=10)
    entry = store.put(key, "new.jar", role, None if role is T else NEW,
                      origin=None, root_hint=4, now=20)
    assert entry is store.get(key) and len(store.entries) == 1
    got = (entry.role, entry.name, entry.payload, entry.origin, entry.root_hint,
           store.due_at())
    assert got == PRECEDENCE[prior, role]
    assert entry.last_access == 20


# -- handoff on join


def test_join_handoff_moves_root_and_retains_payload():
    net, names = build_network(24, seed=14)
    keys = [f"h{i}.jar" for i in range(16)]
    for i, name in enumerate(keys):
        publish(net, net.live_ids()[i % 24], name, payload_of(name))
    old_roots = {name: oracle_root(net.live_ids(), derive_key(name)) for name in keys}
    report = join(net, derive_key("wedge-node"), net.live_ids()[0], name="wedge")
    live = net.live_ids()
    moved = 0
    for name in keys:
        key = derive_key(name)
        new_root = oracle_root(live, key)
        holders = [nid for nid in live
                   if (e := net.nodes[nid].store.get(key)) and e.role is Role.ROOT]
        assert holders == [new_root]
        if new_root != old_roots[name]:
            moved += 1
            demoted = net.nodes[old_roots[name]].store.get(key)
            assert demoted is not None and demoted.role is Role.RETAINED
            assert demoted.payload is not None, "retention means keeping the bytes"
            assert demoted.root_hint == new_root
            assert key in report.transferred
    if moved:
        assert report.transferred


def test_remove_reaches_the_copy_a_handoff_retained():
    net, names = build_network(16, seed=18)
    publish(net, names["n2"], "fade.jar", payload_of("fade"))
    join(net, derive_key("fade.jar") + 1, net.live_ids()[0])
    remove(net, names["n2"], "fade.jar")
    net.advance(2000)
    copies = replica_count(net, "fade.jar")
    outcomes = []
    for client in net.live_ids():
        try:
            lookup(net, client, "fade.jar")
            outcomes.append("served")
        except NotFoundError:
            outcomes.append("not-found")
    assert (copies, outcomes) == (0, ["not-found"] * 17)


def test_handoff_on_a_lone_node_has_no_neighbour_to_ask():
    net, names = build_network(1)
    assert handoff_on_join(net.nodes[names["n0"]]) == ([], [])
    assert not net.ops


def test_the_last_node_standing_leaves_with_its_roots():
    net, names = build_network(1)
    publish(net, names["n0"], "last.jar", payload_of("last"))
    assert leave(net, names["n0"]) == LeaveReport(names["n0"], True, [], [])
    assert not net.ops


def test_relinquish_leaves_one_root_per_moved_key():
    # Relinquish runs while the leaver is still live; its moved roots must
    # not stay ROOT beside the new ones.
    net, _ = build_network(32, seed=3)
    live = net.live_ids()
    for i in range(40):
        publish(net, live[i % 32], f"k{i}.jar", payload_of(f"k{i}.jar"))

    def roots(nid):
        return sum(e.role is Role.ROOT for e in net.nodes[nid].store.entries.values())

    leaver = max(live, key=lambda nid: (roots(nid), -nid))
    held = roots(leaver)
    transferred, unresolved = relinquish_roots(net.nodes[leaver])
    assert held and len(transferred) == held and not unresolved
    for key, new_root in transferred:
        holders = [nid for nid in net.live_ids()
                   if (e := net.nodes[nid].store.get(key)) and e.role is Role.ROOT]
        assert holders == [new_root]
        kept = net.nodes[leaver].store.get(key)
        assert (kept.role, kept.root_hint) == (Role.RETAINED, new_root)
        assert kept.payload is not None


def test_root_uniqueness_through_join_storm():
    net, _ = build_network(24, seed=16)
    keys = [f"s{i}.jar" for i in range(20)]
    rng = random.Random(5)
    for i, name in enumerate(keys):
        publish(net, net.live_ids()[i % 24], name, payload_of(name))
    for j in range(10):
        join(net, rng.getrandbits(128), net.live_ids()[0], name=f"storm{j}")
        live = net.live_ids()
        for name in keys:
            key = derive_key(name)
            holders = [nid for nid in live
                       if (e := net.nodes[nid].store.get(key)) and e.role is Role.ROOT]
            assert holders == [oracle_root(live, key)], f"{name} after join {j}"


def test_lookup_after_remove_with_source_departed_counts_zero():
    net, names = build_network(16, seed=18)
    source = names["n2"]
    publish(net, source, "fade.jar", payload_of("fade"))
    remove(net, source, "fade.jar")
    leave(net, source, graceful=True)
    ttl = net.nodes[net.live_ids()[0]].store.config.ttl
    net.advance(ttl * 2)
    assert replica_count(net, "fade.jar") == 0


# -- operation outcomes in the metrics document


def outcomes(net, kind):
    entry = net.metrics.to_document(net)["operations"][kind]
    return {"count": entry["count"], "failures": entry["failures"]}


def test_failed_publish_is_counted():
    net, names = build_network(16, seed=3)
    trail = publish(net, names["n1"], "x.jar", payload_of("one"))
    other = names["n2"]
    assert other != trail.root
    with pytest.raises(VersionConflictError):
        publish(net, other, "x.jar", payload_of("two"))
    assert outcomes(net, "publish") == {"count": 2, "failures": 1}


def test_failed_route_and_remove_are_counted():
    net, names = build_network(16, seed=3, sim_config=SimConfig(retries=0))
    trail = publish(net, names["n1"], "x.jar", payload_of("one"))
    net.nodes[trail.root].store.delete(trail.key)
    with pytest.raises(NotFoundError):
        remove(net, names["n1"], "x.jar")
    assert outcomes(net, "remove") == {"count": 1, "failures": 1}
    net.fail(trail.path[1] if len(trail.path) > 2 else trail.root)
    with pytest.raises(RoutingFailureError):
        route(net, names["n1"], trail.key)
    assert outcomes(net, "route") == {"count": 1, "failures": 1}
