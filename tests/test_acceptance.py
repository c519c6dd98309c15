"""Acceptance gate: ten end-to-end criteria over the whole stack.

Each test prints one summary line; pytest -v shows one PASSED/FAILED row per
criterion. Shared fixtures build the heavyweight networks once.
"""

import bisect
import itertools
import random
import time
from collections import Counter

import pytest

from peerdeploy import build_network, join, leave, lookup, publish, replica_count
from peerdeploy.errors import LifecycleError, MalformedUriError
from peerdeploy.ids import derive_key, to_hex
from peerdeploy.overlay import route
from peerdeploy.repo import (
    ComponentDescriptor,
    GatewayState,
    RepositoryIndex,
    install,
    parse_uri,
    publish_local,
    resolve,
    start,
    stop,
    uninstall,
)
from peerdeploy.scenario import run_scenario
from peerdeploy.store import ComponentPayload, Role, StoreConfig
from oracles import check_resolution, oracle_root


def payload_of(name: str, size: int = 512) -> ComponentPayload:
    rng = random.Random(name)
    return ComponentPayload.from_bytes(bytes(rng.randrange(256) for _ in range(size)))


# --------------------------------------------------------------------------
# shared heavyweight networks


@pytest.fixture(scope="module")
def trail_net():
    """Criterion 3/4 substrate: N = 256 with 100 published bundles."""
    net, _ = build_network(256, seed=33)
    live = net.live_ids()
    rng = random.Random(34)
    trails = {}
    for i in range(100):
        name = f"tb{i}.jar"
        publisher = live[rng.randrange(len(live))]
        trails[name] = publish(net, publisher, name, payload_of(name))
    return net, trails


@pytest.fixture(scope="module")
def small_world_run():
    """Criterion 6/7 substrate: Zipf workload with interleaved eviction fuzz.

    Cache ttl is sized to span a fifth of the simulated run (each lookup
    advances the clock ~100 ticks) so replication can track sustained demand.
    """
    net, _ = build_network(256, seed=61, store_config=StoreConfig(ttl=200_000))
    live = net.live_ids()
    rng = random.Random(62)
    bundles = [f"wl{i}.jar" for i in range(100)]
    for name in bundles:
        key = derive_key(name)
        root = oracle_root(live, key)
        while True:
            publisher = live[rng.randrange(len(live))]
            if publisher != root:
                break
        publish(net, publisher, name, payload_of(name))

    weights = [1.0 / rank for rank in range(1, 101)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    requests = Counter()
    sampled = Counter()
    samples = 0
    pinned_violations = []
    fuzzed = 0
    for i in range(10_000):
        draw = rng.random() * total
        idx = min(bisect.bisect_left(cumulative, draw), 99)
        name = bundles[idx]
        requests[name] += 1
        client = live[rng.randrange(len(live))]
        lookup(net, client, name)
        if (i + 1) % 100 == 0:
            net.sweep_eviction()
        if (i + 1) % 500 == 0:
            for bundle in bundles:
                sampled[bundle] += replica_count(net, bundle)
            samples += 1
        if (i + 1) % 10 == 0 and fuzzed < 1000:
            target = net.nodes[live[rng.randrange(len(live))]]
            before = {k for k, e in target.store.entries.items() if e.pinned}
            target.store.evict(net.clock)
            after = {k for k, e in target.store.entries.items() if e.pinned}
            if not before <= after:
                pinned_violations.append(target.id)
            fuzzed += 1

    replicas_hot = {name: sampled[name] / samples for name in bundles}
    ttl = net.nodes[live[0]].store.config.ttl
    net.advance(10 * ttl)
    counts_cold = {name: replica_count(net, name) for name in bundles}
    return {
        "net": net, "bundles": bundles, "requests": requests,
        "replicas_hot": replicas_hot, "replicas_cold": counts_cold,
        "fuzzed": fuzzed, "pinned_violations": pinned_violations,
    }


# --------------------------------------------------------------------------
# the ten criteria


def test_criterion_01_routing_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for size in (1, 2, 3, 5, 8, 16, 32, 64):
        net, _ = build_network(size, seed=size, random_ids=True)
        live = net.live_ids()
        for _ in range(256):
            key = rng.getrandbits(128)
            expected = oracle_root(live, key)
            for _ in range(10):
                start_node = live[rng.randrange(len(live))]
                path = route(net, start_node, key)
                assert path[-1] == expected, (
                    f"N={size} key={key:x} start={start_node:x}: "
                    f"{path[-1]:x} != {expected:x}")
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 1: {checked} routed pairs all equal full-scan root "
          f"({elapsed:.1f}s) -> PASS")


def test_criterion_02_hop_scaling():
    started = time.monotonic()
    # Routes, not lookups: a lookup stops at the first cached copy, so its
    # hops would say little about the overlay.
    net, _ = build_network(1024, seed=21, random_ids=True)
    live = net.live_ids()
    rng = random.Random(22)
    keys = [derive_key(f"hs{i}.jar") for i in range(100)]
    hops_seen = []
    for _ in range(10_000):
        client = live[rng.randrange(len(live))]
        hops_seen.append(len(route(net, client, keys[rng.randrange(len(keys))])) - 1)
    mean_hops = sum(hops_seen) / len(hops_seen)
    max_hops = max(hops_seen)
    elapsed = time.monotonic() - started
    assert mean_hops <= 4.0, f"mean hops {mean_hops:.3f} > 4"
    assert max_hops <= 37, f"max hops {max_hops} > 37"
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2: mean {mean_hops:.3f} <= 4, max {max_hops} <= 37 "
          f"({elapsed:.1f}s) -> PASS")


def test_criterion_03_trail_completeness(trail_net):
    net, trails = trail_net
    holes = 0
    for name, trail in trails.items():
        key = derive_key(name)
        for nid in trail.path:
            if net.nodes[nid].store.get(key) is None:
                holes += 1
    assert holes == 0, f"{holes} trail holes"
    print(f"criterion 3: {len(trails)} publish paths, 0 holes -> PASS")


def test_criterion_04_junction_retrieval(trail_net):
    net, trails = trail_net
    live = net.live_ids()
    rng = random.Random(41)
    names = list(trails)
    for _ in range(1000):
        name = names[rng.randrange(len(names))]
        key = derive_key(name)
        client = live[rng.randrange(len(live))]
        path = route(net, client, key)
        first_holder = next(nid for nid in path
                            if net.nodes[nid].store.get(key) is not None)
        _, served_by, hops = lookup(net, client, name)
        assert served_by == first_holder, (
            f"{name}: served by {served_by:x}, first holder {first_holder:x}")
        assert hops <= len(path) - 1, "serving cost more hops than the root route"
    print("criterion 4: 1000 lookups all served at the junction, "
          "hops(serving) <= hops(root) -> PASS")


def test_criterion_05_churn_survivability():
    started = time.monotonic()
    net, _ = build_network(128, seed=51)
    rng = random.Random(52)
    names = [f"ch{i}.jar" for i in range(50)]
    for name in names:
        live = net.live_ids()
        publish(net, live[rng.randrange(len(live))], name, payload_of(name))

    retained_expectations = set()
    joins_done = leaves_done = 0
    while joins_done < 50 or leaves_done < 20:
        live = net.live_ids()
        do_leave = (leaves_done < 20 and joins_done >= leaves_done * 2
                    and len(live) > 64)
        if do_leave:
            victim = live[rng.randrange(len(live))]
            leave(net, victim, graceful=True)
            retained_expectations = {
                (name, nid) for name, nid in retained_expectations if nid != victim}
            leaves_done += 1
        else:
            roots_before = {name: oracle_root(live, derive_key(name)) for name in names}
            new_id = rng.getrandbits(128)
            join(net, new_id, live[0], name=f"j{joins_done}")
            live_now = net.live_ids()
            for name in names:
                new_root = oracle_root(live_now, derive_key(name))
                old_root = roots_before[name]
                if new_root == new_id and old_root != new_id and old_root in live_now:
                    retained_expectations.add((name, old_root))
            joins_done += 1

    live = net.live_ids()
    for name in names:
        key = derive_key(name)
        for _ in range(10):
            client = live[rng.randrange(len(live))]
            got, _, _ = lookup(net, client, name)
            assert got.digest == payload_of(name).digest
        holders = [nid for nid in live
                   if (e := net.nodes[nid].store.get(key)) and e.role is Role.ROOT]
        assert holders == [oracle_root(live, key)], f"root anomaly for {name}"

    for name, nid in retained_expectations:
        if nid not in live:
            continue
        entry = net.nodes[nid].store.get(derive_key(name))
        assert entry is not None, f"demoted root dropped {name}"
        assert entry.payload is not None, f"demoted root lost bytes of {name}"
        assert entry.role in (Role.RETAINED, Role.ROOT, Role.SOURCE)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"criterion 5: 50 joins + 20 graceful leaves, 500 lookups ok, "
          f"roots exact, {len(retained_expectations)} retained copies held "
          f"({elapsed:.1f}s) -> PASS")


def test_criterion_06_small_world_replication(small_world_run):
    state = small_world_run
    ranked = sorted(state["bundles"], key=lambda n: state["requests"][n])
    bottom, top = ranked[:10], ranked[-10:]
    top_mean = sum(state["replicas_hot"][n] for n in top) / 10
    bottom_mean = sum(state["replicas_hot"][n] for n in bottom) / 10
    assert top_mean > bottom_mean, (
        f"top decile {top_mean:.2f} not above bottom decile {bottom_mean:.2f}")
    floor = min(state["replicas_cold"].values())
    assert floor >= 2, f"a bundle decayed below root+source: {floor}"
    print(f"criterion 6: top-10 mean {top_mean:.2f} > bottom-10 mean "
          f"{bottom_mean:.2f}; post-decay floor {floor} >= 2 -> PASS")


def test_criterion_07_eviction_safety(small_world_run):
    state = small_world_run
    assert state["fuzzed"] == 1000, f"only {state['fuzzed']} fuzzed evicts ran"
    assert not state["pinned_violations"], (
        f"pinned entries lost on nodes {state['pinned_violations']}")
    print("criterion 7: 1000 fuzzed evicts, 0 pinned entries evicted -> PASS")


def test_criterion_08_end_to_end_integrity():
    net, names = build_network(64, seed=81)
    index = RepositoryIndex()
    gateways = {nid: GatewayState(nid, index=index) for nid in net.live_ids()}
    live = net.live_ids()
    rng = random.Random(82)
    matched = 0
    for i in range(50):
        name = f"pair{i}.jar"
        payload = payload_of(name, size=1024 + i)
        publisher = gateways[live[rng.randrange(len(live))]]
        descriptor = ComponentDescriptor(
            name=name, version="1.0", digest=payload.digest, size=payload.size)
        publish_local(publisher, net, descriptor, payload)
        client = gateways[live[rng.randrange(len(live))]]
        install(client, net, f"p2p://{name}")
        if client.node_id != publisher.node_id:
            assert client.artifacts[name].data == payload.data
        assert client.artifacts[name].digest == payload.digest
        matched += 1
    assert matched == 50
    print("criterion 8: 50 publish/install pairs bit-identical -> PASS")


def test_criterion_09_scenario_determinism(tmp_path):
    scenario = tmp_path / "smallworld.scenario"
    scenario.write_text(
        "# the replication workload, replayed\n"
        "create 256\n"
        "workload zipf 256 100 10000 1.0\n"
        "dump\n")
    first = run_scenario(str(scenario), seed=91)
    second = run_scenario(str(scenario), seed=91)
    other = run_scenario(str(scenario), seed=92)
    assert first.exit_code == second.exit_code == other.exit_code == 0
    assert first.serialized() == second.serialized()
    assert first.serialized() != other.serialized()
    print("criterion 9: same seed byte-identical, different seed differs -> PASS")


def test_criterion_10_repo_layer():
    rng = random.Random(1001)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_"
    for _ in range(1000):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 24)))
        assert parse_uri(f"p2p://{name}") == ("p2p", name)

    for trial in range(200):
        count = rng.randrange(2, 16)
        descriptors = {}
        for i in range(count):
            payload = payload_of(f"g{trial}-{i}")
            imports = tuple({f"pkg{rng.randrange(count)}"
                             for _ in range(rng.randrange(0, 4))})
            descriptors[f"g{i}.jar"] = ComponentDescriptor(
                name=f"g{i}.jar", version="1.0", digest=payload.digest,
                size=payload.size, imports=imports, exports=(f"pkg{i}",))
        index = RepositoryIndex()
        for descriptor in descriptors.values():
            index.add(descriptor)
        requested = f"g{rng.randrange(count)}.jar"
        groups = resolve(index, requested)
        emitted = {m for g in groups for m in g.members}
        problems = check_resolution({n: descriptors[n] for n in emitted},
                                    requested, groups)
        assert not problems, f"graph {trial}: {problems}"

    net, names = build_network(8, seed=83)
    index = RepositoryIndex()
    gw = GatewayState(names["n0"], index=index)
    payload = payload_of("lc10")
    publish_local(gw, net, ComponentDescriptor(
        name="lc10.jar", version="1.0", digest=payload.digest,
        size=payload.size), payload)
    rejected = 0
    for illegal in (lambda: start(gw, "ghost.jar"),
                    lambda: stop(gw, "lc10.jar"),
                    lambda: uninstall(gw, "ghost.jar")):
        with pytest.raises(LifecycleError):
            illegal()
        rejected += 1
    install(gw, net, "p2p://lc10.jar")
    with pytest.raises(LifecycleError):
        stop(gw, "lc10.jar")
    start(gw, "lc10.jar")
    for illegal in (lambda: start(gw, "lc10.jar"),
                    lambda: uninstall(gw, "lc10.jar")):
        with pytest.raises(LifecycleError):
            illegal()
        rejected += 1
    with pytest.raises(MalformedUriError):
        parse_uri("p2p://")
    print(f"criterion 10: 1000 URIs round-tripped, 200 graphs resolved "
          f"soundly, {rejected + 1} illegal transitions rejected -> PASS")
