"""The three workloads. Each trial builds its own network (the set-up phase),
then runs a fixed list of operations (the measured phase), checking every
outcome against what the benchmark generated.

Library functions are always looked up through their module (`store.lookup`,
not a local name) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass

from peerdeploy import overlay, repo, scenario, simnet, store
from peerdeploy.errors import InstallError, NotFoundError, PeerDeployError, UnavailableError
from peerdeploy.repo import ComponentDescriptor, GatewayState, RepositoryIndex
from peerdeploy.simnet import NodeStatus, SimConfig
from peerdeploy.store import ComponentPayload, Role, StoreConfig

from reference import Catalog, Expected, Zipf, closest_live, key_of, package_of

PINNED = (Role.SOURCE, Role.ROOT, Role.RETAINED)


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


class Meter:
    """Process CPU time and wall time spent inside library calls."""

    def __init__(self):
        self.cpu = 0.0
        self.wall = 0.0

    def __enter__(self):
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu += time.process_time() - self._cpu
        self.wall += time.perf_counter() - self._wall
        return False


@dataclass
class Trial:
    setup: Meter
    measured: Meter
    ops: int
    failed: int
    messages: int
    hops: list[int]
    ticks: list[int]
    fingerprint: dict
    entries_end: int


class Workload:
    name = ""
    sim_config = SimConfig()
    store_config = StoreConfig()

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected = Expected(seed)
        self.published: dict[str, int] = {}  # bundle name -> key
        self.orphaned: set[int] = set()  # keys whose root failed abruptly
        self._live: set[int] = set()
        self.ring: list[int] = []  # the live ids, sorted
        self.op_seq = 0
        self.ops = 0
        self.failed = 0
        self.measuring = False
        self.hops: list[int] = []
        self.ticks: list[int] = []
        self.meter = Meter()
        self.net = None

    # -- the two phases; subclasses fill them in

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def run(self) -> Trial:
        gc.collect()
        self.meter = setup_meter = Meter()
        self.setup()
        self.check_roots()
        self.pinned = self.pinned_entries()
        gc.collect()
        sent_before = self.messages()
        self.meter = Meter()
        self.measuring = True
        self.measure()
        self.measuring = False
        self.check_roots()
        self.check_pinned(self.pinned)
        document = simnet.serialize_metrics(self.net.metrics.to_document(self.net))
        return Trial(
            setup=setup_meter, measured=self.meter, ops=self.ops, failed=self.failed,
            messages=self.messages() - sent_before, hops=self.hops, ticks=self.ticks,
            fingerprint={
                "events": self.net.metrics.events_processed,
                "messages": self.messages(),
                "timeouts": sum(self.net.metrics.timeouts.values()),
                "sha1": hashlib.sha1(document.encode()).hexdigest(),
            },
            entries_end=sum(len(self.net.nodes[n].store.entries) for n in self.live))

    # -- calling the library

    def call(self, fn, *args, **kwargs):
        """Time one library call. Returns (result, error); a PeerDeployError
        is returned, not raised, and the caller decides whether it is allowed."""
        self.op_seq += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_seq
        result = error = None
        with self.meter:
            try:
                result = fn(*args, **kwargs)
            except PeerDeployError as exc:
                error = exc
        if self.measuring:
            self.ops += 1
        if self.net is not None and self.net.ops:
            raise CheckFailed(f"{fn.__name__} left {len(self.net.ops)} operations open")
        return result, error

    def must(self, fn, *args, **kwargs):
        result, error = self.call(fn, *args, **kwargs)
        if error is not None:
            raise CheckFailed(f"{fn.__name__} failed: {error!r}")
        return result

    def messages(self) -> int:
        return sum(self.net.metrics.sent.values())

    def build(self, nodes: int) -> None:
        self.net, names = self.must(scenario.build_network, nodes, seed=self.seed,
                                    sim_config=self.sim_config,
                                    store_config=self.store_config)
        self.live = set(names.values())
        if self.live != {key_of(f"n{i}") for i in range(nodes)}:
            raise CheckFailed("node ids are not the keys of their names")

    @property
    def live(self) -> set[int]:
        return self._live

    @live.setter
    def live(self, ids: set[int]) -> None:
        self._live = ids
        self.ring = sorted(ids)

    def random_live(self) -> int:
        return self.ring[self.rng.randrange(len(self.ring))]

    def payload(self, name: str) -> ComponentPayload:
        return ComponentPayload.from_bytes(self.expected.make(name))

    def publish(self, name: str) -> None:
        """Publish from a random live node other than the key's root, so the
        SOURCE copy is a second pinned replica."""
        key = key_of(name)
        root = closest_live(self.ring, key)
        while (publisher := self.random_live()) == root:
            pass
        trail = self.must(store.publish, self.net, publisher, name, self.payload(name))
        if trail.root != root:
            raise CheckFailed(f"{name} rooted at {trail.root:032x}, closest is {root:032x}")
        self.published[name] = key

    def lookup(self, client: int, name: str) -> PeerDeployError | None:
        clock = self.net.clock
        result, error = self.call(store.lookup, self.net, client, name)
        if error is not None:
            return error
        payload, served_by, hops = result
        if not self.expected.matches(name, payload.data):
            raise CheckFailed(f"lookup of {name} served bytes that were never published")
        if served_by not in self.live:
            raise CheckFailed(f"lookup of {name} served by a node that is not live")
        entry = self.net.nodes[served_by].store.get(key_of(name))
        if entry is None or entry.payload is None:
            raise CheckFailed(f"lookup of {name} served by a node without the payload")
        if self.measuring:
            self.hops.append(hops)
            self.ticks.append(self.net.clock - clock)
        return None

    def lookup_ok(self, client: int, name: str) -> None:
        error = self.lookup(client, name)
        if error is not None:
            raise CheckFailed(f"lookup of {name} failed: {error!r}")

    # -- invariants, checked outside the timed calls

    def check_roots(self) -> None:
        """Each published key has exactly one ROOT, at the live id closest to
        it. A key whose root failed abruptly may also have none: the program
        does not re-home such keys, and a program that does is not wrong."""
        status_live = {i for i, n in self.net.nodes.items() if n.status is NodeStatus.LIVE}
        if status_live != self.live:
            raise CheckFailed("the program's live set differs from the nodes joined and not left")
        holders: dict[int, list[int]] = {}
        for node_id in self.live:
            for key, entry in self.net.nodes[node_id].store.entries.items():
                if entry.role is Role.ROOT:
                    holders.setdefault(key, []).append(node_id)
        for name, key in self.published.items():
            want = [closest_live(self.ring, key)]
            got = sorted(holders.pop(key, []))
            if got != want and not (key in self.orphaned and not got):
                raise CheckFailed(f"{name} has ROOT entries at {[f'{n:032x}' for n in got]}, "
                                  f"expected {[f'{n:032x}' for n in want]}")
        if holders:
            raise CheckFailed(f"{len(holders)} ROOT entries for keys never published")

    def pinned_entries(self) -> set[tuple[int, int]]:
        return {(node_id, key) for node_id in self.live
                for key, entry in self.net.nodes[node_id].store.entries.items()
                if entry.role in PINNED}

    def check_pinned(self, before: set[tuple[int, int]]) -> None:
        """A node that is still live keeps every pinned entry it had, with its bytes."""
        for node_id, key in before:
            if node_id not in self.live:
                continue
            entry = self.net.nodes[node_id].store.get(key)
            if entry is None or entry.role not in PINNED or entry.payload is None:
                raise CheckFailed(f"pinned entry {key:032x} lost at {node_id:032x}")


class ZipfFetch(Workload):
    """Read path only: Zipf lookups from random clients over a warm network."""

    name = "zipf_fetch"
    NODES = 500
    BUNDLES = 300
    WARMUP = 2_000
    LOOKUPS = 12_000
    SWEEP_EVERY = 100  # as the scenario runner's zipf workload does
    # Four cache slots per node keep insert-pressure eviction busy; the ttl
    # outlasts about a hundred lookups.
    store_config = StoreConfig(cache_capacity=4, ttl=20_000)

    def setup(self) -> None:
        self.build(self.NODES)
        self.names = [f"z{i}.jar" for i in range(self.BUNDLES)]
        for name in self.names:
            self.publish(name)
        self.zipf = Zipf(self.BUNDLES, 1.0)
        self.requests(self.WARMUP)

    def measure(self) -> None:
        self.requests(self.LOOKUPS)

    def requests(self, count: int) -> None:
        for i in range(count):
            name = self.names[self.zipf.draw(self.rng)]
            self.lookup_ok(self.random_live(), name)
            if (i + 1) % self.SWEEP_EVERY == 0:
                with self.meter:
                    self.net.sweep_eviction()


class IdleExpiry(ZipfFetch):
    """Long idle stretches: simulated time passes with almost no events, so
    the maintenance sweep is the work."""

    name = "idle_expiry"
    NODES = 500
    BUNDLES = 200
    WARMUP = 1_500
    CYCLES = 10
    ADVANCE = 10_000
    BURST = 300
    # The warm burst spans about 200k ticks; a 300k ttl lets the cached copies
    # survive it and then expire one by one during the measured phase.
    store_config = StoreConfig(cache_capacity=64, ttl=300_000)

    def measure(self) -> None:
        limit = self.store_config.ttl + self.sim_config.maintenance_interval
        for _ in range(self.CYCLES):
            self.must(self.net.advance, self.ADVANCE)
            for node_id in self.live:
                for entry in self.net.nodes[node_id].store.entries.values():
                    if entry.role not in PINNED and self.net.clock - entry.last_access > limit:
                        raise CheckFailed(f"{entry.name} outlived its ttl at {node_id:032x}")
            self.check_pinned(self.pinned)
            self.requests(self.BURST)


class ChurnDeploy(Workload):
    """Membership changes and repository installs on a 250-node ring."""

    name = "churn_deploy"
    NODES = 250
    LAYERS = 6
    PER_LAYER = 70
    CYCLES = 6
    ROUNDS = 70  # with two installs a round, every app is installed twice
    LEAVES_PER_PROBE = 3
    INSTALLS = 2
    LOOKUPS = 40
    PROBES = 6

    def setup(self) -> None:
        self.build(self.NODES)
        self.catalog = Catalog(self.rng, self.LAYERS, self.PER_LAYER, self.CYCLES)
        self.app_order = self.rng.sample(self.catalog.apps, len(self.catalog.apps)) * 2
        self.index = RepositoryIndex()
        for name in self.catalog.bundles:
            self.publish_local(self.random_live(), name, self.catalog.imports[name])
        self.joined = 0

    def publish_local(self, node_id: int, name: str, imports) -> None:
        payload = self.payload(name)
        descriptor = ComponentDescriptor(
            name=name, version="1.0", digest=self.expected.md5[name], size=len(payload.data),
            imports=tuple(imports), exports=(package_of(name),))
        self.must(repo.publish_local, GatewayState(node_id, index=self.index), self.net,
                  descriptor, payload)
        self.published[name] = key_of(name)

    def measure(self) -> None:
        for _ in range(self.ROUNDS):
            before = self.pinned_entries()
            self.join()
            for _ in range(self.INSTALLS):
                self.install_round_trip(self.app_order.pop())
            for _ in range(self.LOOKUPS):
                self.lookup_ok(self.random_live(), self.rng.choice(self.catalog.bundles))
            self.check_roots()
            self.check_pinned(before)
        # Departures come after the lookups: every departure leaves contacts
        # stale, and lookups that meet them time out and may exhaust their
        # retries, more or less often depending on the seed.
        for probe in range(self.PROBES):
            before = self.pinned_entries()
            for _ in range(self.LEAVES_PER_PROBE):
                self.leave(self.random_live(), graceful=True)
            self.orphan_probe(probe)
            self.check_roots()
            self.check_pinned(before)

    def join(self) -> None:
        name = f"c{self.joined}"
        self.joined += 1
        new_id = key_of(name)
        self.must(overlay.join, self.net, new_id, self.ring[0], name=name)
        self.live = self.live | {new_id}

    def leave(self, node_id: int, graceful: bool) -> None:
        self.must(overlay.leave, self.net, node_id, graceful=graceful)
        self.live = self.live - {node_id}

    def root_holders(self) -> set[int]:
        return {node_id for node_id in self.live
                if any(e.role is Role.ROOT for e in self.net.nodes[node_id].store.entries.values())}

    def install_round_trip(self, app: str) -> None:
        gw = GatewayState(self.random_live(), index=self.index)
        report = self.must(repo.install, gw, self.net, f"p2p://{app}")
        groups = [group.members for group in report.order]
        problem = self.catalog.check_order(app, groups)
        if problem is not None:
            raise CheckFailed(f"install of {app}: {problem}")
        if report.installed != [m for g in groups for m in g] or report.skipped:
            raise CheckFailed(f"install of {app} on a fresh gateway skipped bundles")
        for name in report.installed:
            if not self.expected.matches(name, gw.artifacts[name].data):
                raise CheckFailed(f"install of {app} fetched wrong bytes for {name}")
        self.must(repo.start, gw, app)
        self.must(repo.stop, gw, app)
        self.must(repo.uninstall, gw, app)

    def orphan_probe(self, probe: int) -> None:
        """Publish a bundle whose root holds no other ROOT entry, fail that
        root abruptly, then look the bundle up and install it from the key's
        next root. The SOURCE copy stays live, but the program leaves no ROOT
        or trail leading there, so both calls fail on every seed: each
        failure is counted here. A program that re-homes the key serves it
        instead, and its bytes are checked like any other."""
        live = self.ring
        busy = self.root_holders()
        for attempt in range(10_000):
            name = f"probe{probe}-{attempt}.jar"
            key = key_of(name)
            root = closest_live(live, key)
            if root not in busy:
                break
        else:
            raise CheckFailed("no probe key lands on a node without ROOT entries")
        heir = closest_live([n for n in live if n != root], key)
        # The publisher is the root's ring neighbour on the side away from the
        # heir, so the publish goes one leaf hop and leaves no trail.
        at = live.index(root)
        neighbours = [live[(at - 1) % len(live)], live[(at + 1) % len(live)]]
        publisher = neighbours[1] if neighbours[0] == heir else neighbours[0]
        self.publish_local(publisher, name, ())
        self.leave(root, graceful=False)
        self.orphaned.add(key)
        error = self.lookup(heir, name)
        if error is not None:
            if not isinstance(error, (NotFoundError, UnavailableError)):
                raise CheckFailed(f"lookup of orphaned {name} ended with {error!r}")
            self.failed += 1
        gw = GatewayState(heir, index=self.index)
        report, error = self.call(repo.install, gw, self.net, f"p2p://{name}")
        if error is None:
            if report.installed != [name] or not self.expected.matches(name, gw.artifacts[name].data):
                raise CheckFailed(f"install of orphaned {name} went wrong")
        elif (isinstance(error, InstallError) and error.failed_dependency == name
                and isinstance(error.__cause__, (NotFoundError, UnavailableError))):
            self.failed += 1
        else:
            raise CheckFailed(f"install of orphaned {name} ended with {error!r}")


WORKLOADS = {w.name: w for w in (ZipfFetch, ChurnDeploy, IdleExpiry)}
