"""Print one deterministic line per fault probe, with its failures by error type.

    python3 tools/faults.py [CHECKOUT]

Each probe drives the checkout's own sources (CHECKOUT defaults to the
checkout this script sits in) through a fixed, seeded setup and counts what
went wrong. Run it in two checkouts and diff the outputs to see what a
change did to each fault. Uses only the standard library.

stale   Joins mixed with graceful departures, for seeds 1-10: build 250
        nodes and publish s0.jar ... s99.jar, each from a random live node;
        then 60 rounds, each of which joins one node through the lowest live
        id, gracefully takes out a random live node other than the lowest,
        and runs 40 lookups, each from a random live node (drawn first) of a
        random name. It prints the lookups, their failures by error type and
        the LOOKUP timeouts. About 2 s.

orphan  Roots lost to abrupt failures, for seeds 1-10: build 256 nodes and
        publish o0.jar ... o199.jar, each from a random live node; fail the
        8 lowest live ids that hold a ROOT entry; then run 140 lookups, each
        from a random live node (drawn first) of the sorted names whose ROOT
        those 8 held, in turn. It prints the same counts as stale. About 1 s.

withdraw  Removes whose key's root failed abruptly, for seeds 1-10: the
        orphan setup, up to the failures; then each orphaned name, in sorted
        order, is removed by its publisher, unless the publisher was one of
        the failed roots. It prints the removes, their failures by error
        type, and the pinned entries of those names still on live nodes.
        About 1 s.

retained  Removes after a join took the root over, for seeds 1-10: build
        64 nodes and publish r0.jar ... r19.jar, each from a random live
        node; then, per name in turn, join the id one above its key through
        the lowest live id, which roots the key and leaves the old root a
        RETAINED copy, and have the publisher remove the name. After 10 ttl
        it runs 400 lookups, each from a random live node (drawn first) of a
        random name. It prints the removes, the copies with a payload of
        those names still on live nodes, and the lookups served, which are
        served a removed bundle. About 1 s.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

SEEDS = range(1, 11)


class Lookups:
    """Lookups run by a probe, their failures by error type, and the LOOKUP
    timeouts of each network it counted."""

    def __init__(self):
        self.count, self.failures, self.timeouts = 0, Counter(), 0

    def run(self, net, client: int, name: str) -> None:
        from peerdeploy import lookup
        from peerdeploy.errors import PeerDeployError

        self.count += 1
        try:
            lookup(net, client, name)
        except PeerDeployError as error:
            self.failures[type(error).__name__] += 1

    def count_timeouts(self, net) -> None:
        self.timeouts += net.metrics.timeouts.get("LOOKUP", 0)

    def line(self, probe: str) -> str:
        failed = ", ".join(f"{kind} {count}" for kind, count in sorted(self.failures.items()))
        return (f"{probe}: {self.count} lookups, failed {sum(self.failures.values())}"
                f"{f' ({failed})' if failed else ''}, LOOKUP timeouts {self.timeouts}")


def published(count: int, seed: int, names: list[str]):
    """A network of `count` nodes, each name published from a random live
    node, the Random that drew them, and the publisher of each name."""
    from peerdeploy import build_network, publish
    from peerdeploy.store import ComponentPayload

    net, _ = build_network(count, seed)
    rng = random.Random(seed)
    publishers = {}
    for name in names:
        publishers[name] = rng.choice(net.live_ids())
        publish(net, publishers[name], name, ComponentPayload.from_bytes(name.encode()))
    return net, rng, publishers


def copies(net, names, pinned: bool) -> int:
    """The entries of `names` on live nodes: the pinned ones, or those with a payload."""
    return sum(entry.name in names and (entry.pinned if pinned else entry.payload is not None)
               for node_id in net.live_ids()
               for entry in net.nodes[node_id].store.entries.values())


def stale() -> str:
    from peerdeploy import join, leave
    from peerdeploy.ids import derive_key

    lookups = Lookups()
    for seed in SEEDS:
        names = [f"s{i}.jar" for i in range(100)]
        net, rng, _ = published(250, seed, names)
        for r in range(60):
            join(net, derive_key(f"j{seed}-{r}"), net.live_ids()[0])
            leave(net, rng.choice(net.live_ids()[1:]))
            for _ in range(40):
                client = rng.choice(net.live_ids())
                lookups.run(net, client, rng.choice(names))
        lookups.count_timeouts(net)
    return lookups.line("stale")


def orphaned(seed: int):
    """The orphan setup up to its failures: the network, its Random, the
    publisher of each name, and the sorted names whose roots failed."""
    from peerdeploy.store import Role

    net, rng, publishers = published(256, seed, [f"o{i}.jar" for i in range(200)])
    holders = [n for n in net.live_ids()
               if any(e.role is Role.ROOT for e in net.nodes[n].store.entries.values())][:8]
    names = sorted(e.name for n in holders
                   for e in net.nodes[n].store.entries.values() if e.role is Role.ROOT)
    for n in holders:
        net.fail(n)
    return net, rng, publishers, names


def orphan() -> str:
    lookups = Lookups()
    for seed in SEEDS:
        net, rng, _, orphaned_names = orphaned(seed)
        for i in range(140):
            client = rng.choice(net.live_ids())
            lookups.run(net, client, orphaned_names[i % len(orphaned_names)])
        lookups.count_timeouts(net)
    return lookups.line("orphan")


def withdraw() -> str:
    from peerdeploy import remove
    from peerdeploy.errors import PeerDeployError

    removes, failures, left = 0, Counter(), 0
    for seed in SEEDS:
        net, _, publishers, names = orphaned(seed)
        for name in names:
            if net.reachable(publishers[name]) is None:
                continue
            removes += 1
            try:
                remove(net, publishers[name], name)
            except PeerDeployError as error:
                failures[type(error).__name__] += 1
        left += copies(net, set(names), pinned=True)
    failed = ", ".join(f"{kind} {count}" for kind, count in sorted(failures.items()))
    return (f"withdraw: {removes} removes, failed {sum(failures.values())}"
            f"{f' ({failed})' if failed else ''}, pinned copies left {left}")


def retained() -> str:
    from peerdeploy import join, remove
    from peerdeploy.ids import derive_key

    removes, left, lookups = 0, 0, Lookups()
    for seed in SEEDS:
        names = [f"r{i}.jar" for i in range(20)]
        net, rng, publishers = published(64, seed, names)
        for name in names:
            join(net, derive_key(name) + 1, net.live_ids()[0])
            remove(net, publishers[name], name)
            removes += 1
        net.advance(10 * net.nodes[net.live_ids()[0]].store.config.ttl)
        left += copies(net, set(names), pinned=False)
        for _ in range(400):
            client = rng.choice(net.live_ids())
            lookups.run(net, client, rng.choice(names))
    served = lookups.count - sum(lookups.failures.values())
    return (f"retained: {removes} removes, copies left {left}, {lookups.count} lookups, "
            f"served {served}")


PROBES = [stale, orphan, withdraw, retained]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    for probe in PROBES:
        print(probe(), flush=True)


if __name__ == "__main__":
    main()
