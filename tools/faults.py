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
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

SEEDS = range(1, 11)


def stale() -> str:
    from peerdeploy import build_network, join, leave, lookup, publish
    from peerdeploy.errors import PeerDeployError
    from peerdeploy.ids import derive_key
    from peerdeploy.store import ComponentPayload

    lookups, failures, timeouts = 0, Counter(), 0
    for seed in SEEDS:
        net, _ = build_network(250, seed)
        rng = random.Random(seed)
        names = [f"s{i}.jar" for i in range(100)]
        for name in names:
            publish(net, rng.choice(net.live_ids()), name,
                    ComponentPayload.from_bytes(name.encode()))
        for r in range(60):
            join(net, derive_key(f"j{seed}-{r}"), net.live_ids()[0])
            leave(net, rng.choice(net.live_ids()[1:]))
            for _ in range(40):
                client, name = rng.choice(net.live_ids()), rng.choice(names)
                lookups += 1
                try:
                    lookup(net, client, name)
                except PeerDeployError as error:
                    failures[type(error).__name__] += 1
        timeouts += net.metrics.timeouts.get("LOOKUP", 0)
    failed = ", ".join(f"{kind} {count}" for kind, count in sorted(failures.items()))
    return (f"stale: {lookups} lookups, failed {sum(failures.values())}"
            f"{f' ({failed})' if failed else ''}, LOOKUP timeouts {timeouts}")


PROBES = [stale]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    for probe in PROBES:
        print(probe(), flush=True)


if __name__ == "__main__":
    main()
