"""Watch prefix routing converge on the numerically closest node.

Builds a 32-node overlay, routes a few keys from random starts, and prints
each hop with the length of the hex prefix it shares with the key.
"""

import random

from peerdeploy import build_network
from peerdeploy.ids import derive_key, ring_root, shared_prefix_len, to_hex
from peerdeploy.overlay import route


def main() -> None:
    net, names = build_network(32, seed=2024, random_ids=True)
    live = net.live_ids()
    rng = random.Random(7)

    for bundle in ("log.jar", "http.jar", "shell.jar"):
        key = derive_key(bundle)
        start = live[rng.randrange(len(live))]
        path = route(net, start, key)
        print(f"{bundle}  key={to_hex(key)}")
        for hop, nid in enumerate(path):
            common = shared_prefix_len(nid, key)
            print(f"  hop {hop}: {to_hex(nid)}  shares {common} digit(s)")
        owner = ring_root(live, key)
        print(f"  closest live id:  {to_hex(owner)}  "
              f"{'(match)' if owner == path[-1] else '(MISMATCH)'}\n")

    print(f"messages sent: {sum(net.metrics.sent.values())}, "
          f"delivered: {sum(net.metrics.delivered.values())}")


if __name__ == "__main__":
    main()
