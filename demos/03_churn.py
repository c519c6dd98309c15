"""Key ownership under churn: handoff on join, transfer on leave.

A joining node that becomes numerically closest to a key takes the root
copy over; the displaced holder keeps a retained replica. A graceful leave
pushes root copies to the next closest peer before departing. An abrupt
failure loses the node's copies, but the surviving replicas keep the
component retrievable.
"""

import random

from peerdeploy import build_network, join, leave, lookup, publish, replica_count
from peerdeploy.errors import NotFoundError, UnavailableError
from peerdeploy.ids import derive_key, ring_root, to_hex
from peerdeploy.store import ComponentPayload, Role


def holder_roles(net, name):
    key = derive_key(name)
    out = {}
    for nid in net.live_ids():
        entry = net.nodes[nid].store.get(key)
        if entry is not None and entry.payload is not None:
            out[nid] = entry.role
    return out


def main() -> None:
    net, names = build_network(24, seed=5)
    rng = random.Random(6)
    live = net.live_ids()

    payload = ComponentPayload.from_bytes(rng.randbytes(1024))
    publish(net, live[0], "churn.jar", payload)
    key = derive_key("churn.jar")
    old_root = ring_root(net.live_ids(), key)
    print(f"root before churn: {to_hex(old_root)}")

    # craft a joiner that lands between the key and the current root
    joiner = key ^ 1
    join(net, joiner, live[0], name="newcomer")
    new_root = ring_root(net.live_ids(), key)
    print(f"root after join:   {to_hex(new_root)}")
    for nid, role in sorted(holder_roles(net, "churn.jar").items()):
        print(f"  {to_hex(nid)} holds {role.value}")

    leave(net, joiner, graceful=True)
    print(f"\nafter the newcomer leaves gracefully, root is "
          f"{to_hex(ring_root(net.live_ids(), key))}")
    got, _, _ = lookup(net, net.live_ids()[5], "churn.jar")
    print(f"lookup still returns {got.size} bytes, "
          f"{replica_count(net, 'churn.jar')} replicas")

    # abrupt failures only hurt once every payload holder is gone
    for nid in list(holder_roles(net, "churn.jar")):
        leave(net, nid, graceful=False)
    try:
        lookup(net, net.live_ids()[0], "churn.jar")
        print("\nsomehow still retrievable")
    except (NotFoundError, UnavailableError) as exc:
        print(f"\nall payload holders killed abruptly: "
              f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
