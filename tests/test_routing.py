"""Leaf set, routing table, and forwarding rules.

next_hop is compared against a hex-string restatement of the same rules in
oracles.py, both on organically grown networks and on synthetic state.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from peerdeploy.ids import circular_distance, shared_prefix_len
from peerdeploy.overlay import route
from peerdeploy.routing import (
    HALF_LEAF,
    LeafSet,
    RoutingTable,
    next_hop_from_state,
)
from peerdeploy.scenario import build_network
import pins
from oracles import (
    ReferenceLeafSet,
    oracle_digit,
    oracle_next_hop,
    oracle_prefix_len,
)

RING = 1 << 128

# Ids clustered at both ends of the ring make wrap-around and long shared
# prefixes common; uniform 128-bit draws almost never produce either.
ring_ids = st.one_of(st.integers(0, 64), st.integers(RING - 65, RING - 1),
                     st.integers(0, RING - 1))
# (how, i, j, raw) picks a key from a pool of ids: see pick_key.
key_specs = st.tuples(st.integers(0, 5), st.integers(0, 16), st.integers(0, 16), ring_ids)


def pick_key(pool: list[int], spec) -> int:
    """raw, pool[i], pool[i] + 1, pool[i] - 1, or the midpoint of the arc from
    pool[i] to pool[j] that avoids 0 or crosses it; a midpoint is an exact
    distance tie when the two ids differ by an even number."""
    how, i, j, raw = spec
    a, b = pool[i % len(pool)], pool[j % len(pool)]
    return (raw, a, (a + 1) % RING, (a - 1) % RING, (a + b) // 2,
            (a + b + RING) // 2 % RING)[how]


def make_state(owner: int, others: list[int]) -> tuple[LeafSet, RoutingTable]:
    leaf = LeafSet(owner)
    table = RoutingTable(owner)
    for other in others:
        leaf.insert(other)
        table.insert(other)
    return leaf, table


def snapshot_cells(table: RoutingTable) -> dict:
    return {(row, column): nid
            for row in range(32)
            for column, nid in table.rows[row].items()}


# -- leaf set mechanics


def test_leaf_set_keeps_nearest_per_side():
    owner = 1000
    leaf = LeafSet(owner)
    for other in range(1001, 1020):
        leaf.insert(other)
    for other in range(900, 990, 10):
        leaf.insert(other)
    members = leaf.members()
    assert len([m for m in members if (m - owner) % RING <= RING // 2]) == HALF_LEAF
    # nearest clockwise survivors
    assert set(range(1001, 1001 + HALF_LEAF)) <= set(members)
    assert 1019 not in members


def test_leaf_set_insert_reports_change():
    leaf = LeafSet(50)
    assert leaf.insert(60) is True
    assert leaf.insert(60) is False
    assert leaf.insert(50) is False  # self never enters


def test_leaf_set_remove():
    leaf = LeafSet(50)
    leaf.insert(60)
    assert leaf.remove(60) is True
    assert leaf.remove(60) is False
    assert leaf.members() == []


def test_leaf_set_closest_includes_owner():
    leaf = LeafSet(100)
    leaf.insert(200)
    assert leaf.closest_to(110) == 100
    assert leaf.closest_to(190) == 200


def test_leaf_set_in_range_covers_span():
    # enough distinct nodes that the two sides genuinely diverge
    owner = 0
    leaf = LeafSet(owner)
    for other in (10, 20, 30, 40, RING - 10, RING - 20, RING - 30, RING - 40):
        leaf.insert(other)
    assert leaf.in_range(35)
    assert leaf.in_range(RING - 35)
    assert not leaf.in_range(RING // 2)
    assert not leaf.in_range(50)
    # The extreme members bound the range and belong to it.
    assert leaf.in_range(40) and leaf.in_range(RING - 40)
    assert not leaf.in_range(41) and not leaf.in_range(RING - 41)


def test_full_side_takes_a_candidate_one_nearer_than_its_farthest():
    leaf = LeafSet(0)
    for other in (10, 20, 30, 40, RING - 10, RING - 20, RING - 30, RING - 40):
        leaf.insert(other)
    assert leaf.insert(39) is True
    assert leaf.insert(RING - 39) is True
    assert leaf.right == [10, 20, 30, 39]
    assert leaf.left == [RING - 10, RING - 20, RING - 30, RING - 39]


def test_leaf_set_wraps_ring_when_tiny():
    # with fewer members than a full side, both sides list everyone and the
    # covered range is the whole ring
    leaf = LeafSet(0)
    for other in (100, RING - 100):
        leaf.insert(other)
    assert leaf.in_range(RING // 2)
    assert leaf.closest_to(RING // 2) in (100, RING - 100)


@settings(max_examples=300, deadline=None)
@given(owner=ring_ids,
       others=st.lists(ring_ids, min_size=1, max_size=12, unique=True),
       steps=st.lists(st.tuples(st.booleans(), st.integers(0, 12), key_specs), max_size=60))
def test_leaf_set_matches_the_append_and_sort_reference(owner, others, steps):
    # The pool holds the owner and up to 12 other ids, so rings both smaller
    # and larger than L+1 come up, and each id is inserted and removed again.
    pool = others + [owner]
    leaf, reference = LeafSet(owner), ReferenceLeafSet(owner)
    for inserting, index, spec in steps:
        candidate = pool[index % len(pool)]
        if inserting:
            assert leaf.insert(candidate) == reference.insert(candidate)
        else:
            assert leaf.remove(candidate) == reference.remove(candidate)
        assert (leaf.left, leaf.right) == (reference.left, reference.right)
        key = pick_key(pool, spec)
        assert leaf.closest_to(key) == reference.closest_to(key)
        assert leaf.in_range(key) == reference.in_range(key)


# -- routing table mechanics


def test_routing_table_cell_placement():
    owner = int("a" * 32, 16)
    other = int("ab" + "0" * 30, 16)
    table = RoutingTable(owner)
    assert table.insert(other) is True
    row = shared_prefix_len(owner, other)
    assert table.rows[row].get(oracle_digit(other, row)) == other


def test_routing_table_keeps_first_occupant():
    owner = 0
    first = int("f" + "0" * 31, 16)
    second = int("f" + "1" * 31, 16)
    table = RoutingTable(owner)
    assert table.insert(first)
    # both start with f, so both land in row 0 column f; the first stays
    assert table.insert(second) is False
    assert table.rows[0].get(15) == first


def test_routing_table_rejects_self():
    table = RoutingTable(42)
    assert table.insert(42) is False


def test_routing_table_remove_only_exact():
    owner = 0
    first = int("f" + "0" * 31, 16)
    second = int("f" + "1" * 31, 16)
    table = RoutingTable(owner)
    table.insert(first)
    assert table.remove(second) is False  # occupies the same cell but is not stored
    assert table.remove(first) is True
    assert table.rows[0].get(15) is None


# -- forwarding rules against the oracle


def test_next_hop_self_key():
    leaf, table = make_state(7, [9, 11])
    assert next_hop_from_state(7, leaf, table, 7) == 7


def test_next_hop_matches_oracle_on_synthetic_state():
    rng = random.Random(4)
    for trial in range(300):
        owner = rng.getrandbits(128)
        others = [rng.getrandbits(128) for _ in range(rng.randrange(1, 24))]
        leaf, table = make_state(owner, others)
        key = rng.getrandbits(128)
        got = next_hop_from_state(owner, leaf, table, key)
        want = oracle_next_hop(owner, leaf.members(), snapshot_cells(table),
                               set(leaf.members()) | set(table.entries()), key)
        assert got == want, f"trial {trial}: {got:x} != {want:x}"


@settings(max_examples=200, deadline=None)
@given(owner=ring_ids,
       others=st.lists(ring_ids, min_size=1, max_size=16, unique=True),
       steps=st.lists(st.tuples(st.booleans(), st.integers(0, 16)), max_size=40),
       keys=st.lists(key_specs, min_size=1, max_size=8))
def test_table_and_next_hop_match_the_hex_oracle(owner, others, steps, keys):
    """insert and remove place and clear the cell that the hex-string prefix
    length and digit name, the first occupant winning; next_hop_from_state
    then agrees with the oracle, near the wrap and on distance ties."""
    pool = others + [owner]
    table, cells, present = RoutingTable(owner), {}, set()
    for inserting, index in steps:
        candidate = pool[index % len(pool)]
        row = oracle_prefix_len(owner, candidate)
        cell = (row, oracle_digit(candidate, row)) if row < 32 else None
        if inserting:
            placed = cell is not None and cell not in cells
            if placed:
                cells[cell] = candidate
            assert table.insert(candidate) is placed
            present.add(candidate)
        else:
            cleared = cell is not None and cells.get(cell) == candidate
            if cleared:
                del cells[cell]
            assert table.remove(candidate) is cleared
            present.discard(candidate)
        assert snapshot_cells(table) == cells
    # The oracle derives each leaf side from the member set, which matches
    # a leaf set that has only seen inserts.
    leaf = LeafSet(owner)
    for candidate in sorted(present):
        leaf.insert(candidate)
    members = leaf.members()
    known = set(members) | set(cells.values())
    for spec in keys:
        key = pick_key(pool, spec)
        want = oracle_next_hop(owner, members, cells, known, key)
        assert next_hop_from_state(owner, leaf, table, key) == want


def test_next_hop_matches_oracle_on_grown_network():
    net, names = build_network(48, seed=13)
    rng = random.Random(5)
    live = net.live_ids()
    for _ in range(400):
        node = net.nodes[live[rng.randrange(len(live))]]
        key = rng.getrandbits(128)
        got = node.next_hop(key)
        want = oracle_next_hop(
            node.id, node.leaf_set.members(), snapshot_cells(node.routing_table),
            set(node.known_contacts()), key)
        assert got == want


def test_forwarding_chains_are_loop_free():
    """Every hop either lengthens the shared prefix without losing ground or
    moves strictly closer on the ring, so no id repeats along a chain and the
    chain ends at the key's true root."""
    from oracles import oracle_root

    net, _ = build_network(64, seed=21)
    live = net.live_ids()
    rng = random.Random(6)
    for _ in range(200):
        key = rng.getrandbits(128)
        current = live[rng.randrange(len(live))]
        seen = set()
        while True:
            assert current not in seen, "forwarding revisited a node"
            seen.add(current)
            nxt = net.nodes[current].next_hop(key)
            if nxt == current:
                break
            prefix_gain = (
                (shared_prefix_len(nxt, key), -circular_distance(nxt, key))
                > (shared_prefix_len(current, key), -circular_distance(current, key)))
            ring_gain = (
                (circular_distance(nxt, key), nxt)
                < (circular_distance(current, key), current))
            assert prefix_gain or ring_gain, "hop made no progress"
            current = nxt
        assert len(seen) <= 40
        assert current == oracle_root(live, key)


@pytest.mark.parametrize("nodes", [256, 1024])
def test_route_hop_histogram_is_pinned(nodes):
    """How a join fills the routing state decides how far a route goes. These
    histograms, pinned in pins.json's "route_hops" section, hold that part
    of a join's outcome fixed when a change means to make joins cheaper."""
    net, _ = build_network(nodes, seed=1)
    live = net.live_ids()
    rng = random.Random(1)
    histogram: dict[int, int] = {}
    for _ in range(2000):
        start = rng.choice(live)
        hops = len(route(net, start, rng.getrandbits(128))) - 1
        histogram[hops] = histogram.get(hops, 0) + 1
    pins.check("route_hops", str(nodes), dict(sorted(histogram.items())))


@pytest.mark.parametrize("nodes", [256, 1024])
def test_build_is_pinned(nodes):
    """Every node's leaf set and table after a build, as one digest, and the
    messages the build took. A change that makes joins cheaper moves
    "build_messages" in pins.json and leaves "build_state" as it is."""
    net, _ = build_network(nodes, seed=1)
    digest = hashlib.sha1()
    for node_id in net.live_ids():
        node = net.nodes[node_id]
        digest.update(repr((node_id, node.leaf_set.left, node.leaf_set.right,
                            [sorted(row.items()) for row in node.routing_table.rows])).encode())
    pins.check("build_state", str(nodes), digest.hexdigest())
    pins.check("build_messages", str(nodes),
               {"sent": dict(sorted(net.metrics.sent.items())),
                "events_processed": net.metrics.events_processed})
