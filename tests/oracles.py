"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against different primitives than
the code under test: hashing from first principles, id arithmetic over hex
strings, roots by full scan, dependency order checked ex post. Slow and
obvious beats fast and shared-fate. stabilize() is the one helper that
drives the package: it converges leaf sets by reading neighbour state.
"""

from __future__ import annotations

import math
import struct

from peerdeploy.errors import LivelockSuspectedError
from peerdeploy.simnet import NodeStatus


# --------------------------------------------------------------------------
# SHA-1 from the digest definition, used to freeze key-derivation values
# without touching hashlib.


def _rol(value: int, count: int) -> int:
    return ((value << count) | (value >> (32 - count))) & 0xFFFFFFFF


def sha1_bytes(data: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    length = len(data) * 8
    data += b"\x80"
    data += b"\x00" * ((56 - len(data) % 64) % 64)
    data += struct.pack(">Q", length)
    for chunk_start in range(0, len(data), 64):
        words = list(struct.unpack(">16L", data[chunk_start:chunk_start + 64]))
        for i in range(16, 80):
            words.append(_rol(words[i - 3] ^ words[i - 8] ^ words[i - 14] ^ words[i - 16], 1))
        a, b, c, d, e = h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (
                (_rol(a, 5) + f + e + k + words[i]) & 0xFFFFFFFF, a, _rol(b, 30), c, d)
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return b"".join(struct.pack(">L", x) for x in h)


def oracle_key(name: str) -> int:
    """First 128 bits of SHA-1 over the UTF-8 name, big-endian."""
    return int.from_bytes(sha1_bytes(name.encode("utf-8"))[:16], "big")


# --------------------------------------------------------------------------
# id arithmetic over hex strings


RING = 1 << 128


def oracle_hex(value: int) -> str:
    return format(value, "032x")


def oracle_digit(value: int, position: int) -> int:
    return int(oracle_hex(value)[position], 16)


def oracle_prefix_len(a: int, b: int) -> int:
    sa, sb = oracle_hex(a), oracle_hex(b)
    n = 0
    while n < 32 and sa[n] == sb[n]:
        n += 1
    return n


def oracle_distance(a: int, b: int) -> int:
    d = abs(a - b)
    return min(d, RING - d)


def oracle_root(live_ids, key: int) -> int:
    """Full scan: numerically closest live id, lower id breaking ties."""
    return min(live_ids, key=lambda nid: (oracle_distance(nid, key), nid))


def oracle_next_hop(self_id: int, leaf_members, table_cells, known_ids, key: int):
    """The forwarding rules restated over hex strings.

    leaf_members: ids currently in the leaf set (excluding self).
    table_cells: mapping (row, column) -> id.
    known_ids: every id this node knows (leaf + table union).
    """
    if key == self_id:
        return self_id
    members = sorted(set(leaf_members))
    if members:
        # Each side holds the nearest half-set by that side's arc offset; a
        # member may sit on both sides when the network is small, which makes
        # the covered range wrap the whole ring.
        half = 4
        clockwise = sorted(members, key=lambda m: (m - self_id) % RING)[:half]
        counter = sorted(members, key=lambda m: (self_id - m) % RING)[:half]
        max_cw = (clockwise[-1] - self_id) % RING
        max_ccw = (self_id - counter[-1]) % RING
        key_cw = (key - self_id) % RING
        key_ccw = (self_id - key) % RING
        if key_cw <= max_cw or key_ccw <= max_ccw:
            return min(members + [self_id],
                       key=lambda nid: (oracle_distance(nid, key), nid))
    row = oracle_prefix_len(self_id, key)
    cell = table_cells.get((row, oracle_digit(key, row)))
    if cell is not None:
        return cell
    own_distance = oracle_distance(self_id, key)
    candidates = [nid for nid in known_ids
                  if oracle_prefix_len(nid, key) >= row
                  and oracle_distance(nid, key) < own_distance]
    if candidates:
        return min(candidates,
                   key=lambda nid: (-oracle_prefix_len(nid, key),
                                    oracle_distance(nid, key), nid))
    return self_id


class ReferenceLeafSet:
    """An append-and-sort leaf set: each insert appends to both sides and
    re-sorts them by offset, then drops the farthest entry of a side grown
    past four. The reference the bisect LeafSet is compared with."""

    half = 4

    def __init__(self, owner: int):
        self.owner = owner
        self.left: list[int] = []
        self.right: list[int] = []

    def insert(self, candidate: int) -> bool:
        if candidate == self.owner:
            return False
        in_right = self._insert_side(self.right, candidate,
                                     lambda c: (c - self.owner) % RING)
        in_left = self._insert_side(self.left, candidate,
                                    lambda c: (self.owner - c) % RING)
        return in_right or in_left

    def _insert_side(self, side: list[int], candidate: int, offset) -> bool:
        if candidate in side:
            return False
        side.append(candidate)
        side.sort(key=offset)
        if len(side) > self.half:
            return side.pop() != candidate
        return True

    def remove(self, node_id: int) -> bool:
        removed = False
        for side in (self.left, self.right):
            if node_id in side:
                side.remove(node_id)
                removed = True
        return removed

    def closest_to(self, key: int) -> int:
        return min(sorted(set(self.left) | set(self.right)) + [self.owner],
                   key=lambda nid: (oracle_distance(nid, key), nid))

    def in_range(self, key: int) -> bool:
        """The key lies within the largest clockwise offset of the right side
        or within the largest counter-clockwise offset of the left side."""
        right = sorted((m - self.owner) % RING for m in self.right)
        left = sorted((self.owner - m) % RING for m in self.left)
        return ((bool(right) and (key - self.owner) % RING <= right[-1])
                or (bool(left) and (self.owner - key) % RING <= left[-1]))


# --------------------------------------------------------------------------
# converged leaf sets without the repair traffic


def stabilize(net) -> int:
    """Pull leaf-set knowledge to a fixpoint, pruning dead contacts.

    Reads neighbour state directly instead of messaging, so it is a test
    helper rather than part of the protocol. Returns the number of gossip
    rounds used.
    """
    live = net.live_ids()
    limit = len(live) + 8
    rounds = 0
    while True:
        changed = False
        for nid in live:
            node = net.nodes[nid]
            for contact in node.known_contacts():
                peer = net.nodes.get(contact)
                if peer is None or peer.status is not NodeStatus.LIVE:
                    if node.forget(contact):
                        changed = True
            for member in node.leaf_set.members():
                peer = net.nodes.get(member)
                if peer is not None and node.learn_live(peer.leaf_set.members()):
                    changed = True
        rounds += 1
        if not changed:
            return rounds
        if rounds >= limit:
            raise LivelockSuspectedError("leaf gossip failed to converge")


# --------------------------------------------------------------------------
# when a store can next evict, by a scan of every entry


def reference_due_at(store) -> float:
    """0 while the TRAIL and CACHE entries outnumber the capacity; else the
    first tick at which the least recently used of them is older than the
    ttl; inf when there is none."""
    transient = [e for e in store.entries.values() if e.role.value in ("TRAIL", "CACHE")]
    if len(transient) > store.config.cache_capacity:
        return 0
    if not transient:
        return math.inf
    return min(e.last_access for e in transient) + store.config.ttl + 1


def check_store(store) -> None:
    """Assert that a store's eviction index agrees with its entries: it holds
    exactly the TRAIL and CACHE entries, each the very object `entries` maps
    its key to, in non-decreasing last_access order; and `due_at()` is the
    scan's answer."""
    index = store._transient
    for key, entry in index.items():
        assert store.entries.get(key) is entry, f"index holds {key:032x} apart from entries"
    transient = {key for key, e in store.entries.items() if e.role.value in ("TRAIL", "CACHE")}
    assert index.keys() == transient, "the index does not hold exactly the TRAIL and CACHE entries"
    accesses = [entry.last_access for entry in index.values()]
    assert accesses == sorted(accesses), "the index is out of last_access order"
    assert store.due_at() == reference_due_at(store)


# --------------------------------------------------------------------------
# dependency resolution checked after the fact


def check_resolution(descriptors: dict, requested: str, groups) -> list[str]:
    """Validate a resolved install order. descriptors maps name -> object
    with .imports/.exports. Returns a list of violation strings, empty when
    the order is sound."""
    problems: list[str] = []
    emitted: list[str] = []
    exports_seen: set[str] = set()
    all_names = [m for g in groups for m in g.members]
    if len(all_names) != len(set(all_names)):
        problems.append("a bundle appears in more than one group")
    if requested not in all_names:
        problems.append(f"requested bundle {requested!r} missing from the order")

    for group in groups:
        group_exports = set()
        for member in group.members:
            group_exports.update(descriptors[member].exports)
        for member in group.members:
            desc = descriptors[member]
            own = set(desc.exports)
            for package in desc.imports:
                if package in own or package in exports_seen or package in group_exports:
                    continue
                problems.append(
                    f"{member} imports {package} before any provider is installed")
        if group.cycle != (len(group.members) > 1):
            problems.append(f"group {group.members} has a wrong cycle flag")
        if len(group.members) > 1:
            problems.extend(_check_strongly_connected(descriptors, group.members))
        exports_seen.update(group_exports)
        emitted.extend(group.members)

    # closure: every import of every emitted bundle has some provider among
    # emitted bundles or the bundle itself
    for member in emitted:
        desc = descriptors[member]
        for package in desc.imports:
            if package in set(desc.exports):
                continue
            if not any(package in descriptors[other].exports for other in emitted):
                problems.append(f"{member} import {package} has no provider at all")
    return problems


def _check_strongly_connected(descriptors: dict, members) -> list[str]:
    """Every member must reach every other along dependency edges restricted
    to the group."""
    member_set = set(members)
    problems = []
    for start in members:
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            desc = descriptors[current]
            for package in desc.imports:
                for other in member_set:
                    if other not in seen and package in descriptors[other].exports:
                        seen.add(other)
                        stack.append(other)
        if seen != member_set:
            problems.append(
                f"group {sorted(member_set)} is not a real cycle: {start} "
                f"reaches only {sorted(seen)}")
    return problems


# --------------------------------------------------------------------------
# descriptor files, written for parse_index to read


def serialize_index(descriptors) -> str:
    """The text of a descriptor file: a `# generated_at: 0` comment, then
    each descriptor in name order, as a blank line and its eight fields in
    their fixed order."""
    lines = ["# generated_at: 0"]
    for d in sorted(descriptors, key=lambda d: d.name):
        values = (d.name, d.version, d.digest, d.size, d.start_entry or "",
                  ",".join(d.imports), ",".join(d.exports), d.source_uri)
        lines.append("")
        lines.extend(f"{field}: {value}" for field, value in zip(
            ("name", "version", "digest", "size", "start", "imports", "exports", "uri"), values))
    return "\n".join(lines) + "\n"
