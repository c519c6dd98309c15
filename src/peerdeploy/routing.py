"""Per-node routing state (leaf set, prefix table) and next-hop selection."""

from __future__ import annotations

from bisect import insort
from types import MappingProxyType

from .ids import (DIGIT_BITS, DIGITS, ID_SPACE, RADIX, circular_distance, ring_root,
                  shared_prefix_len)

LEAF_SET_SIZE = 8
HALF_LEAF = LEAF_SET_SIZE // 2
_DIGIT_MASK = RADIX - 1
# Most rows of a table stay empty, so they all share this read-only one and a
# row gets its own dict at its first insert.
_EMPTY_ROW = MappingProxyType({})


class LeafSet:
    """The owner's nearest neighbours on each side of the ring.

    Each side keeps up to L/2 entries ordered nearest-first. In networks with
    fewer than L+1 nodes the same id may appear on both sides; membership is
    the union, which keeps the leaf range covering the whole ring when the
    network is tiny. Ids are distinct, so their offsets from the owner are
    too: each side is in strict offset order, and a full side drops its
    farthest entry.
    """

    def __init__(self, owner: int):
        self.owner = owner
        self.left: list[int] = []  # counter-clockwise, nearest first
        self.right: list[int] = []  # clockwise, nearest first

    def insert(self, candidate: int) -> bool:
        owner = self.owner
        if candidate == owner:
            return False
        # Most candidates are farther than both full sides reach, so each
        # side's reject test is one subtraction against its farthest member;
        # the offset functions run only when an id is placed.
        off = (candidate - owner) % ID_SPACE
        right, left = self.right, self.left
        in_right = ((len(right) < HALF_LEAF or (right[-1] - owner) % ID_SPACE > off)
                    and _insert_side(right, candidate, lambda c: (c - owner) % ID_SPACE))
        in_left = ((len(left) < HALF_LEAF or (owner - left[-1]) % ID_SPACE > ID_SPACE - off)
                   and _insert_side(left, candidate, lambda c: (owner - c) % ID_SPACE))
        return in_right or in_left

    def remove(self, node_id: int) -> bool:
        removed = False
        if node_id in self.left:
            self.left.remove(node_id)
            removed = True
        if node_id in self.right:
            self.right.remove(node_id)
            removed = True
        return removed

    def members(self) -> list[int]:
        return sorted(set(self.left) | set(self.right))

    def extremes(self) -> list[int]:
        """Farthest member on each side; used to ask for leaf refills."""
        out = []
        if self.left:
            out.append(self.left[-1])
        if self.right and (not out or self.right[-1] != out[0]):
            out.append(self.right[-1])
        return out

    def in_range(self, k: int) -> bool:
        """True when k sits on the arc between the extreme leaves through owner."""
        owner, right, left = self.owner, self.right, self.left
        if right and (k - owner) % ID_SPACE <= (right[-1] - owner) % ID_SPACE:
            return True
        return bool(left) and (owner - k) % ID_SPACE <= (owner - left[-1]) % ID_SPACE

    def closest_to(self, k: int) -> int:
        """Member (or owner) nearest to k; distance ties go to the smaller id."""
        return ring_root(sorted((self.owner, *self.left, *self.right)), k)


def _insert_side(side: list[int], candidate: int, offset) -> bool:
    """Put candidate into a side that is not full or whose farthest member is
    farther, keeping it nearest-first by offset; True when it is new there."""
    if candidate in side:
        return False
    insort(side, candidate, key=offset)
    if len(side) > HALF_LEAF:
        side.pop()
    return True


class RoutingTable:
    """Prefix table: cell (r, c) holds an id sharing exactly r digits with the
    owner and continuing with digit c. First id observed for a cell wins, which
    keeps population order-dependent but fully deterministic."""

    def __init__(self, owner: int):
        self.owner = owner
        self.rows: list[dict[int, int]] = [_EMPTY_ROW] * DIGITS

    def insert(self, candidate: int) -> bool:
        differ = self.owner ^ candidate
        if not differ:
            return False
        # The first digit that differs holds differ's highest set bit; its
        # index is the shared prefix length and candidate's digit there the cell.
        shift = (differ.bit_length() - 1) & -DIGIT_BITS
        r = DIGITS - 1 - shift // DIGIT_BITS
        row = self.rows[r]
        cell = (candidate >> shift) & _DIGIT_MASK
        if cell in row:
            return False
        if row is _EMPTY_ROW:
            row = self.rows[r] = {}
        row[cell] = candidate
        return True

    def remove(self, node_id: int) -> bool:
        differ = self.owner ^ node_id
        if not differ:
            return False
        # The cell arithmetic of insert.
        shift = (differ.bit_length() - 1) & -DIGIT_BITS
        row = self.rows[DIGITS - 1 - shift // DIGIT_BITS]
        cell = (node_id >> shift) & _DIGIT_MASK
        if row.get(cell) != node_id:
            return False
        del row[cell]
        return True

    def entries(self) -> list[int]:
        out: list[int] = []
        for row in self.rows:
            out.extend(row.values())
        return sorted(out)

    def row_entries(self, row: int) -> list[int]:
        return sorted(self.rows[row].values())


def next_hop_from_state(self_id: int, leaf: LeafSet, table: RoutingTable, k: int) -> int:
    """Prefix-routing next-hop rule over one node's state.

    (1) keys inside the leaf range go straight to the nearest leaf (or stay);
    (2) otherwise follow the routing-table cell for the next digit of k;
    (3) otherwise take any known id at least as good in prefix and strictly
        closer; (4) otherwise the node itself is the terminal.
    """
    if k == self_id:
        return self_id

    if leaf.in_range(k):
        return leaf.closest_to(k)

    # The arithmetic of RoutingTable.insert: row r, column k's digit there.
    shift = ((self_id ^ k).bit_length() - 1) & -DIGIT_BITS
    r = DIGITS - 1 - shift // DIGIT_BITS
    cell = table.rows[r].get((k >> shift) & _DIGIT_MASK)
    if cell is not None:
        return cell

    self_dist = circular_distance(self_id, k)
    best: int | None = None
    best_key: tuple[int, int, int] | None = None
    # The key (-prefix, dist, id) is a total order, so the scan order is free.
    candidates = leaf.left + leaf.right
    for row in table.rows:
        candidates.extend(row.values())
    for cand in candidates:
        dist = circular_distance(cand, k)
        if dist >= self_dist:
            continue
        prefix = shared_prefix_len(cand, k)
        if prefix < r:
            continue
        cand_key = (-prefix, dist, cand)
        if best_key is None or cand_key < best_key:
            best_key = cand_key
            best = cand
    return best if best is not None else self_id
