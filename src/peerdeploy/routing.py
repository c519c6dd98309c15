"""Per-node routing state (leaf set, prefix table) and next-hop selection."""

from __future__ import annotations

from bisect import insort

from . import ids
from .ids import ID_SPACE, circular_distance, cw_offset, digit, shared_prefix_len

LEAF_SET_SIZE = 8
HALF_LEAF = LEAF_SET_SIZE // 2


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
        # The keys are cw_offset(owner, c) and cw_offset(c, owner), written out.
        in_right = _insert_side(self.right, candidate, lambda c: (c - owner) % ID_SPACE)
        in_left = _insert_side(self.left, candidate, lambda c: (owner - c) % ID_SPACE)
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

    def is_empty(self) -> bool:
        return not self.left and not self.right

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
        if self.is_empty():
            return False
        max_cw = cw_offset(self.owner, self.right[-1]) if self.right else 0
        max_ccw = cw_offset(self.left[-1], self.owner) if self.left else 0
        return cw_offset(self.owner, k) <= max_cw or cw_offset(k, self.owner) <= max_ccw

    def closest_to(self, k: int) -> int:
        """Member (or owner) nearest to k; distance ties go to the smaller id."""
        best = self.owner
        best_key = (circular_distance(self.owner, k), self.owner)
        for member in self.left + self.right:
            cand = (circular_distance(member, k), member)
            if cand < best_key:
                best_key = cand
                best = member
        return best


def _insert_side(side: list[int], candidate: int, offset) -> bool:
    """Put candidate into one side, kept nearest-first by offset; True when it
    stays. A full side whose farthest member is nearer keeps it out."""
    if len(side) == HALF_LEAF and offset(side[-1]) < offset(candidate):
        return False
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
        self.rows: list[dict[int, int]] = [dict() for _ in range(ids.DIGITS)]

    def insert(self, candidate: int) -> bool:
        r = shared_prefix_len(self.owner, candidate)
        if r == ids.DIGITS:
            return False
        cell = digit(candidate, r)
        row = self.rows[r]
        if cell in row:
            return False
        row[cell] = candidate
        return True

    def remove(self, node_id: int) -> bool:
        r = shared_prefix_len(self.owner, node_id)
        if r == ids.DIGITS:
            return False
        cell = digit(node_id, r)
        if self.rows[r].get(cell) == node_id:
            del self.rows[r][cell]
            return True
        return False

    def get(self, row: int, column: int) -> int | None:
        return self.rows[row].get(column)

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

    r = shared_prefix_len(self_id, k)
    cell = table.get(r, digit(k, r))
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
