"""128-bit circular identifier space shared by nodes and content keys.

Identifiers are plain ints in [0, 2**128). Viewed as digit strings they are
32 hex digits, most significant first, which is what prefix routing works on.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from .errors import InvalidNameError, NoNodesError

ID_BITS = 128
ID_SPACE = 1 << ID_BITS
DIGIT_BITS = 4
RADIX = 1 << DIGIT_BITS
DIGITS = ID_BITS // DIGIT_BITS  # 32

NodeId = int
Key = int


def derive_key(name: str) -> Key:
    """Map a component (or node) name to its key: SHA-1 truncated to 128 bits."""
    if not name:
        raise InvalidNameError("name must be non-empty")
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def digit(value: int, position: int) -> int:
    """Digit at `position` (0 = most significant) of the 32-digit hex view."""
    shift = (DIGITS - 1 - position) * DIGIT_BITS
    return (value >> shift) & (RADIX - 1)


def to_hex(value: int) -> str:
    return f"{value:032x}"


def shared_prefix_len(a: int, b: int) -> int:
    """Number of leading hex digits equal in a and b; 32 iff a == b."""
    if a == b:
        return DIGITS
    # Position of the highest differing bit decides how many whole digits match.
    return (ID_BITS - (a ^ b).bit_length()) // DIGIT_BITS


def circular_distance(a: int, b: int) -> int:
    d = a - b if a >= b else b - a
    return d if d <= ID_SPACE - d else ID_SPACE - d


def root_of(live_ids: Iterable[int], k: Key) -> NodeId:
    """Brute-force owner of k: minimal circular distance, ties to smaller id."""
    best: int | None = None
    best_key: tuple[int, int] | None = None
    for node_id in live_ids:
        cand = (circular_distance(node_id, k), node_id)
        if best_key is None or cand < best_key:
            best_key = cand
            best = node_id
    if best is None:
        raise NoNodesError("root_of needs at least one live node")
    return best
