"""128-bit circular identifier space shared by nodes and content keys.

Identifiers are plain ints in [0, 2**128). Viewed as digit strings they are
32 hex digits, most significant first, which is what prefix routing works on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Sequence

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


def ring_root(sorted_ids: Sequence[int], k: Key) -> NodeId:
    """Owner of k among ascending ids: of the ids just below and just above
    k, wrapping at both ends, the nearer one; distance ties go to the smaller."""
    if not sorted_ids:
        raise NoNodesError("ring_root needs at least one live node")
    i = bisect_left(sorted_ids, k)
    below, above = sorted_ids[i - 1], sorted_ids[i % len(sorted_ids)]
    # No id is nearer to k clockwise than above, nor counter-clockwise than
    # below (bar k itself, which is above). So when one of the two is nearer
    # the long way round, the other is nearer still, and comparing the two
    # offsets orders them as their ring distances do.
    return min(((k - below) % ID_SPACE, below), ((above - k) % ID_SPACE, above))[1]
