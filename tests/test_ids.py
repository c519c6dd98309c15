"""Key derivation and id arithmetic against independent references.

The expected hex strings below were produced by the from-scratch SHA-1 in
oracles.py and are frozen here on purpose: a regression in either
implementation breaks the match.
"""

import random

import pytest
from hypothesis import given, strategies as st

from peerdeploy import ids
from peerdeploy.errors import NoNodesError
from oracles import (
    oracle_distance,
    oracle_hex,
    oracle_key,
    oracle_prefix_len,
    oracle_root,
)

RING = 1 << 128

FROZEN_KEYS = [
    ("log.jar", "f622ce0eb10f562717e0cddcd6cd0aca"),
    ("http.jar", "5c12d3cbc77fa653ec4718bfea4afd0f"),
    ("a", "86f7e437faa5a7fce15d1ddcb9eaeaea"),
    ("n0", "d8273e2f4a7c0a59554544c6605cdd8b"),
    ("n1", "40b3eab63f3f1d4fa48e09559401c5ed"),
    ("unicode-héllo-ñ", "d319fe287ce08b7c264559b1a4309693"),
    ("x/y.jar", "29e798a7165b604bc422326518c52d88"),
    ("very-long-bundle-name-with-many-characters-0123456789.jar",
     "bf9a74d7c0a838a6f089a688de69b6ef"),
]

ids_strategy = st.integers(min_value=0, max_value=RING - 1)


@pytest.mark.parametrize("name,expected_hex", FROZEN_KEYS)
def test_derive_key_frozen_values(name, expected_hex):
    assert ids.to_hex(ids.derive_key(name)) == expected_hex


@given(st.text(min_size=1, max_size=64))
def test_derive_key_matches_reference_sha1(name):
    assert ids.derive_key(name) == oracle_key(name)


def test_derive_key_rejects_empty_name():
    from peerdeploy.errors import InvalidNameError
    with pytest.raises(InvalidNameError):
        ids.derive_key("")


def test_derive_key_is_128_bits():
    for name, _ in FROZEN_KEYS:
        assert 0 <= ids.derive_key(name) < RING


def test_hex_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        value = rng.getrandbits(128)
        assert int(ids.to_hex(value), 16) == value
        assert len(ids.to_hex(value)) == 32


@given(ids_strategy, ids_strategy)
def test_shared_prefix_len_matches_reference(a, b):
    assert ids.shared_prefix_len(a, b) == oracle_prefix_len(a, b)


@given(ids_strategy)
def test_shared_prefix_len_identity(a):
    assert ids.shared_prefix_len(a, a) == 32


@given(ids_strategy, ids_strategy)
def test_circular_distance_matches_reference(a, b):
    assert ids.circular_distance(a, b) == oracle_distance(a, b)


@given(ids_strategy, ids_strategy)
def test_circular_distance_symmetric_and_bounded(a, b):
    d = ids.circular_distance(a, b)
    assert d == ids.circular_distance(b, a)
    assert 0 <= d <= RING // 2


def test_circular_distance_wraps():
    assert ids.circular_distance(0, RING - 1) == 1
    assert ids.circular_distance(0, RING // 2) == RING // 2
    assert ids.circular_distance(5, 5) == 0


@given(st.lists(ids_strategy, min_size=1, max_size=40, unique=True), ids_strategy)
def test_ring_root_matches_full_scan(live, key):
    assert ids.ring_root(sorted(live), key) == oracle_root(live, key)


# One to twelve ids bunched within 2**8 of both ends of the ring, so that the
# nearest id is often across the wrap; keys drawn from the ids, the midpoints
# of pairs of them (distance ties, across the wrap too) and the ring's ends.
near_ends = st.integers(min_value=0, max_value=1 << 8).flatmap(
    lambda offset: st.sampled_from([offset, RING - 1 - offset]))


@given(st.lists(near_ends, min_size=1, max_size=12, unique=True), st.data())
def test_ring_root_matches_full_scan_at_the_wrap_and_on_ties(live, data):
    a, b = data.draw(st.sampled_from(live)), data.draw(st.sampled_from(live))
    keys = {a, (a + b) // 2, (a + (b - a) % RING // 2) % RING, 0, RING - 1,
            data.draw(near_ends)}
    for key in keys:
        assert ids.ring_root(sorted(live), key) == oracle_root(live, key)


def test_ring_root_of_no_ids_raises():
    with pytest.raises(NoNodesError):
        ids.ring_root([], 5)


def test_ring_root_tie_prefers_lower_id():
    # key exactly between two ids: equidistant, lower id wins
    assert ids.ring_root([10, 20], 15) == 10
    # the same across the wrap: RING - 5 and 5 are both 5 from 0
    assert ids.ring_root([5, RING - 5], 0) == 5
    # and at the antipode, where both ways round are equally long
    assert ids.ring_root([0, RING // 2 + 10], 5 + RING // 4) == 0


def test_ring_root_exact_match():
    key = ids.derive_key("log.jar")
    assert ids.ring_root([key, key + 12345], key) == key
