"""Key derivation and id arithmetic against independent references.

The expected hex strings below were produced by the from-scratch SHA-1 in
oracles.py and are frozen here on purpose: a regression in either
implementation breaks the match.
"""

import random

import pytest
from hypothesis import given, strategies as st

from peerdeploy import ids
from oracles import (
    oracle_digit,
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


@given(ids_strategy, st.integers(min_value=0, max_value=31))
def test_digit_matches_hex_reference(value, position):
    assert ids.digit(value, position) == oracle_digit(value, position)


def test_digit_positions():
    value = 0x0123456789abcdef0123456789abcdef
    assert ids.digit(value, 0) == 0x0
    assert ids.digit(value, 1) == 0x1
    assert ids.digit(value, 15) == 0xF
    assert ids.digit(value, 31) == 0xF


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
def test_root_of_matches_full_scan(live, key):
    assert ids.root_of(live, key) == oracle_root(live, key)


def test_root_of_tie_prefers_lower_id():
    # key exactly between two ids: equidistant, lower id wins
    assert ids.root_of([10, 20], 15) == 10
    assert ids.root_of([20, 10], 15) == 10


def test_root_of_exact_match():
    key = ids.derive_key("log.jar")
    assert ids.root_of([key, key + 12345], key) == key
