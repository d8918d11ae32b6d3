"""Unit tests for hashed object naming (prefix randomization)."""

import pytest

from repro.storage.keys import (
    group_adjacent,
    hashed_object_name,
    object_key_from_name,
)
from repro.storage.locator import OBJECT_KEY_BASE


def test_name_roundtrip():
    key = OBJECT_KEY_BASE + 123456
    name = hashed_object_name(key)
    assert object_key_from_name(name) == key


def test_names_have_hashed_prefixes():
    names = [hashed_object_name(OBJECT_KEY_BASE + i) for i in range(1000)]
    prefixes = {name.split("/")[0] for name in names}
    # Sequential keys spread over many prefixes — the S3 request-rate trick.
    assert len(prefixes) > 500


def test_consecutive_keys_get_different_prefixes():
    a = hashed_object_name(OBJECT_KEY_BASE + 1)
    b = hashed_object_name(OBJECT_KEY_BASE + 2)
    assert a.split("/")[0] != b.split("/")[0]


def test_prefix_bits_zero_uses_shared_prefix():
    name = hashed_object_name(OBJECT_KEY_BASE + 9, prefix_bits=0)
    assert name.startswith("pages/")


def test_prefix_bit_count_controls_cardinality():
    names = {
        hashed_object_name(OBJECT_KEY_BASE + i, prefix_bits=4).split("/")[0]
        for i in range(1000)
    }
    assert len(names) <= 16


def test_deterministic():
    key = OBJECT_KEY_BASE + 42
    assert hashed_object_name(key) == hashed_object_name(key)


def test_rejects_non_object_keys():
    with pytest.raises(ValueError):
        hashed_object_name(123)
    with pytest.raises(ValueError):
        hashed_object_name(OBJECT_KEY_BASE, prefix_bits=64)


def test_from_name_validates():
    with pytest.raises(ValueError):
        object_key_from_name("aa/0000000000000001")  # below 2^63


def test_group_adjacent_run_of_one_keeps_input_order():
    """No coalescing is no reordering: the caller's issue order stands,
    names without a key included."""
    names = [hashed_object_name(OBJECT_KEY_BASE + i) for i in (3, 1, 2, 9)]
    items = [names[0], "meta/catalog", names[1], names[2], names[3]]
    assert group_adjacent(items, 1) == [[item] for item in items]
