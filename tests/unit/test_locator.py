"""Unit tests for 64-bit locators (block runs vs object keys)."""

import pytest

from repro.storage.locator import (
    MAX_BLOCKS_PER_PAGE,
    NULL_LOCATOR,
    OBJECT_KEY_BASE,
    LocatorError,
    block_range,
    is_object_key,
    make_block_locator,
)


def test_object_key_range():
    assert is_object_key(OBJECT_KEY_BASE)
    assert is_object_key((1 << 64) - 1)
    assert not is_object_key(OBJECT_KEY_BASE - 1)
    assert not is_object_key(0)


def test_block_locator_roundtrip():
    for start in (0, 1, 12345, (1 << 48) - 1):
        for nblocks in (1, 7, 16):
            locator = make_block_locator(start, nblocks)
            assert not is_object_key(locator)
            assert block_range(locator) == (start, nblocks)


def test_block_zero_does_not_collide_with_null():
    assert make_block_locator(0, 1) != NULL_LOCATOR


def test_block_number_limit():
    with pytest.raises(LocatorError):
        make_block_locator(1 << 48, 1)
    with pytest.raises(LocatorError):
        make_block_locator(-1, 1)


def test_run_length_limits():
    with pytest.raises(LocatorError):
        make_block_locator(0, 0)
    with pytest.raises(LocatorError):
        make_block_locator(0, MAX_BLOCKS_PER_PAGE + 1)


def test_block_range_rejects_object_keys_and_null():
    with pytest.raises(LocatorError):
        block_range(OBJECT_KEY_BASE + 5)
    with pytest.raises(LocatorError):
        block_range(NULL_LOCATOR)


def test_is_object_key_rejects_out_of_range():
    with pytest.raises(LocatorError):
        is_object_key(1 << 64)
    with pytest.raises(LocatorError):
        is_object_key(-1)
