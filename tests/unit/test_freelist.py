"""Unit tests for the freelist bitmap allocator."""

import random

import pytest

from repro.blockstore.freelist import Freelist, FreelistError


def test_allocate_contiguous_runs():
    freelist = Freelist(100)
    first = freelist.allocate(5)
    second = freelist.allocate(3)
    assert first != second
    assert freelist.used_blocks == 8
    for block in range(first, first + 5):
        assert freelist.is_used(block)


def test_free_returns_blocks():
    freelist = Freelist(10)
    start = freelist.allocate(4)
    freelist.free(start, 4)
    assert freelist.used_blocks == 0


def test_double_free_raises():
    freelist = Freelist(10)
    start = freelist.allocate(2)
    freelist.free(start, 2)
    with pytest.raises(FreelistError):
        freelist.free(start, 2)


def test_mark_free_is_idempotent():
    freelist = Freelist(10)
    start = freelist.allocate(2)
    freelist.mark_free(start, 2)
    freelist.mark_free(start, 2)
    assert freelist.used_blocks == 0


def test_exhaustion_raises():
    freelist = Freelist(10)
    freelist.allocate(10)
    with pytest.raises(FreelistError):
        freelist.allocate(1)


def test_fragmentation_requires_contiguity():
    freelist = Freelist(10)
    first = freelist.allocate(4)
    freelist.allocate(4)
    freelist.free(first, 4)
    # 4 free at the front, 2 at the back: a run of 5 does not fit.
    with pytest.raises(FreelistError):
        freelist.allocate(5)
    # But 4 does (reusing the freed front run).
    assert freelist.allocate(4) == first


def test_wraparound_scan():
    freelist = Freelist(10)
    a = freelist.allocate(5)
    b = freelist.allocate(5)
    freelist.free(a, 5)
    # Cursor is at the end; allocation must wrap to the start.
    assert freelist.allocate(5) == a


def test_used_ranges():
    freelist = Freelist(20)
    freelist.mark_used(2, 3)
    freelist.mark_used(10, 1)
    assert [block for block in range(20) if freelist.is_used(block)] == [
        2, 3, 4, 10]
    assert freelist.free_blocks == 16


def test_serialization_roundtrip():
    freelist = Freelist(64)
    freelist.allocate(7)
    freelist.mark_used(50, 3)
    # A checkpoint keeps a copy and recovery restores from a copy of it.
    restored = freelist.copy().copy()
    assert restored.total_blocks == 64
    assert restored.used_blocks == freelist.used_blocks
    assert restored.to_bytes() == freelist.to_bytes()
    assert [restored.is_used(block) for block in range(64)] == [
        freelist.is_used(block) for block in range(64)]


def test_copy_is_independent():
    freelist = Freelist(16)
    freelist.allocate(4)
    clone = freelist.copy()
    clone.allocate(4)
    assert freelist.used_blocks == 4
    assert clone.used_blocks == 8


def test_copy_scans_from_block_zero_like_a_checkpoint_round_trip():
    freelist = Freelist(32)
    freelist.allocate(4)
    freelist.allocate(4)
    freelist.free(0, 4)
    # The original continues next-fit from its cursor; a copy, like a
    # restored checkpoint, starts again at block 0.
    assert freelist.copy().allocate(2) == 0
    assert freelist.allocate(2) == 8


@pytest.mark.parametrize("seed", range(5))
def test_restored_used_count_matches_per_byte_popcount(seed):
    """A restored copy's used count equals the per-byte popcount of its
    image on arbitrary bitmaps (wholly used, wholly free and mixed bytes),
    and the image is the bitmap zero-padded to the device."""
    rng = random.Random(seed)
    total = rng.randrange(1, 4000)
    body = bytearray(
        rng.choice((0x00, 0xFF, rng.randrange(256))) for __ in range((total + 7) // 8)
    )
    if total & 7:
        body[-1] &= (1 << (total & 7)) - 1
    freelist = Freelist(total)
    for block in range(total):
        if body[block >> 3] & (1 << (block & 7)):
            freelist.mark_used(block)
    restored = freelist.copy().copy()
    assert restored.used_blocks == sum(bin(byte).count("1") for byte in body)
    assert restored.to_bytes() == total.to_bytes(8, "big") + bytes(body)
    assert restored.copy().to_bytes() == restored.to_bytes()


def test_device_sized_freelist_round_trips_without_per_block_work():
    """Scaling guard: 2**26 blocks (an 8 MiB bitmap) with a few thousand
    scattered runs goes through to_bytes and a checkpoint's copy round
    trip in well under a second; one Python call per bitmap byte made
    this take half a minute."""
    total = 1 << 26
    rng = random.Random(3)
    freelist = Freelist(total)
    runs = []
    for slot in range(3000):
        start = slot * (total // 3000) + 1 + rng.randrange(1000)
        count = rng.randrange(1, 17)
        freelist.mark_used(start, count)
        runs.append((start, count))
    used = sum(count for __, count in runs)
    payload = freelist.to_bytes()
    assert len(payload) == 8 + total // 8 == freelist.image_length()
    restored = freelist.copy()
    clone = restored.copy()
    for candidate in (restored, clone):
        assert candidate.total_blocks == total
        assert candidate.used_blocks == used
        for start, count in runs[::97]:
            assert not candidate.is_used(start - 1)
            assert candidate.is_used(start) and candidate.is_used(start + count - 1)
            assert not candidate.is_used(start + count)
    assert clone.to_bytes() == payload
    clone.mark_free(*runs[0])
    assert restored.used_blocks == used and clone.used_blocks == used - runs[0][1]


def test_bounds_checking():
    freelist = Freelist(10)
    with pytest.raises(FreelistError):
        freelist.is_used(10)
    with pytest.raises(FreelistError):
        freelist.mark_used(8, 5)
    with pytest.raises(FreelistError):
        freelist.allocate(0)
    with pytest.raises(FreelistError):
        Freelist(0)
