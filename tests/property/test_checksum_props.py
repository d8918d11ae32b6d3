"""Property tests: CRC-32C catches every single-bit flip, and the numpy
block kernel computes the same function as the byte-at-a-time reference
kept here as its oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksum import crc32c

payloads = st.binary(min_size=1, max_size=4096)


def _reference_table():
    table = []
    for index in range(256):
        crc = index
        for __ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_REFERENCE_TABLE = _reference_table()


def reference_crc32c(data, value=0):
    """The byte-at-a-time loop ``repro.checksum`` first shipped; the
    four-byte-stride and block kernels that replaced it compute the same
    function, so every recorded checksum agrees with it."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = _REFERENCE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


@pytest.mark.parametrize("payload, expected", [
    (b"", 0),
    (b"123456789", 0xE3069283),
    # RFC 3720 appendix B.4
    (bytes(32), 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
    (bytes(range(31, -1, -1)), 0x113FDB5C),
])
def test_crc32c_known_answers(payload, expected):
    assert crc32c(payload) == expected
    assert reference_crc32c(payload) == expected


def test_every_short_length_and_every_split_point():
    """Short payloads: heads shorter than the four bytes the register
    enters through; continuing from any split point equals the one-shot
    value."""
    data = bytes((37 * i + 11) & 0xFF for i in range(70))
    for length in range(len(data) + 1):
        whole = reference_crc32c(data[:length])
        assert crc32c(data[:length]) == whole
        for split in range(length + 1):
            head = crc32c(data[:split])
            assert head == reference_crc32c(data[:split])
            assert crc32c(data[split:length], head) == whole


BLOCK = 1024


def test_every_length_up_to_three_blocks_and_a_tail():
    """Lengths 0 .. 3·1024+5 reach every partial-block size ahead of zero
    to three whole blocks."""
    data = random.Random(1).randbytes(3 * BLOCK + 5)
    crc = reference_crc32c(b"")
    for length in range(len(data) + 1):
        assert crc32c(data[:length]) == crc, length
        if length < len(data):
            crc = reference_crc32c(data[length:length + 1], crc)


@pytest.mark.parametrize("edge", [BLOCK, 2 * BLOCK, 3 * BLOCK])
def test_every_split_point_around_a_block_edge(edge):
    """Continuing across a split near a block edge puts the register's
    entry bytes on both sides of the edge and inside a short head."""
    data = random.Random(edge).randbytes(3 * BLOCK + 5)
    whole = reference_crc32c(data)
    for split in range(edge - 9, edge + 10):
        head = crc32c(data[:split])
        assert head == reference_crc32c(data[:split])
        assert crc32c(data[split:], head) == whole, split


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * BLOCK + 5), st.integers(0, 0xFFFFFFFF),
       st.randoms(use_true_random=False))
def test_random_continuations_match_the_reference(length, value, rng):
    data = rng.randbytes(length)
    assert crc32c(data, value) == reference_crc32c(data, value)


def test_buffer_types_agree():
    data = bytes(range(256)) * 3 + b"tail"
    expected = reference_crc32c(data)
    assert crc32c(data) == expected
    assert crc32c(bytearray(data)) == expected
    assert crc32c(memoryview(data)) == expected
    # An unaligned slice of a larger buffer, with no copy made.
    padded = b"x" + data + b"yz"
    assert crc32c(memoryview(padded)[1:-2]) == expected
    assert crc32c(memoryview(bytearray(padded))[1:-2]) == expected


def test_kernel_matches_reference_on_a_64_kib_payload():
    data = random.Random(0).getrandbits(8 * (64 * 1024 + 3)).to_bytes(
        64 * 1024 + 3, "big")
    assert crc32c(data) == reference_crc32c(data)
    assert crc32c(data[1:], 0xDEADBEEF) == reference_crc32c(data[1:], 0xDEADBEEF)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=64 * 1024), st.integers(0, 0xFFFFFFFF))
def test_kernel_matches_reference_on_random_payloads(payload, value):
    assert crc32c(payload) == reference_crc32c(payload)
    assert crc32c(payload, value) == reference_crc32c(payload, value)


@given(payloads, st.integers(min_value=0))
def test_any_single_bit_flip_changes_the_crc(payload, position):
    bit = position % (len(payload) * 8)
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert crc32c(bytes(flipped)) != crc32c(payload)


@given(st.binary(max_size=1024), st.binary(max_size=1024))
def test_incremental_crc_matches_one_shot(a, b):
    assert crc32c(b, crc32c(a)) == crc32c(a + b)


def test_every_bit_of_a_small_page_exhaustively():
    """Deterministic exhaustive sweep backing up the sampled property."""
    payload = bytes(range(32))
    clean = crc32c(payload)
    for bit in range(len(payload) * 8):
        mutated = bytearray(payload)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert crc32c(bytes(mutated)) != clean, bit
