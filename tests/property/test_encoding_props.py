"""Property tests: column encodings are exact round trips, and the numpy
n-bit packer and the chunked unpacker are byte-identical to the
single-big-int reference kept here as their oracle."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import vec
from repro.columnar.encoding import (
    INT64_MAX,
    INT64_MIN,
    EncodingError,
    _pack_nbit,
    _unpack_nbit,
    decode_values_np,
    encode_values,
)
from tests.reference_columnar import decode_values

ints = st.lists(
    st.integers(min_value=-(2 ** 47), max_value=2 ** 47 - 1), max_size=300
)
floats = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=300
)
texts = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="\x00",
                               blacklist_categories=("Cs",)),
        max_size=30,
    ),
    max_size=200,
)


@given(ints)
def test_int_roundtrip(values):
    assert decode_values(encode_values("int", values)) == values


@given(ints)
def test_date_roundtrip(values):
    assert decode_values(encode_values("date", values)) == values


@given(floats)
def test_float_roundtrip(values):
    assert decode_values(encode_values("float", values)) == values


@given(texts)
def test_string_roundtrip(values):
    assert decode_values(encode_values("str", values)) == values


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=500))
def test_narrow_ints_encode_compactly(values):
    payload = encode_values("int", values)
    # 2 bits per value plus ~16 bytes of header.
    assert len(payload) <= len(values) // 4 + 20


# --------------------------------------------------------------------- #
# n-bit kernels against the reference they replaced
# --------------------------------------------------------------------- #


def reference_pack_nbit(values, width):
    """One ever-growing big-int: what wrote every page before chunking."""
    acc = 0
    for value in values:
        acc = (acc << width) | value
    total_bits = width * len(values)
    nbytes = (total_bits + 7) // 8
    acc <<= nbytes * 8 - total_bits  # left-align the last partial byte
    return acc.to_bytes(nbytes, "big") if nbytes else b""


def reference_unpack_nbit(payload, width, count):
    if count == 0:
        return []
    acc = int.from_bytes(payload, "big")
    acc >>= len(payload) * 8 - width * count
    mask = (1 << width) - 1
    out = [0] * count
    for i in range(count - 1, -1, -1):
        out[i] = acc & mask
        acc >>= width
    return out


@pytest.mark.parametrize("width", range(1, 65))
def test_nbit_kernels_byte_identical_to_reference(width):
    rng = random.Random(width)
    for count in (0, 1, 63, 64, 65, 127, 1024, 1100):
        values = [rng.getrandbits(width) for __ in range(count)]
        if count:
            values[rng.randrange(count)] = (1 << width) - 1
        payload = _pack_nbit(values, width)
        assert payload == reference_pack_nbit(values, width)
        assert _unpack_nbit(payload, width, count) == values
        assert reference_unpack_nbit(payload, width, count) == values


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.integers(0, (1 << width) - 1), max_size=400),
)))
def test_nbit_kernels_match_reference_on_random_values(case):
    width, values = case
    payload = _pack_nbit(values, width)
    assert payload == reference_pack_nbit(values, width)
    assert _unpack_nbit(payload, width, len(values)) == values


def test_unpack_takes_tuples_and_rejects_short_payloads():
    values = tuple(range(100))
    payload = _pack_nbit(values, 7)
    assert payload == reference_pack_nbit(values, 7)
    assert _unpack_nbit(memoryview(payload), 7, 100) == list(values)
    with pytest.raises(EncodingError):
        _unpack_nbit(payload[:-1], 7, 100)


def test_numpy_unpack_agrees_with_the_chunked_kernel():
    rng = random.Random(5)
    for width in (1, 3, 8, 13, 31, 32, 33, 40):
        for count in (1, 63, 64, 65, 1100):
            values = [rng.getrandbits(width) for __ in range(count)]
            payload = _pack_nbit(values, width)
            assert vec.unpack_nbit(payload, width, count).tolist() == \
                _unpack_nbit(payload, width, count) == values


def reference_encode_ints(values):
    """Frame of reference over the reference packer: the page format."""
    lo, hi = min(values), max(values)
    width = max(1, (hi - lo).bit_length())
    return (struct.pack(">cI", b"I", len(values)) + struct.pack(">qB", lo, width)
            + reference_pack_nbit([v - lo for v in values], width))


@pytest.mark.parametrize("span", [
    1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1,
])
@pytest.mark.parametrize("lo", [INT64_MIN, -(2 ** 62), -5])
def test_int_pages_with_a_negative_base_and_spans_near_2_63(lo, span):
    hi = min(lo + span, INT64_MAX)
    rng = random.Random(span)
    values = [lo, hi] + [rng.randint(lo, hi) for __ in range(130)]
    rng.shuffle(values)
    payload = encode_values("int", values)
    assert payload == reference_encode_ints(values)
    assert decode_values(payload) == values
    assert decode_values_np(payload).tolist() == values


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=300))
def test_int_pages_match_the_reference_over_the_whole_int64_range(values):
    payload = encode_values("int", values)
    assert payload == reference_encode_ints(values)
    assert encode_values("int", np.array(values, dtype=np.int64)) == payload
    assert decode_values_np(payload).tolist() == values


@given(floats)
def test_float_pages_from_vectors_and_lists_agree(values):
    assert encode_values("float", np.array(values, dtype=np.float64)) == \
        encode_values("float", values)
