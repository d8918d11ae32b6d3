"""Unit tests for column page encodings (n-bit, dictionary)."""

import re

import pytest

from repro.columnar.encoding import (
    EncodingError,
    bits_needed,
    decode_values_np,
    encode_floats,
    encode_ints,
    encode_strings,
    encode_values,
)
from tests.reference_columnar import decode_values


def test_bits_needed():
    assert bits_needed(0) == 1
    assert bits_needed(1) == 1
    assert bits_needed(2) == 2
    assert bits_needed(255) == 8
    assert bits_needed(256) == 9
    with pytest.raises(EncodingError):
        bits_needed(-1)


def test_int_roundtrip():
    values = [5, -3, 1000, 0, 7, 7, -3]
    assert decode_values(encode_ints(values)) == values


def test_int_narrow_range_compresses_well():
    values = [1000000 + (i % 4) for i in range(1000)]
    payload = encode_ints(values)
    # 2 bits/value plus headers: far below 8 bytes/value.
    assert len(payload) < 1000


def test_int_empty():
    assert decode_values(encode_ints([])) == []


def test_int_single_value():
    assert decode_values(encode_ints([42])) == [42]


def test_int_negative_extremes():
    values = [-(2 ** 40), 2 ** 40]
    assert decode_values(encode_ints(values)) == values


def test_float_roundtrip():
    values = [0.0, -1.5, 3.14159, 1e300]
    assert decode_values(encode_floats(values)) == values


def test_string_roundtrip():
    values = ["apple", "banana", "apple", "", "cherry", "apple"]
    assert decode_values(encode_strings(values)) == values


def test_string_dictionary_compresses_repeats():
    values = ["AUTOMOBILE", "BUILDING"] * 500
    payload = encode_strings(values)
    raw = sum(len(v) for v in values)
    assert len(payload) < raw / 5


def test_string_empty_page():
    assert decode_values(encode_strings([])) == []


def test_string_single_distinct():
    values = ["same"] * 100
    assert decode_values(encode_strings(values)) == values


def test_string_unicode():
    values = ["héllo", "wörld", "héllo"]
    assert decode_values(encode_strings(values)) == values


def test_kind_dispatch():
    assert decode_values(encode_values("int", [1, 2])) == [1, 2]
    assert decode_values(encode_values("date", [730000])) == [730000]
    assert decode_values(encode_values("float", [1.5])) == [1.5]
    assert decode_values(encode_values("str", ["x"])) == ["x"]
    with pytest.raises(EncodingError):
        encode_values("blob", [b"x"])


def test_corrupt_payload_rejected():
    with pytest.raises(EncodingError):
        decode_values(b"")
    with pytest.raises(EncodingError):
        decode_values(b"Z" + b"\x00" * 8)


@pytest.mark.parametrize("values, span", [
    ([0, 2 ** 70], "[0, 1180591620717411303424]"),
    ([-(2 ** 63) - 1, 0], "[-9223372036854775809, 0]"),
    ([2 ** 63], "[9223372036854775808, 9223372036854775808]"),
])
def test_ints_outside_int64_are_refused_at_encode_time(values, span):
    """A page holds what the int64 query kernel can decode, nothing wider."""
    with pytest.raises(EncodingError, match=re.escape(span)):
        encode_values("int", values)
    with pytest.raises(EncodingError, match=re.escape(span)):
        encode_values("date", values)


def test_the_full_int64_span_round_trips_through_both_decoders():
    values = [-(2 ** 63), 2 ** 63 - 1, 0, -1, 1]
    payload = encode_values("int", values)
    assert decode_values(payload) == values
    assert decode_values_np(payload).tolist() == values
