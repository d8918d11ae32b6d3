"""Column page encodings: n-bit packing and dictionary compression.

SAP IQ compresses columnar data with dictionary encoding plus the *n-bit
representation* (values stored in just enough bits), then applies page-level
compression on top.  This module implements the inner layer:

- **integers**: frame-of-reference + n-bit packing — the page stores the
  minimum and each value's delta in ``ceil(log2(max-min+1))`` bits;
- **floats**: raw IEEE doubles (page-level zlib still helps);
- **strings**: a page-local dictionary of distinct values with n-bit codes.

Every encoder returns ``bytes`` and :func:`decode_values_np` returns the
exact values as a numpy vector, so encode/decode is a strict round trip
(property-tested).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

INT_TAG = b"I"
FLOAT_TAG = b"F"
STR_TAG = b"S"

_HEADER = struct.Struct(">cI")  # tag, value count


class EncodingError(Exception):
    """Unknown tags or corrupt payloads."""


def bits_needed(span: int) -> int:
    """Bits required to represent values in ``[0, span]``."""
    if span < 0:
        raise EncodingError(f"span must be non-negative, got {span}")
    return max(1, span.bit_length())


#: Values per unpacking chunk: 64 fields of any width fill a whole number of
#: bytes, so chunks unpack independently and every big-int stays at most
#: ``64 * width`` bits long — linear time in the page size.
_CHUNK = 64

#: The value range a page can hold: the frame's base is stored as a signed
#: 64-bit int, and the query kernel decodes into ``int64`` vectors.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _pack_nbit(values: "Sequence[int]", width: int) -> bytes:
    """Pack non-negative ints (below ``2**64``) into big-endian
    ``width``-bit fields.

    Each value's low bytes are spread to bits by ``np.unpackbits``, the
    low ``width`` bits are kept, and one ``np.packbits`` pass joins them;
    only the last byte is padded (left-aligned, zero bits).
    """
    nbytes = (width + 7) // 8
    words = np.asarray(values, dtype=np.uint64).astype(">u8", copy=False)
    low = words.view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
    bits = np.unpackbits(low, axis=1)[:, 8 * nbytes - width:]
    return np.packbits(bits).tobytes()


def _unpack_nbit(payload: bytes, width: int, count: int) -> "List[int]":
    """Invert :func:`_pack_nbit` for ``count`` fields."""
    if len(payload) * 8 < width * count:
        raise EncodingError("truncated n-bit payload")
    out: "List[int]" = []
    mask = (1 << width) - 1
    step = _CHUNK * width // 8
    for start in range(0, count, _CHUNK):
        fields = min(_CHUNK, count - start)
        offset = start * width // 8
        chunk = payload[offset:offset + step]
        acc = int.from_bytes(chunk, "big") >> (len(chunk) * 8 - fields * width)
        out.extend([
            (acc >> shift) & mask
            for shift in range((fields - 1) * width, -1, -width)
        ])
    return out


def encode_ints(values: "Sequence[int]") -> bytes:
    """Frame-of-reference n-bit encoding of signed 64-bit integers.

    ``values`` is a sequence of ints or an ``int64`` vector.  Values
    outside the signed 64-bit range raise :class:`EncodingError`.
    """
    count = len(values)
    if count == 0:
        return _HEADER.pack(INT_TAG, 0)
    if isinstance(values, np.ndarray):
        lo, hi = int(values.min()), int(values.max())
    else:
        lo, hi = min(values), max(values)
    if lo < INT64_MIN or hi > INT64_MAX:
        raise EncodingError(
            f"int values span [{lo}, {hi}], outside the signed 64-bit range"
        )
    width = bits_needed(hi - lo)
    # Two's-complement wrap-around: the uint64 difference is exactly
    # ``value - lo``, which lies in [0, 2**64).
    deltas = np.asarray(values, dtype=np.int64).astype(np.uint64)
    body = _pack_nbit(deltas - np.uint64(lo % (1 << 64)), width)
    return (
        _HEADER.pack(INT_TAG, count)
        + struct.pack(">qB", lo, width)
        + body
    )


def encode_floats(values: "Sequence[float]") -> bytes:
    return _HEADER.pack(FLOAT_TAG, len(values)) + np.asarray(
        values, dtype=">f8"
    ).tobytes()


def encode_strings(values: "Sequence[str]") -> bytes:
    """Page-local dictionary + n-bit codes."""
    count = len(values)
    distinct: "List[str]" = sorted(set(values))
    index = dict(zip(distinct, range(len(distinct))))
    width = bits_needed(max(0, len(distinct) - 1))
    codes = _pack_nbit(np.fromiter(map(index.__getitem__, values),
                                   dtype=np.uint64, count=count), width)
    dictionary = "\x00".join(distinct).encode("utf-8")
    return (
        _HEADER.pack(STR_TAG, count)
        + struct.pack(">IB", len(dictionary), width)
        + dictionary
        + codes
    )


def encode_values(kind: str, values: "Sequence[object]") -> bytes:
    """Encode a page of values of a column ``kind``.

    ``date`` columns are stored as ints (ordinal days).
    """
    if kind in ("int", "date"):
        return encode_ints(values)  # type: ignore[arg-type]
    if kind == "float":
        return encode_floats(values)  # type: ignore[arg-type]
    if kind == "str":
        return encode_strings(values)  # type: ignore[arg-type]
    raise EncodingError(f"unknown column kind {kind!r}")


def decode_values_np(payload: bytes):
    """Decode a page into a read-only numpy column vector.

    The one page decoder, for the query executor (DESIGN.md §14) and
    for the tail page an append rewrites: floats come
    back as a zero-copy big-endian view straight over the page bytes,
    ints as a frame-of-reference bias over a vectorized n-bit unpack,
    and strings as a fancy-indexed page dictionary.  Arrays are marked
    read-only so a query's decode cache can share them between scans.
    """
    from repro.columnar import vec

    if len(payload) < _HEADER.size:
        raise EncodingError("truncated page payload")
    tag, count = _HEADER.unpack_from(payload)
    offset = _HEADER.size
    if tag == INT_TAG:
        if count == 0:
            values = np.empty(0, dtype=np.int64)
        else:
            lo, width = struct.unpack_from(">qB", payload, offset)
            offset += struct.calcsize(">qB")
            values = lo + vec.unpack_nbit(payload[offset:], width, count)
    elif tag == FLOAT_TAG:
        values = np.frombuffer(
            payload, dtype=">f8", count=count, offset=offset
        )
    elif tag == STR_TAG:
        dict_len, width = struct.unpack_from(">IB", payload, offset)
        offset += struct.calcsize(">IB")
        dictionary_raw = payload[offset:offset + dict_len].decode("utf-8")
        distinct = dictionary_raw.split("\x00") if dict_len else [""]
        offset += dict_len
        if count == 0:
            values = np.empty(0, dtype=str)
        else:
            codes = vec.unpack_nbit(payload[offset:], width, count)
            values = np.array(distinct)[codes]
    else:
        raise EncodingError(f"unknown page tag {tag!r}")
    values.setflags(write=False)
    return values
