"""The scalar page decoder and the row-at-a-time HG-index insert: oracles.

The engine decodes a page in one way, into a numpy vector
(``repro.columnar.encoding.decode_values_np``), and builds or extends an
HG index a column vector at a time (``HgIndex.build`` and
``HgIndex.extend``).  This module keeps the references they must
reproduce: a decoder that walks the page into a python list, and the
insert that adds one value at one row id.  ``tests/unit/test_encoding.py``,
``tests/property/test_encoding_props.py``,
``tests/unit/test_vectorized_exec.py`` and
``tests/property/test_hgindex_props.py`` compare against them.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from repro.columnar.encoding import (
    _HEADER,
    FLOAT_TAG,
    INT_TAG,
    STR_TAG,
    EncodingError,
    _unpack_nbit,
)
from repro.columnar.hgindex import HgIndex


def decode_values(payload: bytes) -> "List[object]":
    """Invert ``encode_values`` (the tag identifies the kind)."""
    if len(payload) < _HEADER.size:
        raise EncodingError("truncated page payload")
    tag, count = _HEADER.unpack_from(payload)
    offset = _HEADER.size
    if tag == INT_TAG:
        if count == 0:
            return []
        lo, width = struct.unpack_from(">qB", payload, offset)
        offset += struct.calcsize(">qB")
        deltas = _unpack_nbit(payload[offset:], width, count)
        return [lo + d for d in deltas]
    if tag == FLOAT_TAG:
        return list(struct.unpack_from(f">{count}d", payload, offset))
    if tag == STR_TAG:
        dict_len, width = struct.unpack_from(">IB", payload, offset)
        offset += struct.calcsize(">IB")
        dictionary_raw = payload[offset:offset + dict_len].decode("utf-8")
        distinct = dictionary_raw.split("\x00") if dict_len else [""]
        offset += dict_len
        if count == 0:
            return []
        codes = _unpack_nbit(payload[offset:], width, count)
        return [distinct[code] for code in codes]
    raise EncodingError(f"unknown page tag {tag!r}")


def add(index: HgIndex, value: object, row_id: int) -> None:
    """Index ``value`` at ``row_id``: extend the value's last range when
    the id runs on from it, else open a new range."""
    ranges = index._ranges.setdefault(value, [])
    if ranges and ranges[-1][1] + 1 == row_id:
        ranges[-1] = (ranges[-1][0], row_id)
    else:
        ranges.append((row_id, row_id))
    index._sorted_values = None


def add_rows(index: HgIndex, values: "Iterable[object]",
             first_row_id: int) -> None:
    """:func:`add` of consecutive rows starting at ``first_row_id``."""
    for offset, value in enumerate(values):
        add(index, value, first_row_id + offset)
