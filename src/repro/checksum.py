"""Canonical content checksums: pure-python CRC-32C (Castagnoli).

Every object PUT against a simulated store records the CRC-32C of the
*intended* payload; verified reads, the background scrubber and
``repro fsck --deep`` recompute it to detect silent corruption (bit rot,
truncation, torn reads).  CRC-32C is the checksum real object stores
expose (S3 ``x-amz-checksum-crc32c``, GCS ``crc32c``), it catches every
single-bit flip and every burst error up to 32 bits, and the pure-python
implementation below is deterministic across platforms — no dependency,
no hash randomization.

The kernel is table-driven with a four-byte stride (DESIGN.md §17): the
payload is read as little-endian 32-bit words through ``memoryview.cast``
and each word costs two lookups in 16-bit tables (the classic
slicing-by-4 tables folded pairwise), with the byte-at-a-time table for
the last ``len % 4`` bytes.  The tables are built once at import (about
20 ms) and held as ``array('I')``: half a MiB resident, where two lists of
65 536 int objects would be 5 MiB and miss the CPU cache.

The module also provides the optional *page trailer* format used by
``DatabaseConfig.page_checksums``: a sealed page is
``b"CK1" | crc32c(payload) | payload`` so the integrity of a page image
survives any storage path (OCM SSD cache, encryption, backups) end to
end.  The trailer changes the bytes at rest, so it is a default-off knob
guarded by the golden byte-identical regression.
"""

from __future__ import annotations

import struct
import sys
from array import array

_POLY = 0x82F63B78  # CRC-32C (Castagnoli), reflected


def _build_tables() -> "tuple[tuple[int, ...], array[int], array[int]]":
    """The byte table and the two 16-bit tables of the word kernel.

    ``ahead[k][b]`` is the CRC state after byte ``b`` and ``k`` zero bytes;
    a 32-bit word is its four bytes 3, 2, 1 and 0 bytes ahead of the end,
    and each 16-bit table folds two of those lookups into one.
    """
    table = []
    for index in range(256):
        crc = index
        for __ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    ahead = [table]
    for __ in range(3):
        ahead.append([table[crc & 0xFF] ^ (crc >> 8) for crc in ahead[-1]])
    pairs = range(1 << 16)
    low = array("I", (ahead[3][x & 0xFF] ^ ahead[2][x >> 8] for x in pairs))
    high = array("I", (ahead[1][x & 0xFF] ^ ahead[0][x >> 8] for x in pairs))
    return tuple(table), low, high


_TABLE, _LOW16, _HIGH16 = _build_tables()


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data``, optionally continuing from ``value``."""
    crc = value ^ 0xFFFFFFFF
    view = memoryview(data).cast("B")
    body = len(view) & ~3
    words = view[:body].cast("I")
    if sys.byteorder == "big":
        words = array("I", words)
        words.byteswap()
    low, high = _LOW16, _HIGH16
    for word in words:
        word ^= crc
        crc = low[word & 0xFFFF] ^ high[word >> 16]
    table = _TABLE
    for byte in view[body:]:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


#: The canonical object checksum used across the storage stack.
checksum = crc32c


class ChecksumError(Exception):
    """A payload failed checksum verification (silent corruption)."""


# --------------------------------------------------------------------- #
# the optional page trailer (DatabaseConfig.page_checksums)
# --------------------------------------------------------------------- #

PAGE_CHECKSUM_MAGIC = b"CK1"
_HEADER = struct.Struct(">3sI")

#: Bytes added to every sealed page image.
PAGE_CHECKSUM_OVERHEAD = _HEADER.size


def seal_page(payload: bytes) -> bytes:
    """Frame ``payload`` with the checksum trailer header."""
    return _HEADER.pack(PAGE_CHECKSUM_MAGIC, crc32c(payload)) + payload


def open_page(sealed: bytes) -> bytes:
    """Verify and strip a sealed page; raise :class:`ChecksumError`."""
    if len(sealed) < _HEADER.size:
        raise ChecksumError(
            f"sealed page too short: {len(sealed)} bytes"
        )
    magic, expected = _HEADER.unpack_from(sealed)
    if magic != PAGE_CHECKSUM_MAGIC:
        raise ChecksumError(f"bad page-checksum magic {magic!r}")
    payload = sealed[_HEADER.size:]
    actual = crc32c(payload)
    if actual != expected:
        raise ChecksumError(
            f"page checksum mismatch: stored {expected:#010x}, "
            f"computed {actual:#010x}"
        )
    return payload


def is_sealed(payload: bytes) -> bool:
    """Whether a page image carries the checksum trailer header."""
    return payload[:3] == PAGE_CHECKSUM_MAGIC and len(payload) >= _HEADER.size
