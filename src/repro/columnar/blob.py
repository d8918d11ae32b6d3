"""Helpers to store arbitrary byte blobs across pages of a storage object.

Metadata structures (zone maps, HG indexes, table meta) serialize to one
blob which is chunked into page-sized pieces; page 0 carries a tiny header
with the chunk count so readers know how many pages to fetch (and can
prefetch them in parallel).
"""

from __future__ import annotations

import struct
from typing import List

_HEADER = struct.Struct(">I")


def write_blob(buffer, handle, payload: bytes, page_size: int) -> int:
    """Write ``payload`` into ``handle`` as chunked pages; returns pages."""
    chunk_size = page_size - _HEADER.size
    chunks: "List[bytes]" = [
        payload[i:i + chunk_size] for i in range(0, len(payload), chunk_size)
    ] or [b""]
    for page_no, chunk in enumerate(chunks):
        buffer.write_page(handle, page_no, _HEADER.pack(len(chunks)) + chunk)
    return len(chunks)


def read_blob(buffer, handle, scan: bool = False) -> bytes:
    """Read back a blob written by :func:`write_blob`.

    ``scan`` marks the reads as part of a bulk scan so scan-resistant
    cache policies keep them out of the protected set; metadata blobs
    (the common case) stay hot and leave it False.
    """
    first = buffer.get_page(handle, 0)
    (count,) = _HEADER.unpack_from(first)
    if count > 1:
        buffer.prefetch(handle, list(range(1, count)), scan_hint=scan)
    parts = [first[_HEADER.size:]]
    for page_no in range(1, count):
        parts.append(buffer.get_page(handle, page_no)[_HEADER.size:])
    return b"".join(parts)
