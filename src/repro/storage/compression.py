"""Page-level compression.

SAP IQ compresses pages before they hit storage; the compressed size (in
blocks) is recorded in the blockmap.  Every page goes through zlib at level
1; the columnar layer adds dictionary and n-bit encodings *inside* the page
before page-level compression, mirroring the paper's two-level scheme.
"""

from __future__ import annotations

import zlib

# Level 1 mimics a fast LZ page compressor.
ZLIB_LEVEL = 1


class ZlibCodec:
    """Compress/decompress whole page images with zlib."""

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), ZLIB_LEVEL)

    def decompress(self, payload: bytes) -> bytes:
        return zlib.decompress(payload)
