"""Canonical content checksums: CRC-32C (Castagnoli) as a numpy block kernel.

Every object PUT against a simulated store records the CRC-32C of the
*intended* payload; verified reads, the background scrubber and
``repro fsck --deep`` recompute it to detect silent corruption (bit rot,
truncation, torn reads).  CRC-32C is the checksum real object stores
expose (S3 ``x-amz-checksum-crc32c``, GCS ``crc32c``), and it catches every
single-bit flip and every burst error up to 32 bits.

The kernel works a 1 KiB block at a time (DESIGN.md §17).  Without the
pre- and post-inversion a CRC is linear over GF(2), so the register after
a block, started from zero, is the XOR over the block's bytes of
``_BLOCK_TABLE[i, byte]``: the register after ``byte`` at position ``i``
and ``1023 - i`` zero bytes.  The running register enters a block the way
it enters the byte loop, XORed into the block's first four bytes; by
linearity that is the first four rows of the table looked up on its four
bytes.  So the whole blocks of a payload are gathered and XOR-reduced in
one numpy pass per 64 KiB, and only the chaining of registers, four
lookups per block, runs in Python.  A partial block leads: its bytes take
the table's last rows, and when it is shorter than four bytes the
register bytes it cannot absorb shift out unchanged, as in the byte
loop.  The table is 1024 × 256 ``uint32`` (1 MiB resident), built once
at import in a few milliseconds.  Bytes are read as ``uint8`` and
registers are python ints, so no step depends on the host's byte order.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x82F63B78  # CRC-32C (Castagnoli), reflected
_BLOCK = 1024
#: Whole blocks gathered per numpy pass: bounds the temporaries to 768 KiB.
_PASS_BLOCKS = 64


def _build_block_table() -> "np.ndarray":
    """``table[i, b]``: the register after byte ``b`` and ``_BLOCK - 1 - i``
    zero bytes, started from zero."""
    byte = np.arange(256, dtype=np.uint32)
    for __ in range(8):
        byte = np.where(byte & 1, (byte >> 1) ^ np.uint32(_POLY), byte >> 1)
    table = np.empty((_BLOCK, 256), dtype=np.uint32)
    table[-1] = byte
    for position in range(_BLOCK - 2, -1, -1):
        later = table[position + 1]
        table[position] = byte[later & 0xFF] ^ (later >> 8)
    return table


_BLOCK_TABLE = _build_block_table()
_FLAT = _BLOCK_TABLE.ravel()
_ROW_OFFSETS = np.arange(_BLOCK, dtype=np.intp) * 256
_ENTRY_ROWS = tuple(_BLOCK_TABLE[i].tolist() for i in range(4))


def _entered(crc: int, row: int) -> int:
    """The register after ``crc`` enters a zero-data block at table row
    ``row``: its bytes past the block's end shift out unchanged."""
    taken = min(4, _BLOCK - row)
    out = crc >> (8 * taken)
    for byte in range(taken):
        out ^= _FLAT.item(((row + byte) << 8) | ((crc >> (8 * byte)) & 0xFF))
    return out


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data``, optionally continuing from ``value``."""
    view = np.frombuffer(data, dtype=np.uint8)
    crc = value ^ 0xFFFFFFFF
    head = len(view) % _BLOCK
    if head:
        crc = _entered(crc, _BLOCK - head) ^ int(np.bitwise_xor.reduce(
            _FLAT[view[:head] + _ROW_OFFSETS[_BLOCK - head:]]))
    row0, row1, row2, row3 = _ENTRY_ROWS
    blocks = view[head:].reshape(-1, _BLOCK)
    for first in range(0, len(blocks), _PASS_BLOCKS):
        passed = blocks[first:first + _PASS_BLOCKS] + _ROW_OFFSETS
        for block in np.bitwise_xor.reduce(_FLAT[passed], axis=1).tolist():
            crc = (block ^ row0[crc & 0xFF] ^ row1[(crc >> 8) & 0xFF]
                   ^ row2[(crc >> 16) & 0xFF] ^ row3[crc >> 24])
    return crc ^ 0xFFFFFFFF


#: The canonical object checksum used across the storage stack.
checksum = crc32c

