"""The full-bitmap freelist: the oracle for the engine's high-water one.

``repro.blockstore.freelist.Freelist`` holds its bitmap only up to the
last byte that has ever had a bit set (DESIGN.md §17).  This module keeps
the allocator it must reproduce, which allocates the whole device's
bitmap up front.  ``tests/property/test_freelist_oracle.py`` drives random
scripts through both and requires the same start blocks, counts, runs,
serialized bytes and errors.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.blockstore.freelist import FreelistError

#: byte value -> number of set bits.
_POPCOUNT = bytes(bin(value).count("1") for value in range(256))


class ReferenceFreelist:
    """Bitmap block allocator over the whole device's bitmap."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise FreelistError(f"freelist needs a positive size, got {total_blocks}")
        self._total = total_blocks
        self._bits = bytearray((total_blocks + 7) // 8)
        self._used = 0
        self._cursor = 0  # next-fit scan position

    @property
    def total_blocks(self) -> int:
        return self._total

    @property
    def used_blocks(self) -> int:
        return self._used

    @property
    def free_blocks(self) -> int:
        return self._total - self._used

    def _get(self, block: int) -> bool:
        return bool(self._bits[block >> 3] & (1 << (block & 7)))

    def _set(self, block: int) -> None:
        self._bits[block >> 3] |= 1 << (block & 7)

    def _clear(self, block: int) -> None:
        self._bits[block >> 3] &= ~(1 << (block & 7))

    def is_used(self, block: int) -> bool:
        """Whether ``block`` is currently allocated."""
        if not 0 <= block < self._total:
            raise FreelistError(f"block {block} out of range 0..{self._total - 1}")
        return self._get(block)

    def _run_free(self, start: int, count: int) -> bool:
        if start + count > self._total:
            return False
        return all(not self._get(start + i) for i in range(count))

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` contiguous blocks; return the start block.

        Scans next-fit from the cursor, wrapping once.  Raises
        :class:`FreelistError` when no suitable run exists.
        """
        if count < 1:
            raise FreelistError(f"cannot allocate {count} blocks")
        if count > self.free_blocks:
            raise FreelistError(
                f"not enough free blocks: need {count}, have {self.free_blocks}"
            )
        for origin in (self._cursor, 0):
            position = origin
            while position + count <= self._total:
                if self._run_free(position, count):
                    self.mark_used(position, count)
                    self._cursor = position + count
                    return position
                # Skip past the first used block in the window.
                step = 1
                for i in range(count - 1, -1, -1):
                    if self._get(position + i):
                        step = i + 1
                        break
                position += step
            if origin == 0:
                break
        raise FreelistError(f"no contiguous run of {count} free blocks")

    def mark_used(self, start: int, count: int = 1) -> None:
        """Set bits for ``[start, start+count)``; used by crash recovery."""
        if start < 0 or start + count > self._total:
            raise FreelistError(f"range {start}+{count} out of bounds")
        for block in range(start, start + count):
            if not self._get(block):
                self._set(block)
                self._used += 1

    def free(self, start: int, count: int = 1) -> None:
        """Clear bits for ``[start, start+count)``.

        Freeing an already-free block is an error in normal operation;
        crash-recovery paths use :meth:`mark_free` instead.
        """
        if start < 0 or start + count > self._total:
            raise FreelistError(f"range {start}+{count} out of bounds")
        for block in range(start, start + count):
            if not self._get(block):
                raise FreelistError(f"double free of block {block}")
            self._clear(block)
            self._used -= 1

    def mark_free(self, start: int, count: int = 1) -> None:
        """Idempotently clear bits (crash-recovery replay)."""
        if start < 0 or start + count > self._total:
            raise FreelistError(f"range {start}+{count} out of bounds")
        for block in range(start, start + count):
            if self._get(block):
                self._clear(block)
                self._used -= 1

    def used_ranges(self) -> "Iterator[Tuple[int, int]]":
        """Yield maximal ``(start, count)`` runs of allocated blocks."""
        start = None
        for block in range(self._total):
            if self._get(block):
                if start is None:
                    start = block
            elif start is not None:
                yield start, block - start
                start = None
        if start is not None:
            yield start, self._total - start

    # ------------------------------------------------------------------ #
    # persistence (checkpointing)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize for inclusion in a checkpoint."""
        return b"".join((self._total.to_bytes(8, "big"), self._bits))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ReferenceFreelist":
        if len(payload) < 8:
            raise FreelistError("truncated freelist payload")
        total = int.from_bytes(payload[:8], "big")
        if total <= 0:
            raise FreelistError(f"freelist needs a positive size, got {total}")
        bits = bytearray(memoryview(payload)[8:])
        if len(bits) != (total + 7) // 8:
            raise FreelistError("freelist payload size mismatch")
        if total & 7 and bits[-1] >> (total & 7):
            raise FreelistError("freelist payload has bits set past total_blocks")
        # Wholly used and wholly free bytes are counted and dropped in C;
        # only the bytes at run boundaries reach the Python-level sum.
        used = 8 * bits.count(b"\xff") + sum(
            bits.translate(_POPCOUNT, b"\x00\xff")
        )
        return cls._around(total, bits, used)

    def copy(self) -> "ReferenceFreelist":
        """An independent freelist with the same bitmap.

        Like a checkpoint round trip, the copy scans from block 0.
        """
        return self._around(self._total, bytearray(self._bits), self._used)

    @classmethod
    def _around(cls, total: int, bits: bytearray, used: int) -> "ReferenceFreelist":
        """A freelist over an existing bitmap (no zeroed one is built first)."""
        freelist = cls.__new__(cls)
        freelist._total = total
        freelist._bits = bits
        freelist._used = used
        freelist._cursor = 0
        return freelist

    def __repr__(self) -> str:
        return f"ReferenceFreelist(total={self._total}, used={self._used})"
