"""The full-bitmap freelist: the oracle for the engine's high-water one.

``repro.blockstore.freelist.Freelist`` holds its bitmap only up to the
last byte that has ever had a bit set (DESIGN.md §17).  This module keeps
the allocator it must reproduce, which allocates the whole device's
bitmap up front.  ``tests/property/test_freelist_oracle.py`` drives random
scripts through both and requires the same start blocks, counts, used
blocks, checkpoint images and errors.
"""

from __future__ import annotations

from repro.blockstore.freelist import FreelistError


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

    # ------------------------------------------------------------------ #
    # persistence (checkpointing)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """The checkpoint image: 8-byte total, then the whole bitmap."""
        return b"".join((self._total.to_bytes(8, "big"), self._bits))

    def copy(self) -> "ReferenceFreelist":
        """An independent freelist with the same bitmap; it scans from
        block 0."""
        clone = ReferenceFreelist(self._total)
        clone._bits = bytearray(self._bits)
        clone._used = self._used
        return clone

    def __repr__(self) -> str:
        return f"ReferenceFreelist(total={self._total}, used={self._used})"
