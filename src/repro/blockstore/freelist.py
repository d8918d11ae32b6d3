"""The freelist: a bitmap tracking allocated blocks on block storage.

A set bit means the block is in use; a clear bit means it is available —
exactly the structure SAP IQ keeps in the main system dbspace.  Cloud
dbspaces do not use a freelist at all (objects are allocated by key), which
is why the paper's system dbspace shrinks and snapshots get cheap.

The allocator is next-fit over contiguous runs: pages occupy 1-16 contiguous
blocks, so allocation asks for a run length.  A checkpoint keeps a
:meth:`Freelist.copy` and is charged the length of the freelist's byte image
(:meth:`Freelist.image_length`); recovery starts from a copy of that copy.

The bitmap is held only up to its high-water byte, the last one that has
ever had a bit set; every block past it is free.  A freelist therefore
costs what has been allocated from it, not the size of its device: a
64 GiB system volume that a cloud deployment never allocates from holds an
empty bitmap, not 8 MiB of zeros.
"""

from __future__ import annotations


class FreelistError(Exception):
    """Raised on invalid freelist operations (double free, overflow...)."""


class Freelist:
    """Bitmap block allocator with contiguous-run allocation."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise FreelistError(f"freelist needs a positive size, got {total_blocks}")
        self._total = total_blocks
        self._bits = bytearray()  # up to the high-water byte; clear past it
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
        index = block >> 3
        return index < len(self._bits) and bool(
            self._bits[index] & (1 << (block & 7)))

    def _set(self, block: int) -> None:
        index = block >> 3
        if index >= len(self._bits):
            self._bits.extend(bytes(index + 1 - len(self._bits)))
        self._bits[index] |= 1 << (block & 7)

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
        """The byte image a checkpoint is charged for (see
        :meth:`image_length`)."""
        return b"".join((
            self._total.to_bytes(8, "big"),
            self._bits,
            bytes((self._total + 7) // 8 - len(self._bits)),
        ))

    def image_length(self) -> int:
        """Bytes a checkpoint charges for this freelist: an 8-byte
        big-endian ``total_blocks``, then the full bitmap of
        ``ceil(total_blocks / 8)`` bytes (bit ``b & 7`` of byte ``b >> 3``
        set when block ``b`` is used), zeros past the high-water byte
        included, so the charge does not depend on how much is held."""
        return 8 + (self._total + 7) // 8

    def copy(self) -> "Freelist":
        """An independent freelist with the same bitmap, held up to its
        last set bit: checkpoints keep such copies, and recovery restores
        from a copy of one.  The copy scans from block 0.
        """
        clone = Freelist(self._total)
        clone._bits = self._bits.rstrip(b"\x00")
        clone._used = self._used
        return clone

    def __repr__(self) -> str:
        return f"Freelist(total={self._total}, used={self._used})"
