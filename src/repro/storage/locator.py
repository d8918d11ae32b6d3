"""64-bit physical locators: block runs or object keys in one field.

The paper overloads SAP IQ's existing 64-bit physical block number field
instead of widening the blockmap format:

- block locators use the low bits: the maximum physical block number is
  ``2^48 - 1``; a page occupies 1-16 contiguous blocks, and we encode the
  run length in bits 48-52 so a single integer fully describes the run;
- object keys occupy the reserved high range ``[2^63, 2^64)``.

``is_object_key`` is the single test that distinguishes the two — the same
trick lets RF/RB bitmaps record either representation (Section 3.3).
"""

from __future__ import annotations

OBJECT_KEY_BASE = 1 << 63
MAX_BLOCK_NUMBER = (1 << 48) - 1
MAX_BLOCKS_PER_PAGE = 16
_RUN_SHIFT = 48
_RUN_MASK = 0x1F  # 5 bits: run lengths 1..16 stored verbatim (never zero,
# so a block locator can never collide with NULL_LOCATOR == 0)

NULL_LOCATOR = 0


class LocatorError(ValueError):
    """Malformed locator construction or decoding."""


def is_object_key(locator: int) -> bool:
    """Whether the locator is an object key (high range) vs a block run."""
    if locator < 0 or locator >= (1 << 64):
        raise LocatorError(f"locator {locator!r} outside 64-bit range")
    return locator >= OBJECT_KEY_BASE


def make_block_locator(start_block: int, nblocks: int) -> int:
    """Encode a contiguous run of ``nblocks`` starting at ``start_block``."""
    if not 0 <= start_block <= MAX_BLOCK_NUMBER:
        raise LocatorError(f"block number {start_block!r} exceeds 2^48-1")
    if not 1 <= nblocks <= MAX_BLOCKS_PER_PAGE:
        raise LocatorError(
            f"pages occupy 1..{MAX_BLOCKS_PER_PAGE} blocks, got {nblocks!r}"
        )
    locator = start_block | (nblocks << _RUN_SHIFT)
    # Never collides with the object-key range: bit 63 stays clear.
    return locator


def block_range(locator: int) -> "tuple[int, int]":
    """Decode a block locator into ``(start_block, nblocks)``."""
    if is_object_key(locator):
        raise LocatorError(f"locator {locator:#x} is an object key, not a block run")
    if locator == NULL_LOCATOR:
        raise LocatorError("null locator has no block range")
    start = locator & MAX_BLOCK_NUMBER
    nblocks = (locator >> _RUN_SHIFT) & _RUN_MASK
    if not 1 <= nblocks <= MAX_BLOCKS_PER_PAGE:
        raise LocatorError(f"corrupt run length in locator {locator:#x}")
    return start, nblocks
