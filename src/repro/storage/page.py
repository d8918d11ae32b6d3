"""Page geometry configuration.

SAP IQ uses a database-wide page size (512 KB in the paper's runs); a page
is stored physically as 1-16 contiguous blocks, so the block size is
``page_size / 16``.  The simulation defaults to smaller pages so tests and
benchmarks stay fast; the benchmark harness scales results accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.locator import MAX_BLOCKS_PER_PAGE


@dataclass(frozen=True)
class PageConfig:
    """Database-wide page geometry."""

    page_size: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size % MAX_BLOCKS_PER_PAGE != 0:
            raise ValueError(
                f"page size must be a positive multiple of "
                f"{MAX_BLOCKS_PER_PAGE}, got {self.page_size}"
            )

    @property
    def block_size(self) -> int:
        """A page spans at most 16 blocks, so blocks are page_size/16."""
        return self.page_size // MAX_BLOCKS_PER_PAGE
