"""Dbspaces: where pages physically live.

A *dbspace* is SAP IQ's unit of physical storage.  This module provides:

- :class:`PageStore` — the I/O surface a dbspace offers to the buffer
  manager and the blockmap: write page images, read them back by locator,
  free them, all in virtual time with windowed parallelism;
- :class:`BlockDbspace` — a conventional dbspace over a shared block device
  with a freelist allocator (every write takes a freshly allocated run);
- :class:`CloudDbspace` — a cloud dbspace over an object store: every write
  consumes a *fresh* 64-bit object key (never-write-twice), names are
  prefixed with a randomized hash, and there is no freelist at all;
- :class:`ObjectIO` — the pluggable path from a cloud dbspace to the bucket,
  implemented directly by :class:`DirectObjectIO` or by the Object Cache
  Manager (:mod:`repro.core.ocm`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Tuple,
)

from repro.blockstore.device import BlockDevice
from repro.blockstore.freelist import Freelist, FreelistError
from repro.checksum import open_page, seal_page
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.storage.keys import hashed_object_name
from repro.storage.locator import block_range, is_object_key, make_block_locator

if TYPE_CHECKING:  # the client imports storage.keys: no import at run time
    from repro.objectstore.client import RetryingObjectClient

# A blocking reader's wait: ``clock.advance_to`` (returns the time after).
Wait = Callable[[float], float]

CP_WRITE_PAGE_BEFORE_PUT = register_crash_point(
    "dbspace.write_page.before_put",
    "object keys consumed but no PUT left the node",
)
CP_WRITE_PAGE_AFTER_PUT = register_crash_point(
    "dbspace.write_page.after_put",
    "objects uploaded but their locators never reached the caller "
    "(orphans covered by the keygen active set)",
)
CP_FREE_PAGE_BEFORE_DELETE = register_crash_point(
    "dbspace.free_page.before_delete",
    "GC decided to free a page but the DELETE never left the node",
)
CP_POLL_BEFORE_DELETE = register_crash_point(
    "dbspace.poll.before_delete",
    "restart-GC poll probed an orphan key but crashed before deleting it",
)


class DbspaceError(Exception):
    """Dbspace misuse (wrong locator kind, exhausted space...)."""


class KeySource(Protocol):
    """Anything that can hand out fresh object keys (see core.keygen)."""

    def next_key(self) -> int:
        """Return a fresh, never-before-used key in ``[2^63, 2^64)``."""
        ...


class ObjectIO(ABC):
    """Cloud dbspace I/O path: direct to the bucket, or through the OCM.

    ``txn_id`` attributes writes to a transaction so the OCM can promote
    them on FlushForCommit; ``commit_mode`` selects write-through.
    Every read takes one route, :meth:`get_many_at`, every write
    :meth:`put_many` and every delete :meth:`delete_many`: implementations
    provide those and ``self.clock``; the single-item and blocking forms
    live here.
    """

    @abstractmethod
    def get_many_at(self, names: "Sequence[str]", now: float,
                    scan_hint: bool = False, wait: "Optional[Wait]" = None,
                    ) -> "Tuple[Dict[str, bytes], float]":
        """Windowed-parallel read from ``now``: ``(results, completion)``.

        ``scan_hint`` marks bulk-scan traffic so a scan-resistant cache
        policy can apply its admission rule; cacheless implementations
        ignore it.  ``wait`` is called with each completion a blocking
        reader has to sit out: what such a reader does after its wait
        (the OCM's SSD fill) happens after that call.  ``wait=None`` is
        pipelined prefetch: the shared clock never moves, the caller
        overlaps its own work and waits for ``completion`` itself.
        """

    def get_many(self, names: "Sequence[str]",
                 scan_hint: bool = False) -> "Dict[str, bytes]":
        return self.get_many_at(names, self.clock.now(), scan_hint,
                                self.clock.advance_to)[0]

    def get(self, name: str, scan_hint: bool = False) -> bytes:
        return self.get_many([name], scan_hint)[name]

    @abstractmethod
    def put_many(self, items: "Sequence[Tuple[str, bytes]]",
                 txn_id: "Optional[int]" = None,
                 commit_mode: bool = False) -> None:
        ...

    def put(self, name: str, data: bytes, txn_id: "Optional[int]" = None,
            commit_mode: bool = False) -> None:
        self.put_many([(name, data)], txn_id, commit_mode)

    @abstractmethod
    def delete_many(self, names: "Sequence[str]") -> None:
        ...

    def delete(self, name: str) -> None:
        self.delete_many([name])

    @abstractmethod
    def exists(self, name: str) -> bool:
        ...

    def flush_for_commit(self, txn_id: int) -> None:
        """Drain pending asynchronous work for a committing transaction."""
        # Direct I/O has nothing pending; the OCM overrides this.

    def stored_bytes(self) -> int:
        """Bytes at rest on the underlying bucket (billing)."""
        raise NotImplementedError


class DirectObjectIO(ObjectIO):
    """Cloud I/O without a cache: straight through the retrying client."""

    def __init__(self, client: RetryingObjectClient) -> None:
        self.client = client
        self.clock = client.clock

    def get_many_at(self, names: "Sequence[str]", now: float,
                    scan_hint: bool = False, wait: "Optional[Wait]" = None,
                    ) -> "Tuple[Dict[str, bytes], float]":
        results, done = self.client.get_many_at(names, now)
        if wait is not None:
            wait(done)
        return results, done

    def put_many(self, items: "Sequence[Tuple[str, bytes]]",
                 txn_id: "Optional[int]" = None,
                 commit_mode: bool = False) -> None:
        self.client.put_many(items)

    def delete_many(self, names: "Sequence[str]") -> None:
        self.client.delete_many(names)

    def exists(self, name: str) -> bool:
        return self.client.exists(name)

    def stored_bytes(self) -> int:
        return self.client.store.stored_bytes()


class PageStore(ABC):
    """A dbspace's page I/O surface.

    ``page_size_limit`` optionally overrides the engine-wide page size for
    objects living on this dbspace (the paper's future-work item of
    per-dbspace page sizes; the uniform-size requirement came from shared
    block devices and does not apply to object stores).  Implementations
    provide one body per verb — :meth:`read_pages_at`, :meth:`write_pages`,
    :meth:`free_pages` — and ``self.clock``; the single-page and blocking
    forms live here.
    """

    def __init__(self, name: str,
                 page_size_limit: "Optional[int]" = None) -> None:
        self.name = name
        self.page_size_limit = page_size_limit

    @property
    @abstractmethod
    def is_cloud(self) -> bool:
        """Whether locators are object keys (True) or block runs."""

    @abstractmethod
    def read_pages_at(self, locators: "Sequence[int]", now: float,
                      scan_hint: bool = False, wait: "Optional[Wait]" = None,
                      ) -> "Tuple[Dict[int, bytes], float]":
        """Windowed-parallel page read from ``now``: ``(pages, completion)``.

        ``scan_hint`` marks bulk-scan traffic for scan-resistant cache
        policies down the I/O path; block dbspaces ignore it.  ``wait``
        is as in :meth:`ObjectIO.get_many_at` (``None``: prefetching).
        """

    def read_pages(self, locators: "Sequence[int]",
                   scan_hint: bool = False) -> "Dict[int, bytes]":
        return self.read_pages_at(locators, self.clock.now(), scan_hint,
                                  self.clock.advance_to)[0]

    def read_page(self, locator: int) -> bytes:
        return self.read_pages([locator])[locator]

    @abstractmethod
    def write_pages(
        self,
        payloads: "Sequence[bytes]",
        txn_id: "Optional[int]" = None,
        commit_mode: bool = False,
    ) -> "List[int]":
        """Persist (compressed) page images, windowed-parallel; return
        their locators in payload order.

        Every page gets a locator it never had before: a fresh object key
        on a cloud dbspace (never-write-twice), a freshly allocated run on
        a block dbspace.
        """

    def write_page(self, payload: bytes, txn_id: "Optional[int]" = None,
                   commit_mode: bool = False) -> int:
        return self.write_pages([payload], txn_id, commit_mode)[0]

    @abstractmethod
    def free_pages(self, locators: "Sequence[int]") -> None:
        """Release pages' storage (GC batches)."""

    def free_page(self, locator: int) -> None:
        self.free_pages([locator])

    @abstractmethod
    def stored_bytes(self) -> int:
        """Bytes at rest on the dbspace (billing)."""

    def flush_for_commit(self, txn_id: int) -> None:
        """Hook for commit-time cache draining (cloud + OCM only)."""


class BlockDbspace(PageStore):
    """A conventional dbspace: freelist-allocated runs on a block device."""

    def __init__(self, name: str, device: BlockDevice,
                 freelist: "Optional[Freelist]" = None) -> None:
        super().__init__(name)
        self.device = device
        self.clock = device.clock
        self.freelist = freelist or Freelist(device.total_blocks)
        if self.freelist.total_blocks != device.total_blocks:
            raise DbspaceError(
                "freelist and device disagree on block count: "
                f"{self.freelist.total_blocks} vs {device.total_blocks}"
            )

    @property
    def is_cloud(self) -> bool:
        return False

    def read_pages_at(self, locators: "Sequence[int]", now: float,
                      scan_hint: bool = False, wait: "Optional[Wait]" = None,
                      ) -> "Tuple[Dict[int, bytes], float]":
        starts = {block_range(loc)[0]: loc for loc in locators}
        raw, done = self.device.read_many_at(starts, now)
        if wait is not None:
            wait(done)
        return {starts[start]: data for start, data in raw.items()}, done

    def write_pages(
        self,
        payloads: "Sequence[bytes]",
        txn_id: "Optional[int]" = None,
        commit_mode: bool = False,
    ) -> "List[int]":
        locators: "List[int]" = []
        try:
            for payload in payloads:
                nblocks = self.device.blocks_for(len(payload))
                start = self.freelist.allocate(nblocks)
                locators.append(make_block_locator(start, nblocks))
        except FreelistError:
            # All or nothing: a batch that does not fit takes no space.
            self.free_pages(locators)
            raise
        self.device.write_many(
            (block_range(loc)[0], payload)
            for loc, payload in zip(locators, payloads)
        )
        return locators

    def free_pages(self, locators: "Sequence[int]") -> None:
        for locator in locators:
            start, nblocks = block_range(locator)
            self.freelist.free(start, nblocks)
            self.device.discard(start)

    def stored_bytes(self) -> int:
        return self.device.stored_bytes()


class CloudDbspace(PageStore):
    """A cloud dbspace: pages are immutable objects named by fresh keys.

    With ``page_checksums``, every page image is framed with a CRC-32C
    trailer header (:mod:`repro.checksum`) before it enters the I/O path,
    and verified when it leaves it.  The trailer travels with the page
    through every path — OCM SSD cache, replication — so damage is caught
    at unseal even where the store's own checksum records are out of reach.
    """

    def __init__(
        self,
        name: str,
        io: ObjectIO,
        key_source: KeySource,
        prefix_bits: int = 16,
        page_size_limit: "Optional[int]" = None,
        page_checksums: bool = False,
    ) -> None:
        super().__init__(name, page_size_limit)
        self.io = io
        self.clock = io.clock
        self.key_source = key_source
        self.prefix_bits = prefix_bits
        self.page_checksums = page_checksums

    @property
    def is_cloud(self) -> bool:
        return True

    def _seal(self, payload: bytes) -> bytes:
        return seal_page(payload) if self.page_checksums else payload

    def _open(self, payload: bytes) -> bytes:
        return open_page(payload) if self.page_checksums else payload

    def object_name(self, locator: int) -> str:
        if not is_object_key(locator):
            raise DbspaceError(
                f"cloud dbspace {self.name!r} got a block locator {locator:#x}"
            )
        return hashed_object_name(locator, self.prefix_bits)

    def read_pages_at(self, locators: "Sequence[int]", now: float,
                      scan_hint: bool = False, wait: "Optional[Wait]" = None,
                      ) -> "Tuple[Dict[int, bytes], float]":
        names = {self.object_name(loc): loc for loc in locators}
        raw, done = self.io.get_many_at(list(names), now, scan_hint, wait)
        pages = {names[name]: self._open(data) for name, data in raw.items()}
        return pages, done

    def write_pages(
        self,
        payloads: "Sequence[bytes]",
        txn_id: "Optional[int]" = None,
        commit_mode: bool = False,
    ) -> "List[int]":
        keys = [self.key_source.next_key() for __ in payloads]
        crash_point(CP_WRITE_PAGE_BEFORE_PUT)
        items = [
            (self.object_name(key), self._seal(payload))
            for key, payload in zip(keys, payloads)
        ]
        self.io.put_many(items, txn_id=txn_id, commit_mode=commit_mode)
        crash_point(CP_WRITE_PAGE_AFTER_PUT)
        return keys

    def free_pages(self, locators: "Sequence[int]") -> None:
        if locators:
            crash_point(CP_FREE_PAGE_BEFORE_DELETE)
        self.io.delete_many([self.object_name(loc) for loc in locators])

    def poll_and_free(self, locator: int) -> bool:
        """GC polling: delete the object if it exists; report whether it did.

        Used when recovering handed-out key ranges — some keys in a polled
        range were never flushed, which is fine (Section 3.3).  The delete
        is issued even when the probe says "not found": under eventual
        consistency a freshly written object may be temporarily invisible,
        and deletes are idempotent (and free) on object stores, so deleting
        blindly guarantees the orphan cannot resurface later.
        """
        name = self.object_name(locator)
        existed = self.io.exists(name)
        crash_point(CP_POLL_BEFORE_DELETE)
        self.io.delete(name)
        return existed

    def stored_bytes(self) -> int:
        return self.io.stored_bytes()

    def flush_for_commit(self, txn_id: int) -> None:
        self.io.flush_for_commit(txn_id)
