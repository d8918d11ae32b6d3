"""The buffer manager (Section 3.1).

Pages are born in the buffer cache, dirtied in RAM, and flushed to
permanent storage on eviction (cache pressure) or at commit.  A flush
*always* writes to a fresh locator: a fresh object key on cloud dbspaces
(never-write-twice), a freshly allocated run on conventional ones.

Each flush feeds the owning transaction's GC sink: freshly allocated
locators go to the RB bitmap, superseded committed locators go to the RF
bitmap, and locators superseded within the same transaction become
immediately reclaimable local garbage.

Frames are keyed by ``(object_id, page_no, tag)``: committed versions use
the version number as tag (shared by all readers of that version), writer
transactions use a per-transaction tag so MVCC versions coexist in cache.
Eviction is LRU by bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.metrics import MetricsRegistry
from repro.sim.tracing import NULL_TRACER
from repro.storage.blockmap import Blockmap
from repro.storage.compression import ZlibCodec
from repro.storage.dbspace import PageStore, Wait
from repro.storage.locator import NULL_LOCATOR
from repro.storage.page import PageConfig


class BufferError(Exception):
    """Buffer manager misuse (oversized pages, read-only writes...)."""


FrameTag = Union[int, Tuple[str, int]]  # version number or ("w", txn_id)


class ObjectHandle:
    """A transaction's view of one version of one storage object.

    Read handles wrap the committed blockmap of the snapshot version;
    write handles wrap a copy-on-write fork that accumulates this
    transaction's mappings.
    """

    def __init__(
        self,
        object_id: int,
        name: str,
        dbspace: PageStore,
        blockmap: Blockmap,
        version: int,
        page_count: int,
        writable: bool,
        txn: "Optional[object]" = None,
    ) -> None:
        self.object_id = object_id
        self.name = name
        self.dbspace = dbspace
        self.blockmap = blockmap
        self.version = version
        self.page_count = page_count
        self.writable = writable
        self.txn = txn

    def frame_tag(self) -> FrameTag:
        if self.writable:
            assert self.txn is not None
            return ("w", self.txn.txn_id)  # type: ignore[attr-defined]
        return self.version

    def __repr__(self) -> str:
        mode = "rw" if self.writable else "ro"
        return f"ObjectHandle({self.name!r} v{self.version} {mode})"


@dataclass
class Frame:
    """One cached page."""

    data: bytes
    locator: int = NULL_LOCATOR
    dirty: bool = False
    fresh: bool = False  # on-storage image written by the owning txn
    handle: "Optional[ObjectHandle]" = None  # set while dirty (flush context)
    page_no: int = -1

    @property
    def size(self) -> int:
        return len(self.data)


class BufferManager:
    """RAM page cache with LRU eviction and dirty-page tracking."""

    def __init__(
        self,
        capacity_bytes: int,
        page_config: "Optional[PageConfig]" = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise BufferError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.page_config = page_config or PageConfig()
        self.codec = ZlibCodec()
        self.metrics = MetricsRegistry()
        self.tracer = NULL_TRACER
        self._frames: "OrderedDict[Tuple[int, int, FrameTag], Frame]" = OrderedDict()
        self._used_bytes = 0
        # txn_id -> ordered set of dirty frame keys (flush order at commit)
        self._txn_dirty: "Dict[int, OrderedDict[Tuple[int, int, FrameTag], None]]" = {}
        # txn_id -> its working frames, in the same relative (LRU) order as
        # in ``_frames``, so commit and rollback never scan the pool.
        self._txn_frames: "Dict[int, OrderedDict[Tuple[int, int, FrameTag], Frame]]" = {}

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def frame_count(self) -> int:
        return len(self._frames)

    def _touch(self, key: "Tuple[int, int, FrameTag]") -> None:
        self._frames.move_to_end(key)
        if isinstance(key[2], tuple):
            self._txn_frames[key[2][1]].move_to_end(key)

    def _insert(self, key: "Tuple[int, int, FrameTag]", frame: Frame) -> None:
        existing = self._frames.pop(key, None)
        if existing is not None:
            self._used_bytes -= existing.size
        self._frames[key] = frame
        self._used_bytes += frame.size
        if isinstance(key[2], tuple):
            index = self._txn_frames.setdefault(key[2][1], OrderedDict())
            index[key] = frame
            index.move_to_end(key)
        self._evict_if_needed()

    def _remove(self, key: "Tuple[int, int, FrameTag]") -> "Optional[Frame]":
        frame = self._frames.pop(key, None)
        if frame is not None:
            self._used_bytes -= frame.size
            if isinstance(key[2], tuple):
                index = self._txn_frames[key[2][1]]
                del index[key]
                if not index:
                    del self._txn_frames[key[2][1]]
        return frame

    def _evict_if_needed(self) -> None:
        """Evict LRU frames until under capacity, batching dirty flushes.

        Dirty victims are flushed in parallel batches (write-back through
        the OCM on cloud dbspaces), modelling IQ's background sweeper.
        """
        if self._used_bytes <= self.capacity_bytes:
            return
        victims: List[Tuple[Tuple[int, int, FrameTag], Frame]] = []
        projected = self._used_bytes
        for key, frame in self._frames.items():
            if projected <= self.capacity_bytes or len(self._frames) - len(victims) <= 1:
                break
            victims.append((key, frame))
            projected -= frame.size
        dirty = [(key, frame) for key, frame in victims if frame.dirty]
        if dirty:
            self._flush_frames(dirty, commit_mode=False)
        for key, __ in victims:
            self._remove(key)
            self.metrics.counter("evictions").increment()

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #

    def _lookup_keys(self, handle: ObjectHandle, page_no: int):
        """Frame keys to probe, most-specific first."""
        keys = []
        if handle.writable:
            keys.append((handle.object_id, page_no, handle.frame_tag()))
        keys.append((handle.object_id, page_no, handle.version))
        return keys

    def get_page(self, handle: ObjectHandle, page_no: int) -> bytes:
        """Return the page's logical (decompressed) image."""
        for key in self._lookup_keys(handle, page_no):
            frame = self._frames.get(key)
            if frame is not None:
                self._touch(key)
                self.metrics.counter("hits").increment()
                return frame.data
        self.metrics.counter("misses").increment()
        # RAM hits take zero virtual time and are not traced; misses do
        # real I/O and get a span.
        with self.tracer.span("read_miss", "buffer",
                              object=handle.name, page_no=page_no):
            locator = handle.blockmap.lookup(page_no)
            if locator == NULL_LOCATOR:
                raise BufferError(
                    f"object {handle.name!r} v{handle.version} has no page "
                    f"{page_no}"
                )
            clock = handle.dbspace.clock
            self._read_missing([(handle, (page_no,), (locator,))],
                               clock.now(), False, clock.advance_to)
            return self._frames[
                (handle.object_id, page_no, handle.version)].data

    def _plan(self, requests: "Iterable[Tuple[ObjectHandle, Iterable[int]]]"):
        """``(handle, page_nos, locators)`` per object with unframed pages."""
        plans = []
        for handle, page_nos in requests:
            missing, locators = [], []
            for page_no in page_nos:
                if any(key in self._frames for key in self._lookup_keys(handle, page_no)):
                    continue
                locator = handle.blockmap.lookup(page_no)
                if locator != NULL_LOCATOR:
                    missing.append(page_no)
                    locators.append(locator)
            if missing:
                plans.append((handle, missing, locators))
        return plans

    def _read_missing(self, plans, now: float, scan_hint: bool,
                      wait: "Optional[Wait]") -> float:
        """The one miss routine: read, decompress and frame planned pages.

        All planned objects' pages go out together, ONE timed read per
        dbspace from ``now`` — so a scan batch covering several column
        objects reaches the object client as a single key list, where
        adjacent keys (columns loaded side by side) coalesce into ranged
        multi-gets.  ``wait`` is the blocking reader's wait, ``None`` for
        a pipelined one (see :meth:`PageStore.read_pages_at`).
        """
        by_space: "Dict[PageStore, List[int]]" = {}
        for handle, __, locators in plans:
            by_space.setdefault(handle.dbspace, []).extend(locators)
        done = now
        payloads: "Dict[PageStore, Dict[int, bytes]]" = {}
        for dbspace, locators in by_space.items():
            payloads[dbspace], space_done = dbspace.read_pages_at(
                locators, now, scan_hint, wait)
            done = max(done, space_done)
        for handle, page_nos, locators in plans:
            pages = payloads[handle.dbspace]
            for page_no, locator in zip(page_nos, locators):
                data = self.codec.decompress(pages[locator])
                frame = Frame(data=data, locator=locator, page_no=page_no)
                self._insert((handle.object_id, page_no, handle.version),
                             frame)
        return done

    def prefetch_at(self, requests, now: float, scan_hint: bool = False,
                    wait: "Optional[Wait]" = None) -> float:
        """The one prefetch: read the unframed pages of ``requests``
        (``(handle, page_nos)`` pairs) as one batch; return its completion.

        Planning may read a cold blockmap node, a blocking read, so the
        data reads issue at ``max(now, clock)``, once their locators are
        known.  ``wait`` is as in :meth:`PageStore.read_pages_at`: with
        ``None`` (pipelined) the clock stands still and the caller waits
        for the completion after decoding the previous batch; the span
        still ends there, overlapping the caller's decode spans.
        """
        plans = self._plan(requests)
        if not plans:
            return now
        start = max(now, plans[0][0].dbspace.clock.now())
        total = sum(len(missing) for __, missing, __ in plans)
        span = self.tracer.begin("prefetch", "buffer", start=start,
                                 objects=len(plans), pages=total)
        done = None
        try:
            done = self._read_missing(plans, start, scan_hint, wait)
        finally:  # a blocking prefetch's span ends at clock.now()
            self.tracer.finish(span, end=done if wait is None else None)
        self.metrics.counter("prefetched").increment(total)
        if wait is None:
            self.metrics.counter("pipelined_prefetches").increment(total)
        return done

    def prefetch(self, handle: ObjectHandle, page_nos: "Iterable[int]",
                 scan_hint: bool = False) -> None:
        """Bring missing pages into cache and wait for them."""
        clock = handle.dbspace.clock
        self.prefetch_at([(handle, page_nos)], clock.now(), scan_hint,
                         clock.advance_to)

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #

    def write_page(self, handle: ObjectHandle, page_no: int, data: bytes) -> None:
        """Install a dirty page image for the handle's transaction."""
        if not handle.writable:
            raise BufferError(f"handle {handle!r} is read-only")
        limit = handle.dbspace.page_size_limit or self.page_config.page_size
        if len(data) > limit:
            raise BufferError(
                f"page image of {len(data)} bytes exceeds page size "
                f"{limit} of dbspace {handle.dbspace.name!r}"
            )
        txn = handle.txn
        assert txn is not None
        key = (handle.object_id, page_no, handle.frame_tag())
        frame = self._frames.get(key)
        if frame is None:
            # Base the frame on the committed image's locator so a flush
            # correctly supersedes it.
            base_locator = handle.blockmap.lookup(page_no)
            frame = Frame(data=bytes(data), locator=base_locator,
                          page_no=page_no)
            frame.dirty = True
            frame.handle = handle
            self._txn_dirty.setdefault(txn.txn_id, OrderedDict())[key] = None  # type: ignore[attr-defined]
            self._insert(key, frame)
        else:
            self._used_bytes += len(data) - frame.size
            frame.data = bytes(data)
            if not frame.dirty:
                frame.dirty = True
                frame.handle = handle
                self._txn_dirty.setdefault(txn.txn_id, OrderedDict())[key] = None  # type: ignore[attr-defined]
            self._touch(key)
            self._evict_if_needed()
        handle.page_count = max(handle.page_count, page_no + 1)

    def _flush_frames(
        self,
        entries: "List[Tuple[Tuple[int, int, FrameTag], Frame]]",
        commit_mode: bool,
    ) -> None:
        """Write dirty frames to their dbspaces with parallel I/O.

        Frames are grouped per dbspace and written through the dbspace's
        windowed-parallel write path; each flush feeds the owning
        transaction's GC sink and updates its working blockmap.
        """
        span = self.tracer.begin("flush", "buffer",
                                 pages=len(entries), commit=commit_mode)
        try:
            self._flush_frames_inner(entries, commit_mode)
        finally:
            self.tracer.finish(span)

    def _flush_frames_inner(
        self,
        entries: "List[Tuple[Tuple[int, int, FrameTag], Frame]]",
        commit_mode: bool,
    ) -> None:
        groups: "Dict[Tuple[int, int], List[Tuple[Tuple[int, int, FrameTag], Frame]]]" = {}
        stores: "Dict[Tuple[int, int], PageStore]" = {}
        for key, frame in entries:
            handle = frame.handle
            assert handle is not None and handle.txn is not None
            group_key = (id(handle.dbspace), handle.txn.txn_id)  # type: ignore[attr-defined]
            groups.setdefault(group_key, []).append((key, frame))
            stores[group_key] = handle.dbspace
        for group_key, group in groups.items():
            dbspace = stores[group_key]
            payloads = [self.codec.compress(frame.data) for __, frame in group]
            locators = dbspace.write_pages(
                payloads,
                txn_id=group_key[1],
                commit_mode=commit_mode,
            )
            for (key, frame), new_locator in zip(group, locators):
                handle = frame.handle
                assert handle is not None and handle.txn is not None
                frame_txn = handle.txn
                sink = frame_txn.sink_for(handle.dbspace.name)  # type: ignore[attr-defined]
                old_locator = frame.locator
                was_fresh = frame.fresh
                sink.on_allocate(new_locator)
                if old_locator != NULL_LOCATOR:
                    sink.on_replace(old_locator, fresh=was_fresh)
                handle.blockmap.set(frame.page_no, new_locator)
                frame.locator = new_locator
                frame.fresh = True
                frame.dirty = False
                self.metrics.counter("dirty_flushes").increment()
                dirty_set = self._txn_dirty.get(frame_txn.txn_id)  # type: ignore[attr-defined]
                if dirty_set is not None:
                    dirty_set.pop(key, None)

    def flush_txn(self, txn_id: int, commit_mode: bool = True) -> int:
        """Flush all of a transaction's dirty pages; returns pages flushed."""
        keys = list(self._txn_dirty.get(txn_id, ()))
        entries = []
        for key in keys:
            frame = self._frames.get(key)
            if frame is not None and frame.dirty:
                entries.append((key, frame))
        if entries:
            self._flush_frames(entries, commit_mode=commit_mode)
        self._txn_dirty.pop(txn_id, None)
        return len(entries)

    def promote_txn_frames(self, txn_id: int, versions: "Dict[int, int]") -> None:
        """Re-tag a committed transaction's frames as the new version.

        ``versions`` maps object_id to the newly committed version number so
        readers of that version immediately hit the cache.
        """
        working = list(self._txn_frames.get(txn_id, {}).items())
        for key, frame in working:
            object_id, page_no, __ = key
            self._remove(key)
            if frame.dirty:
                raise BufferError(
                    f"dirty frame survived commit flush: object {object_id} "
                    f"page {page_no}"
                )
            if object_id in versions:
                frame.fresh = False
                frame.handle = None
                self._insert((object_id, page_no, versions[object_id]), frame)

    def drop_txn_frames(self, txn_id: int) -> int:
        """Discard a rolled-back transaction's working frames."""
        victims = list(self._txn_frames.get(txn_id, ()))
        for key in victims:
            self._remove(key)
        self._txn_dirty.pop(txn_id, None)
        return len(victims)

    def invalidate_all(self) -> None:
        """Drop every frame (node crash simulation)."""
        self._frames.clear()
        self._txn_dirty.clear()
        self._txn_frames.clear()
        self._used_bytes = 0

    def stats(self) -> "Dict[str, float]":
        return self.metrics.snapshot()
