"""The Object Cache Manager (OCM, Section 4).

The OCM is a node-local, disk-based extension of the buffer manager sitting
between it and the object store:

- **read-through**: a miss fetches from the object store, returns the data
  to the caller and *asynchronously* caches it on the local SSD;
- **write-back** (churn phase): a page write completes at local-SSD latency
  while the upload to the object store proceeds in the background — but the
  page joins the LRU list only after its upload succeeds, so pages of
  failed/rolled-back transactions never pollute the cache;
- **write-through** (commit phase): the page is synchronously uploaded and
  asynchronously cached;
- **FlushForCommit**: a committing transaction's queued background uploads
  are promoted ahead of other transactions' and drained write-through;
- a pluggable **eviction policy** orders read and write traffic together:
  the default ``lru`` policy is the paper's single LRU list; ``arc2q``
  (see :mod:`repro.core.cache_policy`) adds probationary/protected
  segments with a ghost list and a scan-hint admission rule so one bulk
  scan cannot flush the hot working set and a repeated one keeps a fixed
  share of itself cached.

Asynchronous work is modelled by charging the SSD/NIC pipes at enqueue time
without advancing the shared clock; because the SSD's bandwidth pipe is
FIFO and shared between reads and writes, a burst of asynchronous cache
fills delays subsequent cache-hit reads — reproducing the Q3/Q4 anomaly the
paper reports in Figure 6.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checksum import crc32c
from repro.core.cache_policy import make_policy
from repro.objectstore.client import RetryingObjectClient
from repro.objectstore.errors import CircuitOpenError, DegradedCacheMissError
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.sim.devices import DeviceProfile, QueueingDevice
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import NULL_TRACER
from repro.storage.dbspace import ObjectIO, Wait
from repro.storage.keys import group_adjacent

CP_WRITE_THROUGH_BEFORE_PUT = register_crash_point(
    "ocm.write_through.before_put",
    "commit-mode write reached the OCM but the upload never started",
)
CP_WRITE_THROUGH_AFTER_PUT = register_crash_point(
    "ocm.write_through.after_put",
    "commit-mode upload landed on the store, local fill/LRU state lost",
)
CP_FLUSH_BEFORE_UPLOAD = register_crash_point(
    "ocm.flush.before_upload",
    "FlushForCommit was about to upload a batch of queued write-backs; "
    "every page in it (and in all later batches) exists only on the dead "
    "node's SSD",
)
CP_FLUSH_AFTER_UPLOAD = register_crash_point(
    "ocm.flush.after_upload",
    "a FlushForCommit batch landed on the store but the node died before "
    "the commit record — its objects are unreferenced until recovery",
)


@dataclass(frozen=True)
class OcmConfig:
    """OCM sizing and behaviour knobs."""

    capacity_bytes: int
    upload_window: int = 16
    read_window: int = 32
    # Eviction policy: "lru" (the paper's single LRU list, default) or
    # "arc2q" (scan-resistant probation/protected segments with ghost
    # lists; see repro.core.cache_policy).
    policy: str = "lru"
    # Ablation knob: insert write-back pages into the LRU immediately
    # instead of after upload success (the paper's rule is False).
    lru_insert_before_upload: bool = False


class _CacheEntry:
    __slots__ = ("name", "data", "uploaded", "in_lru", "crc")

    def __init__(self, name: str, data: bytes, uploaded: bool, in_lru: bool,
                 crc: "Optional[int]" = None) -> None:
        self.name = name
        self.data = data
        self.uploaded = uploaded
        self.in_lru = in_lru
        # CRC-32C recorded at SSD-fill time (verified-reads mode only):
        # cache hits — including degraded-mode hits, which cannot fall
        # back to the fenced-off store — re-verify against it, so the SSD
        # cache is never an integrity blind spot.
        self.crc = crc

    @property
    def size(self) -> int:
        return len(self.data)


class _PendingUpload:
    __slots__ = ("name", "data", "txn_id", "enqueue_time")

    def __init__(self, name: str, data: bytes, txn_id: "Optional[int]",
                 enqueue_time: float) -> None:
        self.name = name
        self.data = data
        self.txn_id = txn_id
        self.enqueue_time = enqueue_time


class ObjectCacheManager(ObjectIO):
    """Node-local SSD read/write cache in front of an object store."""

    def __init__(
        self,
        client: RetryingObjectClient,
        device_profile: DeviceProfile,
        config: OcmConfig,
        rng: "Optional[DeterministicRng]" = None,
    ) -> None:
        if config.capacity_bytes <= 0:
            raise ValueError("OCM capacity must be positive")
        self.client = client
        self.config = config
        self.clock = client.clock
        self.device = QueueingDevice(
            device_profile,
            self.clock,
            rng or DeterministicRng(0, "ocm-device"),
        )
        self.metrics = MetricsRegistry()
        self.tracer = NULL_TRACER
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._policy = make_policy(config.policy, config.capacity_bytes)
        self._used = 0
        # Bytes of the entries eviction may take (see ``_evictable``): at
        # zero, an insert into a full cache has nothing to walk for.
        self._evictable_bytes = 0
        # Mirror the client's verified-reads knob: fills record a CRC and
        # cache hits re-verify (the client already verified the fetch).
        self._verify = bool(getattr(client, "verify_reads", False))
        self._pending: "Dict[int, List[_PendingUpload]]" = {}
        self._anonymous_pending: "List[_PendingUpload]" = []
        self._upload_inflight: "List[float]" = []
        self._was_degraded = False

    # ------------------------------------------------------------------ #
    # degraded mode (client circuit breaker open)
    # ------------------------------------------------------------------ #

    def degraded(self) -> bool:
        """Whether the OCM is currently serving in degraded mode.

        While the client's circuit breaker is open the OCM serves reads
        from the SSD cache, keeps queuing write-backs locally, and drains
        the backlog when the breaker closes.  Write-through-at-commit
        stays enforced throughout: commit uploads bypass the breaker's
        fail-fast and ride the retry policy through the outage.
        """
        return (
            self.client.breaker is not None
            and self.client.breaker_state() == "open"
        )

    def _track_degradation(self) -> None:
        """Note breaker transitions; drain the backlog on recovery.

        Called on every public operation.  When the breaker closes after a
        degraded period, queued *anonymous* write-backs are drained in the
        background (transaction-scoped queues keep waiting for their
        commit's FlushForCommit, as always).
        """
        if self.degraded():
            self._was_degraded = True
            self.metrics.gauge("degraded_queue_depth").set(
                self.pending_upload_count()
            )
            return
        if not self._was_degraded:
            return
        self._was_degraded = False
        jobs, self._anonymous_pending = self._anonymous_pending, []
        for job in jobs:
            self._schedule_batch([job])
            self._mark_uploaded([job])
        if jobs:
            self.metrics.counter("degraded_drained_uploads").increment(len(jobs))
        self.metrics.counter("degraded_recoveries").increment()
        self.metrics.gauge("degraded_queue_depth").set(
            self.pending_upload_count()
        )

    # ------------------------------------------------------------------ #
    # cache bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def used_bytes(self) -> int:
        return self._used

    def cached(self, name: str) -> bool:
        return name in self._entries

    def entry_count(self) -> int:
        return len(self._entries)

    def pending_upload_count(self) -> int:
        return sum(len(jobs) for jobs in self._pending.values()) + len(
            self._anonymous_pending
        )

    def _evictable(self, entry: _CacheEntry) -> bool:
        """Whether :meth:`_evict_if_needed` may take the entry."""
        return entry.in_lru and (entry.uploaded
                                 or self.config.lru_insert_before_upload)

    def _insert(self, name: str, data: bytes, uploaded: bool, in_lru: bool,
                scan_hint: bool = False) -> None:
        old = self._entries.pop(name, None)
        if old is not None:
            self._used -= old.size
            if self._evictable(old):
                self._evictable_bytes -= old.size
        payload = bytes(data)
        crc = crc32c(payload) if self._verify else None
        entry = _CacheEntry(name, payload, uploaded, in_lru, crc=crc)
        self._entries[name] = entry
        self._used += entry.size
        if self._evictable(entry):
            self._evictable_bytes += entry.size
        self._policy.on_insert(name, entry.size, scan_hint)
        self._evict_if_needed()

    def _verified_entry(self, name: str) -> "Optional[_CacheEntry]":
        """The cached entry — dropped (and reported) if its bytes no longer
        match their fill-time CRC, so the caller falls through to a miss."""
        entry = self._entries.get(name)
        if (entry is None or entry.crc is None
                or crc32c(entry.data) == entry.crc):
            return entry
        self.metrics.counter("cache_verify_failures").increment()
        self.tracer.record("verify", "cache_checksum_mismatch",
                           self.clock.now(), self.clock.now(), key=name)
        self._remove(name)
        return None

    def _remove(self, name: str, evicted: bool = False) -> "Optional[_CacheEntry]":
        entry = self._entries.pop(name, None)
        if entry is not None:
            self._used -= entry.size
            if self._evictable(entry):
                self._evictable_bytes -= entry.size
            self._policy.on_remove(name, evicted)
        return entry

    def _evict_if_needed(self) -> None:
        """Policy-ordered eviction; only uploaded, listed entries are victims.

        The policy supplies the victim *order*; eviction *eligibility*
        stays here.  Under the ``lru_insert_before_upload`` ablation,
        not-yet-uploaded listed residents are also eligible, but evicting
        one forces its upload synchronously first (the data must not be
        lost) — the cost the paper's insert-after-upload rule avoids
        paying for pages of doomed transactions.  While every entry is a
        pending write-back, nothing is eligible and the walk is skipped.
        """
        if (self._used <= self.config.capacity_bytes
                or not self._evictable_bytes):
            return
        victims: List[str] = []
        projected = self._used
        order = self._policy.eviction_order()
        if self.config.lru_insert_before_upload:
            # A forced upload waits, and under sessions another session
            # may reorder the policy meanwhile: walk a snapshot.
            order = list(order)
        for name in order:
            if projected <= self.config.capacity_bytes:
                break
            entry = self._entries.get(name)
            if entry is None:
                continue
            if entry.in_lru and entry.uploaded:
                victims.append(name)
                projected -= entry.size
            elif (entry.in_lru and self.config.lru_insert_before_upload
                  and self._force_upload(name)):
                victims.append(name)
                projected -= entry.size
        for name in victims:
            # Under sessions a forced upload's wait can let another
            # session evict the same victim first.
            if self._remove(name, evicted=True) is not None:
                self.metrics.counter("evictions").increment()

    def _force_upload(self, name: str) -> bool:
        """Synchronously upload a pending write-back entry (ablation path).

        False when the job is no longer queued: another session dequeued it
        and is still waiting for its PUT, so the entry is not in the store
        yet and stays resident until that session evicts it.
        """
        for jobs in list(self._pending.values()) + [self._anonymous_pending]:
            for job in jobs:
                if job.name == name:
                    # Dequeue before waiting: under sessions the wait
                    # yields, and a second eviction finding the job still
                    # queued would PUT the same key again.
                    jobs.remove(job)
                    done = self._schedule_batch([job])
                    self.clock.advance_to(max(self.clock.now(), done))
                    entry = self._entries.get(name)
                    if entry is not None:
                        entry.uploaded = True
                    self.metrics.counter("forced_uploads").increment()
                    return True
        return False

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get_many_at(self, names: "Sequence[str]", now: float,
                    scan_hint: bool = False, wait: "Optional[Wait]" = None,
                    ) -> "Tuple[Dict[str, bytes], float]":
        """The one read: SSD hits and object-store misses overlap from ``now``.

        Hits charge the SSD and are touched at issue.  A blocking reader
        (``wait`` = ``clock.advance_to``) sits out the fetch of its misses
        and *then* fills the SSD and lists the entries; a pipelined one
        (``wait=None``) cannot wait: it charges the fills at the fetch's
        completion, lists the entries at once (the simulation's usual
        convention for asynchronously arriving state) and never moves the
        shared clock.  Filling early when blocking is wrong under sessions:
        the SSD pipe is FIFO in call order, so a fill charged at a future
        time delays other sessions' earlier reads, and an early insert
        turns their misses into hits.
        """
        self._track_degradation()
        degraded = self.degraded()
        count = len(names)
        span = self.tracer.begin("get_many", "ocm", start=now, count=count)
        results: Dict[str, bytes] = {}
        misses: List[str] = []
        missed = 0
        done = now
        span_end: "Optional[float]" = now  # a failed read's span is empty
        try:
            for name in names:
                entry = self._verified_entry(name)
                if entry is None:
                    misses.append(name)
                    continue
                # Cache hit: read from the local SSD.  The shared bandwidth
                # pipe means queued asynchronous fills delay this read.
                read_done = self.device.read(entry.size, now)
                self.tracer.record("read", "ssd", now, read_done,
                                   key=name, nbytes=entry.size)
                if read_done > done:
                    done = read_done
                if degraded:
                    self.metrics.counter("degraded_reads").increment()
                self._policy.on_access(name, scan_hint)
                self.metrics.counter("hits").increment()
                results[name] = entry.data
            missed = len(misses)
            if missed:
                self.metrics.counter("misses").increment(missed)
                try:
                    if missed == 1:  # one request needs no window
                        data, fetch_done = self.client.get_at(misses[0], now)
                        fetched = {misses[0]: data}
                    else:
                        fetched, fetch_done = self.client.get_many_at(
                            misses, now, window=self.config.read_window)
                except CircuitOpenError as exc:
                    if not degraded:
                        raise
                    self.metrics.counter("degraded_miss_failures").increment(
                        missed)
                    raise DegradedCacheMissError(misses[0],
                                                 exc.retry_at) from exc
                if fetch_done > done:
                    done = fetch_done
                if wait is not None:
                    fetch_done = wait(fetch_done)
                # Read-through: return to the caller, cache asynchronously.
                self._fill(misses, fetched, fetch_done, scan_hint)
                for name in misses:
                    results[name] = fetched[name]
            # A fill may itself have waited (lru_insert_before_upload
            # forces an upload to evict): never wait for the past.
            if wait is not None and done > self.clock.now():
                wait(done)
            span_end = done if wait is None else None  # None: clock.now()
            return results, done
        finally:
            self.tracer.finish(span, end=span_end, hits=count - missed,
                               misses=missed)

    def _fill(self, names: "Sequence[str]", fetched: "Dict[str, bytes]",
              when: float, scan_hint: bool = False) -> float:
        """Charge asynchronous SSD fills of fetched objects at ``when`` and
        list them; returns the last fill's completion for a caller who waits."""
        last = when
        for name in names:
            data = fetched[name]
            fill_done = self.device.write(len(data), when)
            self.tracer.record("fill", "ssd", when, fill_done,
                               key=name, nbytes=len(data))
            self._insert(name, data, uploaded=True, in_lru=True,
                         scan_hint=scan_hint)
            if fill_done > last:
                last = fill_done
        return last

    # ------------------------------------------------------------------ #
    # pre-warm export / bulk admission (autoscale scale-out)
    # ------------------------------------------------------------------ #

    def warm_set(self, max_bytes: "Optional[int]" = None,
                 max_entries: "Optional[int]" = None) -> "List[str]":
        """Hottest-first resident entry names, for pre-warming a peer OCM.

        The eviction policy's victim order is coldest-first; reversing
        it yields the warm set.  Only uploaded, policy-listed entries
        qualify — pending write-backs are transaction state, not cache
        heat — so every returned name is fetchable from the shared
        store.  ``max_bytes`` clamps the budget as a hottest prefix (the
        first entry always fits, so a tiny budget still warms something).
        """
        names: "List[str]" = []
        total = 0
        for name in reversed(list(self._policy.eviction_order())):
            entry = self._entries.get(name)
            if entry is None or not (entry.in_lru and entry.uploaded):
                continue
            if max_bytes is not None and names and total + entry.size > max_bytes:
                break
            names.append(name)
            total += entry.size
            if max_entries is not None and len(names) >= max_entries:
                break
            if max_bytes is not None and total >= max_bytes:
                break
        return names

    def bulk_admit(self, names: "Sequence[str]") -> int:
        """Fetch-and-cache a batch of objects (scale-out pre-warm).

        Misses ride the client's coalescing ``get_many`` — adjacent keys
        collapse into ranged GETs — and fill the SSD like ordinary
        read-through.  The caller waits for the fills: a pre-warm that
        overlapped admission would hand the first queries a saturated
        SSD queue instead of a warm cache.  Returns entries admitted.
        """
        self._track_degradation()
        todo = [name for name in names if name not in self._entries]
        if not todo:
            return 0
        with self.tracer.span("bulk_admit", "ocm", count=len(todo)):
            fetched = self.client.get_many(todo, window=self.config.read_window)
            done = self._fill(todo, fetched, self.clock.now())
            # A fill may itself have waited (lru_insert_before_upload
            # forces an upload to evict): never wait for the past.
            if done > self.clock.now():
                self.clock.advance_to(done)
        admitted_bytes = sum(len(fetched[name]) for name in todo)
        self.metrics.counter("prewarm_admitted").increment(len(todo))
        self.metrics.counter("prewarm_bytes").increment(admitted_bytes)
        return len(todo)

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _put_write_back(self, name: str, data: bytes,
                        txn_id: "Optional[int]") -> None:
        """Synchronous local write, upload queued in the background."""
        start = self.clock.now()
        done = self.device.write(len(data), start)
        self.tracer.record("write", "ssd", start, done,
                           key=name, nbytes=len(data))
        self.clock.advance_to(done)
        in_lru = self.config.lru_insert_before_upload
        self._insert(name, data, uploaded=False, in_lru=in_lru)
        job = _PendingUpload(name, bytes(data), txn_id, self.clock.now())
        if txn_id is None:
            self._anonymous_pending.append(job)
        else:
            self._pending.setdefault(txn_id, []).append(job)
        self.metrics.counter("write_back").increment()
        if self.degraded():
            self.metrics.counter("degraded_queued_writes").increment()
            self.metrics.gauge("degraded_queue_depth").set(
                self.pending_upload_count()
            )

    def put_many(self, items: "Sequence[Tuple[str, bytes]]",
                 txn_id: "Optional[int]" = None,
                 commit_mode: bool = False) -> None:
        """The one write: write-back during churn, write-through at commit.

        Write-through uploads the batch synchronously through the upload
        window, then fills the SSD asynchronously.  It is commit-critical,
        so it bypasses the circuit breaker's fail-fast (the retry policy,
        not the breaker, decides when to give up).
        """
        self._track_degradation()
        with self.tracer.span(
            "put_many", "ocm", count=len(items),
            mode="write_through" if commit_mode else "write_back",
        ):
            if not commit_mode:
                for name, data in items:
                    self._put_write_back(name, data, txn_id)
                return
            crash_point(CP_WRITE_THROUGH_BEFORE_PUT)
            self.client.put_many(items, window=self.config.upload_window,
                                 bypass_breaker=True)
            crash_point(CP_WRITE_THROUGH_AFTER_PUT)
            fill_time = self.clock.now()
            for name, data in items:
                fill_done = self.device.write(len(data), fill_time)
                self.tracer.record("fill", "ssd", fill_time, fill_done,
                                   key=name, nbytes=len(data))
                self._insert(name, data, uploaded=True, in_lru=True)
                self.metrics.counter("write_through").increment()

    # ------------------------------------------------------------------ #
    # FlushForCommit and rollback
    # ------------------------------------------------------------------ #

    def _acquire_upload_slot(self, start: float) -> float:
        """Wait (in virtual time) for a slot of the fixed upload window.

        The heap holds the completion times of the uploads in flight and
        never grows past the window, so a full window frees its slot by
        retiring the earliest completion.
        """
        if len(self._upload_inflight) >= self.config.upload_window:
            start = max(start, heapq.heappop(self._upload_inflight))
        return start

    def _schedule_batch(self, batch: "List[_PendingUpload]") -> float:
        """Upload one batch through one slot of the upload window.

        A batch of one is a plain PUT; an adjacent-key run becomes one
        ranged multi-put billed as a single request.  Either way it
        occupies one slot, so the window bounds *requests* in flight,
        coalesced or not.
        """
        start = max(max(job.enqueue_time for job in batch), self.clock.now())
        start = self._acquire_upload_slot(start)
        # Queued write-backs drain on the commit/recovery path, where the
        # data must reach the store: bypass the breaker's fail-fast.
        done = self.client.put_many_at(
            [(job.name, job.data) for job in batch], start,
            bypass_breaker=True,
        )
        heapq.heappush(self._upload_inflight, done)
        if len(batch) > 1:
            self.metrics.counter("batched_flush_uploads").increment(len(batch))
        return done

    def _mark_uploaded(self, batch: "List[_PendingUpload]") -> None:
        """Insert-after-upload: the pages may now join the eviction list."""
        for job in batch:
            entry = self._entries.get(job.name)
            if entry is not None:
                if not self._evictable(entry):
                    self._evictable_bytes += entry.size
                entry.uploaded = True
                entry.in_lru = True

    def flush_for_commit(self, txn_id: int) -> None:
        """Promote and drain the transaction's queued uploads (Section 4).

        The committing transaction's jobs jump ahead of other transactions'
        still-unscheduled background work; the commit waits for them.  The
        queue goes out as adjacent-key batches of up to the client's
        ``max_run`` (fresh page keys are allocated monotonically, so the
        queue is dominated by adjacency runs); at ``max_run=1`` every job
        is a batch of one, in queue order.
        """
        self._track_degradation()
        jobs = self._pending.pop(txn_id, [])
        with self.tracer.span("flush_for_commit", "ocm",
                              txn_id=txn_id, jobs=len(jobs)):
            last = self.clock.now()
            for batch in group_adjacent(jobs, self.client.max_run,
                                        name=lambda job: job.name):
                crash_point(CP_FLUSH_BEFORE_UPLOAD)
                last = max(last, self._schedule_batch(batch))
                self._mark_uploaded(batch)
                crash_point(CP_FLUSH_AFTER_UPLOAD)
            self.clock.advance_to(last)
            if jobs:
                self.metrics.counter("flush_for_commit_jobs").increment(
                    len(jobs)
                )
            self._evict_if_needed()

    def discard_txn(self, txn_id: int) -> int:
        """Drop a rolled-back transaction's pending uploads and entries."""
        jobs = self._pending.pop(txn_id, [])
        for job in jobs:
            entry = self._entries.get(job.name)
            if entry is not None and not entry.uploaded:
                self._remove(job.name)
        self.metrics.counter("discarded_uploads").increment(len(jobs))
        return len(jobs)

    def drain_all(self) -> None:
        """Flush every pending upload (shutdown path, tests)."""
        with self.tracer.span("drain_all", "ocm"):
            for txn_id in list(self._pending):
                self.flush_for_commit(txn_id)
            jobs, self._anonymous_pending = self._anonymous_pending, []
            last = self.clock.now()
            for job in jobs:
                last = max(last, self._schedule_batch([job]))
                self._mark_uploaded([job])
            self.clock.advance_to(last)

    # ------------------------------------------------------------------ #
    # deletes / probes / billing
    # ------------------------------------------------------------------ #

    def _cancel_pending(self, names: "Sequence[str]") -> int:
        """Drop queued uploads for deleted objects.

        Without this, a delete leaves the object's ``_PendingUpload`` in
        the queues and the next ``flush_for_commit``/``drain_all``/
        degraded-recovery drain re-uploads it — resurrecting a deleted
        object on the store.
        """
        doomed = set(names)
        cancelled = 0
        for txn_id in list(self._pending):
            jobs = self._pending[txn_id]
            kept = [job for job in jobs if job.name not in doomed]
            cancelled += len(jobs) - len(kept)
            if kept:
                self._pending[txn_id] = kept
            else:
                del self._pending[txn_id]
        kept = [
            job for job in self._anonymous_pending if job.name not in doomed
        ]
        cancelled += len(self._anonymous_pending) - len(kept)
        self._anonymous_pending = kept
        if cancelled:
            self.metrics.counter("cancelled_uploads").increment(cancelled)
        return cancelled

    def delete_many(self, names: "Sequence[str]") -> None:
        for name in names:
            self._remove(name)
        self._cancel_pending(names)
        self.client.delete_many(names)

    def exists(self, name: str) -> bool:
        # GC polling must consult the store, not this node's cache.
        return self.client.exists(name)

    def stored_bytes(self) -> int:
        return self.client.store.stored_bytes()

    def invalidate_all(self) -> None:
        """Drop the whole cache (node crash: instance storage is ephemeral).

        The upload-window heap goes too: its entries are completion times
        of uploads from before the crash, and keeping them would throttle
        the restarted node's first ``upload_window`` uploads against work
        that no longer exists.
        """
        self._entries.clear()
        self._policy.clear()
        self._pending.clear()
        self._anonymous_pending.clear()
        self._upload_inflight.clear()
        self._used = 0
        self._evictable_bytes = 0
        self._was_degraded = False
        self.metrics.gauge("degraded_queue_depth").set(0.0)

    def stats(self) -> "Dict[str, float]":
        """Hit/miss/eviction counters (Table 5), plus policy counters."""
        snapshot = self.metrics.snapshot()
        snapshot.setdefault("hits", 0.0)
        snapshot.setdefault("misses", 0.0)
        snapshot.setdefault("evictions", 0.0)
        for key, value in self._policy.stats().items():
            snapshot[f"policy_{key}"] = value
        return snapshot
