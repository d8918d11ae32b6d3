"""Unit tests for the Object Cache Manager (Section 4)."""

import pytest

from repro.blockstore.profiles import nvme_ssd
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.sessions import SessionScheduler


def make_ocm(capacity=1 << 20, **config_overrides):
    clock = VirtualClock()
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0,
                                 latency_jitter=0.0)
    store = SimulatedObjectStore(profile, clock=clock)
    client = RetryingObjectClient(store)
    ocm = ObjectCacheManager(
        client, nvme_ssd(),
        OcmConfig(capacity_bytes=capacity, **config_overrides),
    )
    return ocm, store, clock


def test_read_through_caches_for_next_read():
    ocm, store, __ = make_ocm()
    store.put("a/1", b"payload")
    assert ocm.get("a/1") == b"payload"
    assert ocm.stats()["misses"] == 1
    assert ocm.get("a/1") == b"payload"
    assert ocm.stats()["hits"] == 1


def test_cache_hit_is_faster_than_miss():
    ocm, store, clock = make_ocm()
    store.put("a/1", b"x" * 10_000)
    t0 = clock.now()
    ocm.get("a/1")
    miss_time = clock.now() - t0
    t1 = clock.now()
    ocm.get("a/1")
    hit_time = clock.now() - t1
    assert hit_time < miss_time


def test_write_through_uploads_synchronously():
    ocm, store, __ = make_ocm()
    ocm.put("a/1", b"data", txn_id=1, commit_mode=True)
    assert store.exists("a/1")
    assert ocm.cached("a/1")


def test_write_back_defers_upload():
    ocm, store, __ = make_ocm()
    ocm.put("a/1", b"data", txn_id=1, commit_mode=False)
    assert not store.exists("a/1")  # upload still pending
    assert ocm.pending_upload_count() == 1
    assert ocm.get("a/1") == b"data"  # served from the local cache


def test_write_back_is_faster_than_write_through():
    back, __, back_clock = make_ocm()
    t0 = back_clock.now()
    back.put("a/1", b"x" * 10_000, txn_id=1, commit_mode=False)
    back_time = back_clock.now() - t0

    through, __, through_clock = make_ocm()
    t1 = through_clock.now()
    through.put("a/1", b"x" * 10_000, txn_id=1, commit_mode=True)
    through_time = through_clock.now() - t1
    assert back_time < through_time


def test_flush_for_commit_uploads_pending():
    ocm, store, __ = make_ocm()
    for i in range(5):
        ocm.put(f"a/{i}", b"x", txn_id=7, commit_mode=False)
    ocm.flush_for_commit(7)
    assert ocm.pending_upload_count() == 0
    for i in range(5):
        assert store.exists(f"a/{i}")


def test_flush_for_commit_only_touches_own_txn():
    ocm, store, __ = make_ocm()
    ocm.put("a/1", b"x", txn_id=1, commit_mode=False)
    ocm.put("b/2", b"y", txn_id=2, commit_mode=False)
    ocm.flush_for_commit(1)
    assert store.exists("a/1")
    assert not store.exists("b/2")


def test_discard_txn_drops_pending_and_entries():
    """Rolled-back transactions never pollute the cache."""
    ocm, store, __ = make_ocm()
    ocm.put("a/1", b"x", txn_id=3, commit_mode=False)
    dropped = ocm.discard_txn(3)
    assert dropped == 1
    assert not ocm.cached("a/1")
    assert not store.exists("a/1")


def test_lru_insert_after_upload_rule():
    """Write-back entries are not evictable until uploaded."""
    ocm, __, __ = make_ocm(capacity=4096)
    ocm.put("a/1", b"x" * 3000, txn_id=1, commit_mode=False)
    # A read-through fill that overflows capacity cannot evict the
    # pending (not yet uploaded) entry — the fill itself is the victim.
    ocm.client.put("b/2", b"y" * 3000)
    ocm.get("b/2")
    assert ocm.cached("a/1")
    assert not ocm.cached("b/2")
    assert ocm.stats()["evictions"] >= 1
    ocm.flush_for_commit(1)
    # Now the entry is in the LRU; the next insert evicts it instead.
    ocm.client.put("c/3", b"z" * 3000)
    ocm.get("c/3")
    assert not ocm.cached("a/1")
    assert ocm.cached("c/3")


def test_forced_upload_is_dequeued_before_its_wait():
    """Two sessions evicting the same un-uploaded entry upload it once,
    and it stays readable from the cache until its PUT has landed.

    Under ``lru_insert_before_upload`` an eviction first forces the
    victim's upload and waits for it; the wait yields to the other
    session, whose own eviction reaches the same victim.  The job must
    already have left the queue, or the key is PUT twice — and the second
    session must leave the entry alone (it is not in the store yet) and
    evict the next one instead.
    """
    ocm, store, clock = make_ocm(capacity=2500, lru_insert_before_upload=True)
    ocm.put("a/1", b"x" * 1000, txn_id=1)
    ocm.put("a/2", b"y" * 1000, txn_id=1)
    seen = {}

    def read_inside_the_upload_window(session):
        session.sleep(0.001)  # a/1's PUT is in flight until ~0.03 s
        seen["data"] = ocm.get("a/1")
        seen["stats"] = ocm.stats()

    scheduler = SessionScheduler(clock)
    scheduler.spawn(lambda s: ocm.put("a/3", b"z" * 700, txn_id=2))
    scheduler.spawn(lambda s: ocm.put("a/4", b"w" * 600, txn_id=3))
    scheduler.spawn(read_inside_the_upload_window)
    scheduler.run()
    assert seen["data"] == b"x" * 1000
    assert seen["stats"]["hits"] == 1 and seen["stats"]["misses"] == 0
    snapshot = store.metrics.snapshot()
    assert snapshot["put_requests"] == 2
    assert "get_requests" not in snapshot  # nobody read ahead of the PUT
    assert ocm.stats()["forced_uploads"] == 2
    assert ocm.stats()["evictions"] == 2
    assert not ocm.cached("a/1") and not ocm.cached("a/2")
    assert store.get("a/1") == b"x" * 1000
    assert store.get("a/2") == b"y" * 1000
    ocm.flush_for_commit(1)  # nothing of txn 1 is left to upload
    assert store.metrics.snapshot()["put_requests"] == 2


def test_bulk_admit_never_waits_for_the_past():
    """A pre-warm whose fills evict an un-uploaded entry waits through the
    forced upload; the fill completion computed before it is then behind
    the clock and must not be waited for."""
    ocm, store, clock = make_ocm(capacity=2500, lru_insert_before_upload=True)
    store.put("b/1", b"p" * 1000)
    store.put("b/2", b"q" * 1000)
    ocm.put("a/1", b"x" * 1000, txn_id=1)
    ocm.put("a/2", b"y" * 1000, txn_id=1)
    assert ocm.bulk_admit(["b/1", "b/2"]) == 2
    assert ocm.stats()["forced_uploads"] == 2
    assert store.get("a/1") == b"x" * 1000
    assert ocm.cached("b/1") and ocm.cached("b/2")


def test_eviction_counts(db=None):
    ocm, store, __ = make_ocm(capacity=10_000)
    for i in range(20):
        store.put(f"k/{i}", b"v" * 1000)
    for i in range(20):
        ocm.get(f"k/{i}")
    assert ocm.used_bytes <= 10_000
    assert ocm.stats()["evictions"] > 0


def test_get_many_mixes_hits_and_misses():
    ocm, store, __ = make_ocm()
    for i in range(10):
        store.put(f"k/{i}", b"%d" % i)
    for i in range(5):
        ocm.get(f"k/{i}")
    result = ocm.get_many([f"k/{i}" for i in range(10)])
    assert len(result) == 10
    stats = ocm.stats()
    assert stats["hits"] == 5       # the pre-warmed half
    assert stats["misses"] == 5 + 5  # initial fills plus the cold half


def test_async_fill_delays_subsequent_hits():
    """Figure 6 mechanism: big async fill burst inflates hit latency."""
    ocm, store, clock = make_ocm(capacity=1 << 30)
    store.put("hot/1", b"h" * 1000)
    ocm.get("hot/1")  # cached
    t0 = clock.now()
    ocm.get("hot/1")
    quiet_hit = clock.now() - t0
    # Saturate the SSD with asynchronous fills.
    big = [(f"cold/{i}", b"c" * 2_000_000) for i in range(20)]
    for name, data in big:
        store.put(name, data)
    ocm.get_many([name for name, __ in big])
    t1 = clock.now()
    ocm.get("hot/1")
    busy_hit = clock.now() - t1
    assert busy_hit > quiet_hit * 5


def test_delete_removes_cache_entry():
    ocm, store, __ = make_ocm()
    ocm.put("a/1", b"x", txn_id=1, commit_mode=True)
    ocm.delete("a/1")
    assert not ocm.cached("a/1")
    assert not store.exists("a/1")


def test_invalidate_all():
    ocm, __, __ = make_ocm()
    ocm.put("a/1", b"x", txn_id=1, commit_mode=True)
    ocm.invalidate_all()
    assert ocm.entry_count() == 0
    assert ocm.used_bytes == 0


def test_hit_rate():
    ocm, store, __ = make_ocm()
    store.put("a/1", b"x")
    ocm.get("a/1")
    ocm.get("a/1")
    ocm.get("a/1")
    stats = ocm.stats()
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    assert hit_rate == pytest.approx(2 / 3)


def test_capacity_validation():
    with pytest.raises(ValueError):
        make_ocm(capacity=0)


class TestDeleteCancelsPendingUploads:
    """Regression: delete must cancel queued write-backs, or a later drain
    re-uploads the object — resurrecting a key the caller already deleted."""

    def test_commit_flush_does_not_resurrect_deleted_object(self):
        ocm, store, __ = make_ocm()
        ocm.put("a/doomed", b"stale", txn_id=7, commit_mode=False)
        ocm.put("a/kept", b"fresh", txn_id=7, commit_mode=False)
        ocm.delete("a/doomed")

        ocm.flush_for_commit(7)
        assert store.latest_data("a/doomed") is None
        assert not store.exists("a/doomed")
        assert store.latest_data("a/kept") == b"fresh"
        assert ocm.metrics.snapshot()["cancelled_uploads"] == 1

    def test_shutdown_drain_does_not_resurrect_deleted_object(self):
        ocm, store, __ = make_ocm()
        ocm.put("a/doomed", b"stale", commit_mode=False)  # anonymous queue
        ocm.delete("a/doomed")
        assert ocm.pending_upload_count() == 0

        ocm.drain_all()
        assert store.latest_data("a/doomed") is None
        assert not store.exists("a/doomed")

    def test_delete_many_cancels_across_transactions(self):
        ocm, store, __ = make_ocm()
        ocm.put("a/1", b"x", txn_id=1, commit_mode=False)
        ocm.put("a/2", b"y", txn_id=2, commit_mode=False)
        ocm.put("a/3", b"z", commit_mode=False)
        ocm.delete_many(["a/1", "a/2", "a/3"])
        assert ocm.pending_upload_count() == 0
        assert ocm.metrics.snapshot()["cancelled_uploads"] == 3

        ocm.drain_all()
        for name in ("a/1", "a/2", "a/3"):
            assert store.latest_data(name) is None

    def test_cancellation_holds_even_if_store_delete_fails(self):
        clock = VirtualClock()
        profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                     transient_failure_probability=1.0,
                                     latency_jitter=0.0)
        from repro.sim.rng import DeterministicRng
        store = SimulatedObjectStore(profile, clock=clock,
                                     rng=DeterministicRng(3))
        from repro.objectstore import RetryPolicy
        client = RetryingObjectClient(
            store, policy=RetryPolicy(max_attempts=2, initial_backoff=0.01,
                                      max_backoff=0.02))
        ocm = ObjectCacheManager(client, nvme_ssd(),
                                 OcmConfig(capacity_bytes=1 << 20))
        ocm.put("a/doomed", b"stale", commit_mode=False)
        with pytest.raises(Exception):
            ocm.delete("a/doomed")
        # The queued upload is gone regardless of the delete RPC's fate.
        assert ocm.pending_upload_count() == 0


class TestInvalidateAllResetsUploadWindow:
    """Regression: invalidate_all left stale completion times in the
    upload-window heap, throttling the restarted node's first uploads."""

    def test_inflight_heap_cleared(self):
        ocm, store, clock = make_ocm(upload_window=1)
        for i in range(4):
            ocm.put(f"a/{i}", b"x" * 1000, txn_id=1, commit_mode=False)
        ocm.flush_for_commit(1)
        assert ocm._upload_inflight  # completions from the drained uploads

        ocm.invalidate_all()
        assert ocm._upload_inflight == []

    def test_post_crash_upload_not_throttled_by_stale_window(self):
        ocm, store, clock = make_ocm(upload_window=1)
        for i in range(6):
            ocm.put(f"a/{i}", b"x" * 4096, txn_id=1, commit_mode=False)
        ocm.flush_for_commit(1)
        ocm.invalidate_all()

        # A fresh write-through upload must start now, not after the last
        # pre-crash completion time.
        t0 = clock.now()
        ocm.put("b/0", b"y" * 4096, commit_mode=True)
        first_after_crash = clock.now() - t0

        fresh, fresh_store, fresh_clock = make_ocm(upload_window=1)
        t1 = fresh_clock.now()
        fresh.put("b/0", b"y" * 4096, commit_mode=True)
        baseline = fresh_clock.now() - t1
        assert first_after_crash == pytest.approx(baseline)

    def test_degradation_bookkeeping_reset(self):
        ocm, __, __ = make_ocm()
        ocm._was_degraded = True
        ocm.metrics.gauge("degraded_queue_depth").set(5.0)
        ocm.invalidate_all()
        assert ocm._was_degraded is False
        assert ocm.metrics.snapshot()["degraded_queue_depth"] == 0.0


def test_a_full_cache_of_pending_write_backs_skips_the_eviction_walk():
    """Only uploaded, listed entries can be evicted: while every entry is
    a pending write-back there is nothing to walk, and an insert into
    the full cache leaves the policy's victim order unread."""
    ocm, __, __ = make_ocm(capacity=4096)
    for i in range(4):
        ocm.put(f"a/{i}", b"x" * 2048, txn_id=1, commit_mode=False)
    assert ocm.used_bytes > 4096
    walks = []
    order = ocm._policy.eviction_order
    ocm._policy.eviction_order = lambda: walks.append(1) or order()
    ocm.put("a/4", b"x" * 2048, txn_id=1, commit_mode=False)
    assert walks == []
    assert ocm.entry_count() == 5
    # Once the uploads land the entries are eligible, and the walk runs.
    ocm.flush_for_commit(1)
    assert walks
    assert ocm.used_bytes <= 4096
