"""Unit tests for the background scrubber and the deep (content) audit."""

import math

import pytest

from repro.core.audit import StoreAuditor
from repro.core.scrub import Scrubber
from repro.objectstore.replicated import ReplicationConfig
from tests.conftest import make_db

MIB = 1024 * 1024
REGIONS = ("scrub-a", "scrub-b")


def make_replicated_db(**overrides):
    return make_db(
        replication=ReplicationConfig(
            regions=REGIONS, mean_lag_seconds=0.1, staleness_horizon=2.0
        ),
        verify_reads=True,
        **overrides,
    )


def write_generations(db, generations=2, pages=4):
    db.create_object("t")
    for gen in range(generations):
        txn = db.begin()
        for page in range(pages):
            db.write_page(txn, "t", page, b"g%d-p%d" % (gen, page))
        db.commit(txn)
        db.clock.advance(0.5)


def converge(db):
    db.clock.advance(3.0)
    db.object_store.pump(db.clock.now())


def damage_some(db, count=3, flips=2):
    store = db.object_store
    primary = store.store_for(REGIONS[0]) if hasattr(store, "store_for") \
        else store
    damaged = 0
    for name in sorted(primary.all_keys()):
        if damaged >= count:
            break
        if primary.latest_data(name) is None:
            continue
        if store.inject_damage(name, flips=flips):
            damaged += 1
    return damaged


class TestScrubber:
    def test_rejects_nonpositive_budget(self):
        db = make_db()
        for budget in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Scrubber(db, bytes_per_second=budget)

    def test_clean_store_scans_without_repairs(self):
        db = make_db()
        write_generations(db)
        report = Scrubber(db).run()
        assert report.ok()
        assert report.objects_scanned > 0
        assert report.bytes_scanned > 0
        assert report.corrupt_found == 0 and report.repaired == 0
        assert db.metrics.counter("scrub_passes").value == 1

    def test_repairs_at_rest_damage_from_replicas(self):
        db = make_replicated_db()
        write_generations(db)
        converge(db)
        damaged = damage_some(db)
        assert damaged > 0
        report = Scrubber(db).run()
        assert report.ok()
        assert report.corrupt_found == damaged
        assert report.repaired == damaged
        assert sorted(report.regions_scanned) == sorted(REGIONS)
        # A second pass finds nothing left to fix.
        assert Scrubber(db).run().corrupt_found == 0

    def test_quarantines_without_replicas(self):
        db = make_db()
        write_generations(db)
        damaged = damage_some(db)
        assert damaged > 0
        scrubber = Scrubber(db)
        report = scrubber.run()
        assert not report.ok()
        assert len(report.quarantined) == damaged
        assert scrubber.quarantined == set(report.quarantined)
        assert report.to_dict()["ok"] is False

    def test_budget_paces_the_pass_on_the_virtual_clock(self):
        db = make_db()
        write_generations(db)
        before = db.clock.now()
        report = Scrubber(db, bytes_per_second=64.0).run()
        elapsed = db.clock.now() - before
        assert report.bytes_scanned > 0
        assert elapsed >= report.bytes_scanned / 64.0


class TestDeepAudit:
    def test_shallow_audit_never_verifies_content(self):
        db = make_db()
        write_generations(db)
        assert damage_some(db, count=2) == 2
        shallow = StoreAuditor(db).audit()
        # The existence audit can stumble over rotted *metadata* pages
        # (a torn blockmap walk shows up as leaks), but it never hashes
        # content — CORRUPT is exclusively the deep pass's verdict.
        assert not shallow.deep
        assert shallow.content_verified == 0
        assert not shallow.corrupt and not shallow.region_corrupt

    def test_deep_audit_flags_corrupt_objects(self):
        db = make_db()
        write_generations(db)
        damaged = damage_some(db, count=2)
        report = StoreAuditor(db).audit(deep=True)
        assert report.deep
        assert report.content_verified > 0
        assert len(report.corrupt) == damaged
        assert not report.ok()
        assert report.to_dict()["corrupt"]
        assert db.metrics.counter("fsck_deep_runs").value == 1
        assert db.metrics.gauge("fsck_corrupt").value == damaged

    def test_deep_audit_clean_after_scrub(self):
        db = make_replicated_db()
        write_generations(db)
        converge(db)
        assert damage_some(db) > 0
        assert not StoreAuditor(db).audit(deep=True).ok()
        assert Scrubber(db).run().ok()
        after = StoreAuditor(db).audit(deep=True)
        assert after.ok()
        assert not after.corrupt and not after.region_corrupt


class TestEngineKnobs:
    def test_page_checksums_roundtrip(self):
        db = make_db(page_checksums=True, verify_reads=True)
        write_generations(db)
        db.buffer.invalidate_all()
        if db.ocm is not None:
            db.ocm.drain_all()
            db.ocm.invalidate_all()
        txn = db.begin()
        for page in range(4):
            assert db.read_page(txn, "t", page) == b"g1-p%d" % page
        db.commit(txn)

    def test_verified_reads_survive_cold_cache(self):
        db = make_replicated_db()
        write_generations(db)
        converge(db)
        db.buffer.invalidate_all()
        if db.ocm is not None:
            db.ocm.drain_all()
            db.ocm.invalidate_all()
        txn = db.begin()
        for page in range(4):
            assert db.read_page(txn, "t", page) == b"g1-p%d" % page
        db.commit(txn)
