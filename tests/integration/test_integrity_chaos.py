"""Integration tests: end-to-end integrity under seeded corruption.

The acceptance story of DESIGN.md §15: with verified reads and
replication on, a seeded BitRot/TruncatedObject storm changes *no query
result* — every corruption is detected before its bytes reach the
executor, damaged at-rest copies are read-repaired from healthy
replicas, and one scrubber pass leaves a deep fsck clean.
"""

import pytest

from repro.columnar import ColumnStore, QueryContext
from repro.core.audit import StoreAuditor
from repro.core.scrub import Scrubber
from repro.objectstore.errors import CorruptObjectError
from repro.objectstore.faults import bitrot_schedule, torn_read_schedule
from repro.objectstore.replicated import ReplicationConfig
from repro.tpch import load_tpch, run_query
from tests.conftest import lists, make_db

MIB = 1024 * 1024
SF = 0.001
REGIONS = ("it-a", "it-b", "it-c")


def _tpch_db(**overrides):
    db = make_db(buffer_capacity_bytes=4 * MIB,
                 ocm_capacity_bytes=16 * MIB,
                 **overrides)
    load_tpch(ColumnStore(db), SF, partitions=2, rows_per_page=512)
    return db


def _cold(db):
    db.buffer.invalidate_all()
    if db.ocm is not None:
        db.ocm.drain_all()
        db.ocm.invalidate_all()


def _results(db):
    _cold(db)
    with QueryContext(db) as ctx:
        return {q: lists(run_query(ctx, q, SF)) for q in (1, 6)}


@pytest.fixture(scope="module")
def fault_free_results():
    return _results(_tpch_db())


def test_tpch_under_bitrot_storm_returns_correct_results(
    fault_free_results,
):
    """A BitRot storm spanning the load cannot change a query answer.

    The storm covers both windows: ``get`` rot is transient (caught and
    retried), ``put`` rot persists at rest on the primary (caught,
    read-repaired from a replica holding the acknowledged clean bytes).
    Query results must be *equal* to the fault-free run — zero corrupt
    bytes reach the executor.
    """
    db = _tpch_db(
        fault_schedule=bitrot_schedule(start=0.0, duration=60.0,
                                       probability=0.3, flips=2),
        replication=ReplicationConfig(regions=REGIONS,
                                      mean_lag_seconds=0.1,
                                      staleness_horizon=2.0),
        verify_reads=True,
    )
    store = db.object_store
    damaged = sorted(name for name in store.all_keys()
                     if store.verify_at_rest(name) is False)
    assert damaged, "the storm left no damage at rest"
    assert _results(db) == fault_free_results

    # Which objects the storm damaged depends on how the load's requests
    # were batched, so the two queries may read none of them.  Read one
    # back through the verified client: the damage is caught and the
    # primary repaired from a replica, whatever the queries touched.
    db.object_client.get(damaged[0])
    assert store.verify_at_rest(damaged[0]) is True
    client = db.object_client.metrics.snapshot()
    assert client["checksum_mismatches"] > 0, \
        "the storm never actually corrupted a served payload"
    assert client["read_repairs"] > 0, \
        "at-rest damage was never read-repaired"

    # Residual at-rest damage (written in the storm window, never read
    # again) is the scrubber's job: one pass, then a deep fsck across
    # all three regions comes back clean.
    db.object_store.pump(db.clock.now())
    scrub = Scrubber(db).run()
    assert scrub.ok()
    report = StoreAuditor(db).audit(deep=True)
    assert not report.corrupt and not report.region_corrupt


def test_tpch_under_torn_reads_returns_correct_results(fault_free_results):
    """Truncated GETs are transient: retries alone must heal them, even
    without replication — nothing is ever damaged at rest."""
    db = _tpch_db(
        fault_schedule=torn_read_schedule(start=2.0, duration=30.0,
                                          probability=0.3),
        verify_reads=True,
    )
    assert _results(db) == fault_free_results
    assert db.object_client.metrics.snapshot()["checksum_mismatches"] > 0
    report = StoreAuditor(db).audit(deep=True)
    assert not report.corrupt


SCHEDULES = {
    "bitrot": lambda: bitrot_schedule(start=0.0, probability=0.3, flips=2),
    "torn-read": lambda: torn_read_schedule(start=0.0, probability=0.3),
}


@pytest.mark.parametrize("regions", [1, 3])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_committed_pages_read_back_equal_or_refused(schedule, regions):
    """Verified reads are the one corruption check on the read path.

    Sixty generations of four pages are committed under the schedule,
    and each generation is read back from cold caches.  Every page reads
    back equal or raises :class:`CorruptObjectError` (at-rest rot with no
    replica to repair it); no read returns wrong bytes.
    """
    replication = (
        ReplicationConfig(regions=REGIONS[:regions], mean_lag_seconds=0.1,
                          staleness_horizon=2.0)
        if regions > 1 else None
    )
    db = make_db(fault_schedule=SCHEDULES[schedule](),
                 replication=replication, verify_reads=True)
    db.create_object("t")
    refused = 0
    for gen in range(60):
        expected = [b"g%d-p%d " % (gen, page) * 40 for page in range(4)]
        txn = db.begin()
        for page, payload in enumerate(expected):
            db.write_page(txn, "t", page, payload)
        db.commit(txn)
        db.clock.advance(0.5)
        _cold(db)
        txn = db.begin()
        for page, payload in enumerate(expected):
            try:
                assert db.read_page(txn, "t", page) == payload, (gen, page)
            except CorruptObjectError:
                refused += 1
        db.rollback(txn)
    assert db.object_client.metrics.snapshot()["checksum_mismatches"] > 0, \
        "the schedule never corrupted a served payload"
    assert refused < 60 * 4


def test_chaos_bitrot_scenario_detects_everything():
    """The CLI-level acceptance gate: a seeded bitrot run over a
    3-region store finishes with zero silent mismatches and zero
    unrepairable corrupt reads."""
    from repro.bench.chaos import run_chaos_scenario

    result = run_chaos_scenario("bitrot", seed=0, regions=3)
    assert result["verify_reads"] is True
    assert result["mismatches"] == 0
    assert result["corrupt_detected"] == 0
    assert result["client_metrics"]["checksum_mismatches"] > 0


def test_scrub_scenario_repairs_and_deep_fsck_is_clean():
    """Every budget repairs all the rot; a tighter one stretches the
    pass on the virtual clock (8 KiB/s up to the 8 MiB/s default)."""
    from repro.bench.scrub import run_scrub_scenario

    pass_seconds = []
    for budget in (8 * 1024, 64 * 1024, MIB, None):
        result = run_scrub_scenario(seed=3, regions=3, damage=5, flips=2,
                                    budget=budget)
        assert result["damaged"] == 5
        assert result["scrub"]["corrupt_found"] == 5
        assert result["scrub"]["repaired"] == 5
        assert result["scrub"]["ok"] is True
        assert result["corrupt_before"] == 5
        assert result["corrupt_after"] == 0
        assert result["audit_ok_after"] is True
        pass_seconds.append(result["scrub_virtual_seconds"])
    assert all(a > b for a, b in zip(pass_seconds, pass_seconds[1:])), \
        pass_seconds


def test_scrub_scenario_refuses_a_zero_budget():
    from repro.bench.scrub import run_scrub_scenario

    with pytest.raises(ValueError, match="scrub budget must be positive"):
        run_scrub_scenario(budget=0)


def test_scrub_crash_points_recover_idempotently():
    """Crashing on either side of a repair and re-running the scrub
    converges on the same clean state (DESIGN.md §15's idempotence
    claim, driven through the crash explorer)."""
    from repro.bench.crash_explorer import run_scrub_episode

    for point in ("scrub.before_repair", "scrub.after_repair"):
        result = run_scrub_episode(point, seed=1)
        assert result.fired >= 1
        assert result.crashes >= 1
        assert result.ok, f"{point}: {result.violations}"
