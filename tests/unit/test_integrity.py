"""Unit tests for end-to-end integrity: CRC-32C, corruption faults,
verified reads, read-repair, and checksum preservation across replicas."""

import pytest

from repro.checksum import crc32c
from repro.objectstore import RetryingObjectClient, STRONG
from repro.objectstore.client import HedgePolicy, RetryPolicy
from repro.objectstore.errors import CorruptObjectError
from repro.objectstore.faults import (
    BitRot,
    FaultSchedule,
    TruncatedObject,
    bitrot_schedule,
    named_schedule,
    torn_read_schedule,
)
from repro.objectstore.replicated import (
    ReplicationConfig,
    build_replicated_store,
)
from repro.objectstore.s3sim import ObjectStoreProfile, SimulatedObjectStore
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


def quiet_profile(**overrides):
    fields = dict(
        name="s3",
        consistency=STRONG,
        transient_failure_probability=0.0,
        latency_jitter=0.0,
    )
    fields.update(overrides)
    return ObjectStoreProfile(**fields)


def make_store(schedule=None, seed=11):
    return SimulatedObjectStore(
        quiet_profile(),
        clock=VirtualClock(),
        rng=DeterministicRng(seed),
        fault_schedule=schedule,
    )


def get_one(store, key, now):
    """A batch-of-one GET: ``((data, expected_crc), completion)``."""
    results, done = store.get_range_at([key], now)
    return results[key], done


def make_replicated(regions=("a", "b"), mean_lag=0.1, horizon=5.0, seed=7,
                    schedule=None):
    primary = SimulatedObjectStore(
        quiet_profile(),
        clock=VirtualClock(),
        rng=DeterministicRng(seed),
        fault_schedule=schedule,
    )
    config = ReplicationConfig(
        regions=regions,
        mean_lag_seconds=mean_lag,
        staleness_horizon=horizon,
    )
    return build_replicated_store(
        config, primary, DeterministicRng(seed, "integrity-test")
    )


# --------------------------------------------------------------------- #
# the CRC-32C primitive
# --------------------------------------------------------------------- #

class TestChecksumPrimitive:
    def test_known_vector(self):
        # The canonical CRC-32C (Castagnoli) check value.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_input(self):
        assert crc32c(b"") == 0

    def test_incremental_equals_one_shot(self):
        assert crc32c(b"cloud", crc32c(b"native ")) == crc32c(b"native cloud")


# --------------------------------------------------------------------- #
# corruption events and schedules
# --------------------------------------------------------------------- #

class TestCorruptionEvents:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            BitRot(0.0, 1.0, probability=0.0)
        with pytest.raises(ValueError):
            TruncatedObject(0.0, 1.0, probability=1.5)
        with pytest.raises(ValueError):
            BitRot(0.0, 1.0, flips=0)

    def test_decide_composes_to_max_per_kind(self):
        schedule = FaultSchedule([
            BitRot(0.0, 10.0, probability=0.2, flips=1),
            BitRot(0.0, 10.0, probability=0.7, flips=3),
            TruncatedObject(0.0, 10.0, probability=0.4),
            TruncatedObject(0.0, 10.0, ops="get", probability=0.3),
        ])
        decision = schedule.decide("get", "k", None, 5.0)
        assert decision.bitrot_probability == 0.7
        assert decision.bitrot_flips == 3
        assert decision.truncate_probability == 0.4
        assert decision.corrupting and decision.faulty

    def test_horizon_covers_corruption_events(self):
        schedule = FaultSchedule([BitRot(5.0, 42.0, probability=0.5)])
        assert schedule.horizon == 42.0

    def test_residual_damage_only_for_put_windows(self):
        put_rot = FaultSchedule([BitRot(0.0, 1.0, ops="put",
                                        probability=0.5)])
        get_rot = FaultSchedule([BitRot(0.0, 1.0, ops="get",
                                        probability=0.5),
                                 TruncatedObject(0.0, 1.0, ops="get",
                                                 probability=0.5)])
        assert put_rot.leaves_residual_damage
        assert put_rot.corrupting
        assert not get_rot.leaves_residual_damage
        assert get_rot.corrupting

    def test_named_schedules_registered(self):
        bitrot = named_schedule("bitrot")
        torn = named_schedule("torn-read")
        assert bitrot.corrupting and bitrot.leaves_residual_damage
        assert torn.corrupting and not torn.leaves_residual_damage
        assert bitrot_schedule().horizon > 0
        assert torn_read_schedule().horizon > 0


# --------------------------------------------------------------------- #
# the store: checksums, injected corruption, the repair surface
# --------------------------------------------------------------------- #

class TestStoreIntegrity:
    def test_checksum_recorded_at_put(self):
        store = make_store()
        done = store.put_range_at([("k", b"payload")], 0.0)
        (data, expected), __ = get_one(store, "k", done)
        assert data == b"payload" and expected == crc32c(b"payload")
        assert store.verify_at_rest("k") is True

    def test_put_window_bitrot_is_silent_but_detectable(self):
        schedule = FaultSchedule([BitRot(0.0, 10.0, ops="put",
                                         probability=1.0, flips=2)])
        store = make_store(schedule)
        done = store.put_range_at([("k", b"intended bytes")], 0.0)
        # The write "succeeded" — no error — but the stored bytes rotted
        # while the recorded checksum still names the intended payload.
        assert store.verify_at_rest("k") is False
        (data, expected), __ = get_one(store, "k", done + 11.0)
        assert data != b"intended bytes"
        assert expected == crc32c(b"intended bytes") != crc32c(data)

    def test_get_window_bitrot_is_transient(self):
        schedule = FaultSchedule([BitRot(0.0, 5.0, ops="get",
                                         probability=1.0)])
        store = make_store(schedule)
        done = store.put_range_at([("k", b"clean")], 0.0)
        (corrupt, expected), __ = get_one(store, "k", done)
        assert crc32c(corrupt) != expected
        assert store.verify_at_rest("k") is True  # at rest: untouched
        (clean, expected), __ = get_one(store, "k", 6.0)
        assert clean == b"clean" and crc32c(clean) == expected

    def test_truncated_read_detected(self):
        schedule = FaultSchedule([TruncatedObject(0.0, 5.0, ops="get",
                                                  probability=1.0)])
        store = make_store(schedule)
        done = store.put_range_at([("k", b"0123456789" * 10)], 0.0)
        (data, expected), __ = get_one(store, "k", done)
        assert len(data) < 100
        assert crc32c(data) != expected

    def test_inject_damage_and_overwrite_latest_repair(self):
        store = make_store()
        store.put_range_at([("k", b"clean bytes")], 0.0)
        assert store.inject_damage("k", flips=3)
        assert store.verify_at_rest("k") is False
        assert store.overwrite_latest("k", b"clean bytes")
        # The repair kept the version's identity: its recorded checksum
        # still matches without any re-PUT having happened.
        assert store.verify_at_rest("k") is True
        assert store.latest_data("k") == b"clean bytes"

    def test_inject_damage_missing_key(self):
        assert not make_store().inject_damage("nope")

    @pytest.mark.parametrize("flips", [0, -1])
    def test_inject_damage_refuses_fewer_than_one_flip(self, flips):
        store = make_store()
        store.put_range_at([("k", b"clean bytes")], 0.0)
        with pytest.raises(ValueError, match="at least one bit flip"):
            store.inject_damage("k", flips=flips)
        assert store.verify_at_rest("k") is True

    def test_verified_range_get_reports_per_key_checksums(self):
        store = make_store()
        done = 0.0
        for i in range(3):
            done = store.put_range_at([(f"r/{i}", b"x%d" % i)], done)
        results, __ = store.get_range_at(
            ["r/0", "r/1", "r/2", "r/9"], done
        )
        for i in range(3):
            data, expected = results[f"r/{i}"]
            assert expected == crc32c(data)
        assert results["r/9"] == (None, None)


# --------------------------------------------------------------------- #
# the client: verified reads, the third retry category, read-repair
# --------------------------------------------------------------------- #

class TestClientVerification:
    def test_unverified_client_serves_rot_silently(self):
        store = make_store()
        store.put_range_at([("k", b"data")], 0.0)
        store.inject_damage("k")
        client = RetryingObjectClient(store, verify_reads=False)
        data, __ = client.get_at("k", 1.0)
        assert data != b"data"  # the default stays byte-compatible

    def test_unrepairable_corruption_raises_corrupt_object_error(self):
        store = make_store()
        store.put_range_at([("k", b"data")], 0.0)
        store.inject_damage("k")
        client = RetryingObjectClient(
            store, policy=RetryPolicy(max_attempts=4), verify_reads=True
        )
        with pytest.raises(CorruptObjectError) as info:
            client.get_at("k", 1.0)
        assert info.value.key == "k"
        assert info.value.attempts == 4
        assert info.value.expected == crc32c(b"data")
        snapshot = client.metrics.snapshot()
        assert snapshot["checksum_mismatches"] == 4.0
        # Mismatches are their own category, not transient retries.
        assert snapshot.get("get_retries", 0.0) == 0.0

    def test_transient_get_corruption_heals_by_retry(self):
        schedule = FaultSchedule([BitRot(0.0, 0.2, ops="get",
                                         probability=1.0)])
        store = make_store(schedule)
        store.put_range_at([("k", b"payload")], 0.0)
        client = RetryingObjectClient(
            store,
            policy=RetryPolicy(max_attempts=8, initial_backoff=0.1,
                               backoff_multiplier=2.0),
            verify_reads=True,
        )
        data, __ = client.get_at("k", 0.05)
        assert data == b"payload"
        assert client.metrics.snapshot()["checksum_mismatches"] >= 1.0

    def test_read_repair_through_replicated_store(self):
        store = make_replicated()
        done = store.put_range_at([("k", b"replicated")], 0.0)
        store.pump(done + 5.0)  # both regions hold the version
        store.inject_damage("k", flips=2)
        client = RetryingObjectClient(
            store, policy=RetryPolicy(max_attempts=4), verify_reads=True
        )
        data, __ = client.get_at("k", done + 6.0)
        assert data == b"replicated"
        assert client.metrics.snapshot()["read_repairs"] >= 1.0
        assert store.verify_at_rest("k") is True

    def test_hedge_winner_failing_verification_loses_the_race(self):
        class TwoFacedStore:
            """Serves a slow clean primary and a fast corrupt hedge."""

            primary_region = None

            def __init__(self):
                self.calls = 0

            def get_range_at(self, keys, now, bandwidth=None, node=None):
                self.calls += 1
                if self.calls == 1:
                    return {keys[0]: (b"clean", crc32c(b"clean"))}, now + 1.0
                return {keys[0]: (b"rot!!", crc32c(b"clean"))}, now + 0.01

        store = TwoFacedStore()
        client = RetryingObjectClient(
            store,  # type: ignore[arg-type]
            policy=RetryPolicy(max_attempts=2),
            hedge=HedgePolicy(initial_delay=0.05),
            verify_reads=True,
        )
        data, __ = client.get_at("k", 0.0)
        assert data == b"clean"
        snapshot = client.metrics.snapshot()
        assert snapshot["hedge_mismatch"] == 1.0
        assert snapshot.get("checksum_mismatches", 0.0) == 0.0


# --------------------------------------------------------------------- #
# replication: checksum preservation and same-version repair
# --------------------------------------------------------------------- #

class TestReplicatedIntegrity:
    def test_apply_preserves_primary_checksum(self):
        store = make_replicated()
        done = store.put_range_at([("k", b"bytes")], 0.0)
        store.pump(done + 5.0)
        secondary = store.store_for("b")
        (data, expected), __ = get_one(secondary, "k", done + 5.0)
        assert data == b"bytes" and expected == crc32c(b"bytes")
        assert secondary.verify_at_rest("k") is True

    def test_repair_from_queued_entry_before_apply(self):
        # The secondary has not applied the version yet, but the queue
        # entry holds the clean acknowledged bytes at the same op-time.
        store = make_replicated(mean_lag=3.0)
        done = store.put_range_at([("k", b"queued")], 0.0)
        store.inject_damage("k")
        assert store.read_repair("k", done + 0.1) >= 1
        assert store.verify_at_rest("k") is True

    def test_repair_fails_when_every_copy_is_damaged(self):
        store = make_replicated()
        done = store.put_range_at([("k", b"doomed")], 0.0)
        store.pump(done + 5.0)
        for region in store.regions:
            store.store_for(region).inject_damage("k")
        assert store.read_repair("k", done + 6.0) == 0
        failed = store.replication_metrics.snapshot()["read_repair_failed"]
        assert failed >= 1
        assert store.verify_at_rest("k") is False

    def test_lagging_secondary_is_not_treated_as_corrupt(self):
        store = make_replicated(mean_lag=3.0)
        t1 = store.put_range_at([("k", b"v1")], 0.0)
        store.pump(t1 + 10.0)  # v1 lands everywhere
        t2 = store.put_range_at([("k", b"v2")], t1 + 10.5)
        # v2 is queued for "b": the secondary legitimately holds v1.
        # Repair must not "fix" the lagging region with v2's bytes.
        assert store.read_repair("k", t2 + 0.1) == 0
        assert store.store_for("b").verify_at_rest("k") is True
