"""Interleaving harness for the OCM's write-back pipeline.

The pipeline adds two concurrent-looking mechanisms to the OCM's write
path — coalesced ranged PUTs and group commit flush — on top of the
fixed-window background drain.  Each one re-orders uploads relative to
the paper's serial one-PUT-per-page drain, so each is a new chance to
violate the paper's write-path invariants.  This harness drives seeded
schedules of background write-back vs. ``flush_for_commit`` vs.
eviction vs. rollback vs. node crash through a deliberately tiny OCM
(every write evicts) and asserts, after **every** step:

1. **No key is ever PUT twice.**  Checked against ground truth: the
   simulated store's ``overwrites`` counter (incremented whenever a PUT
   lands on a key that already holds data) must stay zero, and the
   client must never raise :class:`OverwriteForbiddenError`.
2. **No page enters the LRU before its upload completes** — every cache
   entry with ``in_lru=True`` must have ``uploaded=True`` (the paper's
   insert-after-upload rule, Section 4).
3. **Committed pages are durable** — after ``flush_for_commit`` (and
   after ``drain_all``) every page the transaction wrote back reads back
   from the store itself, byte-identical, even if the node then crashes
   and loses its SSD.
4. **The upload window bounds the requests in flight** — the OCM never
   tracks more in-flight uploads than ``upload_window``.

Schedules run under both eviction policies (``lru`` and ``arc2q``) and
three knob sets: the fixed-window baseline, the coalescing pipeline, and
the pipeline against a store that throws transient PUT failures
(exercising range retry and per-key fallback).  The Hypothesis suite
explores adversarial orderings; the seeded-loop suite pins 192
schedules so CI coverage does not depend on Hypothesis' example budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.profiles import nvme_ssd
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.client import COALESCE_MAX_RUN
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE

POLICIES = ("lru", "arc2q")
UPLOAD_WINDOW = 4

KNOB_SETS = {
    "fixed": dict(),
    "pipeline": dict(max_run=COALESCE_MAX_RUN),
    "pipeline+faults": dict(max_run=COALESCE_MAX_RUN, faulty=True),
}

TXNS = (1, 2, 3)
PAGE_BYTES = 256
# Capacity of 8 pages: schedules of ~40 writes overflow it repeatedly,
# so eviction interleaves with everything else.
CAPACITY = 8 * PAGE_BYTES


class PipelineDriver:
    """One OCM + store under test, plus the model that checks it."""

    def __init__(self, policy: str, knobs: str) -> None:
        options = KNOB_SETS[knobs]
        profile = ObjectStoreProfile(
            name="s3", consistency=STRONG,
            transient_failure_probability=(
                0.05 if options.get("faulty") else 0.0),
            latency_jitter=0.0,
        )
        self.store = SimulatedObjectStore(
            profile, clock=VirtualClock(),
            rng=DeterministicRng(7, "store"),
        )
        self.client = RetryingObjectClient(
            self.store,
            rng=DeterministicRng(11, "client"),
            max_run=options.get("max_run", 1),
        )
        self.ocm = ObjectCacheManager(
            self.client, nvme_ssd(),
            OcmConfig(capacity_bytes=CAPACITY, policy=policy,
                      upload_window=UPLOAD_WINDOW),
            rng=DeterministicRng(13, "ocm"),
        )
        self._next_key = OBJECT_KEY_BASE
        self._serial = 0
        # txn_id (or None) -> {name: bytes} written back, not yet resolved
        self.pending = {txn: {} for txn in (*TXNS, None)}
        self.durable = {}  # name -> bytes the store must serve forever

    def fresh_name(self) -> str:
        # Monotonic keys, exactly like the engine's Object Key Generator:
        # adjacent writes coalesce into ranged PUTs when the knob is on.
        name = hashed_object_name(self._next_key)
        self._next_key += 1
        return name

    def payload(self) -> bytes:
        self._serial += 1
        return bytes((self._serial + i) % 251 for i in range(PAGE_BYTES))

    # ----------------------------- actions ----------------------------- #

    def write_back(self, txn) -> None:
        name, data = self.fresh_name(), self.payload()
        self.ocm.put(name, data, txn_id=txn, commit_mode=False)
        self.pending[txn][name] = data

    def write_through(self) -> None:
        name, data = self.fresh_name(), self.payload()
        self.ocm.put(name, data, txn_id=None, commit_mode=True)
        self.durable[name] = data

    def write_many_through(self, count: int) -> None:
        items = [(self.fresh_name(), self.payload()) for __ in range(count)]
        self.ocm.put_many(items, commit_mode=True)
        self.durable.update(items)

    def flush(self, txn) -> None:
        self.ocm.flush_for_commit(txn)
        self.durable.update(self.pending[txn])
        self.pending[txn] = {}

    def rollback(self, txn) -> None:
        self.ocm.discard_txn(txn)
        # Never flushed, never durable; forget the pages entirely.
        self.pending[txn] = {}

    def drain(self) -> None:
        self.ocm.drain_all()
        for txn in list(self.pending):
            self.durable.update(self.pending[txn])
            self.pending[txn] = {}

    def crash(self) -> None:
        # Ephemeral instance storage: the SSD cache and every queued
        # upload die with the node.  Durable data must not.
        self.ocm.invalidate_all()
        for txn in list(self.pending):
            self.pending[txn] = {}

    # --------------------------- invariants ---------------------------- #

    def check_step_invariants(self) -> None:
        # 1. Never-write-twice, from the store's point of view.
        assert self.store.metrics.snapshot().get("overwrites", 0.0) == 0.0
        # 2. Insert-after-upload: nothing unuploaded is in the LRU.
        for entry in self.ocm._entries.values():
            if entry.in_lru:
                assert entry.uploaded, (
                    f"{entry.name!r} entered the LRU before its upload"
                )
        # 4. The fixed window bounds the uploads in flight.
        assert len(self.ocm._upload_inflight) <= UPLOAD_WINDOW
        # 5. The running count eviction checks first is the bytes of the
        #    entries eviction may take.
        assert self.ocm._evictable_bytes == sum(
            entry.size for entry in self.ocm._entries.values()
            if self.ocm._evictable(entry))

    def check_durability(self) -> None:
        # 3. Everything ever committed reads back from the store itself.
        for name, data in self.durable.items():
            assert self.store.latest_data(name) == data, (
                f"committed page {name!r} lost or altered on the store"
            )


def run_schedule(driver: "PipelineDriver", schedule) -> None:
    for action, arg in schedule:
        if action == "write_back":
            driver.write_back(TXNS[arg % len(TXNS)])
        elif action == "write_back_anon":
            driver.write_back(None)
        elif action == "write_through":
            driver.write_through()
        elif action == "write_many_through":
            driver.write_many_through(2 + arg % 6)
        elif action == "flush":
            driver.flush(TXNS[arg % len(TXNS)])
        elif action == "rollback":
            driver.rollback(TXNS[arg % len(TXNS)])
        elif action == "drain":
            driver.drain()
        elif action == "crash":
            driver.crash()
        driver.check_step_invariants()
        if action in ("flush", "drain", "write_through",
                      "write_many_through"):
            driver.check_durability()
    driver.drain()
    driver.check_step_invariants()
    driver.check_durability()


ACTIONS = ("write_back", "write_back_anon", "write_through",
           "write_many_through", "flush", "rollback", "drain", "crash")

# Crashes are rarer than writes so schedules accumulate enough state for
# eviction and coalescing to engage before it is wiped.
ACTION_WEIGHTS = (8, 3, 3, 3, 4, 2, 1, 1)


def schedule_strategy():
    return st.lists(
        st.tuples(st.sampled_from(ACTIONS), st.integers(0, 11)),
        min_size=5, max_size=60,
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("knobs", sorted(KNOB_SETS))
@given(schedule=schedule_strategy())
@settings(max_examples=25, deadline=None)
def test_pipeline_invariants_hold_on_any_schedule(policy, knobs, schedule):
    run_schedule(PipelineDriver(policy, knobs), schedule)


def seeded_schedule(seed: int):
    rng = DeterministicRng(seed, "upload-pipeline")
    total = sum(ACTION_WEIGHTS)
    steps = []
    for i in range(40):
        roll = rng.randint(0, total - 1)
        for action, weight in zip(ACTIONS, ACTION_WEIGHTS):
            if roll < weight:
                break
            roll -= weight
        steps.append((action, rng.randint(0, 11)))
    return steps


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("knobs", sorted(KNOB_SETS))
def test_pipeline_invariants_hold_on_seeded_schedules(policy, knobs):
    """192 pinned schedules: 32 seeds x 2 policies x 3 knob sets."""
    for seed in range(32):
        run_schedule(PipelineDriver(policy, knobs), seeded_schedule(seed))


def test_coalescing_engages_in_pipeline_schedules():
    """The harness is not vacuous: pipeline schedules actually produce
    ranged multi-puts and batched flush uploads."""
    driver = PipelineDriver("lru", "pipeline")
    for txn in TXNS:
        for __ in range(8):
            driver.write_back(txn)
    for txn in TXNS:
        driver.flush(txn)
    driver.check_step_invariants()
    driver.check_durability()
    snap = driver.store.metrics.snapshot()
    assert snap.get("ranged_put_requests", 0.0) > 0
    assert driver.ocm.stats().get("batched_flush_uploads", 0.0) > 0


def test_fallback_engages_under_faults():
    """With a faulty store, range retries and (eventually) per-key
    fallback fire while every invariant still holds."""
    driver = PipelineDriver("lru", "pipeline+faults")
    for seed in range(8):
        run_schedule(driver, seeded_schedule(seed))
    retries = driver.client.metrics.snapshot().get("put_retries", 0.0)
    assert retries > 0, "the faulty store never exercised a retry"
