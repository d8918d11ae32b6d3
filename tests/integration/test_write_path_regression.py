"""Write-path characterisation golden: page writes and frees, buffer down.

One seeded script drives a cloud dbspace and a block dbspace sharing one
clock, with the cloud dbspace over a :class:`DirectObjectIO` or a real
:class:`ObjectCacheManager`, and the client's ``max_run`` 1 or 16
(FlushForCommit groups adjacent keys exactly when the client coalesces,
as under ``DatabaseConfig()`` and ``DatabaseConfig.paper()``).  The OCM
runs plain and with ``lru_insert_before_upload`` forced uploads.  The
script covers single
and batch writes in write-back and write-through mode, FlushForCommit and
``discard_txn``, a free that cancels a queued upload, one-page and batched
``free_pages`` and ``poll_and_free``, a breaker-open window (degraded
queuing, then the drain), and the block dbspace's allocate/write/free
cycle.

Per call it pins the completion (clock) time, the locators handed out,
the error raised if any and a digest of what reads return; at the end
every OCM, client and store counter, SSD and disk ops and bytes, the
eviction order, every stored key with a sha256 of its bytes, the
freelist, and the tracer's layer totals.  Crash-point firings are not
pinned: which layer fires them is a design decision, not behaviour.

Floats survive a JSON round-trip losslessly, so ``==`` is the comparison.
Regenerate (``python tests/integration/test_write_path_regression.py``)
only when a write-path behaviour change is intended and called out.
"""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.blockstore.device import BlockDevice
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import (
    CircuitBreakerConfig,
    CircuitOpenError,
    FaultSchedule,
    OutageWindow,
    RetriesExhaustedError,
    RetryingObjectClient,
    RetryPolicy,
    SimulatedObjectStore,
    STRONG,
)
from repro.objectstore.client import COALESCE_MAX_RUN
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import Tracer
from repro.storage.dbspace import BlockDbspace, CloudDbspace, DirectObjectIO
from repro.storage.keys import object_key_from_name
from repro.storage.locator import OBJECT_KEY_BASE

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "write_path_golden.json"
BASE = OBJECT_KEY_BASE + 7000
OUTAGE = OutageWindow(4.0, 5.0)

SSD = DeviceProfile(name="ssd", read_latency=1e-4, write_latency=2e-4,
                    bandwidth=400_000.0, write_cost_multiplier=4.0)
DISK = DeviceProfile(name="disk", read_latency=2e-3, write_latency=3e-3,
                     bandwidth=2_000_000.0, iops=400.0, latency_jitter=0.05)

COMBINATIONS = [
    {"coalesce": coalesce, "io": io}
    for coalesce, io in itertools.product(
        (False, True),
        ("direct", "ocm", "ocm-lru_insert_before_upload"),
    )
]


def _combo_id(combo: dict) -> str:
    return f"{'coalesce' if combo['coalesce'] else 'per_page'}-{combo['io']}"


def _payload(i: int) -> bytes:
    return bytes((i * 17 + j) % 251 for j in range(1200 + 150 * (i % 4)))


def _digest(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


class _Keys:
    def __init__(self) -> None:
        self.next = BASE

    def next_key(self) -> int:
        self.next += 1
        return self.next


# (op, dbspace, payload ids / page refs, txn_id, commit_mode).  Page refs
# name the payload id a page was written with; the rig maps it to the
# locator that write returned.
SCRIPT = [
    # Single and batch writes, write-back and write-through.
    ("write", "cloud", [0], 1, False),
    ("write_many", "cloud", [1, 2, 3], 1, False),
    ("write", "cloud", [4], None, True),
    ("write_many", "cloud", [5, 6, 7, 8], None, True),
    ("write_many", "cloud", [9, 10], 2, False),
    ("write", "cloud", [11], None, False),
    ("write_many", "cloud", [12, 13], 1, False),
    # A free that cancels a queued upload, then commit and rollback.
    ("free", "cloud", [10]),
    ("flush", "cloud", [], 1),
    ("discard", "cloud", [], 2),
    ("read", "cloud", [0, 1, 4, 13]),
    ("free_many", "cloud", [5, 6]),
    ("free_many", "cloud", []),
    ("poll", "cloud", [7]),
    ("poll", "cloud", [7]),
    # The block dbspace: allocate, free, reuse the freed runs.
    ("write", "block", [20]),
    ("write_many", "block", [21, 22, 23]),
    ("free", "block", [21]),
    ("free_many", "block", [22, 20]),
    ("write_many", "block", [24, 25, 26]),
    ("write", "block", [27]),
    ("read", "block", [23, 24, 27]),
    # A long write-back transaction: forced uploads.
    ("write_many", "cloud", list(range(30, 36)), 3, False),
    ("write", "cloud", [36], 3, False),
    ("write_many", "cloud", list(range(37, 41)), 3, False),
    ("read", "cloud", [30, 36]),
    ("flush", "cloud", [], 3),
    # Breaker-open window: degraded queuing, then the drain.
    ("advance_to", OUTAGE.start + 0.05),
    ("trip",),
    ("write", "cloud", [50], None, False),
    ("write_many", "cloud", [51, 52], 5, False),
    ("write", "cloud", [53], None, False),
    ("write", "cloud", [54], None, True),
    ("free", "cloud", [53]),
    ("read", "cloud", [50]),
    ("advance_to", OUTAGE.end + 2.5),
    ("write", "cloud", [55], 5, False),
    ("write_many", "cloud", [56, 57, 58], 5, True),
    ("flush", "cloud", [], 5),
    ("write_many", "cloud", [60, 61], 6, False),
    ("write", "cloud", [62], None, False),
    ("drain",),
    ("read", "cloud", [0, 8, 30, 50, 52, 55, 56, 60, 62]),
]


class _Rig:
    def __init__(self, coalesce: bool, io: str) -> None:
        self.clock = clock = VirtualClock()
        rng = DeterministicRng(21, "write-path-golden")
        profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                     transient_failure_probability=0.0)
        self.store = SimulatedObjectStore(
            profile, clock=clock, rng=rng.substream("s3"),
            fault_schedule=FaultSchedule([OUTAGE]),
        )
        self.client = RetryingObjectClient(
            self.store,
            policy=RetryPolicy(max_attempts=3, initial_backoff=0.01,
                               max_backoff=0.02),
            parallel_window=4,
            breaker=CircuitBreakerConfig(failure_threshold=2,
                                         reset_timeout=2.0),
            rng=rng.substream("client"),
            max_run=COALESCE_MAX_RUN if coalesce else 1,
        )
        self.ocm = None
        if io == "direct":
            self.io = DirectObjectIO(self.client)
        else:
            knob = io.partition("-")[2]
            self.io = self.ocm = ObjectCacheManager(
                self.client, SSD,
                OcmConfig(
                    capacity_bytes=8 * 1500, upload_window=3, read_window=4,
                    lru_insert_before_upload=knob == "lru_insert_before_upload",
                ),
                rng=rng.substream("ssd"),
            )
        self.device = BlockDevice(DISK, 512, 256, clock=clock,
                                  rng=rng.substream("disk"))
        self.dbspaces = {
            "cloud": CloudDbspace("user", self.io, _Keys()),
            "block": BlockDbspace("system", self.device),
        }
        self.locators: dict = {}
        self.calls: list = []

    def run(self) -> None:
        for index, op in enumerate(SCRIPT):
            entry = {"i": index, "op": op[0]}
            if len(op) > 1:
                entry["dbspace"] = op[1]
            try:
                self._step(entry, *op)
            except (CircuitOpenError, RetriesExhaustedError) as error:
                entry["error"] = type(error).__name__
            entry["t"] = self.clock.now()
            self.calls.append(entry)

    def _step(self, entry: dict, kind: str, arg="", ids=(), txn_id=None,
              commit_mode: bool = False) -> None:
        """``arg`` names the dbspace, or is the time ``advance_to`` waits for."""
        dbspace = self.dbspaces.get(arg)
        if kind in ("free", "free_many", "poll", "read"):
            # Pages whose write failed (the outage) have no locator.
            ids = [i for i in ids if i in self.locators]
            entry["ids"] = ids
        if kind == "advance_to":
            self.clock.advance_to(max(arg, self.clock.now()))
        elif kind == "trip":
            try:
                self.client.exists("probe/health")
            except (RetriesExhaustedError, CircuitOpenError):
                pass
            entry["breaker"] = self.client.breaker_state()
        elif kind == "drain":
            if self.ocm is not None:
                self.ocm.drain_all()
        elif kind in ("write", "write_many"):
            payloads = [_payload(i) for i in ids]
            if kind == "write":
                locators = [dbspace.write_page(payloads[0], txn_id=txn_id,
                                               commit_mode=commit_mode)]
            else:
                locators = dbspace.write_pages(payloads, txn_id=txn_id,
                                               commit_mode=commit_mode)
            self.locators.update(zip(ids, locators))
            entry["locators"] = [self._label(loc) for loc in locators]
        elif kind == "free":
            for i in ids:
                dbspace.free_pages([self.locators[i]])
        elif kind == "free_many":
            dbspace.free_pages([self.locators[i] for i in ids])
        elif kind == "poll":
            entry["existed"] = dbspace.poll_and_free(self.locators[ids[0]])
        elif kind == "flush":
            dbspace.flush_for_commit(txn_id)
        elif kind == "discard":
            discard = getattr(dbspace.io, "discard_txn", None)
            entry["discarded"] = discard(txn_id) if discard else None
        elif kind == "read":
            got = dbspace.read_pages([self.locators[i] for i in ids])
            entry["digest"] = _digest(got[self.locators[i]] for i in ids)
            entry["intact"] = all(got[self.locators[i]] == _payload(i)
                                  for i in ids)

    def _label(self, locator: int) -> int:
        """Cloud locators as offsets from the rig's first key."""
        return locator - BASE if locator >= OBJECT_KEY_BASE else locator


def run_write_script(coalesce: bool, io: str) -> dict:
    rig = _Rig(coalesce, io)
    tracer = Tracer(rig.clock)
    rig.client.tracer = rig.store.tracer = tracer
    if rig.ocm is not None:
        rig.ocm.tracer = tracer
    rig.run()
    store = rig.store
    out = {
        "calls": rig.calls,
        "client": dict(sorted(rig.client.metrics.snapshot().items())),
        "store": dict(sorted(store.metrics.snapshot().items())),
        "stored": {
            str(object_key_from_name(name) - BASE):
                _digest([store.latest_data(name)])
            for name in store.all_keys()
            if not name.startswith("probe/")
        },
        "disk": dict(sorted(rig.device.metrics.snapshot().items())),
        "disk_stored": _digest(
            data for __, data in sorted(rig.device._data.items())
        ),
        "freelist_used_blocks": rig.dbspaces["block"].freelist.used_blocks,
        "layer_seconds": {
            layer: seconds
            for layer, seconds in sorted(tracer.layer_totals().items())
        },
        "clock": rig.clock.now(),
    }
    ocm = rig.ocm
    if ocm is not None:
        out["ocm"] = dict(sorted(ocm.stats().items()))
        out["eviction_order"] = [object_key_from_name(name) - BASE
                                 for name in ocm._policy.eviction_order()]
        out["used_bytes"] = ocm.used_bytes
        out["pending_uploads"] = ocm.pending_upload_count()
        out["ssd"] = {name: ocm.device.metrics.snapshot()[name]
                      for name in ("read_ops", "read_bytes",
                                   "write_ops", "write_bytes")}
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("combo", COMBINATIONS, ids=_combo_id)
def test_writes_reproduce_golden(golden, combo):
    observed = json.loads(json.dumps(run_write_script(**combo)))
    expected = golden[_combo_id(combo)]
    # Compare piecewise so a drift names the part that moved.
    for index, call in enumerate(expected["calls"]):
        assert observed["calls"][index] == call
    assert set(observed) == set(expected)
    for part in expected:
        assert observed[part] == expected[part], part


def test_script_reaches_every_write_path(golden):
    """The golden is only worth pinning if the script hits the paths."""
    for name, run in golden.items():
        calls = run["calls"]
        assert all(call.get("intact", True) for call in calls), name
        assert [call.get("existed") for call in calls
                if call["op"] == "poll"] == [True, False], name
        assert run["freelist_used_blocks"] > 0, name
        if "ocm" not in run:
            assert {call.get("error") for call in calls} >= {
                "CircuitOpenError"}, name
            continue
        stats = run["ocm"]
        for counter in ("write_back", "write_through", "cancelled_uploads",
                        "flush_for_commit_jobs",
                        "degraded_queued_writes", "degraded_drained_uploads",
                        "evictions"):
            assert stats.get(counter, 0) > 0, (name, counter)
        assert run["pending_uploads"] == 0, name
        assert stats["discarded_uploads"] > 0, name
        if name.endswith("lru_insert_before_upload"):
            assert stats["forced_uploads"] > 0, name
        if name.startswith("coalesce"):
            assert stats["batched_flush_uploads"] > 0, name
            assert run["client"]["coalesced_put_batches"] > 0, name
        else:
            assert "batched_flush_uploads" not in stats, name


if __name__ == "__main__":
    text = json.dumps({
        _combo_id(combo): run_write_script(**combo) for combo in COMBINATIONS
    }, indent=1, sort_keys=True)
    # One recorded call per line: a drift reads as the calls that moved.
    text = re.sub(r'\{[^{}]*"op"[^{}]*\}',
                  lambda call: re.sub(r"\s*\n\s*", " ", call.group(0)), text)
    GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {GOLDEN_PATH}")
