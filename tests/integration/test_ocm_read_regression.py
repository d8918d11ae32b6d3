"""Read-path characterisation golden: OCM and buffer-manager reads.

The default-path goldens run one policy, no breaker and no sessions.
This one drives a seeded script through a real
:class:`ObjectCacheManager` small enough to evict — single-stream and as
three :class:`SessionScheduler` sessions over overlapping key sets — using
every read form (``get``, ``get_many`` with and without ``scan_hint``,
``get_many_at``) under eviction policy ``lru`` and ``arc2q`` against an
SSD that cache fills saturate, plus ``lru_insert_before_upload`` and
``verify_reads`` variants.  Each key still carries ``no_routing``: the
golden was cut when OCM hits could be re-routed to the store, and the
re-routed combinations were deleted with that feature.  The
script also opens the client's breaker (degraded hits and
:class:`DegradedCacheMissError`), queues write-backs that later fills must
evict, and corrupts cached entries after their fill.  Per call it pins the
payload digest and the completion/clock time; at the end every OCM and
client counter, the eviction order, the SSD pipe's drain horizon and the
store's GET count.

A second script pins the buffer manager over one cloud and one block
dbspace: ``get_page``, blocking ``prefetch`` and pipelined ``prefetch_at``
(still labelled ``prefetch_issue_many``, its name when the golden was
cut) across objects and dbspaces, with frame order, counters and
completion times.

Floats survive a JSON round-trip losslessly, so ``==`` is the comparison.
Regenerate (``python tests/integration/test_ocm_read_regression.py``) only
when a read-path behaviour change is intended and called out.
"""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.blockstore.device import BlockDevice
from repro.core.buffer import BufferError, BufferManager, ObjectHandle
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.core.txn import Transaction
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
from repro.objectstore.errors import DegradedCacheMissError
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile
from repro.sim.rng import DeterministicRng
from repro.sim.sessions import SessionScheduler
from repro.sim.tracing import Tracer
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import BlockDbspace, CloudDbspace
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE
from repro.storage.page import PageConfig

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "ocm_read_golden.json"
BASE = OBJECT_KEY_BASE + 9000
KEYS = 20
NAMES = [hashed_object_name(BASE + i) for i in range(KEYS + 4)]
OUTAGE = OutageWindow(2.0, 3.0)

# A fill of one object keeps the SSD busy ~25 ms, a store GET takes ~15 ms:
# hits right behind queued fills wait longer than a miss would.
SSD = DeviceProfile(name="ssd", read_latency=1e-4, write_latency=2e-4,
                    bandwidth=400_000.0, write_cost_multiplier=4.0)

COMBINATIONS = [
    {"policy": policy, "sessions": sessions, "knob": None}
    for policy, sessions in itertools.product(("lru", "arc2q"), (False, True))
] + [
    {"policy": "lru", "sessions": sessions, "knob": knob}
    for knob, sessions in (
        # Single-stream only: a forced upload waits before it dequeues its
        # job, so a second session evicting meanwhile PUTs the key again
        # (OverwriteForbiddenError) — a write-path race, not pinned here.
        ("lru_insert_before_upload", False),
        ("verify_reads", False), ("verify_reads", True),
    )
]


def _combo_id(combo: dict) -> str:
    parts = [combo["policy"], "no_routing",
             "sessions" if combo["sessions"] else "single"]
    if combo["knob"]:
        parts.append(combo["knob"])
    return "-".join(parts)


def _payload(i: int) -> bytes:
    return bytes((i * 13 + j) % 251 for j in range(1800 + 300 * (i % 4)))


def _digest(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


def _program(session: int) -> list:
    """One stream's ops; streams overlap on keys shifted by ``3*session``."""
    def k(*indices):
        return [(i + 3 * session) % KEYS for i in indices]

    ops = [
        # Cold misses, a hit, then batches that overflow the cache.
        ("get", k(0)), ("get", k(1)), ("get", k(0)),
        ("get_many", k(0, 1, 2, 3), False),
        ("get_many", k(4, 5, 6, 7), True),
        ("get", k(0)),
        ("get_many_at", k(2, 3, 8, 9), True),
        ("get_many_at", k(8, 9, 10), False),
        # Hits right behind queued fills: the saturated-SSD case.
        ("get", k(8)), ("get_many", k(8, 9, 1, 11), False),
        ("get_many_at", k(9, 10, 11), False),
        ("sleep", 0.5),
        ("get", k(9)), ("get_many", k(10, 11), True),
        # Breaker-open window: degraded hits and degraded misses.
        ("advance_to", OUTAGE.start + 0.05 + 0.01 * session),
    ]
    if session == 0:
        ops.append(("trip",))
    ops += [
        ("advance_to", OUTAGE.start + 0.2 + 0.01 * session),
        ("get", k(9)), ("get", k(15)),
        ("get_many", k(10, 11), False), ("get_many", k(10, 16, 17), False),
        ("get_many_at", k(11, 9), True), ("get_many_at", k(11, 18), True),
        # Recovery: the first read probes the half-open breaker.
        ("advance_to", OUTAGE.end + 1.4 + 0.01 * session),
        ("get", k(12)), ("get_many", k(12, 13, 9), False),
    ]
    if session == 0:
        # Write-backs waiting for upload, then fills that need their room.
        ops += [("put", [KEYS + i]) for i in range(4)]
    ops += [
        ("get_many", k(13, 14, 15, 16), False), ("get", k(17)),
        ("get_many_at", k(18, 19, 0), True),
    ]
    if session == 0:
        # Cached bytes rot after their fill; each read form meets one.
        ops += [("corrupt", "get"), ("corrupt", "get_many"),
                ("corrupt", "get_many_at")]
    ops += [("get_many", k(18, 19, 0, 1), True), ("get", k(19))]
    return ops


class _OcmRig:
    def __init__(self, policy: str, knob) -> None:
        self.clock = VirtualClock()
        rng = DeterministicRng(11, "ocm-read-golden")
        profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                     transient_failure_probability=0.0)
        self.store = SimulatedObjectStore(
            profile, clock=self.clock, rng=rng.substream("s3"),
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
            verify_reads=knob == "verify_reads",
        )
        self.ocm = ObjectCacheManager(
            self.client, SSD,
            OcmConfig(
                capacity_bytes=6 * 2400, read_window=4, policy=policy,
                lru_insert_before_upload=knob == "lru_insert_before_upload",
            ),
            rng=rng.substream("ssd"),
        )
        for i in range(KEYS):
            self.store.put(NAMES[i], _payload(i))
        self.calls: list = []

    def run(self, session: int) -> None:
        for index, op in enumerate(_program(session)):
            entry = {"s": session, "i": index, "op": op[0]}
            try:
                self._step(entry, *op)
            except (DegradedCacheMissError, CircuitOpenError,
                    RetriesExhaustedError) as error:
                entry["error"] = type(error).__name__
            entry["t"] = self.clock.now()
            self.calls.append(entry)

    def _step(self, entry: dict, kind: str, arg=None, scan=False) -> None:
        ocm, clock = self.ocm, self.clock
        if kind == "sleep":
            clock.advance(arg)
        elif kind == "advance_to":
            clock.advance_to(max(arg, clock.now()))
        elif kind == "trip":
            try:
                self.client.exists("probe/health")
            except (RetriesExhaustedError, CircuitOpenError):
                pass
            entry["breaker"] = self.client.breaker_state()
        elif kind == "put":
            ocm.put(NAMES[arg[0]], _payload(arg[0]))
        elif kind == "corrupt":
            victim = next(i for i in range(KEYS) if ocm.cached(NAMES[i]))
            cached = ocm._entries[NAMES[victim]]
            cached.data = bytes([cached.data[0] ^ 0xFF]) + cached.data[1:]
            entry["victim"] = victim
            keys = [victim] if arg == "get" else [victim, (victim + 1) % KEYS]
            self._step(entry, arg, keys, False)
        else:
            names = [NAMES[i] for i in arg]
            entry["keys"] = list(arg)
            if kind == "get":
                got = {names[0]: ocm.get(names[0])}
            elif kind == "get_many":
                got = ocm.get_many(names, scan_hint=scan)
            else:
                got, done = ocm.get_many_at(names, clock.now(),
                                            scan_hint=scan)
                entry["done"] = done
                clock.advance(0.001)  # the caller's overlapped work
                clock.advance_to(max(done, clock.now()))
            entry["digest"] = _digest(got[name] for name in names)


def run_ocm_script(policy: str, sessions: bool, knob) -> dict:
    rig = _OcmRig(policy, knob)
    tracer = None
    if sessions:
        scheduler = SessionScheduler(rig.clock)
        start = rig.clock.now()
        for session in range(3):
            scheduler.spawn(lambda __, s=session: rig.run(s),
                            name=f"s{session}", at=start + 0.002 * session)
        scheduler.run()
    else:
        # One span stack: the tracer cannot follow interleaved sessions.
        tracer = Tracer(rig.clock)
        rig.ocm.tracer = rig.client.tracer = rig.store.tracer = tracer
        rig.run(0)
    ocm = rig.ocm
    out = {
        "calls": rig.calls,
        "ocm": dict(sorted(ocm.stats().items())),
        "client": dict(sorted(rig.client.metrics.snapshot().items())),
        "eviction_order": [NAMES.index(name)
                           for name in ocm._policy.eviction_order()],
        "used_bytes": ocm.used_bytes,
        "pending_uploads": ocm.pending_upload_count(),
        "ssd_next_free": ocm.device._bandwidth.next_free,
        "ssd": {name: ocm.device.metrics.snapshot()[name]
                for name in ("read_ops", "read_bytes",
                             "write_ops", "write_bytes")},
        "store_gets": rig.store.metrics.snapshot()["get_requests"],
        "clock": rig.clock.now(),
    }
    if tracer is not None:
        totals = tracer.layer_totals()
        out["layer_seconds"] = {layer: totals.get(layer, 0.0)
                                for layer in ("ocm", "ssd", "client", "store")}
        out["ssd_spans"] = _digest(
            json.dumps([span.name, span.start, span.end]).encode()
            for span in tracer.all_spans() if span.layer == "ssd"
        )
    return out


# ---------------------------------------------------------------------- #
# buffer manager over one cloud and one block dbspace
# ---------------------------------------------------------------------- #

class _Keys:
    def __init__(self) -> None:
        self.next = BASE + 1000

    def next_key(self) -> int:
        self.next += 1
        return self.next


class _Node:
    node_id = "golden"


def run_buffer_script() -> dict:
    clock = VirtualClock()
    rng = DeterministicRng(12, "buffer-read-golden")
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0)
    store = SimulatedObjectStore(profile, clock=clock, rng=rng.substream("s3"))
    client = RetryingObjectClient(store, parallel_window=4,
                                  rng=rng.substream("client"))
    ocm = ObjectCacheManager(
        client, SSD, OcmConfig(capacity_bytes=1 << 20, read_window=4),
        rng=rng.substream("ssd"),
    )
    cloud = CloudDbspace("user", ocm, _Keys())
    disk = DeviceProfile(name="disk", read_latency=2e-3, write_latency=3e-3,
                         bandwidth=2_000_000.0, iops=400.0,
                         latency_jitter=0.05)
    device = BlockDevice(disk, 512, 4096, clock=clock,
                         rng=rng.substream("disk"))
    block = BlockDbspace("system", device)
    page_size = 2048
    buffer = BufferManager(10 * page_size, PageConfig(page_size))
    tracer = Tracer(clock)
    buffer.tracer = ocm.tracer = client.tracer = store.tracer = tracer

    # Load three objects through one writer transaction and forget them.
    txn = Transaction(1, _Node(), begin_seq=0, snapshot={})
    layout = {"a": (cloud, 12), "b": (block, 10), "c": (cloud, 6)}
    maps = {}
    for object_id, (name, (dbspace, pages)) in enumerate(layout.items(), 1):
        writer = ObjectHandle(object_id, name, dbspace,
                              Blockmap(dbspace, fanout=8), 0, 0, True, txn)
        for page_no in range(pages):
            image = bytes((object_id * 31 + page_no * 7 + j) % 253
                          for j in range(page_size - 64 * (page_no % 3)))
            buffer.write_page(writer, page_no, image)
        maps[name] = writer.blockmap
    buffer.flush_txn(txn.txn_id)
    cloud.flush_for_commit(txn.txn_id)  # evicted pages went out write-back
    buffer.invalidate_all()
    ocm.invalidate_all()
    loaded_at = clock.now()

    readers = {
        name: ObjectHandle(object_id, name, dbspace, maps[name], 0, pages,
                           False)
        for object_id, (name, (dbspace, pages)) in enumerate(layout.items(), 1)
    }
    calls = []

    def note(op: str, **fields) -> None:
        calls.append({"op": op, "t": clock.now(), **fields})

    def get(name: str, page_no: int) -> None:
        try:
            data = buffer.get_page(readers[name], page_no)
            note("get_page", object=name, page=page_no,
                 digest=_digest([data]))
        except BufferError as error:
            note("get_page", object=name, page=page_no,
                 error=type(error).__name__)

    def prefetch(name: str, pages, scan_hint: bool = False) -> None:
        before = buffer.stats().get("prefetched", 0)
        buffer.prefetch(readers[name], pages, scan_hint=scan_hint)
        count = int(buffer.stats().get("prefetched", 0) - before)
        note("prefetch", object=name, count=count)

    def issue(requests, scan_hint: bool = True) -> None:
        done = buffer.prefetch_at(
            [(readers[name], pages) for name, pages in requests],
            clock.now(), scan_hint=scan_hint,
        )
        clock.advance(0.002)  # decode of the previous batch
        note("prefetch_issue_many", done=done)
        clock.advance_to(max(done, clock.now()))

    get("a", 0), get("a", 0), get("b", 3), get("b", 3)
    prefetch("a", range(1, 6))
    prefetch("b", range(0, 5), scan_hint=True)
    get("a", 2), get("b", 7)
    issue([("a", [4, 5, 6, 7, 8, 9]), ("c", [0, 1, 2, 3])])
    issue([("a", [10, 11, 0]), ("b", [5, 6, 7, 8])])
    issue([("c", [4, 5]), ("b", [8, 9, 0])], scan_hint=False)
    issue([("c", [4, 5])])  # nothing missing: no I/O
    prefetch("c", [0, 5, 99])  # 99 has no locator and is skipped
    get("c", 99)
    get("a", 11), get("c", 1), get("b", 9)
    return {
        "calls": calls,
        "loaded_at": loaded_at,
        "frames": [[key[0], key[1]] for key in buffer._frames],
        "buffer": dict(sorted(buffer.stats().items())),
        "ocm": dict(sorted(ocm.stats().items())),
        "disk": {name: device.metrics.snapshot()[name]
                 for name in ("read_ops", "read_bytes")},
        "store_gets": store.metrics.snapshot()["get_requests"],
        "buffer_seconds": tracer.layer_totals()["buffer"],
        "clock": clock.now(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("combo", COMBINATIONS, ids=_combo_id)
def test_ocm_reads_reproduce_golden(golden, combo):
    observed = json.loads(json.dumps(run_ocm_script(**combo)))
    expected = golden["ocm"][_combo_id(combo)]
    # Compare piecewise so a drift names the part that moved.
    for index, call in enumerate(expected["calls"]):
        assert observed["calls"][index] == call
    for part in expected:
        assert observed[part] == expected[part], part


def test_buffer_reads_reproduce_golden(golden):
    observed = json.loads(json.dumps(run_buffer_script()))
    expected = golden["buffer"]
    for index, call in enumerate(expected["calls"]):
        assert observed["calls"][index] == call
    for part in expected:
        assert observed[part] == expected[part], part


def test_script_reaches_every_read_path(golden):
    """The golden is only worth pinning if the script hits the paths."""
    ocm = golden["ocm"]
    for name, run in ocm.items():
        stats = run["ocm"]
        assert stats["hits"] > 0 and stats["misses"] > 0, name
        assert stats["evictions"] > 0, name
        assert stats["degraded_reads"] > 0, name
        assert stats["degraded_miss_failures"] > 0, name
        assert stats["degraded_recoveries"] > 0, name
        errors = {call["op"] for call in run["calls"]
                  if call.get("error") == "DegradedCacheMissError"}
        assert errors == {"get", "get_many", "get_many_at"}, name
    assert ocm["arc2q-no_routing-single"]["ocm"]["policy_promotions"] > 0
    forced = ocm["lru-no_routing-single-lru_insert_before_upload"]
    assert forced["ocm"]["forced_uploads"] > 0
    for driver in ("single", "sessions"):
        verified = ocm[f"lru-no_routing-{driver}-verify_reads"]
        assert verified["ocm"]["cache_verify_failures"] == 3, driver
    buffer = golden["buffer"]["buffer"]
    for counter in ("hits", "misses", "prefetched", "pipelined_prefetches",
                    "evictions"):
        assert buffer[counter] > 0, counter


if __name__ == "__main__":
    text = json.dumps({
        "ocm": {_combo_id(combo): run_ocm_script(**combo)
                for combo in COMBINATIONS},
        "buffer": run_buffer_script(),
    }, indent=1, sort_keys=True)
    # One recorded call per line: a drift reads as the calls that moved.
    text = re.sub(r'\{[^{}]*"op"[^{}]*\}',
                  lambda call: re.sub(r"\s*\n\s*", " ", call.group(0)), text)
    GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {GOLDEN_PATH}")
