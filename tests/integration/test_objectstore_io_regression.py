"""Object-store I/O characterisation golden: the client/store request paths.

The default-path goldens (``fixed_window_golden.json``,
``load_summary_golden.json``) run with coalescing, verified reads and
replication all off.  This one drives a single seeded script — puts, gets
of not-yet-visible keys, adjacent runs, a PUT outage that forces the
coalesced batch onto its per-key fallback, a transient-failure storm, a
bit-rot read window, hedged GETs under a latency spike, HEADs and deletes —
through :class:`RetryingObjectClient` under every combination of coalescing
on/off × ``verify_reads`` on/off × bare vs. 2-region replicated store, and
pins each step's completion time, the client and store counter snapshots
and the tracer's ``(op, layer, start, end)`` list.

Floats survive a JSON round-trip losslessly, so ``==`` is the comparison.
Regenerate (``python tests/integration/test_objectstore_io_regression.py``)
only when a request-path behaviour change is intended and called out.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.checksum import crc32c
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.client import (
    COALESCE_MAX_RUN,
    CircuitBreakerConfig,
    HedgePolicy,
    RetryPolicy,
)
from repro.objectstore.errors import (
    CircuitOpenError,
    CorruptObjectError,
    RetriesExhaustedError,
)
from repro.objectstore.consistency import ConsistencyModel
from repro.objectstore.faults import (
    BitRot,
    ErrorStorm,
    FaultSchedule,
    LatencySpike,
    OutageWindow,
)
from repro.objectstore.replicated import (
    ReplicationConfig,
    build_replicated_store,
)
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import Tracer
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE

GOLDEN_PATH = (
    Path(__file__).parent.parent / "data" / "objectstore_io_golden.json"
)
BASE = OBJECT_KEY_BASE + 5000

COMBINATIONS = [
    {"coalesce": coalesce, "verify_reads": verify, "replicated": replicated}
    for coalesce, verify, replicated in itertools.product(
        (False, True), repeat=3
    )
]


def _combo_id(combo: dict) -> str:
    return "-".join(
        name if combo[name] else f"no_{name}"
        for name in ("coalesce", "verify_reads", "replicated")
    )


def _schedule() -> FaultSchedule:
    return FaultSchedule([
        # Both range attempts of the coalesced batch fail; the batch
        # degrades to per-key PUTs.
        OutageWindow(start=1.0, end=1.05, ops=("put",)),
        ErrorStorm(start=2.0, end=2.6, probability=0.5),
        BitRot(start=3.0, end=3.3, ops=("get",), probability=0.6, flips=2),
        LatencySpike(start=4.0, end=4.5, ops=("get",), multiplier=12.0),
        OutageWindow(start=20.0, end=21.0),
    ])


def _payload(i: int) -> bytes:
    return bytes([(i * 7 + j) % 256 for j in range(96 + 8 * (i % 5))])


def run_script(coalesce: bool, verify_reads: bool, replicated: bool) -> dict:
    clock = VirtualClock()
    rng = DeterministicRng(7, "io-golden")
    profile = ObjectStoreProfile(
        name="s3",
        consistency=ConsistencyModel(invisible_probability=0.4,
                                     mean_lag_seconds=0.05),
        transient_failure_probability=0.01,
    )
    store = SimulatedObjectStore(profile, clock=clock,
                                 rng=rng.substream("s3"),
                                 fault_schedule=_schedule())
    primary = store
    if replicated:
        store = build_replicated_store(
            ReplicationConfig(regions=("us-east-1", "us-west-2"),
                              mean_lag_seconds=0.1),
            primary, rng,
        )
    client = RetryingObjectClient(
        store,
        policy=RetryPolicy(max_attempts=10, jitter="decorrelated"),
        parallel_window=4,
        node_id="n1",
        hedge=HedgePolicy(quantile=90.0, min_samples=10, initial_delay=0.04),
        rng=rng.substream("client"),
        max_run=COALESCE_MAX_RUN if coalesce else 1,
        verify_reads=verify_reads,
    )
    tracer = Tracer(clock)
    client.tracer = tracer
    store.tracer = tracer

    names = [hashed_object_name(BASE + i) for i in range(40)]
    steps = {}

    def items(lo: int, hi: int):
        return [(names[i], _payload(i)) for i in range(lo, hi)]

    def fetch(label: str, wanted, now: float, window=None) -> None:
        results, done = client.get_many_at(wanted, now, window=window)
        assert set(results) == set(wanted)
        steps[label] = done
        # Unverified reads may hand up rotten bytes: pin those too.
        steps[label + "_crc"] = crc32c(
            b"".join(results[name] for name in wanted)
        )

    # t=0: single puts, then an adjacent run plus an unparseable name.
    steps["put_single"] = client.put_at(names[0], _payload(0), 0.0)
    steps["put_meta"] = client.put_at("meta/catalog", b"catalog", 0.0,
                                      bypass_breaker=True)
    steps["put_run"] = client.put_many_at(items(1, 22), 0.0)
    # Reads racing visibility: some keys are not yet visible.
    fetch("get_racing", names[:22] + ["meta/catalog"],
          steps["put_run"])
    data, steps["get_single"] = client.get_at(names[3], 0.5)
    assert data == _payload(3)
    # t=1: PUT outage — the coalesced run falls back to per-key PUTs.
    steps["put_outage"] = client.put_many_at(items(22, 28), 1.0, window=2)
    # t=2: transient-failure storm over every verb.
    steps["put_storm"] = client.put_many_at(items(28, 34), 2.0)
    fetch("get_storm", names[:12], 2.1, window=3)
    fetch("get_storm_late", names[12:22] + names[28:34], 2.3)
    for i in range(4):
        visible, steps[f"head_storm_{i}"] = client.exists_at(
            names[5 + i], 2.2 + 0.05 * i
        )
        assert visible
    steps["delete_storm"] = client.delete_at(names[0], 2.3)
    # t=3: bit-rot on the read path.
    fetch("get_bitrot", names[4:20], 3.0)
    data, steps["get_bitrot_single"] = client.get_at(names[21], 3.1)
    steps["get_bitrot_single_crc"] = crc32c(data)
    # At-rest damage: read-repaired from the replica when there is one,
    # CorruptObjectError when verified without one, served when unverified.
    assert primary.inject_damage(names[20], flips=3)
    try:
        data, steps["get_damaged"] = client.get_at(names[20], 3.5)
        steps["get_damaged_crc"] = crc32c(data)
    except CorruptObjectError as error:
        steps["get_damaged"] = f"corrupt after {error.attempts} attempts"
    # t=4: latency spike -> hedged GETs.
    fetch("get_hedged", names[1:9] + [names[30]], 4.0)
    data, steps["get_hedged_single"] = client.get_at(names[10], 4.2)
    # t=5: the clock-advancing wrappers.
    clock.advance_to(5.0)
    client.put_many(items(34, 40), window=3)
    steps["sync_put_many"] = clock.now()
    client.put("meta/extra", b"extra")
    steps["sync_put"] = clock.now()
    got = client.get_many(names[30:40] + ["meta/extra"])
    assert got["meta/extra"] == b"extra"
    steps["sync_get_many"] = clock.now()
    assert client.get(names[12]) == _payload(12)
    steps["sync_get"] = clock.now()
    assert client.exists(names[13])
    steps["sync_head"] = clock.now()
    client.delete_many(names[1:8], window=2)
    steps["sync_delete_many"] = clock.now()
    client.delete(names[8])
    steps["sync_delete"] = clock.now()
    visible, steps["head_deleted"] = client.exists_at(names[2],
                                                      clock.now() + 1.0)
    steps["head_deleted_visible"] = visible

    # t=20: a second client with a circuit breaker rides a hard outage —
    # trip, fail fast, commit-path bypass, half-open probe, close.
    guarded = RetryingObjectClient(
        store,
        policy=RetryPolicy(max_attempts=4, initial_backoff=0.05),
        parallel_window=4,
        node_id="n2",
        breaker=CircuitBreakerConfig(failure_threshold=3, reset_timeout=0.4),
        rng=rng.substream("guarded"),
        max_run=COALESCE_MAX_RUN if coalesce else 1,
        verify_reads=verify_reads,
    )
    guarded.tracer = tracer
    fresh = [(hashed_object_name(BASE + 100 + i), _payload(i))
             for i in range(6)]

    def guarded_step(label: str, call) -> None:
        try:
            steps[label] = call()
        except (CircuitOpenError, RetriesExhaustedError) as error:
            steps[label] = f"{type(error).__name__}: {error}"

    guarded_step("breaker_trip",
                 lambda: guarded.put_many_at(fresh[:4], 20.0))
    guarded_step("breaker_fast_fail",
                 lambda: guarded.get_many_at(names[30:36], 20.3)[1])
    guarded_step("breaker_bypass",
                 lambda: guarded.put_many_at(fresh[:4], 20.35,
                                             bypass_breaker=True))
    guarded_step("breaker_probe",
                 lambda: guarded.get_many_at(names[30:36], 21.8)[1])
    guarded_step("breaker_closed",
                 lambda: guarded.put_many_at(fresh[4:], 21.9))
    steps["breaker_state"] = guarded.breaker_state(22.0)

    return {
        "steps": steps,
        "client": dict(sorted(client.metrics.snapshot().items())),
        "guarded_client": dict(sorted(guarded.metrics.snapshot().items())),
        "store": dict(sorted(primary.metrics.snapshot().items())),
        "stored_bytes": primary.stored_bytes(),
        "spans": _span_digest(tracer),
    }


def _span_digest(tracer: Tracer) -> dict:
    """The ``(op, layer, start, end)`` list, pinned by hash.

    The per-``layer/op`` ``[count, total seconds]`` table is redundant
    with the hash; it is there so a drift names the spans that moved.
    """
    spans = [[span.name, span.layer, span.start, span.end]
             for span in tracer.all_spans()]
    by_op: dict = {}
    for name, layer, start, end in spans:
        entry = by_op.setdefault(f"{layer}/{name}", [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    return {
        "count": len(spans),
        "by_op": dict(sorted(by_op.items())),
        "sha256": hashlib.sha256(json.dumps(spans).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("combo", COMBINATIONS, ids=_combo_id)
def test_request_paths_reproduce_golden(golden, combo):
    observed = json.loads(json.dumps(run_script(**combo)))
    expected = golden[_combo_id(combo)]
    # Compare piecewise so a drift names the part that moved.
    assert observed["steps"] == expected["steps"]
    assert observed["client"] == expected["client"]
    assert observed["guarded_client"] == expected["guarded_client"]
    assert observed["store"] == expected["store"]
    assert observed["stored_bytes"] == expected["stored_bytes"]
    assert observed["spans"] == expected["spans"]


def test_script_reaches_every_request_path(golden):
    """The golden is only worth pinning if the script hits the paths."""
    on = golden["coalesce-verify_reads-replicated"]
    assert on["client"]["coalesced_get_batches"] > 0
    assert on["client"]["coalesced_put_batches"] > 0
    assert on["client"]["put_range_fallbacks"] > 0
    assert on["client"]["checksum_mismatches"] > 0
    assert on["client"]["hedged_gets"] > 0
    assert on["client"]["not_found_retries"] > 0
    assert on["client"]["read_repairs"] > 0
    assert golden["no_coalesce-verify_reads-no_replicated"]["steps"][
        "get_damaged"
    ] == "corrupt after 10 attempts"
    for verb in ("put", "get", "delete", "head"):
        assert on["client"][f"{verb}_retries"] > 0, verb
    bare = golden["coalesce-verify_reads-no_replicated"]["guarded_client"]
    for name in ("breaker_opened", "breaker_fast_failures",
                 "breaker_half_open", "breaker_closed"):
        assert bare[name] > 0, name
    # Region-labelled twins under replication; there the commit-path
    # bypass outlasts the outage and closes the open breaker directly.
    assert on["guarded_client"]["breaker_closed:us-east-1"] > 0
    off = golden["no_coalesce-no_verify_reads-no_replicated"]
    assert "coalesced_get_batches" not in off["client"]
    assert "checksum_mismatches" not in off["client"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {_combo_id(combo): run_script(**combo) for combo in COMBINATIONS},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")
