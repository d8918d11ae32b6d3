"""Property tests: the eventual-consistency model and never-write-twice.

The paper's central safety argument: if every object is written at most
once, an eventually consistent store can only ever return *the* version or
"not found" — never wrong data.  These tests drive the simulator with
random workloads and verify exactly that.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectstore import (
    ConsistencyModel,
    RetryingObjectClient,
    RetryPolicy,
    SimulatedObjectStore,
)
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


def make_store(seed, lag_probability, mean_lag):
    profile = ObjectStoreProfile(
        name="s3",
        consistency=ConsistencyModel(invisible_probability=lag_probability,
                                     mean_lag_seconds=mean_lag),
        transient_failure_probability=0.0,
        latency_jitter=0.0,
    )
    return SimulatedObjectStore(profile, clock=VirtualClock(),
                                rng=DeterministicRng(seed))


@given(
    seed=st.integers(0, 1000),
    lag_probability=st.floats(0.0, 1.0),
    mean_lag=st.floats(0.001, 1.0),
    writes=st.lists(st.tuples(st.integers(0, 30), st.binary(max_size=40)),
                    min_size=1, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_unique_keys_never_yield_wrong_data(seed, lag_probability,
                                            mean_lag, writes):
    """With unique keys, reads return the written bytes or nothing."""
    store = make_store(seed, lag_probability, mean_lag)
    written = {}
    for serial, (__, data) in enumerate(writes):
        key = f"k/{serial}"  # never reused
        store.put_range_at([(key, data)], float(serial))
        written[key] = data
    for key, data in written.items():
        results, __ = store.get_range_at([key], 1e9)  # far future: all visible
        observed, __ = results[key]
        assert observed == data
    assert store.metrics.snapshot().get("stale_reads", 0) == 0


@given(
    seed=st.integers(0, 1000),
    overwrites=st.lists(st.binary(min_size=1, max_size=20), min_size=2,
                        max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_overwrites_can_serve_stale_data(seed, overwrites):
    """The ablation scenario: rewriting one key risks stale reads."""
    store = make_store(seed, lag_probability=1.0, mean_lag=10.0)
    for i, data in enumerate(overwrites):
        store.put_range_at([("same/key", data)], float(i))
    results, __ = store.get_range_at(["same/key"], float(len(overwrites)))
    observed, __ = results["same/key"]
    # Whatever is observed is one of the written versions (or nothing) —
    # but never arbitrary bytes.
    assert observed is None or observed in overwrites


@given(
    seed=st.integers(0, 500),
    lag_probability=st.floats(0.0, 0.9),
    keys=st.lists(st.integers(0, 50), min_size=1, max_size=40, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_retrying_client_always_reads_its_writes(seed, lag_probability, keys):
    """Read-after-write: the retrying client converges on every key."""
    store = make_store(seed, lag_probability, mean_lag=0.05)
    client = RetryingObjectClient(
        store, policy=RetryPolicy(max_attempts=30, initial_backoff=0.05)
    )
    for key in keys:
        payload = b"value-%d" % key
        client.put(f"k/{key}", payload)
        assert client.get(f"k/{key}") == payload
