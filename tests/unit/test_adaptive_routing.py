"""Unit tests for adaptive OCM read re-routing (proposed future work).

The paper's Figure 6 analysis proposes monitoring SSD vs object-store read
latency and re-routing cache hits to the object store while asynchronous
fills saturate the SSD.
"""

from repro.blockstore.profiles import nvme_ssd
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.replicated import ReplicationConfig
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile
from tests.conftest import make_db


def make_ocm(adaptive: bool, ssd_bandwidth: float = 50_000.0):
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0,
                                 latency_jitter=0.0)
    store = SimulatedObjectStore(profile, clock=VirtualClock())
    client = RetryingObjectClient(store)
    slow_ssd = DeviceProfile(
        name="ssd", read_latency=0.0001, write_latency=0.0002,
        bandwidth=ssd_bandwidth, write_cost_multiplier=4.0,
    )
    return ObjectCacheManager(
        client, slow_ssd,
        OcmConfig(capacity_bytes=1 << 26, adaptive_read_routing=adaptive),
    )


def saturate_and_read(ocm) -> float:
    """Fill the SSD write queue, then time a cache hit."""
    ocm.client.put("hot/1", b"h" * 10_000)
    ocm.get("hot/1")  # now cached
    # Saturate the SSD with asynchronous cache fills.
    for i in range(20):
        ocm.client.put(f"cold/{i}", b"c" * 200_000)
    ocm.get_many([f"cold/{i}" for i in range(20)])
    start = ocm.clock.now()
    assert ocm.get("hot/1") == b"h" * 10_000
    return ocm.clock.now() - start


def test_adaptive_routing_beats_saturated_ssd():
    plain_latency = saturate_and_read(make_ocm(adaptive=False))
    adaptive_latency = saturate_and_read(make_ocm(adaptive=True))
    assert adaptive_latency < plain_latency / 2


def test_adaptive_routing_counts_reroutes():
    ocm = make_ocm(adaptive=True)
    saturate_and_read(ocm)
    assert ocm.stats().get("rerouted_reads", 0) >= 1


def test_no_reroute_on_idle_ssd():
    """With nothing queued, the SSD wins and routing stays local."""
    ocm = make_ocm(adaptive=True, ssd_bandwidth=2e9)
    ocm.client.put("hot/1", b"h" * 10_000)
    ocm.get("hot/1")
    ocm.get("hot/1")
    assert ocm.stats().get("rerouted_reads", 0) == 0


def test_adaptive_routing_preserves_correctness():
    ocm = make_ocm(adaptive=True)
    payloads = {f"k/{i}": bytes([i]) * 5000 for i in range(10)}
    for name, data in payloads.items():
        ocm.client.put(name, data)
    assert ocm.get_many(list(payloads)) == payloads
    # Saturate, then read everything again through whatever route wins.
    for i in range(20):
        ocm.client.put(f"cold/{i}", b"c" * 200_000)
    ocm.get_many([f"cold/{i}" for i in range(20)])
    assert ocm.get_many(list(payloads)) == payloads


def saturate(ocm) -> None:
    ocm.client.put("hot/1", b"h" * 10_000)
    ocm.get("hot/1")
    for i in range(20):
        ocm.client.put(f"cold/{i}", b"c" * 200_000)
    ocm.get_many([f"cold/{i}" for i in range(20)])


def test_pipelined_reads_reroute_too():
    """``get_many_at`` used to skip the routing check: with pipelined
    prefetch on, hits queued behind a saturated SSD regardless."""
    ocm = make_ocm(adaptive=True)
    saturate(ocm)
    now = ocm.clock.now()
    assert ocm.device.backlog(now) > ocm._store_read_estimate(10_000)
    ssd_reads = ocm.device.metrics.snapshot().get("read_ops", 0)
    twin = make_ocm(adaptive=True)
    saturate(twin)
    __, store_done = twin.client.get_at("hot/1", now)

    results, done = ocm.get_many_at(["hot/1"], now)
    assert results == {"hot/1": b"h" * 10_000}
    assert ocm.stats().get("rerouted_reads", 0) == 1
    assert done == store_done  # the store's time, not the SSD queue's
    assert ocm.device.metrics.snapshot().get("read_ops", 0) == ssd_reads
    assert ocm.clock.now() == now  # still pipelined: nobody waited


def test_all_three_read_forms_route_alike():
    latencies = {}
    for form in ("get", "get_many", "get_many_at"):
        ocm = make_ocm(adaptive=True)
        saturate(ocm)
        start = ocm.clock.now()
        if form == "get":
            ocm.get("hot/1")
        elif form == "get_many":
            ocm.get_many(["hot/1"])
        else:
            ocm.clock.advance_to(ocm.get_many_at(["hot/1"], start)[1])
        assert ocm.stats().get("rerouted_reads", 0) == 1, form
        latencies[form] = ocm.clock.now() - start
    assert len(set(latencies.values())) == 1, latencies


def test_replicated_engine_routes_uploaded_hits():
    """The routing estimate reads the store's profile; a replicated
    database's store is the region wrapper, which must expose it."""
    db = make_db(
        replication=ReplicationConfig(regions=("route-a", "route-b")),
        ocm_adaptive_routing=True,
    )
    db.create_object("t")
    txn = db.begin()
    for page in range(4):
        db.write_page(txn, "t", page, b"p%d" % page)
    db.commit(txn)
    db.buffer.invalidate_all()
    txn = db.begin()
    assert [db.read_page(txn, "t", page) for page in range(4)] == [
        b"p%d" % page for page in range(4)
    ]
    assert db.ocm.stats()["hits"] >= 4
