"""Unit tests for the multiplex: nodes, RPC, key caching."""

import pytest

from repro.core.multiplex import (
    RPC_LATENCY,
    Multiplex,
    MultiplexConfig,
    MultiplexError,
)
from repro.engine import DatabaseConfig

MIB = 1024 * 1024


def make_multiplex(writers=1, readers=1, **config_overrides):
    return Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024,
                       ocm_capacity_bytes=32 * MIB, **config_overrides),
        MultiplexConfig(writers=writers, readers=readers,
                        secondary_buffer_bytes=8 * MIB,
                        secondary_ocm_bytes=32 * MIB),
    )


def test_cluster_shape():
    mx = make_multiplex(writers=2, readers=3)
    assert len(mx.writers()) == 2
    assert len(mx.readers()) == 3
    assert mx.node("writer-1").kind == "writer"
    with pytest.raises(MultiplexError):
        mx.node("writer-9")


def test_secondaries_inherit_the_coordinators_io_settings():
    """Writers and readers get their client and OCM from the builder the
    coordinator uses, so no behaviour field is dropped on the way."""
    mx = make_multiplex(
        verify_reads=True, coalesce_max_run=8,
        ocm_policy="arc2q", ocm_adaptive_routing=True,
    )
    coordinator = mx.coordinator
    for node in mx.secondaries():
        for field in ("max_run", "verify_reads",
                      "parallel_window", "policy"):
            assert (getattr(node.client, field)
                    == getattr(coordinator.object_client, field)), field
        assert node.client.max_run == 8
        assert node.client.bandwidth is node.nic
        assert node.client.node_id == node.node_id
        assert node.ocm.config == coordinator.ocm.config
        assert node.ocm._verify
        assert node.config is coordinator.config


SEALED = pytest.mark.parametrize("sealing", [
    {"page_checksums": True},
], ids=["checksummed"])


@SEALED
def test_secondary_opens_what_the_coordinator_sealed(sealing):
    mx = make_multiplex(**sealing)
    coordinator = mx.coordinator
    coordinator.create_object("t")
    txn = coordinator.begin()
    coordinator.write_page(txn, "t", 0, b"from coordinator " * 50)
    coordinator.commit(txn)
    reader = mx.node("reader-1")
    read_txn = reader.begin()
    assert reader.read_page(read_txn, "t", 0) == b"from coordinator " * 50
    reader.rollback(read_txn)


@SEALED
def test_coordinator_opens_what_a_writer_sealed(sealing):
    mx = make_multiplex(**sealing)
    coordinator = mx.coordinator
    coordinator.create_object("t")
    writer = mx.node("writer-1")
    txn = writer.begin()
    writer.write_page(txn, "t", 0, b"PLAINTEXT-MARKER " * 50)
    writer.commit(txn)
    read_txn = coordinator.begin()
    assert (coordinator.read_page(read_txn, "t", 0)
            == b"PLAINTEXT-MARKER " * 50)
    coordinator.commit(read_txn)


def test_requires_cloud_dbspace():
    with pytest.raises(MultiplexError):
        Multiplex(DatabaseConfig(user_volume="ebs"))


def test_writer_commits_reader_sees():
    mx = make_multiplex()
    mx.coordinator.create_object("t")
    writer = mx.node("writer-1")
    txn = writer.begin()
    writer.write_page(txn, "t", 0, b"from writer")
    writer.commit(txn)
    reader = mx.node("reader-1")
    read_txn = reader.begin()
    assert reader.read_page(read_txn, "t", 0) == b"from writer"
    reader.rollback(read_txn)


def test_reader_cannot_write():
    mx = make_multiplex()
    mx.coordinator.create_object("t")
    reader = mx.node("reader-1")
    txn = reader.begin()
    with pytest.raises(MultiplexError):
        reader.write_page(txn, "t", 0, b"illegal")
    reader.rollback(txn)


def test_secondary_key_ranges_via_rpc():
    mx = make_multiplex()
    mx.coordinator.create_object("t")
    writer = mx.node("writer-1")
    txn = writer.begin()
    for page in range(5):
        writer.write_page(txn, "t", page, b"p%d" % page)
    writer.commit(txn)
    assert writer.rpc.metrics.snapshot()["rpc:allocate_range"] >= 1
    assert writer.key_cache.refill_count >= 1


def test_each_node_has_own_caches():
    mx = make_multiplex(writers=2)
    mx.coordinator.create_object("t")
    w1, w2 = mx.node("writer-1"), mx.node("writer-2")
    txn = w1.begin()
    w1.write_page(txn, "t", 0, b"w1 data")
    w1.commit(txn)
    # w2 reads the same data through its own buffer/OCM.
    read = w2.begin()
    assert w2.read_page(read, "t", 0) == b"w1 data"
    w2.rollback(read)
    assert w1.buffer is not w2.buffer
    assert w1.ocm is not w2.ocm


def test_crashed_node_rejects_use():
    mx = make_multiplex()
    writer = mx.node("writer-1")
    writer.crash()
    with pytest.raises(MultiplexError):
        writer.begin()
    writer.restart()
    # Restarting a live node is an error.
    with pytest.raises(MultiplexError):
        writer.restart()


def test_writer_restart_gc_polls_active_set():
    mx = make_multiplex()
    co = mx.coordinator
    co.create_object("t")
    writer = mx.node("writer-1")
    txn = writer.begin()
    for page in range(4):
        writer.write_page(txn, "t", page, b"doomed-%d" % page)
    writer.buffer.flush_txn(txn.txn_id, commit_mode=False)
    if writer.ocm is not None:
        writer.ocm.drain_all()
    orphaned = co.object_store.object_count()
    assert orphaned > 0
    writer.crash()
    reclaimed = writer.restart()
    assert reclaimed == orphaned
    assert not co.keygen.active_set("writer-1")


def test_rollback_then_restart_double_gc_is_safe():
    """Table 1 clocks 130-150: restart re-polls already-deleted keys."""
    mx = make_multiplex()
    co = mx.coordinator
    co.create_object("t")
    writer = mx.node("writer-1")
    txn = writer.begin()
    writer.write_page(txn, "t", 0, b"will roll back")
    writer.buffer.flush_txn(txn.txn_id, commit_mode=False)
    if writer.ocm is not None:
        writer.ocm.drain_all()
    writer.rollback(txn)  # deletes objects, active set untouched
    assert co.keygen.active_set("writer-1")
    writer.crash()
    reclaimed = writer.restart()
    assert reclaimed == 0  # polling found nothing: rollback already cleaned
    assert not co.keygen.active_set("writer-1")


def test_coordinator_crash_preserves_secondary_state():
    mx = make_multiplex(writers=2)
    co = mx.coordinator
    co.create_object("t")
    w1 = mx.node("writer-1")
    txn = w1.begin()
    w1.write_page(txn, "t", 0, b"survives")
    before = co.keygen.active_set("writer-1").intervals()
    mx.coordinator_crash_and_recover()
    after = mx.coordinator.keygen.active_set("writer-1").intervals()
    assert before == after
    w1.commit(txn)
    check = mx.node("writer-2").begin()
    assert mx.node("writer-2").read_page(check, "t", 0) == b"survives"
    mx.node("writer-2").rollback(check)


def test_rpc_charges_latency():
    mx = make_multiplex()
    clock = mx.clock
    before = clock.now()
    txn = mx.node("writer-1").begin()
    assert clock.now() >= before + 2 * RPC_LATENCY
    mx.node("writer-1").rollback(txn)


# --------------------------------------------------------------------- #
# crash edge cases: double-crash, healthy restart, coordinator recovery
# --------------------------------------------------------------------- #


def test_double_crash_raises_cleanly():
    from repro.engine import EngineError

    mx = make_multiplex()
    writer = mx.node("writer-1")
    writer.crash()
    with pytest.raises(MultiplexError):
        writer.crash()
    writer.restart()
    co = mx.coordinator
    co.crash()
    with pytest.raises(EngineError):
        co.crash()
    co.restart()


def test_restart_while_healthy_raises_cleanly():
    from repro.engine import EngineError

    mx = make_multiplex()
    with pytest.raises(MultiplexError):
        mx.node("writer-1").restart()
    with pytest.raises(EngineError):
        mx.coordinator.restart()


def test_coordinator_crash_preserves_snapshot_retention():
    """In-flight retention FIFO entries survive a coordinator crash."""
    mx = make_multiplex(retention_seconds=60.0)
    co = mx.coordinator
    co.create_object("t")
    writer = mx.node("writer-1")
    for tag in (b"old", b"new"):
        txn = writer.begin()
        writer.write_page(txn, "t", 0, tag)
        writer.commit(txn)
    co.txn_manager.collect_garbage()
    manager = co.snapshot_manager
    before = sorted(
        (name, locator) for name, locators
        in manager.retained_locators().items() for locator in locators
    )
    assert before  # the superseded "old" page is awaiting retention expiry
    mx.coordinator_crash_and_recover()
    manager = mx.coordinator.snapshot_manager
    after = sorted(
        (name, locator) for name, locators
        in manager.retained_locators().items() for locator in locators
    )
    assert after == before
    # The retained page is eventually reaped, not leaked.
    mx.clock.advance(mx.coordinator.config.retention_seconds + 1.0)
    assert manager.reap() >= 1


def test_coordinator_crash_preserves_multiple_secondary_active_sets():
    mx = make_multiplex(writers=2)
    co = mx.coordinator
    # One object per writer: the table-level write lock is exclusive.
    txns = []
    for node_id in ("writer-1", "writer-2"):
        co.create_object("t-" + node_id)
        node = mx.node(node_id)
        txn = node.begin()
        node.write_page(txn, "t-" + node_id, 0,
                        b"uncommitted-" + node_id.encode())
        # Force the upload so the node actually consumes allocated keys.
        node.buffer.flush_txn(txn.txn_id, commit_mode=False)
        if node.ocm is not None:
            node.ocm.drain_all()
        txns.append((node, txn))
    before = {
        node_id: co.keygen.active_set(node_id).intervals()
        for node_id in ("writer-1", "writer-2")
    }
    assert all(before.values())
    mx.coordinator_crash_and_recover()
    after = {
        node_id: mx.coordinator.keygen.active_set(node_id).intervals()
        for node_id in ("writer-1", "writer-2")
    }
    assert after == before
    for node, txn in txns:
        node.rollback(txn)
