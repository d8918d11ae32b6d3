"""Unit tests for the transaction log and checkpoints."""

import gc
import weakref

from repro.blockstore.device import BlockDevice
from repro.blockstore.profiles import nvme_ssd
from repro.core.log import ALLOC_RANGE, LogRecord, TXN_COMMIT, TransactionLog
from repro.sim.clock import VirtualClock


def test_append_assigns_lsns():
    log = TransactionLog()
    first = log.append(ALLOC_RANGE, {"lo": 1})
    second = log.append(TXN_COMMIT, {"txn_id": 2})
    assert second.lsn == first.lsn + 1


def test_record_json_roundtrip():
    record = LogRecord(7, TXN_COMMIT, {"txn_id": 3, "node": "w1"})
    assert LogRecord.from_json(record.to_json()) == record


def test_records_since_checkpoint():
    log = TransactionLog()
    log.append(ALLOC_RANGE, {"a": 1})
    log.checkpoint({"state": True})
    log.append(TXN_COMMIT, {"b": 2})
    since = list(log.records_since_checkpoint())
    assert [r.kind for r in since] == [TXN_COMMIT]


def test_last_checkpoint_state():
    log = TransactionLog()
    assert log.last_checkpoint_state() is None
    log.checkpoint({"x": 1})
    log.checkpoint({"x": 2})
    assert log.last_checkpoint_state() == {"x": 2}


def test_appends_charge_device_time():
    device = BlockDevice(nvme_ssd(), 4096, 100, clock=VirtualClock())
    log = TransactionLog(device)
    log.append(TXN_COMMIT, {"txn_id": 1})
    assert device.clock.now() > 0


class State(dict):
    """A checkpoint state that can be weakly referenced."""


def test_log_keeps_only_the_latest_checkpoint_state():
    log = TransactionLog()
    states = [State(x=index) for index in range(4)]
    kept = [weakref.ref(state) for state in states]
    for state in states:
        log.checkpoint(state)
    del states, state
    gc.collect()
    assert [ref() is not None for ref in kept] == [False, False, False, True]
    assert log.last_checkpoint_state() == {"x": 3}
