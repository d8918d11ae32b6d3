"""Property tests: what a checkpoint charges the log device.

A checkpoint is charged the length of its state serialized as JSON with
every bytes value written as base64 text (the catalog is bytes; each
freelist is held as a used-prefix copy and charged as the bytes of its
full ``to_bytes()`` image).  The charge moves the virtual clock, so it is pinned
two ways: a property over arbitrary nested states, and the exact device
counters of one ``Database`` checkpoint and one ``Multiplex`` coordinator
recovery.
"""

import base64
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.device import BlockDevice
from repro.blockstore.freelist import Freelist
from repro.blockstore.profiles import nvme_ssd
from repro.core.log import TransactionLog
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import DatabaseConfig
from repro.sim.clock import VirtualClock
from tests.conftest import MIB, make_db


def b64(value):
    """``value`` with every bytes value replaced by its base64 text."""
    if isinstance(value, bytes):
        return base64.b64encode(value).decode("ascii")
    if isinstance(value, dict):
        return {key: b64(item) for key, item in value.items()}
    if isinstance(value, list):
        return [b64(item) for item in value]
    return value


# Lengths 0..7 cover n mod 3 = 0, 1, 2 (including the empty value) twice.
blobs = st.one_of(st.binary(max_size=7), st.binary(min_size=8, max_size=64))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), blobs,
)
states = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=5,
)


def checkpoint_charge(state):
    """Bytes ``TransactionLog.checkpoint(state)`` writes beyond its record."""
    device = BlockDevice(nvme_ssd(), 4096, 100, clock=VirtualClock())
    written = device.metrics.counter("write_bytes")
    log = TransactionLog(device)
    record = log.checkpoint(state)
    total = written.value
    # An equal-length record (LSN 2 after LSN 1) costs what the marker did.
    log.append(record.kind, record.payload)
    return total - (written.value - total)


@given(states)
@settings(max_examples=100, deadline=None)
def test_text_state_is_charged_its_json_length(state):
    encoded = b64(state)
    assert checkpoint_charge(encoded) == len(json.dumps(encoded))


@given(states)
@settings(max_examples=100, deadline=None)
def test_bytes_are_charged_at_their_base64_length(state):
    assert checkpoint_charge(state) == len(json.dumps(b64(state)))


def freelist_with(total, blocks):
    freelist = Freelist(total)
    for block in blocks:
        freelist.mark_used(block)
    return freelist


@st.composite
def freelists(draw):
    total = draw(st.integers(1, 200))
    blocks = draw(st.lists(st.integers(0, total - 1), max_size=12))
    return freelist_with(total, blocks)


@given(freelists(), states)
@settings(max_examples=100, deadline=None)
def test_a_freelist_is_charged_as_its_full_image(freelist, state):
    image = dict(state, freelist=freelist.to_bytes())
    assert checkpoint_charge(dict(state, freelist=freelist)) == len(
        json.dumps(b64(image)))


def test_a_freelist_set_in_its_final_byte_is_charged_as_its_full_image():
    # The held prefix is the whole bitmap here, and an empty one before.
    for total in (8, 13, 64, 1001):
        for blocks in ([total - 1], [0, total - 1], []):
            freelist = freelist_with(total, blocks)
            image = freelist.to_bytes()
            assert len(image) == 8 + (total + 7) // 8
            state = {"freelists": {"system": freelist.copy()}}
            assert checkpoint_charge(state) == checkpoint_charge(
                {"freelists": {"system": image}})


# Recorded before checkpoint state carried raw bytes; a sizing slip moves
# these before it moves any golden.
DB_CONSTRUCTION_WRITE_BYTES = 11185641.0
DB_CONSTRUCTION_CLOCK = 0.05711955453712423
DB_CHECKPOINT_WRITE_BYTES = 22371282.0
DB_CHECKPOINT_CLOCK = 0.1141750733985777
MX_RECOVERY_WRITE_BYTES = 22374574.0
MX_RECOVERY_CLOCK = 1.7169923862573049


def test_database_checkpoint_charges_are_pinned():
    db = make_db()
    written = db.system_device.metrics.counter("write_bytes")
    assert written.value == DB_CONSTRUCTION_WRITE_BYTES
    assert db.clock.now() == DB_CONSTRUCTION_CLOCK
    db.checkpoint()
    assert written.value == DB_CHECKPOINT_WRITE_BYTES
    assert db.clock.now() == DB_CHECKPOINT_CLOCK


def test_multiplex_coordinator_recovery_charges_are_pinned():
    mx = Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024,
                       ocm_capacity_bytes=32 * MIB),
        MultiplexConfig(writers=1, readers=1, secondary_buffer_bytes=8 * MIB,
                        secondary_ocm_bytes=32 * MIB),
    )
    coordinator = mx.coordinator
    coordinator.create_object("t")
    txn = coordinator.begin()
    coordinator.write_page(txn, "t", 0, b"x" * 100)
    coordinator.commit(txn)
    mx.coordinator_crash_and_recover()
    written = coordinator.system_device.metrics.counter("write_bytes")
    assert written.value == MX_RECOVERY_WRITE_BYTES
    assert coordinator.clock.now() == MX_RECOVERY_CLOCK
