"""Property tests: blockmap read-your-writes under random flush orders."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.device import BlockDevice
from repro.blockstore.profiles import ram_disk
from repro.sim.clock import VirtualClock
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import BlockDbspace
from repro.storage.locator import NULL_LOCATOR, OBJECT_KEY_BASE
from tests.conftest import flush_blockmap


def mapped(blockmap):
    """``{page_no: locator}`` of every mapped page, read through lookup."""
    locators = {page: blockmap.lookup(page)
                for page in range(blockmap.capacity)}
    return {page: locator for page, locator in locators.items()
            if locator != NULL_LOCATOR}


def make_store():
    device = BlockDevice(ram_disk(), 512, 100_000, clock=VirtualClock())
    return BlockDbspace("test", device)


@st.composite
def mapping_script(draw):
    """Interleaved set/flush operations over a small page space."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.integers(0, 300),
                      st.integers(1, 10_000)),
            st.tuples(st.just("flush"), st.just(0), st.just(0)),
        ),
        max_size=80,
    ))


@given(mapping_script(), st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_lookup_always_sees_latest_set(script, fanout):
    store = make_store()
    blockmap = Blockmap(store, fanout=fanout)
    model = {}
    for action, page, value in script:
        if action == "set":
            locator = OBJECT_KEY_BASE + value
            blockmap.set(page, locator)
            model[page] = locator
        else:
            flush_blockmap(blockmap)
    for page, locator in model.items():
        assert blockmap.lookup(page) == locator
    # Unmapped pages stay unmapped.
    for page in range(310):
        if page not in model:
            assert blockmap.lookup(page) == NULL_LOCATOR


@given(mapping_script(), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_flush_reload_preserves_mappings(script, fanout):
    store = make_store()
    blockmap = Blockmap(store, fanout=fanout)
    model = {}
    for action, page, value in script:
        if action == "set":
            locator = OBJECT_KEY_BASE + value
            blockmap.set(page, locator)
            model[page] = locator
        else:
            flush_blockmap(blockmap)
    root = flush_blockmap(blockmap)
    if root == NULL_LOCATOR:
        assert not model
        return
    reloaded = Blockmap(store, fanout=fanout, root_locator=root,
                        height=blockmap.height)
    assert mapped(reloaded) == model


@given(st.dictionaries(st.integers(0, 200), st.integers(1, 10_000),
                       max_size=40),
       st.dictionaries(st.integers(0, 200), st.integers(10_001, 20_000),
                       max_size=20))
@settings(max_examples=40, deadline=None)
def test_fork_isolation(base_mappings, fork_mappings):
    """A fork sees its own writes; the base never changes."""
    store = make_store()
    base = Blockmap(store, fanout=4)
    for page, value in base_mappings.items():
        base.set(page, OBJECT_KEY_BASE + value)
    flush_blockmap(base)
    base.mark_committed()
    snapshot = mapped(base)

    fork = base.fork()
    for page, value in fork_mappings.items():
        fork.set(page, OBJECT_KEY_BASE + value)
    flush_blockmap(fork)

    assert mapped(base) == snapshot
    expected_fork = dict(snapshot)
    expected_fork.update(
        {p: OBJECT_KEY_BASE + v for p, v in fork_mappings.items()}
    )
    assert mapped(fork) == expected_fork
