"""Property tests: the OCM behaves like a correct cache.

Model-based testing: whatever interleaving of reads, write-backs,
write-throughs, commits and rollbacks happens, the OCM must return the
bytes a plain dict-model would, commits must make every written object
durable, and rollbacks must leave nothing behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.profiles import nvme_ssd
from repro.core.cache_policy import GHOST_CAPACITY_MULTIPLE, Arc2QPolicy
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock


def make_ocm(capacity):
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0,
                                 latency_jitter=0.0)
    store = SimulatedObjectStore(profile, clock=VirtualClock())
    return ObjectCacheManager(
        RetryingObjectClient(store), nvme_ssd(),
        OcmConfig(capacity_bytes=capacity),
    ), store


@st.composite
def ocm_script(draw):
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 15),
                      st.integers(1, 3), st.booleans()),
            st.tuples(st.just("read"), st.integers(0, 15), st.just(0),
                      st.just(False)),
            st.tuples(st.just("commit"), st.integers(1, 3), st.just(0),
                      st.just(False)),
            st.tuples(st.just("rollback"), st.integers(1, 3), st.just(0),
                      st.just(False)),
        ),
        max_size=50,
    ))
    return steps


@given(ocm_script(), st.sampled_from([4096, 1 << 20]))
@settings(max_examples=50, deadline=None)
def test_ocm_matches_dict_model(script, capacity):
    ocm, store = make_ocm(capacity)
    model = {}          # name -> latest bytes handed to the OCM
    open_txns = {}      # txn -> names written back and not yet resolved
    serial = 0
    for action, arg, txn, through in script:
        if action == "write":
            serial += 1
            # Fresh key per write: never-write-twice discipline.
            name = f"k/{arg}-{serial}"
            data = bytes([serial % 251]) * 64
            ocm.put(name, data, txn_id=txn, commit_mode=through)
            model[name] = data
            if not through:
                open_txns.setdefault(txn, []).append(name)
        elif action == "read":
            for name in [n for n in model if n.startswith(f"k/{arg}-")]:
                assert ocm.get(name) == model[name]
        elif action == "commit":
            ocm.flush_for_commit(txn)
            for name in open_txns.pop(txn, []):
                assert store.latest_data(name) == model[name]
        elif action == "rollback":
            ocm.discard_txn(txn)
            for name in open_txns.pop(txn, []):
                # Never uploaded, never readable again through the store.
                assert store.latest_data(name) is None
                model.pop(name, None)
    # Post-quiescence: everything still in the model reads back correctly.
    ocm.drain_all()
    for name, data in model.items():
        assert ocm.get(name) == data


@given(ocm_script())
@settings(max_examples=30, deadline=None)
def test_ocm_capacity_respected_after_drain(script):
    ocm, __ = make_ocm(capacity=2048)
    serial = 0
    for action, arg, txn, through in script:
        if action == "write":
            serial += 1
            ocm.put(f"k/{arg}-{serial}", b"v" * 64, txn_id=txn,
                    commit_mode=through)
        elif action == "commit":
            ocm.flush_for_commit(txn)
        elif action == "rollback":
            ocm.discard_txn(txn)
    ocm.drain_all()
    # Once nothing is pinned by pending uploads, LRU holds the line.
    assert ocm.used_bytes <= 2048 or ocm.entry_count() <= 1


# --------------------------------------------------------------------- #
# Arc2QPolicy bookkeeping (DESIGN.md §9)
# --------------------------------------------------------------------- #

POLICY_CAPACITY = 100  # small, so scripts reach the ghost bound

policy_script = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 7),
                  st.sampled_from([20, 60, 250]), st.booleans()),
        st.tuples(st.just("access"), st.integers(0, 7), st.just(0),
                  st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 7), st.just(0),
                  st.just(False)),
        st.tuples(st.just("evict"), st.integers(1, 6), st.just(0),
                  st.just(False)),
        # A loop step: the next victims are evicted and a scan (or, hint
        # off, a point read) fetches them straight back.
        st.tuples(st.just("refetch"), st.integers(1, 3), st.just(0),
                  st.booleans()),
    ),
    max_size=200,
)


@given(policy_script, st.sampled_from([0.3, 0.8]))
@settings(max_examples=200, deadline=None)
def test_arc2q_bookkeeping_stays_consistent(script, protected_fraction):
    # At 0.3 a second 20-byte entry already overflows the protected
    # segment, so loop re-fetches have to displace to get in.
    policy = Arc2QPolicy(POLICY_CAPACITY, protected_fraction)
    sizes = {}  # resident key -> size, the OCM's side of the contract
    for action, arg, size, scan_hint in script:
        key = f"k{arg}"
        if action == "insert":
            policy.on_insert(key, size, scan_hint)
            sizes[key] = size
        elif action == "access":
            policy.on_access(key, scan_hint)  # resident or not
        elif action == "remove" and key in sizes:
            policy.on_remove(key)
            del sizes[key]
        elif action in ("evict", "refetch"):
            victims = list(policy.eviction_order())[:arg]
            for victim in victims:
                policy.on_remove(victim, evicted=True)
            if action == "refetch":
                for victim in victims:
                    policy.on_insert(victim, sizes[victim], scan_hint)
            else:
                for victim in victims:
                    del sizes[victim]

        probation = policy.probation_keys()
        protected = policy.protected_keys()
        ghost = policy.ghost_keys()
        # Every resident key sits in exactly one segment, no ghost is
        # resident, and the victim order lists each resident once.
        assert sorted(probation + protected) == sorted(sizes)
        assert not set(ghost) & set(sizes)
        assert sorted(policy.eviction_order()) == sorted(sizes)
        # Segment byte totals are the sums of their entries' sizes.
        assert policy._probation_bytes == sum(sizes[k] for k in probation)
        assert policy._protected_bytes == sum(sizes[k] for k in protected)
        assert policy._ghost_bytes == sum(policy._ghost.values())
        assert policy._ghost_bytes <= (POLICY_CAPACITY
                                       * GHOST_CAPACITY_MULTIPLE)
        # The tick map describes residents and ghosts, nothing else.
        assert sorted(policy.tracked_keys()) == sorted(list(sizes) + ghost)
