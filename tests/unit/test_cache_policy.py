"""Unit tests for the pluggable OCM eviction policies (DESIGN.md §9)."""

import pytest

from repro.core.cache_policy import (
    GHOST_CAPACITY_MULTIPLE,
    Arc2QPolicy,
    LruPolicy,
    make_policy,
)

from tests.unit.test_ocm import make_ocm


# --------------------------------------------------------------------- #
# factory
# --------------------------------------------------------------------- #

def test_factory_builds_known_policies():
    assert isinstance(make_policy("lru", 1024), LruPolicy)
    assert isinstance(make_policy("arc2q", 1024), Arc2QPolicy)


def test_factory_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown OCM eviction policy"):
        make_policy("clock-pro", 1024)


# --------------------------------------------------------------------- #
# LRU policy: exact OrderedDict semantics
# --------------------------------------------------------------------- #

def test_lru_eviction_order_is_insertion_order():
    policy = LruPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key, 10)
    assert list(policy.eviction_order()) == ["a", "b", "c"]


def test_lru_access_moves_to_mru():
    policy = LruPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key, 10)
    policy.on_access("a")
    assert list(policy.eviction_order()) == ["b", "c", "a"]


def test_lru_reinsert_moves_to_mru():
    policy = LruPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key, 10)
    policy.on_insert("a", 10)
    assert list(policy.eviction_order()) == ["b", "c", "a"]


def test_lru_ignores_scan_hints():
    hinted = LruPolicy()
    plain = LruPolicy()
    for policy, hint in ((hinted, True), (plain, False)):
        for key in ("a", "b", "c"):
            policy.on_insert(key, 10, scan_hint=hint)
        policy.on_access("a", scan_hint=hint)
    assert list(hinted.eviction_order()) == list(plain.eviction_order())


def test_lru_stats_empty_for_snapshot_compatibility():
    """LRU reports no policy counters: stats snapshots match the seed."""
    policy = LruPolicy()
    policy.on_insert("a", 10)
    assert policy.stats() == {}


# --------------------------------------------------------------------- #
# ARC/2Q policy: segments, ghosts, scan admission
# --------------------------------------------------------------------- #

def test_arc2q_insert_lands_in_probation():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100)
    assert policy.probation_keys() == ["a"]
    assert policy.protected_keys() == []


def test_arc2q_reaccess_promotes_to_protected():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100)
    policy.on_access("a")
    assert policy.probation_keys() == []
    assert policy.protected_keys() == ["a"]
    assert policy.stats()["promotions"] == 1.0


def test_arc2q_scan_access_never_promotes():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100, scan_hint=True)
    policy.on_access("a", scan_hint=True)
    assert policy.probation_keys() == ["a"]
    assert policy.protected_keys() == []
    assert policy.stats()["promotions"] == 0.0
    assert policy.stats()["scan_admissions"] == 1.0


def test_arc2q_eviction_order_drains_probation_first():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("hot", 100)
    policy.on_access("hot")  # protected
    policy.on_insert("cold1", 100)
    policy.on_insert("cold2", 100)
    order = list(policy.eviction_order())
    assert order.index("cold1") < order.index("hot")
    assert order.index("cold2") < order.index("hot")


def test_arc2q_ghost_records_probationary_evictions():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100)
    policy.on_remove("a", evicted=True)
    assert policy.ghost_keys() == ["a"]
    # Non-eviction removals (rollback, invalidation) leave no ghost.
    policy.on_insert("b", 100)
    policy.on_remove("b", evicted=False)
    assert policy.ghost_keys() == ["a"]


def test_arc2q_ghost_hit_readmits_to_protected():
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100)
    policy.on_remove("a", evicted=True)
    policy.on_insert("a", 100)  # was recently evicted: it deserved caching
    assert policy.protected_keys() == ["a"]
    assert policy.stats()["ghost_hits"] == 1.0


def test_arc2q_scan_refetch_of_ghosted_key_takes_free_protected_room():
    """Rule (a): a scan that re-fetches a key probation churned out is a
    loop; it may use protected room nobody else holds."""
    policy = Arc2QPolicy(10_000)
    policy.on_insert("a", 100, scan_hint=True)
    policy.on_remove("a", evicted=True)
    policy.on_insert("a", 100, scan_hint=True)  # the next scan pass
    assert policy.protected_keys() == ["a"]
    assert policy.probation_keys() == []
    assert policy.ghost_keys() == []
    stats = policy.stats()
    assert stats["loop_admissions"] == 1.0
    assert stats["ghost_hits"] == 0.0  # that counter is the non-scan path
    assert stats["scan_admissions"] == 1.0  # only the first touch


def _fill_protected(policy, keys, size):
    for key in keys:
        policy.on_insert(key, size)
        policy.on_access(key)


def test_arc2q_loop_refetch_displaces_only_a_stale_protected_entry():
    """Rule (b): with protected full, the scan re-fetch gets in only if
    the segment's LRU entry was last referenced before this key was."""
    policy = Arc2QPolicy(1_000, protected_fraction=0.5)
    _fill_protected(policy, ["old1", "old2"], 250)
    policy.on_insert("loop", 250, scan_hint=True)
    policy.on_remove("loop", evicted=True)
    policy.on_insert("loop", 250, scan_hint=True)
    # old1 has sat unreferenced for longer than loop's reuse distance.
    assert policy.protected_keys() == ["old2", "loop"]
    # ... and is first in line for eviction: probation's cold end.
    assert next(policy.eviction_order()) == "old1"
    assert policy.stats()["loop_admissions"] == 1.0


def test_arc2q_loop_refetch_leaves_a_live_protected_set_alone():
    policy = Arc2QPolicy(1_000, protected_fraction=0.5)
    policy.on_insert("loop", 250, scan_hint=True)
    policy.on_remove("loop", evicted=True)
    _fill_protected(policy, ["live1", "live2"], 250)  # referenced since
    policy.on_insert("loop", 250, scan_hint=True)
    assert policy.protected_keys() == ["live1", "live2"]
    assert policy.probation_keys() == ["loop"]
    assert policy.stats()["loop_admissions"] == 0.0


def test_arc2q_scan_hit_in_protected_only_refreshes_recency():
    policy = Arc2QPolicy(10_000)
    _fill_protected(policy, ["a", "b"], 100)
    policy.on_access("a", scan_hint=True)
    assert policy.protected_keys() == ["b", "a"]


def test_arc2q_ghost_is_bounded_by_capacity():
    policy = Arc2QPolicy(1_000)
    for i in range(50):
        key = f"k{i}"
        policy.on_insert(key, 100)
        policy.on_remove(key, evicted=True)
    remembered = policy.ghost_keys()
    # Keys only, so the ghost remembers a fixed multiple of what the
    # cache holds: at 100 bytes each and a 1000-byte cache, the
    # 10 * GHOST_CAPACITY_MULTIPLE most recent evictions.
    assert len(remembered) == 10 * GHOST_CAPACITY_MULTIPLE
    assert remembered[-1] == "k49"
    assert "k0" not in remembered
    assert sorted(policy.tracked_keys()) == sorted(remembered)


# --------------------------------------------------------------------- #
# loop resistance: a cyclic scan larger than the cache
# --------------------------------------------------------------------- #

class _PolicyCache:
    """The OCM's use of a policy, without the OCM: unit-size entries,
    evict in policy order while over capacity."""

    def __init__(self, policy, capacity):
        self.policy = policy
        self.capacity = capacity
        self.resident = set()

    def touch(self, key, scan_hint):
        """Reference ``key``; True on a hit."""
        if key in self.resident:
            self.policy.on_access(key, scan_hint)
            return True
        self.policy.on_insert(key, 1, scan_hint)
        self.resident.add(key)
        while len(self.resident) > self.capacity:
            victim = next(self.policy.eviction_order())
            self.policy.on_remove(victim, evicted=True)
            self.resident.remove(victim)
        return False

    def scan(self, table, pages):
        """One pass over ``table``; the number of hits."""
        return sum(self.touch(f"{table}/{i}", True) for i in range(pages))


LOOP_CAPACITY = 60


@pytest.mark.parametrize("multiple", [1.2, 1.67, 2.5, 4.0])
def test_arc2q_cyclic_scan_keeps_a_fixed_share_resident(multiple):
    pages = int(LOOP_CAPACITY * multiple)
    cache = _PolicyCache(Arc2QPolicy(LOOP_CAPACITY), LOOP_CAPACITY)
    hits = [cache.scan("t", pages) for __ in range(6)]
    # One compulsory round, one round to see the loop, then the
    # protected share of the cache hits every round.
    assert all(h >= 0.75 * LOOP_CAPACITY for h in hits[2:]), hits
    assert cache.policy.stats()["loop_admissions"] > 0


@pytest.mark.parametrize("multiple", [1.2, 1.67, 2.5, 4.0])
def test_lru_cyclic_scan_never_hits(multiple):
    pages = int(LOOP_CAPACITY * multiple)
    cache = _PolicyCache(LruPolicy(), LOOP_CAPACITY)
    assert [cache.scan("t", pages) for __ in range(6)] == [0] * 6


def test_arc2q_loop_switch_resettles_within_two_rounds():
    cache = _PolicyCache(Arc2QPolicy(LOOP_CAPACITY), LOOP_CAPACITY)
    hits = [cache.scan(table, 100)
            for table in ("x",) * 4 + ("y",) * 4 + ("x",) * 4]
    for first_round in (0, 4, 8):
        settled = hits[first_round + 2:first_round + 4]
        assert all(h >= 0.75 * LOOP_CAPACITY for h in settled), hits


def test_arc2q_hot_set_loses_no_hit_beside_a_loop():
    cache = _PolicyCache(Arc2QPolicy(LOOP_CAPACITY), LOOP_CAPACITY)
    hot = [f"hot/{i}" for i in range(20)]
    for key in hot * 2:  # second touch promotes
        cache.touch(key, False)
    loop_hits = []
    for __ in range(6):
        loop_hits.append(cache.scan("t", 100))
        # Two non-scan references per hot key per round: all must hit.
        assert sum(cache.touch(key, False) for key in hot * 2) == 40
    # The loop settles into the protected room the hot set leaves.
    assert all(h > 0 for h in loop_hits[2:]), loop_hits


def test_arc2q_protected_overflow_demotes_to_probation():
    policy = Arc2QPolicy(1_000, protected_fraction=0.5)
    for key in ("a", "b"):
        policy.on_insert(key, 300)
        policy.on_access(key)
    # 600 bytes protected > 500-byte target: the LRU protected entry is
    # demoted back to probation (MRU side).
    assert policy.protected_keys() == ["b"]
    assert policy.probation_keys() == ["a"]
    assert policy.stats()["demotions"] == 1.0


def test_arc2q_accounts_bytes_not_entries():
    policy = Arc2QPolicy(10_000, protected_fraction=0.8)
    policy.on_insert("big", 7_000)
    policy.on_access("big")
    policy.on_insert("small", 100)
    policy.on_access("small")
    # 7100 protected bytes < 8000 target: no demotion despite 2 entries.
    assert set(policy.protected_keys()) == {"big", "small"}


# --------------------------------------------------------------------- #
# OCM-level behaviour
# --------------------------------------------------------------------- #

def _warm_hot_set(ocm, store, count, size):
    for i in range(count):
        store.put(f"hot/{i}", b"h" * size)
    for i in range(count):
        ocm.get(f"hot/{i}")
        ocm.get(f"hot/{i}")  # second touch promotes under arc2q


def _run_scan(ocm, store, count, size):
    for i in range(count):
        store.put(f"scan/{i}", b"s" * size)
    for i in range(count):
        ocm.get(f"scan/{i}", scan_hint=True)


def test_scan_resistance_invariant_arc2q():
    """A full table scan leaves the hot working set resident."""
    ocm, store, __ = make_ocm(capacity=10_000, policy="arc2q")
    _warm_hot_set(ocm, store, count=4, size=1_000)
    _run_scan(ocm, store, count=30, size=1_000)
    for i in range(4):
        assert ocm.cached(f"hot/{i}"), f"scan evicted hot/{i}"
    assert ocm.stats()["policy_scan_admissions"] >= 30


def test_lru_is_not_scan_resistant():
    """Contrast: the paper's LRU lets one scan flush the hot set."""
    ocm, store, __ = make_ocm(capacity=10_000, policy="lru")
    _warm_hot_set(ocm, store, count=4, size=1_000)
    _run_scan(ocm, store, count=30, size=1_000)
    assert not any(ocm.cached(f"hot/{i}") for i in range(4))


def test_insert_after_upload_rule_holds_under_arc2q():
    """Pending write-back entries stay ineligible regardless of policy."""
    ocm, __, __ = make_ocm(capacity=4096, policy="arc2q")
    ocm.put("a/1", b"x" * 3000, txn_id=1, commit_mode=False)
    ocm.client.put("b/2", b"y" * 3000)
    ocm.get("b/2")
    assert ocm.cached("a/1")
    assert not ocm.cached("b/2")
    ocm.flush_for_commit(1)
    ocm.client.put("c/3", b"z" * 3000)
    ocm.get("c/3")
    assert not ocm.cached("a/1")
    assert ocm.cached("c/3")


def test_ocm_stats_expose_policy_counters():
    ocm, store, __ = make_ocm(capacity=10_000, policy="arc2q")
    store.put("a/1", b"x" * 100)
    ocm.get("a/1")
    ocm.get("a/1")
    stats = ocm.stats()
    assert stats["policy_promotions"] == 1.0
    assert "policy_ghost_hits" in stats


def test_lru_ocm_stats_unchanged():
    """Default policy adds no stats keys: seed snapshots stay identical."""
    ocm, store, __ = make_ocm(capacity=10_000)
    store.put("a/1", b"x" * 100)
    ocm.get("a/1")
    assert not any(key.startswith("policy_") for key in ocm.stats())


def test_invalidate_all_clears_policy_state():
    ocm, store, __ = make_ocm(capacity=10_000, policy="arc2q")
    store.put("a/1", b"x" * 100)
    ocm.get("a/1")
    ocm.get("a/1")
    ocm.invalidate_all()
    stats = ocm.stats()
    assert stats["policy_probation_entries"] == 0.0
    assert stats["policy_protected_entries"] == 0.0
