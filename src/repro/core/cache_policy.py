"""Pluggable eviction policies for the Object Cache Manager.

The paper's OCM orders read and write traffic together on a single LRU
list (Section 4); its Figure 6 analysis shows how that single ordering
lets one bulk scan's fills flush the hot working set.  This module
factors the *ordering* decision out of the OCM into a policy object:

- :class:`LruPolicy` reproduces the paper's single LRU exactly (the
  ``DatabaseConfig.paper()`` profile);
- :class:`Arc2QPolicy` (the shipped default) is a scan- and
  loop-resistant segmented policy in the ARC/2Q family: new entries land
  in a *probationary* segment, a second non-scan access promotes them to
  a *protected* segment, and a bounded *ghost list* remembers recently
  evicted probationary keys so that a key re-fetched outside a scan is
  recognised as hot and admitted straight to the protected segment.
  Accesses marked with a ``scan_hint`` (set by ``QueryContext`` for bulk
  table scans) never promote, so one large scan cycles through the
  probationary segment without touching the protected working set; a
  scan that *re-fetches* a ghosted key is a loop, and keeps a fixed
  share of itself in the protected segment instead of none (LIRS's
  inter-reference test, see :class:`Arc2QPolicy`).

The policy owns only recency/segment ordering.  Eviction *eligibility*
(the insert-after-upload rule, write-through-at-commit, the
``lru_insert_before_upload`` ablation) stays in the OCM, which walks
:meth:`EvictionPolicy.eviction_order` and skips ineligible entries —
so both rules hold identically under either policy.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, Iterator, List

# The ghost list holds keys, not data, so it can afford to remember more
# than the cache holds.  A cyclic scan of N bytes over a C-byte cache has
# evicted N - C bytes by the time its first key comes round again; a 1x
# ghost therefore cannot see any loop above 2x the cache.  4x sees loops
# up to 5x.
GHOST_CAPACITY_MULTIPLE = 4


class EvictionPolicy:
    """Ordering strategy for OCM cache entries.

    The OCM calls :meth:`on_insert` / :meth:`on_access` / :meth:`on_remove`
    as entries come and go, and walks :meth:`eviction_order` (victim
    candidates first) when over capacity.  Every resident entry must
    appear in the ordering regardless of its eviction eligibility; the
    OCM applies eligibility itself while walking.
    """

    name = "abstract"

    def on_insert(self, key: str, size: int, scan_hint: bool = False) -> None:
        raise NotImplementedError

    def on_access(self, key: str, scan_hint: bool = False) -> None:
        raise NotImplementedError

    def on_remove(self, key: str, evicted: bool = False) -> None:
        """Forget ``key``; ``evicted=True`` marks a capacity eviction
        (as opposed to a delete/invalidate), enabling ghost bookkeeping."""
        raise NotImplementedError

    def eviction_order(self) -> "Iterator[str]":
        """Resident keys, best victim first.

        A live view, not a copy: an eviction walks only its first few
        keys.  A caller that changes the policy while walking takes a
        ``list`` of it first.
        """
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def stats(self) -> "Dict[str, float]":
        """Policy-specific counters, merged into OCM ``stats()`` under a
        ``policy_`` prefix.  Empty for LRU so default snapshots are
        unchanged."""
        return {}


class LruPolicy(EvictionPolicy):
    """The paper's single LRU list; scan hints are ignored."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def on_insert(self, key: str, size: int, scan_hint: bool = False) -> None:
        self._order.pop(key, None)
        self._order[key] = None

    def on_access(self, key: str, scan_hint: bool = False) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def on_remove(self, key: str, evicted: bool = False) -> None:
        self._order.pop(key, None)

    def eviction_order(self) -> "Iterator[str]":
        return iter(self._order)

    def clear(self) -> None:
        self._order.clear()

    def keys(self) -> "List[str]":
        """LRU-to-MRU key order (tests)."""
        return list(self._order)


class Arc2QPolicy(EvictionPolicy):
    """Scan- and loop-resistant segmented policy (ARC/2Q family).

    Segments (all byte-accounted):

    - *probation*: first-time entries and everything a scan drags in;
      evicted first, oldest first.
    - *protected*: entries re-accessed without a scan hint, capped at
      ``protected_fraction`` of capacity; overflow demotes the oldest
      protected entry back to probation (MRU end) rather than dropping
      it outright.
    - *ghost*: keys (not data) of recently evicted probationary entries,
      bounded to ``GHOST_CAPACITY_MULTIPLE`` capacities' worth of
      remembered sizes.  Re-inserting a ghosted key outside a scan admits
      it straight to protected — the signal that a key keeps coming back
      even though probation churned it out.

    A *scan* re-fetching a ghosted key is a loop larger than probation,
    which FIFO probation serves with zero hits: each page is evicted just
    before it is wanted again.  Such a key is admitted to protected when
    (a) the segment has room, or (b) the entries it would displace from
    the segment's LRU end have each gone unreferenced for longer than
    this key's own reuse distance (LIRS's inter-reference test).  Both
    distances are measured on one logical clock that ticks on every
    insert and access, so (b) reduces to "the LRU entry's last reference
    is older than this key's previous one".  Displaced entries go to
    probation's *cold* end.  Inside one loop every protected page was
    touched within the last period, so nothing is displaced and the
    protected share of the loop hits every round; a set that stopped
    being referenced loses its place to the next loop that comes round
    twice.  Scan-hinted first touches and scan hits in probation still
    never promote, so a single pass cannot touch the protected set.
    """

    name = "arc2q"

    def __init__(self, capacity_bytes: int,
                 protected_fraction: float = 0.8) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError("protected_fraction must be in (0, 1)")
        self.capacity_bytes = capacity_bytes
        self.protected_target = int(capacity_bytes * protected_fraction)
        self.ghost_target = capacity_bytes * GHOST_CAPACITY_MULTIPLE
        self._probation: "OrderedDict[str, int]" = OrderedDict()
        self._protected: "OrderedDict[str, int]" = OrderedDict()
        self._ghost: "OrderedDict[str, int]" = OrderedDict()
        self._probation_bytes = 0
        self._protected_bytes = 0
        self._ghost_bytes = 0
        # Logical access clock, and the tick of the last reference to
        # every resident or ghosted key (pruned with the entry).
        self._tick = 0
        self._last_ref: "Dict[str, int]" = {}
        self._ghost_hits = 0
        self._promotions = 0
        self._demotions = 0
        self._scan_admissions = 0
        self._loop_admissions = 0

    # -------------------------------------------------------------- #
    # segment plumbing
    # -------------------------------------------------------------- #

    def _discard_resident(self, key: str) -> None:
        size = self._probation.pop(key, None)
        if size is not None:
            self._probation_bytes -= size
            return
        size = self._protected.pop(key, None)
        if size is not None:
            self._protected_bytes -= size

    def _ghost_remember(self, key: str, size: int) -> None:
        self._ghost[key] = size
        self._ghost_bytes += size
        while self._ghost_bytes > self.ghost_target and self._ghost:
            dropped_key, dropped = self._ghost.popitem(last=False)
            self._ghost_bytes -= dropped
            del self._last_ref[dropped_key]

    def _admit_protected(self, key: str, size: int) -> None:
        self._protected[key] = size
        self._protected_bytes += size

    def _demote(self, key: str, cold: bool = False) -> None:
        size = self._protected.pop(key)
        self._protected_bytes -= size
        self._probation[key] = size
        self._probation_bytes += size
        if cold:
            self._probation.move_to_end(key, last=False)
        self._demotions += 1

    def _rebalance(self) -> None:
        # Protected overflow demotes oldest entries to probation's MRU
        # end: they outrank fresh scan pages but can now be evicted.
        while (self._protected_bytes > self.protected_target
               and len(self._protected) > 1):
            self._demote(next(iter(self._protected)))

    def _make_room_for_loop(self, size: int, previous_ref: int) -> bool:
        """Rules (a)/(b): can a scan re-fetch whose previous reference was
        at ``previous_ref`` take ``size`` bytes of the protected segment?
        Displaces the stale LRU entries it needs when it can."""
        need = self._protected_bytes + size - self.protected_target
        stale: "List[str]" = []
        for key, held in self._protected.items():  # LRU first
            if need <= 0:
                break
            if self._last_ref[key] >= previous_ref:
                return False
            stale.append(key)
            need -= held
        if need > 0:
            return False
        # Coldest last, so it ends up first in line for eviction.
        for key in reversed(stale):
            self._demote(key, cold=True)
        return True

    # -------------------------------------------------------------- #
    # EvictionPolicy interface
    # -------------------------------------------------------------- #

    def on_insert(self, key: str, size: int, scan_hint: bool = False) -> None:
        self._tick += 1
        self._discard_resident(key)
        ghosted = self._ghost.pop(key, None)
        previous_ref = self._last_ref.get(key)
        self._last_ref[key] = self._tick
        if ghosted is not None:
            self._ghost_bytes -= ghosted
            if not scan_hint:
                self._ghost_hits += 1
                self._admit_protected(key, size)
                self._rebalance()
                return
            if self._make_room_for_loop(size, previous_ref):
                self._loop_admissions += 1
                self._admit_protected(key, size)
                return
        if scan_hint:
            self._scan_admissions += 1
        self._probation[key] = size
        self._probation_bytes += size

    def on_access(self, key: str, scan_hint: bool = False) -> None:
        self._tick += 1
        if key in self._protected:
            self._protected.move_to_end(key)
            self._last_ref[key] = self._tick
            return
        size = self._probation.get(key)
        if size is None:
            return
        self._last_ref[key] = self._tick
        if scan_hint:
            # A scan re-touching a probationary page is still a scan:
            # refresh recency within probation, never promote.
            self._probation.move_to_end(key)
            return
        del self._probation[key]
        self._probation_bytes -= size
        self._admit_protected(key, size)
        self._promotions += 1
        self._rebalance()

    def on_remove(self, key: str, evicted: bool = False) -> None:
        size = self._probation.pop(key, None)
        if size is not None:
            self._probation_bytes -= size
            if evicted:
                self._ghost_remember(key, size)  # keeps its last-ref tick
            else:
                del self._last_ref[key]
            return
        size = self._protected.pop(key, None)
        if size is not None:
            self._protected_bytes -= size
            del self._last_ref[key]

    def eviction_order(self) -> "Iterator[str]":
        # Probation churns first (oldest first); the protected segment is
        # only eaten into when probation alone cannot make room.
        return chain(self._probation, self._protected)

    def clear(self) -> None:
        self._probation.clear()
        self._protected.clear()
        self._ghost.clear()
        self._last_ref.clear()
        self._probation_bytes = 0
        self._protected_bytes = 0
        self._ghost_bytes = 0

    def stats(self) -> "Dict[str, float]":
        return {
            "ghost_hits": float(self._ghost_hits),
            "promotions": float(self._promotions),
            "demotions": float(self._demotions),
            "scan_admissions": float(self._scan_admissions),
            "loop_admissions": float(self._loop_admissions),
            "ghost_entries": float(len(self._ghost)),
            "probation_entries": float(len(self._probation)),
            "protected_entries": float(len(self._protected)),
        }

    # -------------------------------------------------------------- #
    # introspection (tests, examples)
    # -------------------------------------------------------------- #

    def probation_keys(self) -> "List[str]":
        return list(self._probation)

    def protected_keys(self) -> "List[str]":
        return list(self._protected)

    def ghost_keys(self) -> "List[str]":
        return list(self._ghost)

    def tracked_keys(self) -> "List[str]":
        """Keys with a remembered last-reference tick."""
        return list(self._last_ref)


POLICIES = {
    "lru": LruPolicy,
    "arc2q": Arc2QPolicy,
}


def make_policy(name: str, capacity_bytes: int) -> EvictionPolicy:
    """Instantiate the named policy (``lru`` or ``arc2q``)."""
    if name == "lru":
        return LruPolicy()
    if name == "arc2q":
        return Arc2QPolicy(capacity_bytes)
    raise ValueError(
        f"unknown OCM eviction policy {name!r}; expected one of "
        f"{sorted(POLICIES)}"
    )
