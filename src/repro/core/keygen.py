"""The Object Key Generator (Section 3.2).

The coordinator hands out object keys in monotonically increasing ranges
from the reserved ``[2^63, 2^64)`` space.  Each allocation runs as a small
transaction on the coordinator: the largest allocated key is written to the
transaction log and the *active set* — the ranges handed out to each node
whose keys are not yet covered by a committed transaction — is updated.
After a crash, the coordinator recovers the maximum key and the active sets
by replaying the log (see :mod:`repro.core.recovery`), and a restarting
writer's outstanding ranges are polled for garbage collection.

Every node (the coordinator included) consumes keys through a
:class:`NodeKeyCache`, which caches a locally allocated range and refills it
with an adaptively sized request when exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.log import ALLOC_RANGE, TransactionLog
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.storage.locator import OBJECT_KEY_BASE

CP_ALLOCATE_BEFORE_LOG = register_crash_point(
    "keygen.allocate.before_log",
    "active set updated in memory, ALLOC_RANGE not yet logged "
    "(the Table 1 window: no key has reached the caller yet)",
)
CP_ALLOCATE_AFTER_LOG = register_crash_point(
    "keygen.allocate.after_log",
    "ALLOC_RANGE logged but the range never returned to the caller "
    "(restart GC must poll the orphaned range)",
)


class KeygenError(Exception):
    """Key space exhaustion or invalid range bookkeeping."""


@dataclass(frozen=True)
class KeyRange:
    """An inclusive range of object keys ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not OBJECT_KEY_BASE <= self.lo <= self.hi < (1 << 64):
            raise KeygenError(f"invalid key range [{self.lo:#x}, {self.hi:#x}]")

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self) -> "Iterator[int]":
        return iter(range(self.lo, self.hi + 1))


class ActiveSet:
    """The not-yet-committed key intervals handed out to one node."""

    def __init__(self, intervals: "Optional[List[Tuple[int, int]]]" = None) -> None:
        self._intervals: List[Tuple[int, int]] = list(intervals or [])

    def add(self, lo: int, hi: int) -> None:
        self._intervals.append((lo, hi))
        self._normalize()

    def _normalize(self) -> None:
        self._intervals.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._intervals:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._intervals = merged

    def remove(self, lo: int, hi: int) -> None:
        """Subtract ``[lo, hi]`` (committed keys no longer need tracking)."""
        result: List[Tuple[int, int]] = []
        for start, end in self._intervals:
            if end < lo or start > hi:
                result.append((start, end))
                continue
            if start < lo:
                result.append((start, lo - 1))
            if end > hi:
                result.append((hi + 1, end))
        self._intervals = result

    def intervals(self) -> "List[Tuple[int, int]]":
        return list(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __iter__(self) -> "Iterator[Tuple[int, int]]":
        return iter(self._intervals)

    def key_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActiveSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __repr__(self) -> str:
        spans = ", ".join(f"{lo:#x}-{hi:#x}" for lo, hi in self._intervals)
        return f"ActiveSet([{spans}])"


class ObjectKeyGenerator:
    """Coordinator-side key allocator with logged, recoverable state."""

    def __init__(
        self,
        log: TransactionLog,
        first_key: int = OBJECT_KEY_BASE,
    ) -> None:
        if not OBJECT_KEY_BASE <= first_key < (1 << 64):
            raise KeygenError(f"first key {first_key:#x} outside reserved range")
        self._log = log
        self._next_key = first_key
        self._active_sets: Dict[str, ActiveSet] = {}

    @property
    def next_key(self) -> int:
        """The next key that would be handed out (max allocated + 1)."""
        return self._next_key

    @property
    def max_allocated_key(self) -> int:
        """Largest key ever allocated (first_key - 1 if none)."""
        return self._next_key - 1

    def allocate_range(self, node_id: str, count: int) -> KeyRange:
        """Allocate ``count`` keys to ``node_id``; logged transactionally."""
        if count < 1:
            raise KeygenError(f"cannot allocate {count} keys")
        lo = self._next_key
        hi = lo + count - 1
        if hi >= (1 << 64):
            raise KeygenError("object key space exhausted")
        self._next_key = hi + 1
        self._active_sets.setdefault(node_id, ActiveSet()).add(lo, hi)
        crash_point(CP_ALLOCATE_BEFORE_LOG)
        # Bookkeeping events of Section 3.2: the largest allocated key is
        # recorded in the transaction log and the handed-out range persists
        # with it; the allocation transaction commits with this append.
        self._log.append(
            ALLOC_RANGE,
            {"node": node_id, "lo": lo, "hi": hi},
        )
        crash_point(CP_ALLOCATE_AFTER_LOG)
        return KeyRange(lo, hi)

    def notify_committed(self, node_id: str,
                         key_ranges: "List[Tuple[int, int]]") -> None:
        """A transaction on ``node_id`` committed having consumed these keys.

        The committed keys leave the active set: from now on the RF/RB
        bitmaps of the committed transaction track them.
        """
        active = self._active_sets.get(node_id)
        if active is None:
            return
        for lo, hi in key_ranges:
            active.remove(lo, hi)

    def active_set(self, node_id: str) -> ActiveSet:
        return self._active_sets.setdefault(node_id, ActiveSet())

    def active_sets(self) -> "Dict[str, ActiveSet]":
        return dict(self._active_sets)

    def clear_active_set(self, node_id: str) -> ActiveSet:
        """Drop and return a node's active set (after restart GC)."""
        return self._active_sets.pop(node_id, ActiveSet())

    # ------------------------------------------------------------------ #
    # checkpoint / recovery support
    # ------------------------------------------------------------------ #

    def checkpoint_state(self) -> "Dict[str, object]":
        return {
            "next_key": self._next_key,
            "active_sets": {
                node: active.intervals()
                for node, active in self._active_sets.items()
                if active
            },
        }

    @classmethod
    def from_checkpoint(
        cls, log: TransactionLog, state: "Optional[Dict[str, object]]"
    ) -> "ObjectKeyGenerator":
        generator = cls(log)
        if state:
            generator._next_key = int(state["next_key"])  # type: ignore[arg-type]
            generator._active_sets = {
                node: ActiveSet([tuple(pair) for pair in intervals])  # type: ignore[misc]
                for node, intervals in state["active_sets"].items()  # type: ignore[union-attr]
            }
        return generator

    def replay_allocation(self, node_id: str, lo: int, hi: int) -> None:
        """Re-apply a logged allocation during crash recovery."""
        self._active_sets.setdefault(node_id, ActiveSet()).add(lo, hi)
        self._next_key = max(self._next_key, hi + 1)


@dataclass
class RangeSizePolicy:
    """Adaptive sizing of key-range requests (Section 3.2).

    The requested range starts at ``initial``; if refills arrive within
    ``grow_threshold`` virtual seconds of each other the node is hot and the
    size doubles (up to ``maximum``); refills after a long quiet period
    shrink it back (down to ``minimum``).
    """

    initial: int = 64
    minimum: int = 16
    maximum: int = 65536
    grow_threshold: float = 1.0
    shrink_threshold: float = 60.0


class NodeKeyCache:
    """Per-node key cache: consumes a local range, refills over RPC.

    ``allocate`` is the refill callback — on the coordinator it calls the
    generator directly, on secondaries it is wrapped in a simulated RPC.
    ``now`` provides virtual time for the adaptive sizing policy.
    """

    def __init__(
        self,
        node_id: str,
        allocate: "Callable[[str, int], KeyRange]",
        now: "Callable[[], float]",
        policy: "Optional[RangeSizePolicy]" = None,
    ) -> None:
        self.node_id = node_id
        self._allocate = allocate
        self._now = now
        self._policy = policy or RangeSizePolicy()
        self._range_size = self._policy.initial
        self._current: "Optional[KeyRange]" = None
        self._cursor = 0
        self._last_refill: "Optional[float]" = None
        self.refill_count = 0
        self.last_consumed: "Optional[int]" = None

    @property
    def range_size(self) -> int:
        return self._range_size

    def remaining(self) -> int:
        if self._current is None:
            return 0
        return self._current.hi - self._cursor + 1

    def _refill(self) -> None:
        now = self._now()
        if self._last_refill is not None:
            gap = now - self._last_refill
            if gap < self._policy.grow_threshold:
                self._range_size = min(self._policy.maximum, self._range_size * 2)
            elif gap > self._policy.shrink_threshold:
                self._range_size = max(self._policy.minimum, self._range_size // 2)
        self._last_refill = now
        self._current = self._allocate(self.node_id, self._range_size)
        self._cursor = self._current.lo
        self.refill_count += 1

    def next_key(self) -> int:
        """Fresh object key; refills from the coordinator when exhausted."""
        if self._current is None or self._cursor > self._current.hi:
            self._refill()
        assert self._current is not None
        key = self._cursor
        self._cursor += 1
        self.last_consumed = key
        return key

    def drop_cached_range(self) -> "Optional[KeyRange]":
        """Forget the cached range (node crash); returns what was cached."""
        current = self._current
        self._current = None
        self._cursor = 0
        return current
