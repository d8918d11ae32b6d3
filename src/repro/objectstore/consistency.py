"""Eventual consistency model for simulated object stores.

The model reproduces the three read scenarios of Section 3 of the paper:

1. the read returns the latest version,
2. the read returns a *stale* version (only possible if a key was written
   more than once — which the engine's never-write-twice policy rules out),
3. the read fails with "no such key" even though the object exists, because
   the write has not become visible yet.

Each write is assigned a *visibility time*: the virtual time after which the
new version is observable by readers.  With probability
``1 - invisible_probability`` the write is immediately visible (the common
case on real S3); otherwise visibility lags by an exponentially distributed
delay with mean ``mean_lag_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class ConsistencyModel:
    """Parameters of the visibility-lag distribution."""

    invisible_probability: float = 0.0
    mean_lag_seconds: float = 0.0

    def sample_lag(self, rng: DeterministicRng) -> float:
        """Visibility lag for one write, in seconds (0 = immediately)."""
        if self.invisible_probability <= 0 or self.mean_lag_seconds <= 0:
            return 0.0
        if rng.random() >= self.invisible_probability:
            return 0.0
        return rng.expovariate(1.0 / self.mean_lag_seconds)


STRONG = ConsistencyModel()
EVENTUAL = ConsistencyModel(invisible_probability=0.05, mean_lag_seconds=0.2)


class VersionedObject:
    """All versions ever written to one key, with op and visibility times.

    A tombstone (``data is None``) records a delete; deletes propagate with
    the same lag model as writes, so a reader may still observe the object
    for a while after a delete — and may observe stale data after an
    overwrite.  Once every version has become visible, the reader observes
    the version with the latest *operation* time (last-writer-wins): a
    write whose visibility lagged past a later delete never resurrects the
    object.
    """

    __slots__ = ("_versions",)

    def __init__(self) -> None:
        # (op_time, visible_at, data) in arbitrary order.
        self._versions: List[Tuple[float, float, Optional[bytes]]] = []

    def add_version(self, visible_at: float, data: "Optional[bytes]",
                    op_time: "Optional[float]" = None) -> None:
        when = visible_at if op_time is None else op_time
        self._versions.append((when, visible_at, data))

    def visible_data(self, now: float) -> "Optional[bytes]":
        """The version a reader observes at ``now`` (None = not visible).

        Among versions that have propagated (``visible_at <= now``) the
        one with the latest operation time wins.
        """
        best: "Optional[Tuple[float, float, Optional[bytes]]]" = None
        for version in self._versions:
            if version[1] <= now and (best is None or version[0] > best[0]):
                best = version
        return best[2] if best is not None else None

    def latest_data(self) -> "Optional[bytes]":
        """The most recently *operated* version, regardless of visibility."""
        if not self._versions:
            return None
        return max(self._versions, key=lambda v: v[0])[2]

    def is_stale_read(self, now: float) -> bool:
        """Whether a read at ``now`` would observe a non-latest version."""
        visible = self.visible_data(now)
        return visible is not None and visible is not self.latest_data()
