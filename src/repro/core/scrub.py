"""The background integrity scrubber (DESIGN.md §15).

Checksummed objects and verified reads only catch corruption *when a
reader shows up*; cold data — snapshot-retained pages, rarely scanned
columns — can rot for months before a query trips over it.  The
scrubber closes that window, the way Taurus's background repair does for
its storage fragments: it walks every object the bucket holds (a
superset of the catalog, snapshot and retention reference sets the
auditor tracks), recomputes each copy's CRC-32C against the recorded
checksum, repairs damaged copies from healthy replicas when the store is
replicated, and quarantines what it cannot repair.

Pacing: the scrub reads every byte it verifies, so an unthrottled pass
would flatten foreground traffic.  The walk is therefore charged through
two :class:`~repro.sim.pipes.Pipe` servers — its own bytes/sec budget
pipe (the knob) *and* the node NIC — so scrubbing visibly competes with
foreground load on the virtual clock, and a full pass over ``B`` bytes
takes at least ``B / bytes_per_second`` virtual seconds.

Crash safety: the repair step is bracketed by the
``scrub.before_repair`` / ``scrub.after_repair`` crash points.  Repair
is an in-place overwrite of the damaged version with clean bytes under
the *same* op-time, so replaying a repair after a crash at either point
is idempotent — the crash explorer's scrub episodes prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.objectstore.replicated import ReplicatedObjectStore
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.sim.pipes import Pipe

if TYPE_CHECKING:
    from repro.engine import Database

CP_SCRUB_BEFORE_REPAIR = register_crash_point(
    "scrub.before_repair",
    "the scrubber detected a damaged copy but crashed before repairing it",
)
CP_SCRUB_AFTER_REPAIR = register_crash_point(
    "scrub.after_repair",
    "the scrubber repaired a damaged copy but crashed before re-verifying "
    "and reporting it",
)

#: Default scrub budget: 8 MiB of verified reads per virtual second.
DEFAULT_BYTES_PER_SECOND = 8 * 1024 * 1024


@dataclass
class ScrubReport:
    """Machine-readable outcome of one scrubber pass."""

    started_at: float = 0.0
    finished_at: float = 0.0
    objects_scanned: int = 0
    bytes_scanned: int = 0
    # regions (or "primary" for single-region stores) the pass covered.
    regions_scanned: "List[str]" = field(default_factory=list)
    corrupt_found: int = 0
    repaired: int = 0
    # (region, object_name) — damaged copies no healthy replica could
    # repair; they stay on the store, flagged for operator attention.
    quarantined: "List[Tuple[str, str]]" = field(default_factory=list)

    def ok(self) -> bool:
        """Every detected corruption was repaired."""
        return not self.quarantined

    def to_dict(self) -> "Dict[str, object]":
        return {
            "ok": self.ok(),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "objects_scanned": self.objects_scanned,
            "bytes_scanned": self.bytes_scanned,
            "regions_scanned": list(self.regions_scanned),
            "corrupt_found": self.corrupt_found,
            "repaired": self.repaired,
            "quarantined": [[r, name] for r, name in self.quarantined],
        }


class Scrubber:
    """Budgeted background verify-and-repair over the cloud bucket."""

    def __init__(self, db: "Database",
                 bytes_per_second: float = DEFAULT_BYTES_PER_SECOND) -> None:
        if not 0 < bytes_per_second < math.inf:
            raise ValueError(f"scrub budget must be positive and finite, "
                             f"got {bytes_per_second!r}")
        self.db = db
        self.bytes_per_second = bytes_per_second
        # The budget pipe persists across passes: back-to-back passes
        # queue behind each other exactly like any other paced consumer.
        self._pipe = Pipe(bytes_per_second, name="scrub")
        # (region, object_name) pairs quarantined by past passes.
        self.quarantined: "set[Tuple[str, str]]" = set()

    # ------------------------------------------------------------------ #
    # the walk
    # ------------------------------------------------------------------ #

    @staticmethod
    def _copies(store) -> "List[Tuple[str, object]]":
        """(region_label, concrete_store) pairs a store resolves to."""
        if isinstance(store, ReplicatedObjectStore):
            return [
                (region, store.store_for(region))
                for region in store.regions
            ]
        return [(getattr(store, "region", None) or "primary", store)]

    def _charge(self, when: float, nbytes: int) -> float:
        """Charge one verified read against the budget pipe and the NIC."""
        __, budget_done = self._pipe.request(when, float(nbytes))
        __, nic_done = self.db.nic.request(when, float(nbytes))
        return max(budget_done, nic_done)

    def _repair(self, store, region: str, name: str, when: float) -> bool:
        """Repair one damaged copy; return whether it verifies clean now.

        Bracketed by the scrub crash points.  The overwrite preserves the
        damaged version's op-time, so re-running the repair after a crash
        at either point (the same pass will find the copy again — clean
        if the first repair landed, damaged if it did not) is idempotent.
        """
        crash_point(CP_SCRUB_BEFORE_REPAIR)
        if isinstance(store, ReplicatedObjectStore):
            store.read_repair(name, when)
        crash_point(CP_SCRUB_AFTER_REPAIR)
        regional = (store.store_for(region)
                    if isinstance(store, ReplicatedObjectStore) else store)
        return regional.verify_at_rest(name) is True

    def run(self, now: "Optional[float]" = None) -> ScrubReport:
        """One full verify-and-repair pass; advances the virtual clock.

        Walks every copy of every object in the cloud bucket (all
        regions of replicated stores), pacing the verified reads through
        the bytes/sec budget.  Damaged copies are repaired from healthy
        replicas where possible; the rest are quarantined and reported.
        """
        db = self.db
        when = db.clock.now() if now is None else now
        report = ScrubReport(started_at=when)
        metrics = db.metrics
        span = db.tracer.begin("scrub", "scrubber", start=when)
        store = db.object_store  # None on a block user dbspace
        if store is not None:
            if isinstance(store, ReplicatedObjectStore):
                store.pump(when)
            for region, regional in self._copies(store):
                if region not in report.regions_scanned:
                    report.regions_scanned.append(region)
                for name in regional.all_keys():
                    data = regional.latest_data(name)
                    if data is None:
                        continue
                    when = self._charge(when, len(data))
                    report.objects_scanned += 1
                    report.bytes_scanned += len(data)
                    metrics.counter("scrub_scanned").increment()
                    if regional.verify_at_rest(name) is not False:
                        continue
                    report.corrupt_found += 1
                    metrics.counter("scrub_corrupt").increment()
                    db.tracer.record("scrub_repair", "scrubber",
                                     when, when, key=name, region=region)
                    if self._repair(store, region, name, when):
                        report.repaired += 1
                        self.quarantined.discard((region, name))
                        metrics.counter("scrub_repairs").increment()
                    else:
                        report.quarantined.append((region, name))
                        self.quarantined.add((region, name))
                        metrics.counter("scrub_quarantined").increment()
        report.finished_at = when
        db.clock.advance_to(when)
        db.tracer.finish(span, end=when,
                         scanned=report.objects_scanned,
                         repaired=report.repaired,
                         quarantined=len(report.quarantined))
        metrics.counter("scrub_passes").increment()
        return report
