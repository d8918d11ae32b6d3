"""A simulated shared block device holding real bytes.

Pages on conventional dbspaces are stored as contiguous block runs on a
:class:`BlockDevice`.  The device combines data storage (so reads return the
actual bytes written) with a :class:`~repro.sim.devices.QueueingDevice`
timing model, and exposes the same two-level API as the object store
simulator: a timed API returning virtual completion times plus windowed
batch forms that advance the shared clock (a single run is a batch of
one).

Block devices are *strongly consistent*: a read after a completed write
always returns the written bytes — the property SAP IQ historically relied
on, and the one object stores do not give.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile, QueueingDevice
from repro.sim.rng import DeterministicRng


class BlockDeviceError(Exception):
    """Out-of-range or mismatched block access."""


class BlockDevice:
    """A block-addressed volume with a queueing performance model."""

    def __init__(
        self,
        profile: DeviceProfile,
        block_size: int,
        total_blocks: int,
        clock: Optional[VirtualClock] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        if block_size <= 0:
            raise BlockDeviceError(f"block size must be positive, got {block_size}")
        if total_blocks <= 0:
            raise BlockDeviceError(f"device needs blocks, got {total_blocks}")
        self.block_size = block_size
        self.total_blocks = total_blocks
        self.clock = clock or VirtualClock()
        self._device = QueueingDevice(
            profile,
            self.clock,
            rng or DeterministicRng(0, f"blockdev/{profile.name}"),
        )
        # start block -> payload written there (pages are written and read
        # as whole contiguous runs, so run-granular storage is sufficient).
        self._data: Dict[int, bytes] = {}

    @property
    def profile(self) -> DeviceProfile:
        return self._device.profile

    @property
    def metrics(self):
        return self._device.metrics

    @property
    def capacity_bytes(self) -> int:
        return self.block_size * self.total_blocks

    def blocks_for(self, nbytes: int) -> int:
        """Number of blocks a payload of ``nbytes`` occupies."""
        if nbytes <= 0:
            return 1
        return (nbytes + self.block_size - 1) // self.block_size

    def _check_range(self, start: int, nblocks: int) -> None:
        if start < 0 or nblocks < 1 or start + nblocks > self.total_blocks:
            raise BlockDeviceError(
                f"block range {start}+{nblocks} outside device of "
                f"{self.total_blocks} blocks"
            )

    # ------------------------------------------------------------------ #
    # timed API
    # ------------------------------------------------------------------ #

    def write_at(self, start: int, data: bytes, now: float) -> float:
        """Write ``data`` at block ``start``; return completion time."""
        nblocks = self.blocks_for(len(data))
        self._check_range(start, nblocks)
        self._data[start] = bytes(data)
        return self._device.write(len(data), now)

    def read_at(self, start: int, now: float) -> "Tuple[bytes, float]":
        """Read the run written at ``start``; return (data, completion)."""
        if start not in self._data:
            raise BlockDeviceError(f"no data written at block {start}")
        data = self._data[start]
        return data, self._device.read(len(data), now)

    def discard(self, start: int) -> None:
        """Drop the stored run (blocks freed via the freelist); no timing."""
        self._data.pop(start, None)

    def charge_write(self, nbytes: int) -> None:
        """Charge a raw synchronous write without storing data.

        Used for metadata appends (the transaction log) whose contents are
        tracked elsewhere but whose I/O must still cost virtual time.
        """
        self.clock.advance_to(self._device.write(nbytes))

    # ------------------------------------------------------------------ #
    # windowed parallel batches
    # ------------------------------------------------------------------ #

    def read_many_at(
        self, starts: "Iterable[int]", now: float, window: int = 32
    ) -> "Tuple[Dict[int, bytes], float]":
        """Read several runs with up to ``window`` outstanding requests,
        the first ones issued at ``now``; return (results, completion)."""
        if window < 1:
            raise BlockDeviceError("window must be at least 1")
        inflight: "List[float]" = []
        results: "Dict[int, bytes]" = {}
        last = now
        for start in starts:
            begin = now
            if len(inflight) >= window:
                begin = max(now, heapq.heappop(inflight))
            data, done = self.read_at(start, begin)
            results[start] = data
            heapq.heappush(inflight, done)
            last = max(last, done)
        return results, last

    def write_many(
        self, items: "Iterable[Tuple[int, bytes]]", window: int = 32
    ) -> None:
        if window < 1:
            raise BlockDeviceError("window must be at least 1")
        now = self.clock.now()
        inflight: "List[float]" = []
        last = now
        for start, data in items:
            begin = now
            if len(inflight) >= window:
                begin = max(now, heapq.heappop(inflight))
            done = self.write_at(start, data, begin)
            heapq.heappush(inflight, done)
            last = max(last, done)
        self.clock.advance_to(last)

    def stored_bytes(self) -> int:
        """Bytes currently stored (sum of live runs)."""
        return sum(len(data) for data in self._data.values())

    def __repr__(self) -> str:
        return (
            f"BlockDevice({self.profile.name!r}, block_size={self.block_size}, "
            f"blocks={self.total_blocks})"
        )
