"""Generic queueing model of a storage device or network link.

A :class:`QueueingDevice` combines:

- a fixed per-operation base latency (optionally jittered),
- a shared bandwidth :class:`~repro.sim.pipes.Pipe` (bytes/second) through
  which reads *and* writes flow, and
- an optional IOPS pipe (operations/second) modelling throttled volumes
  such as EBS gp2.

Because the bandwidth pipe is first-come-first-served and shared, a burst of
asynchronous writes (as issued by the Object Cache Manager's write-back mode)
pushes subsequent reads behind it in the queue — which is exactly the
SSD-saturation effect the paper observes for Q3/Q4 in Figure 6.

Synchronous callers use :meth:`read` / :meth:`write`, which return the
virtual completion time *without* advancing the shared clock; the caller
decides whether to wait (``clock.advance_to``) or to treat the operation as
background work (fire-and-forget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.clock import VirtualClock
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance description of a device.

    ``bandwidth`` is in bytes/second and is shared between reads and writes.
    ``iops`` of ``None`` means the device is not operation-throttled.
    ``latency_jitter`` is the relative sigma of a lognormal multiplier
    applied to base latencies (0 disables jitter).
    """

    name: str
    read_latency: float
    write_latency: float
    bandwidth: float
    iops: Optional[float] = None
    latency_jitter: float = 0.0
    # Writes consume this multiple of their bytes on the shared bandwidth
    # pipe (SSD write throughput is far below read throughput, and write
    # amplification makes it worse) — heavy asynchronous write bursts
    # therefore crowd out reads, the paper's Figure 6 anomaly.
    write_cost_multiplier: float = 1.0


class QueueingDevice:
    """A device instance with queues, metrics and deterministic jitter."""

    def __init__(
        self,
        profile: DeviceProfile,
        clock: VirtualClock,
        rng: Optional[DeterministicRng] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.profile = profile
        self._clock = clock
        self._rng = rng or DeterministicRng(0, f"device/{profile.name}")
        self.metrics = metrics or MetricsRegistry()
        self._bandwidth = Pipe(profile.bandwidth, name=f"{profile.name}/bw")
        self._iops = (
            Pipe(profile.iops, name=f"{profile.name}/iops")
            if profile.iops is not None
            else None
        )

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    def _jittered(self, latency: float) -> float:
        if self.profile.latency_jitter <= 0:
            return latency
        return latency * self._rng.lognormal(0.0, self.profile.latency_jitter)

    def _submit(self, now: float, nbytes: int, base_latency: float,
                cost_multiplier: float = 1.0) -> float:
        """Queue one operation; return its virtual completion time."""
        if nbytes < 0:
            raise ValueError(f"operation size cannot be negative: {nbytes!r}")
        start = now
        if self._iops is not None:
            __, start = self._iops.request(start, 1.0)
        __, transfer_done = self._bandwidth.request(
            start, float(nbytes) * cost_multiplier
        )
        return transfer_done + self._jittered(base_latency)

    def read(self, nbytes: int, now: Optional[float] = None) -> float:
        """Queue a read of ``nbytes``; return virtual completion time."""
        when = self._clock.now() if now is None else now
        done = self._submit(when, nbytes, self.profile.read_latency)
        self.metrics.counter("read_ops").increment()
        self.metrics.counter("read_bytes").increment(nbytes)
        self.metrics.histogram("read_latency").observe(done - when)
        self.metrics.series("read_bytes_over_time").record(when, nbytes)
        return done

    def write(self, nbytes: int, now: Optional[float] = None) -> float:
        """Queue a write of ``nbytes``; return virtual completion time."""
        when = self._clock.now() if now is None else now
        done = self._submit(when, nbytes, self.profile.write_latency,
                            self.profile.write_cost_multiplier)
        self.metrics.counter("write_ops").increment()
        self.metrics.counter("write_bytes").increment(nbytes)
        self.metrics.histogram("write_latency").observe(done - when)
        self.metrics.series("write_bytes_over_time").record(when, nbytes)
        return done

    def __repr__(self) -> str:
        return f"QueueingDevice({self.profile.name!r})"


def raid0(profiles: "list[DeviceProfile]", name: str = "raid0") -> DeviceProfile:
    """Combine identical local devices into a single RAID 0 profile.

    The paper bundles the instance's NVMe SSDs into one RAID 0 volume for
    the OCM; bandwidth adds up, latency stays that of a single device.
    """
    if not profiles:
        raise ValueError("raid0 requires at least one device profile")
    first = profiles[0]
    total_bandwidth = sum(p.bandwidth for p in profiles)
    total_iops = None
    if all(p.iops is not None for p in profiles):
        total_iops = sum(p.iops for p in profiles)  # type: ignore[misc]
    return DeviceProfile(
        name=name,
        read_latency=first.read_latency,
        write_latency=first.write_latency,
        bandwidth=total_bandwidth,
        iops=total_iops,
        latency_jitter=first.latency_jitter,
        write_cost_multiplier=first.write_cost_multiplier,
    )
