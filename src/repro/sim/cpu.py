"""CPU time accounting for the simulated instance.

The columnar executor and load engine charge abstract *work units*
(tuple operations) to a :class:`CpuModel`; the model converts them into
virtual seconds given the instance's vCPU count and a parallel fraction
(Amdahl-style), which is what produces the paper's scale-up curves
(Figure 7).
"""

from __future__ import annotations

from repro.sim.clock import VirtualClock


class CpuModel:
    """Charges work units against the virtual clock."""

    def __init__(
        self,
        clock: VirtualClock,
        vcpus: int,
        ops_per_second: float = 50e6,
        parallel_fraction: float = 0.97,
    ) -> None:
        if vcpus < 1:
            raise ValueError(f"need at least one vCPU, got {vcpus}")
        if ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValueError("parallel fraction must be in [0, 1]")
        self.clock = clock
        self.vcpus = vcpus
        self.ops_per_second = ops_per_second
        self.parallel_fraction = parallel_fraction
        self.total_ops = 0.0

    def seconds_for(self, ops: float) -> float:
        """Virtual seconds a workload of ``ops`` units takes (Amdahl)."""
        if ops < 0:
            raise ValueError(f"cannot charge negative work {ops!r}")
        serial = (1.0 - self.parallel_fraction) * ops
        parallel = self.parallel_fraction * ops / self.vcpus
        return (serial + parallel) / self.ops_per_second

    def charge(self, ops: float) -> float:
        """Advance the clock by the work's duration; return seconds."""
        seconds = self.seconds_for(ops)
        self.total_ops += ops
        self.clock.advance(seconds)
        return seconds
