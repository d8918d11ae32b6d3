"""Volume performance profiles for the devices the paper compares against.

Numbers follow AWS's published characteristics (circa 2020):

- **EBS gp2**: 3 IOPS per GiB provisioned (min 100, cap 16,000), up to
  250 MB/s per volume, sub-millisecond latency.  IOPS throttling is what
  caps SAP IQ's throughput on EBS in Table 2.
- **EFS standard**: baseline throughput scales with stored data
  (~50 MB/s per TiB, burstable), several-millisecond latencies, and an
  aggregate IOPS ceiling — by far the slowest volume in Table 2.
- **Local NVMe SSD** (m5ad instance storage): ~100 microsecond latency and
  roughly 500 MB/s of *shared* read/write bandwidth per device.  Because
  reads and writes share the bandwidth pipe, saturating the device with
  asynchronous cache-fill writes inflates read latencies — the Figure 6
  OCM anomaly.
"""

from __future__ import annotations

from repro.sim.devices import DeviceProfile

GIB = 1024 ** 3
TIB = 1024 ** 4
MB = 1_000_000


def ebs_gp2(size_bytes: int, name: str = "ebs-gp2") -> DeviceProfile:
    """EBS gp2 volume: IOPS = 3/GiB in [100, 16000], 250 MB/s ceiling."""
    iops = min(16000.0, max(100.0, 3.0 * (size_bytes / GIB)))
    return DeviceProfile(
        name=name,
        read_latency=0.0008,
        write_latency=0.0010,
        bandwidth=250 * MB,
        iops=iops,
        latency_jitter=0.05,
    )


def efs_standard(stored_bytes: int, name: str = "efs") -> DeviceProfile:
    """EFS standard: baseline 50 MB/s per TiB stored (min 1 MB/s)."""
    bandwidth = max(1 * MB, 50 * MB * (stored_bytes / TIB))
    return DeviceProfile(
        name=name,
        read_latency=0.003,
        write_latency=0.006,
        bandwidth=bandwidth,
        iops=7000.0,
        latency_jitter=0.10,
    )


def nvme_ssd(name: str = "nvme") -> DeviceProfile:
    """One local NVMe SSD as found on m5ad instances (~1.5 GB/s)."""
    return DeviceProfile(
        name=name,
        read_latency=0.0001,
        write_latency=0.0002,
        bandwidth=1500 * MB,
        iops=None,
        latency_jitter=0.05,
        # NVMe writes sustain a fraction of read throughput; amplified
        # write bursts crowd out reads on the shared channel (Figure 6).
        write_cost_multiplier=4.0,
    )


def ram_disk(name: str = "ram") -> DeviceProfile:
    """An effectively free device for tests that ignore timing."""
    return DeviceProfile(
        name=name,
        read_latency=0.0,
        write_latency=0.0,
        bandwidth=1e12,
        iops=None,
        latency_jitter=0.0,
    )
