"""EC2 instance hardware profiles used in the paper's evaluation.

The m5ad family provides the compute (vCPUs), the RAM that backs the buffer
manager, the local NVMe SSDs that back the Object Cache Manager, and the NIC
through which all S3 traffic flows.  The paper assigns half of RAM to the
buffer manager and bundles all SSDs into a RAID 0 volume for the OCM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

GIB = 1024 ** 3


@dataclass(frozen=True)
class InstanceProfile:
    """Hardware shape of one EC2 instance type."""

    instance_type: str
    vcpus: int
    ram_bytes: int
    nic_gbits: float
    ssd_count: int
    ssd_bytes: int

    @property
    def buffer_cache_bytes(self) -> int:
        """RAM reserved for the buffer manager (half of RAM, per the paper)."""
        return self.ram_bytes // 2

    @property
    def total_ssd_bytes(self) -> int:
        return self.ssd_count * self.ssd_bytes


INSTANCE_CATALOG: "Dict[str, InstanceProfile]" = {
    "m5ad.4xlarge": InstanceProfile(
        instance_type="m5ad.4xlarge",
        vcpus=16,
        ram_bytes=64 * GIB,
        nic_gbits=5.0,  # "up to 10 Gbps" burst; ~5 sustained
        ssd_count=2,
        ssd_bytes=300 * GIB,
    ),
    "m5ad.12xlarge": InstanceProfile(
        instance_type="m5ad.12xlarge",
        vcpus=48,
        ram_bytes=192 * GIB,
        nic_gbits=10.0,
        ssd_count=2,
        ssd_bytes=900 * GIB,
    ),
    "m5ad.24xlarge": InstanceProfile(
        instance_type="m5ad.24xlarge",
        vcpus=96,
        ram_bytes=384 * GIB,
        nic_gbits=20.0,
        ssd_count=4,
        ssd_bytes=900 * GIB,
    ),
    "r5.large": InstanceProfile(
        instance_type="r5.large",
        vcpus=2,
        ram_bytes=16 * GIB,
        nic_gbits=10.0,
        ssd_count=0,
        ssd_bytes=0,
    ),
}
