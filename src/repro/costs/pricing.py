"""AWS price tables (us-east-1, public list prices circa 2020).

Prices are the published rates the paper's cost tables are computed from:
S3 standard storage/requests, EBS gp2, EFS standard, and the EC2 on-demand
rates for the instance types used in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

GIB = 1024 ** 3
HOURS_PER_MONTH = 730.0


@dataclass(frozen=True)
class StoragePrice:
    """Monthly price of data at rest, in USD per GiB-month."""

    volume: str
    usd_per_gib_month: float

    def monthly_cost(self, nbytes: int) -> float:
        return (nbytes / GIB) * self.usd_per_gib_month


@dataclass(frozen=True)
class RequestPrice:
    """Per-request charges, in USD per 1000 requests."""

    volume: str
    put_usd_per_1000: float = 0.0
    get_usd_per_1000: float = 0.0
    delete_usd_per_1000: float = 0.0

    def cost(self, puts: int = 0, gets: int = 0, deletes: int = 0) -> float:
        return (
            puts * self.put_usd_per_1000
            + gets * self.get_usd_per_1000
            + deletes * self.delete_usd_per_1000
        ) / 1000.0


@dataclass(frozen=True)
class PriceTable:
    """All prices the simulation charges against."""

    storage: Dict[str, StoragePrice] = field(default_factory=dict)
    requests: Dict[str, RequestPrice] = field(default_factory=dict)
    ec2_usd_per_hour: Dict[str, float] = field(default_factory=dict)

    def storage_price(self, volume: str) -> StoragePrice:
        if volume not in self.storage:
            raise KeyError(f"no storage price for volume {volume!r}")
        return self.storage[volume]

    def request_price(self, volume: str) -> RequestPrice:
        return self.requests.get(volume, RequestPrice(volume))

    def instance_rate(self, instance_type: str) -> float:
        if instance_type not in self.ec2_usd_per_hour:
            raise KeyError(f"no EC2 rate for instance type {instance_type!r}")
        return self.ec2_usd_per_hour[instance_type]


DEFAULT_PRICES = PriceTable(
    storage={
        "s3": StoragePrice("s3", 0.023),
        "ebs-gp2": StoragePrice("ebs-gp2", 0.10),
        "efs": StoragePrice("efs", 0.30),
    },
    requests={
        "s3": RequestPrice(
            "s3",
            put_usd_per_1000=0.005,
            get_usd_per_1000=0.0004,
            delete_usd_per_1000=0.0,
        ),
    },
    ec2_usd_per_hour={
        "m5ad.4xlarge": 0.824,
        "m5ad.12xlarge": 2.472,
        "m5ad.24xlarge": 4.944,
        "r5.large": 0.126,
    },
)
