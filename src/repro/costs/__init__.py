"""Monetary cost accounting for the simulated cloud.

Price tables mirror the publicly listed AWS prices the paper used (us-east-1,
circa 2020).  The :class:`~repro.costs.meter.CostMeter` counts per-request
charges and prices storage-months, the costs behind Tables 3 and 4.
"""

from repro.costs.pricing import (
    PriceTable,
    StoragePrice,
    RequestPrice,
    DEFAULT_PRICES,
)
from repro.costs.instances import InstanceProfile, INSTANCE_CATALOG
from repro.costs.meter import CostMeter

__all__ = [
    "PriceTable",
    "StoragePrice",
    "RequestPrice",
    "DEFAULT_PRICES",
    "InstanceProfile",
    "INSTANCE_CATALOG",
    "CostMeter",
]
