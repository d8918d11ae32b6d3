"""Object store substrate: S3 simulator, replication, retries.

The paper stores database pages directly as objects on AWS S3 / Azure Blob.
We substitute a deterministic simulator that reproduces the properties the
paper's design reacts to:

- *eventual consistency*: a freshly written object may be invisible for a
  while ("NoSuchKey"), and an overwritten object may serve stale versions —
  the two failure scenarios of Section 3;
- *per-prefix request throttling*: request rate per key prefix is limited,
  motivating the hashed-prefix scheme of Section 3.1;
- *latency/throughput trade-off*: high per-request first-byte latency but
  near-unlimited aggregate bandwidth (bounded only by the instance NIC);
- *request pricing*: PUT/GET charges feeding Table 3.
"""

from repro.objectstore.errors import (
    CircuitOpenError,
    NoSuchKeyError,
    ObjectStoreError,
    OverwriteForbiddenError,
    RetriesExhaustedError,
)
from repro.objectstore.consistency import ConsistencyModel, STRONG, EVENTUAL
from repro.objectstore.faults import (
    ErrorStorm,
    FaultEvent,
    FaultSchedule,
    LatencySpike,
    NAMED_SCHEDULES,
    OutageWindow,
    RegionOutage,
    ThrottleStorm,
    canonical_storm,
    named_schedule,
)
from repro.objectstore.s3sim import ObjectStoreProfile, SimulatedObjectStore, S3_PROFILE
from repro.objectstore.replicated import (
    ReplicatedObjectStore,
    ReplicationConfig,
    ReplicationEntry,
    StalenessViolation,
    build_replicated_store,
)
from repro.objectstore.client import (
    CircuitBreaker,
    CircuitBreakerConfig,
    HedgePolicy,
    RetryingObjectClient,
    RetryPolicy,
)

__all__ = [
    "SimulatedObjectStore",
    "ObjectStoreProfile",
    "S3_PROFILE",
    "ConsistencyModel",
    "STRONG",
    "EVENTUAL",
    "RetryingObjectClient",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "HedgePolicy",
    "FaultEvent",
    "FaultSchedule",
    "OutageWindow",
    "RegionOutage",
    "ReplicatedObjectStore",
    "ReplicationConfig",
    "ReplicationEntry",
    "StalenessViolation",
    "build_replicated_store",
    "ErrorStorm",
    "LatencySpike",
    "ThrottleStorm",
    "NAMED_SCHEDULES",
    "canonical_storm",
    "named_schedule",
    "ObjectStoreError",
    "NoSuchKeyError",
    "OverwriteForbiddenError",
    "RetriesExhaustedError",
    "CircuitOpenError",
]
