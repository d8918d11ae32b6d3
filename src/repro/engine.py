"""The single-node database engine facade.

:class:`Database` wires every subsystem together the way the paper's
deployment does:

- a **system dbspace** on an EBS gp2 block volume (strongly consistent;
  holds the transaction log, checkpoints, freelist and catalog),
- a **user dbspace** either on a simulated object store (``s3``) — with or
  without an Object Cache Manager on local NVMe — or on a block volume
  (``ebs`` / ``efs``) for the paper's comparison runs,
- the Object Key Generator with a node-local key cache,
- the transaction manager, snapshot manager, and crash/restart machinery.

All I/O and CPU advance a single virtual clock; costs accrue to a
:class:`~repro.costs.meter.CostMeter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple, TypeVar

from repro.blockstore.device import BlockDevice
from repro.blockstore.freelist import Freelist
from repro.blockstore.profiles import ebs_gp2, efs_standard, nvme_ssd
from repro.core.buffer import BufferManager, ObjectHandle
from repro.core.keygen import NodeKeyCache, ObjectKeyGenerator, RangeSizePolicy
from repro.core.log import OBJECT_CREATED, SNAPSHOT_CREATED, TransactionLog
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.core.recovery import encode_checkpoint, reclaim, recover
from repro.core.snapshot import Snapshot, SnapshotManager
from repro.core.txn import Transaction, TransactionError, TransactionManager
from repro.costs.meter import CostMeter
from repro.objectstore.client import (
    COALESCE_MAX_RUN,
    CircuitBreakerConfig,
    HedgePolicy,
    RetryPolicy,
    RetryingObjectClient,
)
from repro.objectstore.consistency import ConsistencyModel, EVENTUAL
from repro.objectstore.faults import FaultSchedule
from repro.objectstore.replicated import ReplicationConfig, build_replicated_store
from repro.objectstore.s3sim import ObjectStoreProfile, S3_PROFILE, SimulatedObjectStore
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuModel
from repro.sim.crashpoints import (
    SimulatedCrash,
    crash_point,
    register_crash_point,
)
from repro.sim.devices import raid0
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import (
    BlockDbspace,
    CloudDbspace,
    DirectObjectIO,
    KeySource,
    ObjectIO,
    PageStore,
)
from repro.storage.identity import Catalog, IdentityObject
from repro.storage.locator import NULL_LOCATOR, is_object_key
from repro.storage.page import PageConfig

GIB = 1024 ** 3
MIB = 1024 ** 2
GBIT = 1_000_000_000 / 8
T = TypeVar("T")

# One node's object requests in flight: a scan's GET window (the client's
# and the OCM's read window) and the OCM's write-back upload window.
PARALLEL_WINDOW = 32
OCM_UPLOAD_WINDOW = 16
# Effective per-node S3 throughput ceiling in Gbit/s.  The paper observes
# saturation slightly above 9 Gbit/s even on a 20 Gbit NIC and attributes
# it to the engine's 512 KB page size (Figure 8).
S3_EFFECTIVE_GBITS = 9.0

SYSTEM_DBSPACE = "system"
USER_DBSPACE = "user"

CP_CREATE_OBJECT_BEFORE_LOG = register_crash_point(
    "engine.create_object.before_log",
    "object registered in the in-memory catalog, DDL not yet logged",
)
CP_CHECKPOINT_BEFORE_WRITE = register_crash_point(
    "engine.checkpoint.before_write",
    "checkpoint encoded but never written (recovery replays further back)",
)
CP_SNAPSHOT_BEFORE_LOG = register_crash_point(
    "engine.snapshot.before_log",
    "snapshot registered with the snapshot manager, not yet logged",
)
CP_SNAPSHOT_AFTER_LOG = register_crash_point(
    "engine.snapshot.after_log",
    "SNAPSHOT_CREATED logged, metadata backup charge lost",
)
CP_RESTART_BEFORE_GC = register_crash_point(
    "engine.restart.before_gc",
    "log replayed and state reinstalled, restart GC has not run "
    "(the active set must survive for the next attempt)",
)
CP_RESTART_GC_MID_POLL = register_crash_point(
    "engine.restart_gc.mid_poll",
    "restart GC crashed between polling two orphaned keys",
)
CP_RESTORE_BEFORE_POLL = register_crash_point(
    "engine.restore.before_poll",
    "snapshot catalog reinstalled, post-snapshot keys not yet polled",
)


class EngineError(Exception):
    """Engine misconfiguration or use of a crashed instance."""


@dataclass(frozen=True)
class DatabaseConfig:
    """Engine configuration (defaults suit tests; benches override)."""

    node_id: str = "coordinator"
    seed: int = 0
    page_size: int = 64 * 1024
    buffer_capacity_bytes: int = 64 * MIB
    vcpus: int = 8
    cpu_ops_per_second: float = 50e6
    nic_gbits: float = 10.0
    instance_type: str = "m5ad.4xlarge"
    # user dbspace placement: "s3", "ebs" or "efs"
    user_volume: str = "s3"
    user_volume_size_bytes: int = 1024 * GIB
    system_volume_size_bytes: int = 64 * GIB
    # OCM (only meaningful for user_volume == "s3")
    ocm_enabled: bool = True
    ocm_capacity_bytes: int = 256 * MIB
    ocm_ssd_count: int = 2
    # The batched I/O path (DESIGN.md §19) — what the engine ships with;
    # paper() below is the per-page composition the paper describes.
    # OCM eviction policy: "arc2q" (scan-resistant probation/protected
    # segments with ghost lists) or "lru" (the paper's cache)
    ocm_policy: str = "arc2q"
    # Pipelined scans: QueryContext overlaps batch N's decode with batch
    # N+1's object fetches instead of strictly alternating them
    pipelined_prefetch: bool = True
    # GET/PUT coalescing run length: the object client merges up to this
    # many adjacent-key reads (and freshly keyed adjacent pages on the
    # write side) into one ranged multi-get/multi-put — one billed
    # request, one token — before the per-prefix token buckets, and the
    # OCM's FlushForCommit drains a transaction's queued write-backs as
    # such batches (group commit); 1 is one request per page
    coalesce_max_run: int = COALESCE_MAX_RUN
    # End-to-end integrity (DESIGN.md §15; both off by default so the
    # stock configuration stays byte-identical to the seed):
    # - verify_reads: the object client recomputes CRC-32C over every
    #   served payload against the store's recorded checksum; mismatches
    #   retry (and read-repair under replication) instead of reaching the
    #   engine, and the OCM re-verifies SSD cache hits against fill-time
    #   checksums;
    # - page_checksums: every sealed page image carries a CRC-32C
    #   trailer, so corruption is caught even on paths that bypass the
    #   store's checksum records (changes the bytes at rest — guarded by
    #   the golden byte-identical regression).
    verify_reads: bool = False
    page_checksums: bool = False
    # object store behaviour
    consistency: ConsistencyModel = EVENTUAL
    prefix_bits: int = 16
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # resilience machinery (None = disabled, preserving baseline behaviour)
    breaker: "Optional[CircuitBreakerConfig]" = None
    hedge: "Optional[HedgePolicy]" = None
    # scripted fault injection against the user object store
    fault_schedule: "Optional[FaultSchedule]" = None
    # multi-region replication of the user object store (None = single
    # region, preserving baseline behaviour byte-for-byte; see
    # DESIGN.md §12 for the DR story this enables)
    replication: "Optional[ReplicationConfig]" = None
    # adaptive OCM read re-routing (the paper's proposed future work)
    ocm_adaptive_routing: bool = False
    # snapshots: retention 0 disables the snapshot manager entirely
    retention_seconds: float = 0.0
    # End-to-end request tracing: build a Tracer on the engine clock and
    # propagate it through buffer -> OCM -> client -> store so queries and
    # commits yield span trees (DESIGN.md §8).  Off by default: tracing
    # retains every span in memory.
    tracing_enabled: bool = False
    # The factor HARDWARE's rate rows are slowed by for a scaled-down
    # dataset (bench_config: SF / 1000); 1.0 runs the paper's hardware.
    rate_scale: float = 1.0

    def with_overrides(self, **kwargs: object) -> "DatabaseConfig":
        return replace(self, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def paper(cls, **fields: object) -> "DatabaseConfig":
        """The paper's per-page I/O path, as one named profile.

        One PUT per page on load and at commit, one GET per page on scan,
        fetch and decode strictly alternating, a single-LRU OCM — what
        Tables 1-5 and Figures 6-9 measured and the goldens pin.  Any
        other field may still be given; an explicit one wins.
        """
        return cls(**{**PAPER_IO, **fields})  # type: ignore[arg-type]


# paper()'s three fields, for callers that take field overrides instead.
PAPER_IO: "Dict[str, object]" = dict(
    ocm_policy="lru", pipelined_prefetch=False, coalesce_max_run=1,
)


# How each modelled hardware quantity shrinks with the data, so that the
# same resource binds at every SF (DESIGN.md §2): one row per field that
# holds one, giving its kind and where its paper (SF 1000) value lives.
RATE = "rate"  # x DatabaseConfig.rate_scale
PER_OP = "per-op rate"  # x rate_scale x 2 * 512 KiB / page size
CAPACITY = "capacity"  # sized by bench_config from the instance and SF
FIXED = "fixed"  # real at every scale

HARDWARE: "Dict[str, Tuple[str, str]]" = {
    "cpu_ops_per_second": (RATE, "DatabaseConfig.cpu_ops_per_second"),
    "nic": (RATE, "min(nic_gbits, S3_EFFECTIVE_GBITS); secondary_nic_gbits"),
    "bandwidth": (RATE, "nvme_ssd x ocm_ssd_count, ebs_gp2, efs_standard"),
    "iops": (PER_OP, "ebs_gp2, efs_standard"),
    "per_prefix_put_rate": (PER_OP, "S3_PROFILE, AZURE_BLOB_PROFILE"),
    "per_prefix_get_rate": (PER_OP, "S3_PROFILE, AZURE_BLOB_PROFILE"),
    "buffer_capacity_bytes": (CAPACITY, "half of the instance's RAM"),
    "ocm_capacity_bytes": (CAPACITY, "the instance's SSDs"),
    "user_volume_size_bytes": (CAPACITY, "1 TiB gp2, 1.5 TiB EFS"),
    "vcpus": (FIXED, "InstanceProfile.vcpus"),
    "read_latency": (FIXED, "DeviceProfile"),
    "write_latency": (FIXED, "DeviceProfile"),
    "put_latency": (FIXED, "ObjectStoreProfile"),
    "get_latency": (FIXED, "ObjectStoreProfile"),
    "delete_latency": (FIXED, "ObjectStoreProfile"),
    "system_volume_size_bytes": (FIXED, "64 GiB gp2 system dbspace"),
    "rpc_latency": (FIXED, "multiplex.RPC_LATENCY"),
}


@dataclass(frozen=True)
class NodeHardware:
    """One node's compute and network at the paper's scale."""

    cpu_ops_per_second: float
    nic: float  # bytes/second


def scaled(cfg: DatabaseConfig, paper: T, page_size: Optional[int] = None) -> T:
    """``paper`` (a NodeHardware, DeviceProfile or ObjectStoreProfile)
    with every field HARDWARE lists as a rate scaled to ``cfg``.

    ``page_size`` (default ``cfg.page_size``) is what its per-op rates
    serve: a simulated page stands for a fraction of the paper's 512 KiB
    page, and real systems coalesce adjacent reads (the x2).
    """
    if not 0 < cfg.rate_scale < math.inf:
        raise ValueError(f"rate scale must be positive and finite, got "
                         f"{cfg.rate_scale}")
    per_op = cfg.rate_scale * (2 * 524288 / (page_size or cfg.page_size))
    factors = {RATE: cfg.rate_scale, PER_OP: per_op}
    return replace(paper, **{  # type: ignore[type-var]
        name: getattr(paper, name) * factors[kind]
        for name, (kind, __) in HARDWARE.items()
        if kind in factors and getattr(paper, name, None) is not None
    })


def paper_units(cfg: DatabaseConfig, rate: float) -> float:
    """A measured rate (bytes/s, ops/s) back in the paper's units."""
    return rate / cfg.rate_scale


def build_object_io(
    cfg: DatabaseConfig, store: SimulatedObjectStore, nic: "Optional[Pipe]",
    node_id: str, rng: DeterministicRng, ocm: "Optional[Tuple[int, int]]",
) -> "Tuple[RetryingObjectClient, Optional[ObjectCacheManager]]":
    """One node's client (and OCM) into ``store`` — the only wiring there is.

    The coordinator's user store, every extra cloud dbspace and every
    multiplex secondary come through here, so a behaviour field of ``cfg``
    reaches all of them or none.  ``nic`` is the node's own pipe (``None``:
    the store's); ``ocm`` is ``(capacity_bytes, ssd_count)`` of the node's
    local cache, ``None`` for direct object I/O.
    """
    client = RetryingObjectClient(
        store, policy=cfg.retry, parallel_window=PARALLEL_WINDOW,
        bandwidth=nic, node_id=node_id, breaker=cfg.breaker, hedge=cfg.hedge,
        rng=rng.substream("object-client"), verify_reads=cfg.verify_reads,
        max_run=cfg.coalesce_max_run,
    )
    if ocm is None:
        return client, None
    capacity_bytes, ssd_count = ocm
    ssd = raid0([nvme_ssd(f"{node_id}-nvme{i}") for i in range(ssd_count)],
                name=f"{node_id}-ocm")
    return client, ObjectCacheManager(
        client, scaled(cfg, ssd),
        OcmConfig(
            capacity_bytes=capacity_bytes,
            upload_window=OCM_UPLOAD_WINDOW,
            read_window=PARALLEL_WINDOW,
            adaptive_read_routing=cfg.ocm_adaptive_routing,
            policy=cfg.ocm_policy,
        ),
        rng=rng.substream("ocm"),
    )


def build_cloud_dbspace(
    cfg: DatabaseConfig, name: str, io: ObjectIO, key_source: KeySource,
    prefix_bits: "Optional[int]" = None,
    page_size_limit: "Optional[int]" = None,
) -> CloudDbspace:
    """A cloud dbspace that seals pages the way ``cfg`` says.

    Like :func:`build_object_io`, the one place every node's view of a
    cloud dbspace is built: pages checksummed by one node must open on
    every other.
    """
    return CloudDbspace(
        name, io, key_source,
        prefix_bits=cfg.prefix_bits if prefix_bits is None else prefix_bits,
        page_size_limit=page_size_limit,
        page_checksums=cfg.page_checksums,
    )


class NodeRuntime:
    """A node's local execution context: buffer, dbspace views, caches."""

    def __init__(self, node_id: str, buffer: BufferManager,
                 dbspaces: "Dict[str, PageStore]") -> None:
        self.node_id = node_id
        self.buffer = buffer
        self._dbspaces = dict(dbspaces)
        self._blockmaps: Dict[Tuple[int, int], Blockmap] = {}

    def dbspace(self, name: str) -> PageStore:
        return self._dbspaces[name]

    def dbspaces(self) -> "Dict[str, PageStore]":
        return dict(self._dbspaces)

    def add_dbspace(self, name: str, store: PageStore) -> None:
        self._dbspaces[name] = store

    def blockmap_for(self, identity: IdentityObject) -> Blockmap:
        key = (identity.object_id, identity.version)
        cached = self._blockmaps.get(key)
        if cached is not None:
            return cached
        blockmap = Blockmap(
            self.dbspace(identity.dbspace),
            root_locator=identity.root_locator,
            height=identity.height,
        )
        self._blockmaps[key] = blockmap
        return blockmap

    def publish_blockmap(self, blockmap: Blockmap,
                         identity: IdentityObject) -> None:
        self._blockmaps[(identity.object_id, identity.version)] = blockmap

    def invalidate_caches(self) -> None:
        self._blockmaps.clear()
        self.buffer.invalidate_all()


class Database:
    """A single-node SAP-IQ-style engine over simulated cloud storage."""

    def __init__(self, config: "Optional[DatabaseConfig]" = None) -> None:
        self.config = config or DatabaseConfig()
        cfg = self.config
        self.clock = VirtualClock()
        self.rng = DeterministicRng(cfg.seed, "database")
        self.meter = CostMeter()
        self.page_config = PageConfig(cfg.page_size)
        # The NIC carries load input *and* object store traffic; the
        # engine cannot push S3 past ~9 Gbit/s (512 KB page limitation the
        # paper reports), so the pipe is capped at the lower of the two.
        hardware = scaled(cfg, NodeHardware(cfg.cpu_ops_per_second, min(
            cfg.nic_gbits, S3_EFFECTIVE_GBITS) * GBIT))
        self.cpu = CpuModel(self.clock, cfg.vcpus, hardware.cpu_ops_per_second)
        self.nic = Pipe(hardware.nic, name="nic")
        self.crashed = False
        self.metrics = MetricsRegistry()
        # Name of the crash point whose firing killed this node last
        # (set by crash_from; None for clean crashes).
        self.last_crash_point: "Optional[str]" = None
        self.tracer = (
            Tracer(self.clock, meter=self.meter)
            if cfg.tracing_enabled
            else NULL_TRACER
        )

        # --- system dbspace (strong consistency, holds log/catalog) ---- #
        # The system dbspace carries only metadata (log, catalog,
        # checkpoints), whose volume does not scale with the dataset, so
        # its device runs at real gp2 rates even under rate scaling.
        system_blocks = cfg.system_volume_size_bytes // self.page_config.block_size
        self.system_device = BlockDevice(
            ebs_gp2(cfg.system_volume_size_bytes, name="system-gp2"),
            self.page_config.block_size,
            system_blocks,
            clock=self.clock,
            rng=self.rng.substream("system-device"),
        )
        self.system_dbspace = BlockDbspace(SYSTEM_DBSPACE, self.system_device)
        self.log = TransactionLog(self.system_device)

        # --- key generation --------------------------------------------- #
        self.keygen = ObjectKeyGenerator(self.log)
        self.key_cache = NodeKeyCache(
            cfg.node_id, self.keygen.allocate_range, self.clock.now
        )

        # --- user dbspace ------------------------------------------------ #
        self.object_store: "Optional[SimulatedObjectStore]" = None
        self.object_client: "Optional[RetryingObjectClient]" = None
        self.ocm: "Optional[ObjectCacheManager]" = None
        self.user_device: "Optional[BlockDevice]" = None
        self.user_dbspace = self._build_user_dbspace()

        # --- buffer, catalog, transactions ------------------------------ #
        self.buffer = BufferManager(
            cfg.buffer_capacity_bytes, self.page_config
        )
        self.node = NodeRuntime(
            cfg.node_id,
            self.buffer,
            {SYSTEM_DBSPACE: self.system_dbspace, USER_DBSPACE: self.user_dbspace},
        )
        self.catalog = Catalog()
        self.snapshot_manager: "Optional[SnapshotManager]" = None
        if cfg.retention_seconds > 0:
            self.snapshot_manager = SnapshotManager(
                self.clock,
                cfg.retention_seconds,
                {USER_DBSPACE: self.user_dbspace},
            )
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces={
                SYSTEM_DBSPACE: self.system_dbspace,
                USER_DBSPACE: self.user_dbspace,
            },
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        # An initial checkpoint anchors recovery for logs with no history.
        self.checkpoint()
        self.attach_tracer(self.tracer)

    def new_session_scheduler(self) -> "SessionScheduler":
        """An event-driven scheduler interleaving sessions on this clock.

        Spawned sessions run ordinary engine code (transactions,
        :class:`~repro.columnar.query.QueryContext` scans, page reads) —
        while the scheduler runs, every timed wait inside the stack
        (store latency, SSD service, CPU charges, RPC round-trips)
        yields to whichever session wakes earliest instead of
        monopolizing the clock, so thousands of logical clients share
        the engine the way the paper's Figure 7/9 elasticity experiments
        assume.  With no scheduler running, the engine behaves exactly
        as the single-stream benches always have.
        """
        from repro.sim.sessions import SessionScheduler

        return SessionScheduler(self.clock)

    def attach_tracer(self, tracer) -> None:
        """Share one tracer across every instrumented layer.

        Benchmark drivers call this with their own :class:`Tracer` to
        collect spans from several engines into one trace; passing
        :data:`NULL_TRACER` detaches tracing again.
        """
        self.tracer = tracer
        self.buffer.tracer = tracer
        self.txn_manager.tracer = tracer
        for dbspace in self.cloud_dbspaces().values():
            io = dbspace.io
            io.tracer = tracer
            client = getattr(io, "client", None)
            if client is not None:
                client.tracer = tracer
                client.store.tracer = tracer

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _build_user_dbspace(self) -> PageStore:
        cfg = self.config
        if cfg.user_volume == "s3":
            self.object_store = SimulatedObjectStore(
                scaled(cfg, replace(S3_PROFILE, consistency=cfg.consistency)),
                clock=self.clock,
                rng=self.rng.substream("s3"),
                bandwidth=self.nic,
                meter=self.meter,
                fault_schedule=cfg.fault_schedule,
            )
            if cfg.replication is not None:
                # The single-region store becomes the primary region of a
                # replicated store; its RNG substreams and request path
                # are untouched, so the default path stays byte-identical
                # and replication only adds secondaries around it.
                self.object_store = build_replicated_store(
                    cfg.replication, self.object_store, self.rng
                )
            # nic=None: the store above already carries this node's NIC.
            self.object_client, self.ocm = build_object_io(
                cfg, self.object_store, None, cfg.node_id, self.rng,
                (cfg.ocm_capacity_bytes, cfg.ocm_ssd_count)
                if cfg.ocm_enabled else None,
            )
            io = self.ocm or DirectObjectIO(self.object_client)
            return build_cloud_dbspace(cfg, USER_DBSPACE, io, self.key_cache)
        if cfg.user_volume in ("ebs", "efs"):
            if cfg.user_volume == "ebs":
                profile = ebs_gp2(cfg.user_volume_size_bytes, name="user-gp2")
            else:
                profile = efs_standard(cfg.user_volume_size_bytes, name="user-efs")
            blocks = cfg.user_volume_size_bytes // self.page_config.block_size
            self.user_device = BlockDevice(
                scaled(cfg, profile),
                self.page_config.block_size,
                blocks,
                clock=self.clock,
                rng=self.rng.substream("user-device"),
            )
            return BlockDbspace(USER_DBSPACE, self.user_device)
        raise EngineError(
            f"unknown user volume kind {cfg.user_volume!r} "
            "(expected 's3', 'ebs' or 'efs')"
        )

    def _check_usable(self) -> None:
        if self.crashed:
            raise EngineError("the database is crashed; call restart() first")

    # ------------------------------------------------------------------ #
    # dbspace management
    # ------------------------------------------------------------------ #

    def create_cloud_dbspace(
        self,
        name: str,
        page_size: "Optional[int]" = None,
        profile: "Optional[ObjectStoreProfile]" = None,
        prefix_bits: "Optional[int]" = None,
    ) -> CloudDbspace:
        """CREATE DBSPACE ... USING OBJECT STORE: an additional bucket.

        The paper lets users mix dbspaces across providers and proposes
        per-dbspace page sizes as future work; both are supported here.
        The new dbspace shares the global key space (the Object Key
        Generator) and the node NIC, but has its own bucket (and optional
        page size and store profile — e.g. an Azure-Blob-like one).
        """
        self._check_usable()
        if name in self.node.dbspaces():
            raise EngineError(f"dbspace {name!r} already exists")
        if page_size is not None and (
            page_size <= 0 or page_size % 16 != 0
        ):
            raise EngineError("page size must be a positive multiple of 16")
        cfg = self.config
        store = SimulatedObjectStore(
            scaled(cfg, profile or replace(
                S3_PROFILE, name=name, consistency=cfg.consistency,
            ), page_size),
            clock=self.clock,
            rng=self.rng.substream(f"store/{name}"),
            bandwidth=self.nic,
            meter=self.meter,
        )
        client, __ = build_object_io(
            cfg, store, None, cfg.node_id,
            self.rng.substream(f"store/{name}"), None,
        )
        client.tracer = self.tracer
        store.tracer = self.tracer
        dbspace = build_cloud_dbspace(
            cfg, name, DirectObjectIO(client), self.key_cache,
            prefix_bits=prefix_bits, page_size_limit=page_size,
        )
        self.node.add_dbspace(name, dbspace)
        self.txn_manager.register_gc_dbspace(name, dbspace)
        if self.snapshot_manager is not None:
            self.snapshot_manager.register_dbspace(name, dbspace)
        return dbspace

    def cloud_dbspaces(self) -> "Dict[str, CloudDbspace]":
        """All registered cloud dbspaces, by name."""
        return {
            name: store
            for name, store in self.node.dbspaces().items()
            if isinstance(store, CloudDbspace)
        }

    def page_size_for(self, dbspace: str) -> int:
        """Effective page size of a dbspace (its override or the default)."""
        store = self.node.dbspace(dbspace)
        return store.page_size_limit or self.page_config.page_size

    # ------------------------------------------------------------------ #
    # DDL and transactions
    # ------------------------------------------------------------------ #

    def create_object(self, name: str, dbspace: str = USER_DBSPACE) -> int:
        """Register a paged storage object (autocommitted, logged DDL)."""
        self._check_usable()
        if dbspace not in self.node.dbspaces():
            raise EngineError(f"unknown dbspace {dbspace!r}")
        object_id = self.catalog.register_object(name, dbspace)
        crash_point(CP_CREATE_OBJECT_BEFORE_LOG)
        self.log.append(
            OBJECT_CREATED,
            {"name": name, "dbspace": dbspace, "object_id": object_id},
        )
        return object_id

    def begin(self) -> Transaction:
        self._check_usable()
        return self.txn_manager.begin(self.node)

    def commit(self, txn: Transaction) -> None:
        self._check_usable()
        with self.tracer.span("commit", "engine", txn_id=txn.txn_id):
            self.txn_manager.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self._check_usable()
        self.txn_manager.rollback(txn)

    # ------------------------------------------------------------------ #
    # page-level convenience API
    # ------------------------------------------------------------------ #

    def open_for_read(self, txn: Transaction, name: str) -> ObjectHandle:
        return self.txn_manager.open_for_read(txn, name)

    def open_for_write(self, txn: Transaction, name: str) -> ObjectHandle:
        return self.txn_manager.open_for_write(txn, name)

    def write_page(self, txn: Transaction, name: str, page_no: int,
                   data: bytes) -> None:
        with self.tracer.span("write_page", "engine",
                              object=name, page_no=page_no):
            handle = self.open_for_write(txn, name)
            self.buffer.write_page(handle, page_no, data)

    def read_page(self, txn: Transaction, name: str, page_no: int) -> bytes:
        with self.tracer.span("read_page", "engine",
                              object=name, page_no=page_no):
            handle = self.open_for_read(txn, name)
            return self.buffer.get_page(handle, page_no)

    # ------------------------------------------------------------------ #
    # checkpointing, crash, restart
    # ------------------------------------------------------------------ #

    def _freelists(self) -> "Dict[str, Freelist]":
        """The live freelists; checkpoints and snapshots keep copies."""
        freelists = {SYSTEM_DBSPACE: self.system_dbspace.freelist}
        if isinstance(self.user_dbspace, BlockDbspace):
            freelists[USER_DBSPACE] = self.user_dbspace.freelist
        return freelists

    def checkpoint(self) -> None:
        """Persist recovery state: catalog, freelists, keygen, chain."""
        self._check_usable()
        state = encode_checkpoint(
            self.catalog,
            self.keygen,
            self._freelists(),
            self.txn_manager.chain_state(),
            self.txn_manager.commit_seq,
        )
        crash_point(CP_CHECKPOINT_BEFORE_WRITE)
        self.log.checkpoint(state)

    def crash(self) -> None:
        """Simulate a node crash: volatile state vanishes, storage survives.

        Only transactions running *on this node* abort; in a multiplex,
        secondary nodes' transactions survive a coordinator crash and are
        re-adopted after recovery (Table 1, clocks 110-130).
        """
        if self.crashed:
            raise EngineError("the database is already crashed")
        for txn in self.txn_manager.active_transactions():
            if txn.node_id == self.config.node_id:
                self.txn_manager.abort_in_crash(txn)
        self.node.invalidate_caches()
        if self.ocm is not None:
            self.ocm.invalidate_all()
        self.key_cache.drop_cached_range()
        self.crashed = True

    def crash_from(self, exc: SimulatedCrash) -> None:
        """Translate a fired crash point into ordinary crash semantics.

        Idempotent over an already-crashed node: a point that fires during
        recovery (restart GC, checkpoint) leaves the node crashed again
        only if it had already been marked healthy.
        """
        self.last_crash_point = exc.point
        if not self.crashed:
            self.crash()

    def restart(self) -> None:
        """Crash recovery: checkpoint + log replay + restart GC."""
        if not self.crashed:
            raise EngineError("restart() is only valid after crash()")
        span = self.tracer.begin("replay", "recovery")
        recovered = recover(self.log)
        self.tracer.finish(
            span,
            replayed_commits=recovered.replayed_commits,
            replayed_allocations=recovered.replayed_allocations,
        )
        self.catalog = recovered.catalog
        self.keygen = recovered.keygen
        if SYSTEM_DBSPACE in recovered.freelists:
            self.system_dbspace.freelist = recovered.freelists[SYSTEM_DBSPACE]
        if (
            isinstance(self.user_dbspace, BlockDbspace)
            and USER_DBSPACE in recovered.freelists
        ):
            self.user_dbspace.freelist = recovered.freelists[USER_DBSPACE]
        self.key_cache = NodeKeyCache(
            self.config.node_id, self.keygen.allocate_range, self.clock.now
        )
        if isinstance(self.user_dbspace, CloudDbspace):
            self.user_dbspace.key_source = self.key_cache
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces=self.node.dbspaces(),
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        self.txn_manager.restore_chain(
            [entry.to_payload() for entry in recovered.chain_entries]
        )
        self.crashed = False
        crash_point(CP_RESTART_BEFORE_GC)
        # The key space is global across cloud dbspaces, so every cloud
        # bucket is polled for each outstanding key.
        self._restart_gc(self.config.node_id,
                         list(self.cloud_dbspaces().values()),
                         CP_RESTART_GC_MID_POLL)
        self.checkpoint()

    def _restart_gc(self, node_id: str, stores: "List[CloudDbspace]",
                    mid_poll: str) -> int:
        """Poll and reclaim a node's outstanding key allocations.

        The active set is cleared only *after* every key was polled:
        clearing first would lose the remaining keys forever if the
        coordinator died mid-poll, since the cleared set exists only in
        coordinator memory (polls are idempotent, so re-polling after
        another crash is safe).
        """
        active = self.keygen.active_set(node_id)
        with self.tracer.span("restart_gc", "recovery", node=node_id):
            reclaimed = reclaim(stores, active.intervals(), mid_poll=mid_poll)
            self.keygen.clear_active_set(node_id)
        self.metrics.counter("restart_gc_polled_keys").increment(
            active.key_count())
        return reclaimed

    # ------------------------------------------------------------------ #
    # snapshots & point-in-time restore
    # ------------------------------------------------------------------ #

    def create_snapshot(self) -> Snapshot:
        """Near-instantaneous snapshot: metadata only (Section 5)."""
        self._check_usable()
        if self.snapshot_manager is None:
            raise EngineError(
                "snapshots need retention_seconds > 0 in DatabaseConfig"
            )
        if isinstance(self.user_dbspace, BlockDbspace):
            # Retention defers only object deletes: a block dbspace frees
            # a superseded block at once, so its snapshot could not be
            # restored.
            raise EngineError("snapshots need a cloud user dbspace")
        snapshot = self.snapshot_manager.create_snapshot(
            self.catalog.to_bytes(),
            self.keygen.max_allocated_key,
            {SYSTEM_DBSPACE: self.system_dbspace.freelist.copy()},
            max_consumed_key=self.key_cache.last_consumed,
        )
        crash_point(CP_SNAPSHOT_BEFORE_LOG)
        self.log.append(
            SNAPSHOT_CREATED,
            {
                "snapshot_id": snapshot.snapshot_id,
                "max_allocated_key": snapshot.max_allocated_key,
            },
        )
        crash_point(CP_SNAPSHOT_AFTER_LOG)
        # Charge the small metadata backup (system dbspace write).
        self.system_device.charge_write(
            len(snapshot.catalog_bytes) + len(snapshot.snapmgr_metadata)
        )
        return snapshot

    def restore_snapshot(self, snapshot_id: int) -> None:
        """Point-in-time restore to a snapshot within the retention period."""
        self._check_usable()
        if self.snapshot_manager is None:
            raise EngineError("no snapshot manager configured")
        snapshot = self.snapshot_manager.get_snapshot(snapshot_id)
        for txn in self.txn_manager.active_transactions():
            self.txn_manager.rollback(txn)
        self.catalog = Catalog.from_bytes(snapshot.catalog_bytes)
        crash_point(CP_RESTORE_BEFORE_POLL)
        # GC back to the snapshot.  Keys consumed since lie above its
        # floor (monotonic allocation); the poll keeps what the restored
        # catalog reaches plus what the snapshot's retention FIFO holds.
        # The FIFO and snapshot switch is a durable-metadata write, so it
        # comes after the polls (DESIGN.md §10): a crash before them
        # recovers the pre-restore FIFO and snapshots intact.
        floor = snapshot.max_consumed_key or snapshot.max_allocated_key
        fifo = SnapshotManager.decode_metadata(snapshot.snapmgr_metadata)
        reachable = self._reachable_cloud_keys()
        keep = reachable.union(locator for __, locator, __ in fifo)
        reclaim(list(self.cloud_dbspaces().values()),
                [(floor + 1, self.keygen.max_allocated_key)], keep)
        self.snapshot_manager.rewind(fifo, reachable, snapshot.created_at)
        self.system_dbspace.freelist = (
            snapshot.freelists[SYSTEM_DBSPACE].copy())
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces=self.node.dbspaces(),
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        self.node.invalidate_caches()
        self.drop_query_caches()
        self.checkpoint()

    def drop_query_caches(self) -> None:
        """Empty the session's version-keyed query caches.

        ``QueryContext`` keeps parsed metadata keyed by ``(object,
        version)``.  A restore rewinds the catalog, so the next commit
        reuses a version number the cache already holds for pre-restore
        contents.
        """
        cache = getattr(self, "_query_meta_cache", None)
        if cache is not None:
            cache.clear()

    def _reachable_cloud_keys(self) -> "Set[int]":
        """The object key of every page the catalog reaches."""
        keys: "Set[int]" = set()
        for identity in self.catalog.all_identities():
            try:
                store = self.node.dbspace(identity.dbspace)
            except KeyError:
                continue
            if not store.is_cloud or identity.root_locator == NULL_LOCATOR:
                continue
            blockmap = Blockmap(
                store,
                root_locator=identity.root_locator,
                height=identity.height,
            )
            for locator in blockmap.live_locators():
                if is_object_key(locator):
                    keys.add(locator)
        return keys

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def user_data_bytes(self) -> int:
        """Compressed bytes at rest in the user dbspace."""
        return self.user_dbspace.stored_bytes()

    def monthly_storage_cost(self) -> float:
        """USD per month for the user dbspace's data at rest (Table 4)."""
        volume = {"s3": "s3", "ebs": "ebs-gp2", "efs": "efs"}[
            self.config.user_volume
        ]
        return self.meter.storage_monthly_cost(volume, self.user_data_bytes())

    def stats(self) -> "Dict[str, object]":
        out: Dict[str, object] = {
            "clock_seconds": self.clock.now(),
            "buffer": self.buffer.stats(),
            "txn": dict(self.txn_manager.stats),
            "user_data_bytes": self.user_data_bytes(),
        }
        if self.ocm is not None:
            out["ocm"] = self.ocm.stats()
        if self.object_store is not None:
            out["object_store"] = self.object_store.metrics.snapshot()
        return out
