"""Multiplex clusters: coordinator, writer and reader nodes (Section 2).

A *multiplex* is SAP IQ's scale-out configuration: one coordinator plus
secondary nodes (writers can modify data, readers cannot) over shared
storage.  In this reproduction:

- the coordinator is a full :class:`~repro.engine.Database` and remains the
  authority for the catalog, the transaction log, the Object Key Generator
  and the commit chain;
- each secondary node has its *own* buffer manager, its own OCM over its
  own (ephemeral) local SSDs, its own NIC pipe into the *shared* object
  store, and a node-local key cache that refills via RPC to the
  coordinator;
- RPCs are simulated: each call charges a round-trip latency to the shared
  virtual clock and bumps a counter;
- crashing a writer abandons its active transactions and wipes its caches;
  on restart the node RPCs the coordinator, which polls the node's active
  key set against the cloud dbspaces and garbage-collects orphans — the
  Table 1 walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.buffer import BufferManager
from repro.core.keygen import KeyRange, NodeKeyCache
from repro.core.recovery import fence_in_flight_writes
from repro.core.txn import Transaction, TransactionError
from repro.engine import Database, DatabaseConfig, NodeRuntime, SYSTEM_DBSPACE, USER_DBSPACE
from repro.engine import GBIT, NodeHardware, scaled
from repro.engine import build_cloud_dbspace, build_object_io
from repro.objectstore.faults import FaultSchedule, OutageWindow, RegionOutage
from repro.objectstore.replicated import ReplicatedObjectStore
from repro.sim.cpu import CpuModel
from repro.sim.crashpoints import (
    SimulatedCrash,
    crash_point,
    register_crash_point,
)
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.storage.dbspace import DirectObjectIO

CP_RESTART_GC_BEFORE_POLL = register_crash_point(
    "multiplex.restart_gc.before_poll",
    "restart-GC RPC reached the coordinator, no key polled yet",
)
CP_RESTART_GC_MID_POLL = register_crash_point(
    "multiplex.restart_gc.mid_poll",
    "coordinator crashed between polling two of a node's orphaned keys",
)
CP_FAILOVER_BEFORE_FENCE = register_crash_point(
    "multiplex.failover.before_fence",
    "region failover decided on a target but has not fenced in-flight "
    "writes yet",
)
CP_FAILOVER_BEFORE_PROMOTE = register_crash_point(
    "multiplex.failover.before_promote",
    "in-flight writes fenced, the secondary region not yet promoted",
)
CP_FAILOVER_AFTER_PROMOTE = register_crash_point(
    "multiplex.failover.after_promote",
    "the secondary region was promoted but the failover has not been "
    "acknowledged to callers",
)
CP_RETIRE_BEFORE_FLUSH = register_crash_point(
    "multiplex.retire.before_flush",
    "drain-and-retire picked a victim and stopped admissions, but its "
    "pending write-backs are not flushed yet",
)
CP_RETIRE_AFTER_DETACH = register_crash_point(
    "multiplex.retire.after_detach",
    "the retiring node flushed, was GCed and detached, but the "
    "retirement has not been acknowledged to the controller",
)


# One-way latency of a coordinator RPC (0.5 ms), fixed at every scale.
RPC_LATENCY = 0.0005


class MultiplexError(Exception):
    """Invalid cluster operations (writes on readers, unknown nodes...)."""


@dataclass(frozen=True)
class MultiplexConfig:
    """Cluster shape and per-node resources."""

    writers: int = 1
    readers: int = 0
    secondary_buffer_bytes: int = 64 * 1024 * 1024
    secondary_ocm_bytes: int = 256 * 1024 * 1024
    secondary_ocm_ssd_count: int = 2
    secondary_nic_gbits: float = 10.0
    secondary_vcpus: int = 16
    ocm_enabled: bool = True


class Rpc:
    """Simulated RPC channel: charges latency, counts calls."""

    def __init__(self, clock, latency: float,
                 metrics: "Optional[MetricsRegistry]" = None) -> None:
        self._clock = clock
        self.latency = latency
        self.metrics = metrics or MetricsRegistry()

    def call(self, name: str, fn, *args, **kwargs):
        """Round-trip: request latency, server work, response latency."""
        self._clock.advance(self.latency)
        result = fn(*args, **kwargs)
        self._clock.advance(self.latency)
        self.metrics.counter("rpc_calls").increment()
        self.metrics.counter(f"rpc:{name}").increment()
        return result


class SecondaryNode:
    """A writer or reader node in the multiplex."""

    def __init__(
        self,
        node_id: str,
        kind: str,
        multiplex: "Multiplex",
        config: MultiplexConfig,
    ) -> None:
        if kind not in ("writer", "reader"):
            raise MultiplexError(f"unknown node kind {kind!r}")
        self.node_id = node_id
        self.kind = kind
        self.multiplex = multiplex
        self._config = config
        coordinator = multiplex.coordinator
        # QueryContext reads ``session.config``: the coordinator's.
        self.config = coordinator.config
        self.clock = coordinator.clock
        self.rpc = Rpc(self.clock, RPC_LATENCY)
        hardware = scaled(self.config, NodeHardware(
            self.config.cpu_ops_per_second, config.secondary_nic_gbits * GBIT,
        ))
        self.nic = Pipe(hardware.nic, name=f"{node_id}/nic")
        self.cpu = CpuModel(
            self.clock, config.secondary_vcpus, hardware.cpu_ops_per_second,
        )
        self.crashed = False
        self.last_crash_point: "Optional[str]" = None

        # Node-local key cache; refills RPC into the coordinator.
        self.key_cache = NodeKeyCache(
            node_id, self._allocate_range_rpc, self.clock.now
        )
        # Own client into the *shared* store, through the node's own NIC.
        if coordinator.object_store is None:
            raise MultiplexError("multiplex requires an S3 user dbspace")
        self.client, self.ocm = build_object_io(
            coordinator.config, coordinator.object_store, self.nic, node_id,
            coordinator.rng.substream(node_id),
            (config.secondary_ocm_bytes, config.secondary_ocm_ssd_count)
            if config.ocm_enabled else None,
        )
        io = self.ocm or DirectObjectIO(self.client)
        self.user_dbspace = build_cloud_dbspace(
            coordinator.config, USER_DBSPACE, io, self.key_cache,
        )
        self.buffer = BufferManager(
            config.secondary_buffer_bytes, coordinator.page_config
        )
        self.runtime = NodeRuntime(
            node_id,
            self.buffer,
            {
                SYSTEM_DBSPACE: coordinator.system_dbspace,
                USER_DBSPACE: self.user_dbspace,
            },
        )

    # ------------------------------------------------------------------ #
    # coordinator RPCs
    # ------------------------------------------------------------------ #

    def _allocate_range_rpc(self, node_id: str, count: int) -> KeyRange:
        return self.rpc.call(
            "allocate_range",
            self.multiplex.coordinator.keygen.allocate_range,
            node_id,
            count,
        )

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def _check_usable(self) -> None:
        if self.crashed:
            raise MultiplexError(f"node {self.node_id!r} is crashed")

    def begin(self) -> Transaction:
        self._check_usable()
        return self.rpc.call(
            "begin", self.multiplex.coordinator.txn_manager.begin, self.runtime
        )

    def commit(self, txn: Transaction) -> None:
        self._check_usable()
        self.rpc.call(
            "commit", self.multiplex.coordinator.txn_manager.commit, txn
        )

    def rollback(self, txn: Transaction) -> None:
        self._check_usable()
        # Rollback is local to the node: the coordinator is deliberately
        # not told which keys died (Section 3.3's optimization); only the
        # log append happens centrally, which we fold into the same call.
        self.multiplex.coordinator.txn_manager.rollback(txn)

    def open_for_read(self, txn: Transaction, name: str):
        self._check_usable()
        return self.multiplex.coordinator.txn_manager.open_for_read(txn, name)

    def open_for_write(self, txn: Transaction, name: str):
        self._check_usable()
        if self.kind != "writer":
            raise MultiplexError(
                f"node {self.node_id!r} is a reader and cannot modify data"
            )
        return self.rpc.call(
            "open_for_write",
            self.multiplex.coordinator.txn_manager.open_for_write,
            txn,
            name,
        )

    def write_page(self, txn: Transaction, name: str, page_no: int,
                   data: bytes) -> None:
        handle = self.open_for_write(txn, name)
        self.buffer.write_page(handle, page_no, data)

    def read_page(self, txn: Transaction, name: str, page_no: int) -> bytes:
        handle = self.open_for_read(txn, name)
        return self.buffer.get_page(handle, page_no)

    # ------------------------------------------------------------------ #
    # crash / restart
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """The node dies: active transactions abort without cleanup."""
        if self.crashed:
            raise MultiplexError(f"node {self.node_id!r} is already crashed")
        manager = self.multiplex.coordinator.txn_manager
        for txn in manager.active_transactions():
            if txn.node_id == self.node_id:
                manager.abort_in_crash(txn)
        self.runtime.invalidate_caches()
        if self.ocm is not None:
            self.ocm.invalidate_all()
        self.key_cache.drop_cached_range()
        self.crashed = True

    def crash_from(self, exc: SimulatedCrash) -> None:
        """Translate a fired crash point into ordinary crash semantics."""
        self.last_crash_point = exc.point
        if not self.crashed:
            self.crash()

    def restart(self) -> int:
        """Restart the node: coordinator GCs its outstanding allocations.

        Returns the number of orphaned objects reclaimed (Table 1, 150).
        """
        if not self.crashed:
            raise MultiplexError(f"node {self.node_id!r} is not crashed")
        reclaimed = self.rpc.call(
            "restart_gc", self.multiplex.restart_gc, self.node_id
        )
        self.crashed = False
        return reclaimed


class Multiplex:
    """A coordinator plus secondary nodes over shared storage."""

    def __init__(
        self,
        coordinator_config: "Optional[DatabaseConfig]" = None,
        config: "Optional[MultiplexConfig]" = None,
    ) -> None:
        self.config = config or MultiplexConfig()
        base = coordinator_config or DatabaseConfig()
        if base.user_volume != "s3":
            raise MultiplexError(
                "the multiplex reproduction requires cloud (s3) user dbspaces"
            )
        self.coordinator = Database(base)
        self.nodes: Dict[str, SecondaryNode] = {}
        for i in range(self.config.writers):
            node_id = f"writer-{i + 1}"
            self.nodes[node_id] = SecondaryNode(
                node_id, "writer", self, self.config
            )
        for i in range(self.config.readers):
            node_id = f"reader-{i + 1}"
            self.nodes[node_id] = SecondaryNode(
                node_id, "reader", self, self.config
            )
        # Dynamically added nodes get monotonically increasing ids that
        # are never reused after a retirement, so a node's RNG substreams
        # and key-cache identity stay stable whatever the scale history.
        self._node_seq = max(self.config.writers, self.config.readers) + 1

    @property
    def clock(self):
        return self.coordinator.clock

    def node(self, node_id: str) -> SecondaryNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise MultiplexError(f"no node named {node_id!r}") from None

    def writers(self) -> "List[SecondaryNode]":
        return [n for n in self.nodes.values() if n.kind == "writer"]

    def readers(self) -> "List[SecondaryNode]":
        return [n for n in self.nodes.values() if n.kind == "reader"]

    def secondaries(self) -> "List[SecondaryNode]":
        return list(self.nodes.values())

    # ------------------------------------------------------------------ #
    # elastic scale-out / scale-in (DESIGN.md §16)
    # ------------------------------------------------------------------ #

    def add_secondary(self, kind: str = "writer",
                      node_id: "Optional[str]" = None) -> SecondaryNode:
        """Provision a new secondary at the current virtual time.

        Construction itself is instantaneous — callers model spin-up
        cost (the autoscaler sleeps a configured virtual delay before
        calling this).  The new node inherits the coordinator's CPU
        calibration so a scaled-out node is the same hardware as a
        statically provisioned one.
        """
        if kind not in ("writer", "reader"):
            raise MultiplexError(f"unknown node kind {kind!r}")
        if node_id is None:
            node_id = f"{kind}-{self._node_seq}"
        if node_id in self.nodes:
            raise MultiplexError(f"node {node_id!r} already exists")
        self._node_seq += 1
        node = SecondaryNode(node_id, kind, self, self.config)
        node.cpu.parallel_fraction = self.coordinator.cpu.parallel_fraction
        self.nodes[node_id] = node
        self.coordinator.metrics.counter("autoscale_nodes_added").increment()
        return node

    def retire_secondary(self, node_id: str) -> int:
        """Drain-and-retire a secondary (scale-in); returns keys reclaimed.

        The caller must already have stopped routing new work to the
        node and let in-flight operations finish; active transactions
        refuse retirement.  Sequence: flush the node's pending OCM
        write-backs (committed data is already on the store via
        write-through-at-commit, so these are only background uploads),
        reclaim its unconsumed key allocations through the same
        coordinator-side GC a restart uses, then detach.  A crash on
        either side of the flush degrades to ordinary node-crash
        semantics — the explorer's scale episode proves no committed
        data is lost and leaks drain.
        """
        node = self.node(node_id)
        if node.crashed:
            raise MultiplexError(f"cannot retire crashed node {node_id!r}")
        manager = self.coordinator.txn_manager
        for txn in manager.active_transactions():
            if txn.node_id == node_id:
                raise MultiplexError(
                    f"cannot retire {node_id!r} with active transactions"
                )
        crash_point(CP_RETIRE_BEFORE_FLUSH)
        with self.coordinator.tracer.span(
            "retire_secondary", "autoscale", node=node_id
        ):
            if node.ocm is not None:
                node.ocm.drain_all()
            # Unconsumed allocations (the cached range and anything the
            # active set still covers) go back through restart GC: any
            # store object under those keys is by definition uncommitted.
            node.key_cache.drop_cached_range()
            reclaimed = self.restart_gc(node_id)
            del self.nodes[node_id]
            # Stray handles must not route new work to a retired node.
            node.crashed = True
        crash_point(CP_RETIRE_AFTER_DETACH)
        metrics = self.coordinator.metrics
        metrics.counter("autoscale_nodes_retired").increment()
        metrics.counter("autoscale_retire_reclaimed_keys").increment(reclaimed)
        return reclaimed

    # ------------------------------------------------------------------ #
    # coordinator-side services
    # ------------------------------------------------------------------ #

    def restart_gc(self, node_id: str) -> int:
        """GC a restarting node's outstanding key allocations (Table 1).

        Every key in the node's active set is polled against the user
        dbspace: existing objects are deleted (they belonged to aborted
        transactions or unconsumed allocations); missing ones are no-ops —
        including keys already reclaimed by local rollbacks, which the
        coordinator was deliberately never told about.  A secondary's
        runtime holds only the system and the user dbspace, so its keys
        can only live in the user bucket.
        """
        crash_point(CP_RESTART_GC_BEFORE_POLL)
        coordinator = self.coordinator
        return coordinator._restart_gc(node_id, [coordinator.user_dbspace],
                                       CP_RESTART_GC_MID_POLL)

    def inject_store_outage(self, node_id: str, window) -> OutageWindow:
        """Model a per-node network partition from the shared bucket.

        ``window`` is either ``(start, end)`` in virtual seconds or an
        :class:`~repro.objectstore.faults.OutageWindow` (re-scoped to the
        node).  Only the named node's requests fail during the window —
        the coordinator and other secondaries keep the bucket, which is
        exactly the asymmetric partition the paper's restart-GC protocol
        has to tolerate.
        """
        self.node(node_id)  # validates the node exists
        if isinstance(window, OutageWindow):
            event = OutageWindow(window.start, window.end, ops=window.ops,
                                 prefix=window.prefix, node=node_id)
        else:
            start, end = window
            event = OutageWindow(start, end, node=node_id)
        store = self.coordinator.object_store
        if store is None:
            raise MultiplexError("multiplex requires an S3 user dbspace")
        if store.fault_schedule is None:
            store.fault_schedule = FaultSchedule(name="injected")
        store.fault_schedule.add(event)
        return event

    def _replicated_store(self) -> ReplicatedObjectStore:
        store = self.coordinator.object_store
        if not isinstance(store, ReplicatedObjectStore):
            raise MultiplexError(
                "region operations require a replicated object store "
                "(DatabaseConfig.replication)"
            )
        return store

    def inject_region_outage(self, region: str, window) -> RegionOutage:
        """Take a whole region away for a virtual-time window.

        ``window`` is ``(start, end)`` in virtual seconds.  Every request
        against the region's store fails while active, and the
        replication pump defers queued applies into the region until the
        window ends — the scenario the DR workflow (DESIGN.md §12)
        recovers from.
        """
        store = self._replicated_store()
        if region not in store.regions:
            raise MultiplexError(f"no region named {region!r}")
        start, end = window
        event = RegionOutage(start, end, region=region)
        store.ensure_fault_schedule().add(event)
        return event

    def region_failover(self, to_region: "Optional[str]" = None) -> str:
        """Promote a secondary region to primary (DESIGN.md §12).

        Sequence: pick a live target, fence every accepted-but-unsettled
        write via ``write_horizon()`` (which spans all regions *and* the
        replication queues, so a healed region's in-flight puts cannot
        outrun later tombstones), then drain the target's replication
        queue and flip the primary.  Each step is idempotent, so a crash
        at any of the three failover crash points is survivable by
        re-running the failover with the same target.  Returns the new
        primary region.
        """
        store = self._replicated_store()
        now = self.clock.now()
        if to_region is None:
            schedule = store.fault_schedule
            for region in store.secondary_regions():
                if schedule is not None and schedule.decide(
                    "put", None, None, now, region
                ).outage:
                    continue
                to_region = region
                break
            if to_region is None:
                raise MultiplexError(
                    "no live secondary region to fail over to"
                )
        elif to_region not in store.regions:
            raise MultiplexError(f"no region named {to_region!r}")
        crash_point(CP_FAILOVER_BEFORE_FENCE)
        fence_in_flight_writes([self.coordinator.user_dbspace])
        crash_point(CP_FAILOVER_BEFORE_PROMOTE)
        drained = store.promote(to_region, self.clock.now())
        self.coordinator.metrics.counter("region_failovers").increment()
        self.coordinator.metrics.counter(
            "region_failover_drained_entries"
        ).increment(drained)
        crash_point(CP_FAILOVER_AFTER_PROMOTE)
        return to_region

    def coordinator_crash_and_recover(self) -> None:
        """Crash and recover the coordinator (Table 1, clocks 110-120).

        Secondary nodes keep their cached ranges and in-flight transactions
        and continue after recovery; the active sets are reconstructed from
        the log, and surviving transactions are re-adopted by the recovered
        transaction manager.
        """
        survivors = [
            txn
            for txn in self.coordinator.txn_manager.active_transactions()
            if txn.node_id != self.coordinator.config.node_id
        ]
        self.coordinator.crash()
        self.coordinator.restart()
        for txn in survivors:
            self.coordinator.txn_manager.adopt(txn)
