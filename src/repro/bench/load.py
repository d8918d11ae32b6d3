"""Multi-tenant load generator on the event-driven session scheduler.

This is the serving-side complement to the single-stream experiment
drivers: instead of one workload stream owning the clock, thousands of
logical client sessions interleave on a shared engine via
:class:`~repro.sim.sessions.SessionScheduler` (DESIGN.md §13).

- **Arrival profiles**: open-loop Poisson arrivals, bursty (duty-cycled
  Poisson) arrivals, or a closed loop where every session exists from
  t=0 and paces itself with think time.  Open-loop profiles ramp in
  stages — stage ``s`` offers ``s``× the base arrival rate — so one run
  traces a saturation curve.
- **Tenant mix**: each session belongs to a tenant class (point lookups,
  TPC-H analysts, churn writers) with its own think time, per-session op
  count and latency SLO.
- **Admission control** (optional): a bounded number of in-engine
  operations with per-tenant round-robin fairness; waiting sessions park
  on the scheduler, so admission latency is measured on the same clock
  as service latency.
- **Reporting**: per-tenant p50/p95/p99/max, SLO attainment, per-stage
  saturation points, admission wait tails — never just totals.

Everything is a pure function of ``LoadConfig`` (seed included): two runs
produce byte-identical summary JSON, which the ``load-smoke`` CI job
gates on.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.bench.configs import (
    BENCH_PARTITIONS,
    BENCH_ROWS_PER_PAGE,
    CPU_PARALLEL_FRACTION,
    bench_config,
    load_engine,
)
from repro.columnar import ColumnStore
from repro.columnar.query import QueryContext
from repro.core.autoscale import (
    COORDINATOR_ID,
    AutoscaleConfig,
    AutoscaleController,
    AutoscaleSignals,
    NodeRouter,
)
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.sim.metrics import MetricsRegistry
from repro.sim.sessions import Session, SessionScheduler
from repro.sim.rng import DeterministicRng
from repro.tpch import load_tpch
from repro.tpch.queries import run_query

SUMMARY_SCHEMA = "repro.load/v2"

LOOKUP_BANK = "pointbank"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class of the serving mix."""

    name: str
    weight: float            # share of sessions drawn into this class
    op: str                  # "lookup" | "query" | "churn"
    think_mean: float        # mean think seconds between a session's ops
    ops_per_session: int
    slo_seconds: float       # per-op latency SLO for attainment reporting

    def __post_init__(self) -> None:
        if self.op not in ("lookup", "query", "churn"):
            raise ValueError(f"unknown tenant op {self.op!r}")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be positive: {self.name}")
        if self.ops_per_session < 1:
            raise ValueError(f"need at least one op per session: {self.name}")


DEFAULT_TENANTS: "Tuple[TenantSpec, ...]" = (
    TenantSpec("lookup", 0.75, "lookup", think_mean=0.25,
               ops_per_session=6, slo_seconds=0.25),
    TenantSpec("churn", 0.17, "churn", think_mean=0.5,
               ops_per_session=4, slo_seconds=1.5),
    TenantSpec("analyst", 0.08, "query", think_mean=2.0,
               ops_per_session=1, slo_seconds=120.0),
)


# The bursty profile's duty cycle.
BURST_FACTOR = 8.0   # rate multiplier inside a burst
BURST_DUTY = 0.2     # fraction of the period bursting
BURST_PERIOD = 4.0   # seconds per on/off cycle


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one load run (everything the summary depends on)."""

    sessions: int = 200
    seed: int = 0
    profile: str = "poisson"          # "poisson" | "bursty" | "closed"
    arrival_rate: float = 40.0        # stage-1 session arrivals per second
    stages: int = 3                   # open-loop ramp stages (stage s: s*rate)
    admission_limit: int = 0          # concurrent in-engine ops, per serving
                                      # node when nodes > 1 (0 = off)
    scale_factor: float = 0.002
    instance_type: str = "m5ad.4xlarge"
    tenants: "Tuple[TenantSpec, ...]" = DEFAULT_TENANTS
    lookup_pages: int = 48            # pages in the shared point-lookup bank
    churn_pages_per_op: int = 2
    query_numbers: "Tuple[int, ...]" = (1, 6)
    nodes: int = 1                    # serving targets incl. the coordinator
    autoscale: "Optional[AutoscaleConfig]" = None

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("need at least one session")
        if self.nodes < 1:
            raise ValueError("need at least one serving node")
        if self.autoscale is not None and not (
            self.autoscale.min_nodes
            <= self.nodes
            <= self.autoscale.max_nodes
        ):
            raise ValueError(
                "initial node count must lie inside the autoscale clamps"
            )
        if self.profile not in ("poisson", "bursty", "closed"):
            raise ValueError(f"unknown arrival profile {self.profile!r}")
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if self.stages < 1:
            raise ValueError("need at least one ramp stage")
        if self.admission_limit < 0:
            raise ValueError("admission limit cannot be negative")
        if abs(sum(t.weight for t in self.tenants) - 1.0) > 1e-9:
            raise ValueError("tenant weights must sum to 1")


class AdmissionController:
    """Bounded in-flight ops with per-tenant round-robin fairness.

    ``acquire`` parks the calling session when the engine is at its
    concurrency limit; ``release`` grants the freed slot to the next
    waiting *tenant* in round-robin order (FIFO within a tenant), so one
    chatty tenant class cannot starve the others out of admission.

    With ``live_nodes`` attached the limit is *per serving node*: the
    effective slot count is ``limit x live_nodes()``, so scaling the
    multiplex out genuinely relieves admission pressure (the autoscaler
    calls :meth:`kick` after admitting a node) and draining a node
    shrinks capacity as its slots release.
    """

    def __init__(self, scheduler: SessionScheduler, limit: int,
                 metrics: MetricsRegistry,
                 live_nodes: "Optional[Callable[[], int]]" = None) -> None:
        self.scheduler = scheduler
        self.limit = limit
        self.metrics = metrics
        self.live_nodes = live_nodes
        self.in_flight = 0
        self._queues: "Dict[str, Deque[Session]]" = {}
        self._ring: "Deque[str]" = deque()

    def effective_limit(self) -> int:
        if self.live_nodes is None:
            return self.limit
        return self.limit * max(1, self.live_nodes())

    def acquire(self, session: Session, tenant: str) -> float:
        """Take a slot, waiting if needed; returns seconds spent waiting."""
        if self.in_flight < self.effective_limit():
            self.in_flight += 1
            return 0.0
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._ring.append(tenant)
        queue.append(session)
        started = self.scheduler.clock.now()
        self.scheduler.suspend(session)
        waited = self.scheduler.clock.now() - started
        self.metrics.counter("admission_waits").increment()
        self.metrics.counter(f"admission_waits:{tenant}").increment()
        self.metrics.histogram("admission_wait_seconds").observe(waited)
        return waited

    def queue_depth(self) -> int:
        """Sessions currently parked waiting for admission (autoscale signal)."""
        return sum(len(queue) for queue in self._queues.values())

    def release(self) -> None:
        """Free a slot; hand it to the next waiter, fairly across tenants."""
        if self.in_flight > self.effective_limit():
            # A node drained away while this op ran: retire the excess
            # slot instead of transferring it.
            self.in_flight -= 1
            return
        for __ in range(len(self._ring)):
            tenant = self._ring[0]
            self._ring.rotate(-1)
            queue = self._queues[tenant]
            if queue:
                # The slot transfers to the waiter: in_flight is unchanged.
                self.scheduler.resume(queue.popleft())
                return
        self.in_flight -= 1

    def kick(self) -> None:
        """Admit waiters into capacity that appeared out of band.

        ``release`` only ever transfers an existing slot; when a
        scale-out raises the effective limit, parked sessions would
        otherwise wait for the next release.  Grants stay round-robin
        across tenants, one waiter per fresh slot.
        """
        while self.in_flight < self.effective_limit():
            resumed = False
            for __ in range(len(self._ring)):
                tenant = self._ring[0]
                self._ring.rotate(-1)
                queue = self._queues[tenant]
                if queue:
                    self.scheduler.resume(queue.popleft())
                    self.in_flight += 1
                    resumed = True
                    break
            if not resumed:
                return


class LoadHarness:
    """Builds the engine, spawns the tenant sessions, renders the summary."""

    def __init__(self, config: "Optional[LoadConfig]" = None) -> None:
        self.config = config or LoadConfig()
        cfg = self.config
        self._wall_started = time.monotonic()
        self.multiplex: "Optional[Multiplex]" = None
        self.router: "Optional[NodeRouter]" = None
        if cfg.nodes == 1 and cfg.autoscale is None:
            # Single-node runs keep the exact pre-multiplex path: the
            # golden regression pins this byte-for-byte.
            self.db, self.store, self.load_seconds = load_engine(
                cfg.instance_type, "s3", cfg.scale_factor,
                seed=cfg.seed,
            )
        else:
            self.multiplex, self.store, self.load_seconds = (
                self._load_multiplex()
            )
            self.db = self.multiplex.coordinator
            self.router = NodeRouter()
            self.router.add(COORDINATOR_ID, self.db)
            for node in self.multiplex.secondaries():
                self.router.add(node.node_id, node)
        self._rng = DeterministicRng(cfg.seed, "load-harness")
        self.metrics = MetricsRegistry()
        self.scheduler = self.db.new_session_scheduler()
        self.admission: "Optional[AdmissionController]" = (
            AdmissionController(
                self.scheduler, cfg.admission_limit, self.metrics,
                live_nodes=(
                    self.router.live_count
                    if self.router is not None else None
                ),
            )
            if cfg.admission_limit > 0 else None
        )
        self._stage_of: "Dict[int, int]" = {}       # session_id -> stage
        self._stage_windows: "List[Tuple[float, float]]" = []
        self._stage_sessions: "List[int]" = []
        self._churn_created: "Dict[str, int]" = {}  # object -> next page
        # (finish_time, tenant, latency, met_slo) per op; the autoscaler's
        # trailing-attainment signal and the pre-warm benchmark read it.
        self._op_log: "List[Tuple[float, str, float, bool]]" = []
        self._workload_remaining = cfg.sessions
        self._controller: "Optional[AutoscaleController]" = None
        self._setup_lookup_bank()
        self._cold_caches()
        self._workload_started = self.db.clock.now()

    # -- setup ---------------------------------------------------------- #

    def _load_multiplex(self) -> "Tuple[Multiplex, ColumnStore, float]":
        """A TPC-H-loaded multiplex: bench-sized coordinator + secondaries.

        Secondary nodes take the coordinator's bench sizing (buffer, OCM,
        NIC, vcpus) for the $/query ablation, but only the coordinator's
        NIC is capped at ``S3_EFFECTIVE_GBITS`` (9 Gbit/s).
        """
        cfg = self.config
        base = bench_config(
            cfg.instance_type, "s3", cfg.scale_factor, seed=cfg.seed
        )
        mux = Multiplex(base, MultiplexConfig(
            writers=cfg.nodes - 1,
            secondary_buffer_bytes=base.buffer_capacity_bytes,
            secondary_ocm_bytes=base.ocm_capacity_bytes,
            secondary_ocm_ssd_count=base.ocm_ssd_count,
            secondary_nic_gbits=base.nic_gbits,
            secondary_vcpus=base.vcpus,
        ))
        db = mux.coordinator
        db.cpu.parallel_fraction = CPU_PARALLEL_FRACTION
        for node in mux.secondaries():
            node.cpu.parallel_fraction = CPU_PARALLEL_FRACTION
        store = ColumnStore(db)
        started = db.clock.now()
        load_tpch(store, cfg.scale_factor, partitions=BENCH_PARTITIONS,
                  rows_per_page=BENCH_ROWS_PER_PAGE)
        return mux, store, db.clock.now() - started

    def _setup_lookup_bank(self) -> None:
        """A small shared object the point-lookup tenant reads pages of."""
        db = self.db
        db.create_object(LOOKUP_BANK)
        txn = db.begin()
        for page in range(self.config.lookup_pages):
            db.write_page(txn, LOOKUP_BANK, page, (b"pb-%06d|" % page) * 64)
        db.commit(txn)

    def _cold_caches(self) -> None:
        self.db.buffer.invalidate_all()
        if self.db.ocm is not None:
            self.db.ocm.drain_all()
            self.db.ocm.invalidate_all()
        if self.multiplex is not None:
            for node in self.multiplex.secondaries():
                node.buffer.invalidate_all()
                if node.ocm is not None:
                    node.ocm.drain_all()
                    node.ocm.invalidate_all()

    # -- arrivals -------------------------------------------------------- #

    def _stage_plan(self) -> "List[int]":
        """Sessions per ramp stage (closed loops are a single stage)."""
        cfg = self.config
        stages = 1 if cfg.profile == "closed" else cfg.stages
        base, extra = divmod(cfg.sessions, stages)
        return [base + (1 if s < extra else 0) for s in range(stages)]

    def _arrival_times(self) -> "List[Tuple[float, int]]":
        """Deterministic (arrival_time, stage) per session, in spawn order.

        Open-loop stages ramp the offered rate: stage ``s`` (1-based)
        draws inter-arrival gaps at ``s * arrival_rate``.  The bursty
        profile duty-cycles each stage's rate: inside the burst window of
        every ``BURST_PERIOD`` the rate is multiplied by ``BURST_FACTOR``,
        outside it the residual rate keeps the stage average comparable.
        """
        cfg = self.config
        plan = self._stage_plan()
        if cfg.profile == "closed":
            self._stage_windows.append((0.0, 0.0))
            self._stage_sessions.append(cfg.sessions)
            return [(0.0, 1)] * cfg.sessions
        rng = self._rng.substream("arrivals")
        arrivals: "List[Tuple[float, int]]" = []
        cursor = 0.0
        for index, count in enumerate(plan):
            stage = index + 1
            stage_rate = cfg.arrival_rate * stage
            window_start = cursor
            for __ in range(count):
                rate = stage_rate
                if cfg.profile == "bursty":
                    phase = cursor % BURST_PERIOD
                    in_burst = phase < BURST_DUTY * BURST_PERIOD
                    if in_burst:
                        rate = stage_rate * BURST_FACTOR
                    else:
                        off_scale = max(
                            1e-6,
                            (1.0 - BURST_DUTY * BURST_FACTOR)
                            / max(1e-6, 1.0 - BURST_DUTY),
                        )
                        rate = stage_rate * off_scale
                cursor += rng.expovariate(rate)
                arrivals.append((cursor, stage))
            self._stage_windows.append((window_start, cursor))
            self._stage_sessions.append(count)
        return arrivals

    def _pick_tenants(self) -> "List[TenantSpec]":
        rng = self._rng.substream("tenant-mix")
        tenants = list(self.config.tenants)
        picks: "List[TenantSpec]" = []
        for __ in range(self.config.sessions):
            draw = rng.random()
            acc = 0.0
            chosen = tenants[-1]
            for spec in tenants:
                acc += spec.weight
                if draw < acc:
                    chosen = spec
                    break
            picks.append(chosen)
        return picks

    # -- the session program -------------------------------------------- #

    def _session_body(self, spec: TenantSpec, stage: int):
        def body(session: Session) -> None:
            rng = self._rng.substream(f"session/{session.session_id}")
            clock = self.db.clock
            try:
                for op_index in range(spec.ops_per_session):
                    if op_index and spec.think_mean > 0:
                        session.sleep(rng.expovariate(1.0 / spec.think_mean))
                    waited = 0.0
                    if self.admission is not None:
                        waited = self.admission.acquire(session, spec.name)
                    started = clock.now()
                    try:
                        self._run_op(spec, session, rng)
                    except Exception:
                        self.metrics.counter("ops_failed").increment()
                        self.metrics.counter(
                            f"ops_failed:{spec.name}"
                        ).increment()
                    else:
                        self.metrics.counter("ops_completed").increment()
                    finally:
                        if self.admission is not None:
                            self.admission.release()
                    latency = clock.now() - started
                    # Latency histograms report in-engine service time;
                    # the SLO is judged end to end — a session parked on
                    # admission is still a client waiting for its answer.
                    response = latency + waited
                    if response <= spec.slo_seconds:
                        self.metrics.counter(
                            f"ops_within_slo:{spec.name}"
                        ).increment()
                    self.metrics.histogram(
                        f"latency:{spec.name}"
                    ).observe(latency)
                    self.metrics.histogram(
                        f"latency:stage{stage}"
                    ).observe(latency)
                    if self.router is not None:
                        self._op_log.append((
                            clock.now(), spec.name, response,
                            response <= spec.slo_seconds,
                        ))
            finally:
                # The autoscale controller's exit condition: it must stop
                # polling once the workload drains or the scheduler would
                # report a deadlock.
                self._workload_remaining -= 1
        return body

    def _run_op(self, spec: TenantSpec, session: Session,
                rng: DeterministicRng) -> None:
        if self.router is not None:
            node_id, target = self.router.acquire()
        else:
            node_id, target = COORDINATOR_ID, self.db
        try:
            self._run_op_on(spec, session, rng, target)
        finally:
            if self.router is not None:
                self.router.release(node_id)
                self.metrics.counter(f"ops_by_node:{node_id}").increment()

    def _run_op_on(self, spec: TenantSpec, session: Session,
                   rng: DeterministicRng, target) -> None:
        db = target
        if spec.op == "lookup":
            page = rng.randint(0, self.config.lookup_pages - 1)
            txn = db.begin()
            try:
                db.read_page(txn, LOOKUP_BANK, page)
            finally:
                db.commit(txn)
        elif spec.op == "query":
            number = rng.choice(list(self.config.query_numbers))
            with QueryContext(db) as ctx:
                run_query(ctx, number, self.config.scale_factor)
        else:  # churn: append pages to this session's own object
            name = f"churn/{session.session_id}"
            next_page = self._churn_created.get(name)
            if next_page is None:
                # Catalog mutations stay on the coordinator (the multiplex
                # shares one catalog); page writes go through the target.
                self.db.create_object(name)
                next_page = 0
            txn = db.begin()
            try:
                for offset in range(self.config.churn_pages_per_op):
                    payload = (b"ch-%06d-%04d|" % (session.session_id,
                                                   next_page + offset)) * 48
                    db.write_page(txn, name, next_page + offset, payload)
                db.commit(txn)
                self._churn_created[name] = (
                    next_page + self.config.churn_pages_per_op
                )
            except Exception:
                db.rollback(txn)
                raise

    # -- autoscale signals ------------------------------------------------ #

    def _autoscale_signals(self) -> AutoscaleSignals:
        """Live load signals, all pure functions of the virtual clock."""
        cfg = self.config
        assert cfg.autoscale is not None and self.router is not None
        now = self.db.clock.now()
        horizon = now - cfg.autoscale.slo_window_seconds
        attained = total = 0
        for finished, __, ___, met in reversed(self._op_log):
            if finished < horizon:
                break
            total += 1
            if met:
                attained += 1
        return AutoscaleSignals(
            queue_depth=(
                self.admission.queue_depth()
                if self.admission is not None else 0
            ),
            runnable_backlog=self.scheduler.runnable_backlog(),
            slo_attainment=(attained / total) if total else None,
            nodes=self.router.live_count(),
        )

    # -- driving --------------------------------------------------------- #

    def run(self) -> "Dict[str, object]":
        """Spawn every session per the arrival plan; drain; summarize."""
        tenants = self._pick_tenants()
        arrivals = self._arrival_times()
        # Arrival times are relative to the end of setup (TPC-H load and
        # the lookup bank already consumed virtual time).
        epoch = self._workload_started
        for (when, stage), spec in zip(arrivals, tenants):
            session = self.scheduler.spawn(
                self._session_body(spec, stage),
                at=epoch + when,
                tenant=spec.name,
            )
            self._stage_of[session.session_id] = stage
        if self.config.autoscale is not None:
            assert self.multiplex is not None and self.router is not None
            self._controller = AutoscaleController(
                self.config.autoscale,
                multiplex=self.multiplex,
                router=self.router,
                clock=self.db.clock,
                epoch=epoch,
                signals=self._autoscale_signals,
                done=lambda: self._workload_remaining <= 0,
                metrics=self.metrics,
                prewarm_source=self.db.ocm,
                on_change=(
                    self.admission.kick
                    if self.admission is not None else None
                ),
            )
            self.scheduler.spawn(
                self._controller.body, at=epoch, name="autoscale"
            )
        self.scheduler.run()
        return self.summary()

    # -- reporting -------------------------------------------------------- #

    @staticmethod
    def _tail(histogram) -> "Dict[str, float]":
        return {
            "mean": round(histogram.mean, 6),
            "p50": round(histogram.percentile(50.0), 6),
            "p95": round(histogram.percentile(95.0), 6),
            "p99": round(histogram.percentile(99.0), 6),
            "max": round(max(histogram.values), 6) if histogram.count else 0.0,
        }

    def summary(self) -> "Dict[str, object]":
        cfg = self.config
        counters = self.metrics.snapshot()
        clock_seconds = self.db.clock.now() - self._workload_started
        tenant_sessions: "Dict[str, int]" = {}
        for session in self.scheduler.sessions:
            tenant_sessions[session.tenant] = (
                tenant_sessions.get(session.tenant, 0) + 1
            )
        tenants: "Dict[str, object]" = {}
        for spec in cfg.tenants:
            histogram = self.metrics.histogram(f"latency:{spec.name}")
            attained = int(
                counters.get(f"ops_within_slo:{spec.name}", 0.0)
            )
            tenants[spec.name] = {
                "sessions": tenant_sessions.get(spec.name, 0),
                "ops": histogram.count,
                "failed": int(counters.get(f"ops_failed:{spec.name}", 0.0)),
                "latency_seconds": self._tail(histogram),
                "slo_seconds": spec.slo_seconds,
                "slo_attainment": (
                    round(attained / histogram.count, 6)
                    if histogram.count else None
                ),
                "throughput_ops_per_second": (
                    round(histogram.count / clock_seconds, 6)
                    if clock_seconds > 0 else 0.0
                ),
            }
        saturation: "List[Dict[str, object]]" = []
        stage_count = 1 if cfg.profile == "closed" else cfg.stages
        for index in range(stage_count):
            stage = index + 1
            histogram = self.metrics.histogram(f"latency:stage{stage}")
            window = (
                self._stage_windows[index]
                if index < len(self._stage_windows)
                else (0.0, clock_seconds)
            )
            window_seconds = max(window[1] - window[0], 1e-9)
            offered = (
                cfg.arrival_rate * stage
                if cfg.profile != "closed"
                else None
            )
            saturation.append({
                "stage": stage,
                "sessions": (
                    self._stage_sessions[index]
                    if index < len(self._stage_sessions)
                    else cfg.sessions
                ),
                "offered_sessions_per_second": (
                    round(offered, 6) if offered is not None else None
                ),
                "arrival_window_seconds": [
                    round(window[0], 6), round(window[1], 6)
                ],
                "realized_arrival_rate": (
                    round(
                        (self._stage_sessions[index]
                         if index < len(self._stage_sessions)
                         else cfg.sessions)
                        / window_seconds, 6
                    )
                    if cfg.profile != "closed" else None
                ),
                "ops": histogram.count,
                "latency_seconds": self._tail(histogram),
            })
        admission: "Optional[Dict[str, object]]" = None
        if self.admission is not None:
            waits = self.metrics.histogram("admission_wait_seconds")
            admission = {
                "limit": cfg.admission_limit,
                "waits": int(counters.get("admission_waits", 0.0)),
                "waits_by_tenant": {
                    spec.name: int(
                        counters.get(f"admission_waits:{spec.name}", 0.0)
                    )
                    for spec in cfg.tenants
                },
                "wait_seconds": self._tail(waits),
            }
        routing: "Optional[Dict[str, int]]" = None
        if self.router is not None:
            routing = {
                node_id: int(counters.get(f"ops_by_node:{node_id}", 0.0))
                for node_id in self.router.ever_ids
            }
        autoscale: "Optional[Dict[str, object]]" = None
        if cfg.autoscale is not None and self._controller is not None:
            series = self.metrics.series("autoscale_node_count")
            timeline = [
                [round(when, 6), int(value)]
                for when, value in series.samples
            ]
            per_stage_nodes: "List[Optional[int]]" = []
            for window in self._stage_windows:
                at_end = series.value_at(window[1])
                per_stage_nodes.append(
                    int(at_end) if at_end is not None else None
                )
            autoscale = {
                "events": self._controller.events,
                "node_count_timeline": timeline,
                "per_stage_nodes": per_stage_nodes,
                "final_nodes": self.router.live_count(),
                "node_seconds": self._node_seconds(clock_seconds),
                "decisions": {
                    decision: int(counters.get(
                        f"autoscale_decisions:{decision}", 0.0
                    ))
                    for decision in ("out", "in", "hold")
                },
                "scale_outs": int(counters.get("autoscale_scale_outs", 0.0)),
                "scale_ins": int(counters.get("autoscale_scale_ins", 0.0)),
            }
        return {
            "schema": SUMMARY_SCHEMA,
            "config": {
                "sessions": cfg.sessions,
                "seed": cfg.seed,
                "profile": cfg.profile,
                "arrival_rate": cfg.arrival_rate,
                "stages": stage_count,
                "admission_limit": cfg.admission_limit,
                "scale_factor": cfg.scale_factor,
                "instance_type": cfg.instance_type,
                "tenant_mix": [asdict(spec) for spec in cfg.tenants],
                "nodes": cfg.nodes,
                "autoscale": (
                    asdict(cfg.autoscale)
                    if cfg.autoscale is not None else None
                ),
            },
            "clock_seconds": round(clock_seconds, 6),
            "ops": {
                "completed": int(counters.get("ops_completed", 0.0)),
                "failed": int(counters.get("ops_failed", 0.0)),
            },
            "tenants": tenants,
            "saturation": saturation,
            "admission": admission,
            "routing": routing,
            "autoscale": autoscale,
            "scheduler": {
                "sessions": len(self.scheduler.sessions),
                "handoffs": self.scheduler.handoffs,
            },
        }

    def _node_seconds(self, clock_seconds: float) -> float:
        """Step-function integral of the live node count over the run.

        This is the cost driver: USD = node_seconds / 3600 x the instance
        rate (plus object-store request charges).  The timeline starts at
        the configured node count and steps at every recorded sample.
        """
        series = self.metrics.series("autoscale_node_count")
        total = 0.0
        cursor = 0.0
        level = float(self.config.nodes)
        for when, value in series.samples:
            clamped = min(max(when, 0.0), clock_seconds)
            total += level * (clamped - cursor)
            cursor = clamped
            level = value
        total += level * max(0.0, clock_seconds - cursor)
        return round(total, 6)

    @property
    def wall_seconds(self) -> float:
        return time.monotonic() - self._wall_started


def run_load(config: "Optional[LoadConfig]" = None) -> "Dict[str, object]":
    """Build a harness, run it, return the deterministic summary."""
    return LoadHarness(config).run()
