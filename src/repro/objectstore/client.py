"""Retrying client over a simulated object store, with windowed parallel I/O.

This is the storage subsystem's view of the bucket:

- **reads retry on "no such key"** up to a configurable number of attempts
  with exponential backoff, converting eventual consistency into
  read-after-write consistency for never-overwritten keys (Section 3);
- **writes retry on transient failures**; after the retry budget is
  exhausted the error propagates and the transaction layer rolls back;
- **deadline budgets**: on top of the attempt count, a per-operation
  virtual-time budget bounds how long an operation may keep retrying —
  the resulting :class:`RetriesExhaustedError` records the deadline;
- **decorrelated-jitter backoff** (optional): retries desynchronise, so a
  storm of failed requests does not reconverge into synchronized retry
  waves against a throttled prefix;
- **hedged GETs** (optional): when a read's completion would land past the
  client's observed p99 GET latency, a second request is fired after that
  delay and the first completion wins — the classic tail-latency hedge;
- **verified reads** (optional): every served payload's CRC-32C is checked
  against the store's recorded checksum; mismatches retry as their own
  category, trigger read-repair under a replicated store, and surface as
  :class:`CorruptObjectError` only when no clean copy exists anywhere —
  corrupt bytes never reach the engine;
- **circuit breaker** (optional): after N consecutive transient failures
  the breaker opens and requests fail fast with
  :class:`CircuitOpenError`; after a cool-down, a half-open probe decides
  whether to close it.  Commit-critical writes can *bypass* the breaker so
  write-through-at-commit semantics survive an outage;
- **never-write-twice enforcement** (optional): the client remembers every
  key it has *successfully* written and refuses to write one twice — a
  guard for the engine's invariant and the knob for the update-in-place
  ablation;
- **windowed parallel I/O**: ``get_many``/``put_many`` keep up to ``window``
  requests outstanding, modelling the aggressive parallel prefetching the
  paper relies on to mask S3 latency;
- **coalescing** (a run length, 1 = off): bulk loads consume
  monotonically sequential 64-bit keys, so a scan's ``get_many`` and a
  write-back queue are dominated by runs of adjacent keys.  With
  ``max_run`` above 1 the client groups each run (up to ``max_run``
  keys; the engine ships ``COALESCE_MAX_RUN``) into one ranged multi-get
  or multi-put that charges a single request against the store's
  per-prefix token buckets — the connector-level request reduction
  Stocator popularised, cutting both the bill and throttle stalls.  A
  transient failure retries the whole range; keys a ranged GET could not
  serve (not yet visible under eventual consistency) fall back to single
  GETs with the usual "no such key" retry schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checksum import crc32c
from repro.objectstore.errors import (
    CircuitOpenError,
    CorruptObjectError,
    OverwriteForbiddenError,
    RetriesExhaustedError,
)
from repro.objectstore.s3sim import SimulatedObjectStore, TransientRequestError
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import NULL_TRACER
from repro.storage.keys import group_adjacent

# The engine's coalescing run length: one lost range never stalls more
# than this many pages behind a retry.
COALESCE_MAX_RUN = 16
# Whole-range attempts before a coalesced PUT degrades to per-key PUTs.
PUT_RANGE_ATTEMPTS = 2

CP_PUT_BEFORE_REQUEST = register_crash_point(
    "client.put.before_request",
    "a PUT reached the client but no request ever left the node",
)
CP_DELETE_BEFORE_REQUEST = register_crash_point(
    "client.delete.before_request",
    "a DELETE reached the client but no request ever left the node",
)
CP_PUT_RANGE_BEFORE_REQUEST = register_crash_point(
    "client.put_range.before_request",
    "a coalesced PUT batch reached the client but no request ever left "
    "the node (every key in the run is an unflushed orphan candidate)",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule (virtual seconds).

    ``jitter="decorrelated"`` replaces the deterministic exponential
    schedule with AWS-style decorrelated jitter: each delay is drawn
    uniformly from ``[initial_backoff, 3 * previous_delay]`` (capped at
    ``max_backoff``), using the client's deterministic RNG substream.
    ``deadline`` bounds the total virtual time an operation may spend
    retrying, independent of the attempt count (None = unbounded).
    """

    max_attempts: int = 8
    initial_backoff: float = 0.010
    backoff_multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: str = "none"  # "none" | "decorrelated"
    deadline: "Optional[float]" = None

    def __post_init__(self) -> None:
        if self.jitter not in ("none", "decorrelated"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("retry deadline must be positive (or None)")

    def backoff(self, attempt: int,
                rng: "Optional[DeterministicRng]" = None,
                previous: "Optional[float]" = None) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        ``rng`` and ``previous`` (the previously returned delay) drive the
        decorrelated-jitter mode; without them the schedule degrades to
        plain capped exponential backoff.
        """
        if self.jitter == "decorrelated" and rng is not None:
            prev = previous if previous is not None else self.initial_backoff
            high = max(self.initial_backoff, 3.0 * prev)
            return min(self.max_backoff,
                       rng.uniform(self.initial_backoff, high))
        delay = self.initial_backoff * (self.backoff_multiplier ** (attempt - 1))
        return min(delay, self.max_backoff)


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Circuit breaker thresholds (virtual seconds)."""

    failure_threshold: int = 5
    reset_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset timeout must be positive")


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged-GET policy: fire a second read after a p-quantile delay."""

    quantile: float = 99.0
    min_samples: int = 20
    initial_delay: float = 0.050

    def __post_init__(self) -> None:
        if not 0 < self.quantile <= 100:
            raise ValueError("hedge quantile must be in (0, 100]")
        if self.min_samples < 1:
            raise ValueError("hedge min_samples must be at least 1")
        if self.initial_delay <= 0:
            raise ValueError("hedge initial delay must be positive")


_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the virtual clock.

    The breaker is driven entirely by the virtual times the client passes
    in, so a chaos run replays bit-identically.  State transitions are
    recorded as counters (``breaker_opened``/``breaker_closed``/
    ``breaker_half_open``), a gauge (``breaker_state``: 0 closed, 1
    half-open, 2 open) and a time series of ``(time, state_code)``
    transition samples for boundary assertions.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: CircuitBreakerConfig,
                 metrics: MetricsRegistry, suffix: str = "") -> None:
        self.config = config
        self.metrics = metrics
        # Region label: breakers scoped to one backing region record
        # under ``breaker_*:{region}`` so a dead region's breaker history
        # never conflates with a healthy failover target's.
        self.suffix = suffix
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.metrics.gauge(f"breaker_state{suffix}").set(0.0)

    def state_at(self, now: float) -> str:
        """Effective state at ``now`` (an open breaker lapses to half-open)."""
        if (
            self._state == self.OPEN
            and now >= self._opened_at + self.config.reset_timeout
        ):
            return self.HALF_OPEN
        return self._state

    def retry_at(self) -> float:
        """Virtual time at which an open breaker admits a probe."""
        return self._opened_at + self.config.reset_timeout

    def admit(self, key: str, now: float) -> None:
        """Fail fast with :class:`CircuitOpenError` while open."""
        state = self.state_at(now)
        if state == self.OPEN:
            self.metrics.counter(
                f"breaker_fast_failures{self.suffix}"
            ).increment()
            raise CircuitOpenError(key, self.retry_at())
        if state == self.HALF_OPEN and self._state == self.OPEN:
            # The cool-down elapsed; this request is the half-open probe.
            self._transition(self.HALF_OPEN, now)

    def record_success(self, now: float) -> None:
        if self._state != self.CLOSED:
            # The half-open probe succeeded, or a breaker-bypassing
            # operation (commit write-through) succeeded while open: the
            # store is demonstrably healthy again.
            self._transition(self.CLOSED, now)
        self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        self._consecutive_failures += 1
        if self._state == self.HALF_OPEN:
            self._transition(self.OPEN, now)
        elif self._state == self.OPEN:
            # Failures observed by bypassing operations re-arm the timer.
            self._opened_at = now
        elif self._consecutive_failures >= self.config.failure_threshold:
            self._transition(self.OPEN, now)

    def _transition(self, state: str, now: float) -> None:
        self._state = state
        if state == self.OPEN:
            self._opened_at = now
            self.metrics.counter(f"breaker_opened{self.suffix}").increment()
        elif state == self.HALF_OPEN:
            self.metrics.counter(f"breaker_half_open{self.suffix}").increment()
        else:
            self._consecutive_failures = 0
            self.metrics.counter(f"breaker_closed{self.suffix}").increment()
        self.metrics.gauge(f"breaker_state{self.suffix}").set(
            _STATE_CODES[state]
        )
        self.metrics.series(f"breaker_transitions{self.suffix}").record(
            now, _STATE_CODES[state]
        )


class RetryingObjectClient:
    """Engine-facing object store client (timed API, virtual clock)."""

    def __init__(
        self,
        store: SimulatedObjectStore,
        policy: RetryPolicy = RetryPolicy(),
        enforce_unique_keys: bool = True,
        parallel_window: int = 32,
        bandwidth: "Optional[Pipe]" = None,
        node_id: "Optional[str]" = None,
        breaker: "Optional[CircuitBreakerConfig]" = None,
        hedge: "Optional[HedgePolicy]" = None,
        rng: "Optional[DeterministicRng]" = None,
        max_run: int = 1,
        verify_reads: bool = False,
    ) -> None:
        if policy.max_attempts < 1:
            raise ValueError("retry policy must allow at least one attempt")
        if parallel_window < 1:
            raise ValueError("parallel window must be at least 1")
        if max_run < 1:
            raise ValueError("coalescing run length must be at least 1")
        self.store = store
        self.policy = policy
        self.enforce_unique_keys = enforce_unique_keys
        self.parallel_window = parallel_window
        # The node's own NIC pipe; transfers route through it so several
        # multiplex nodes sharing one bucket each get their own bandwidth.
        self.bandwidth = bandwidth
        self.node_id = node_id
        # Longest adjacent-key run one ranged GET or PUT may carry.
        self.max_run = max_run
        # Verified reads: recompute CRC-32C over every served payload and
        # compare against the store's recorded checksum.  A mismatch never
        # reaches the caller — it retries as its own category (and under a
        # replicated store triggers read-repair first).
        self.verify_reads = verify_reads
        self.metrics = MetricsRegistry()
        self.tracer = NULL_TRACER
        self.hedge = hedge
        # Breaker and hedged-GET latency state are scoped per backing
        # region: a replicated store changes its ``primary_region`` on
        # failover, and a breaker opened by a dead region must not fail
        # fast against the healthy region it failed over to (nor should
        # the dead region's latency tail drive the new region's hedges).
        # Single-region stores map to the ``None`` region with the exact
        # legacy metric names.
        self._breaker_config = breaker
        self._breakers: "Dict[Optional[str], CircuitBreaker]" = {}
        if breaker is not None:
            self.breaker  # eagerly create the current region's breaker
        self._rng = rng or DeterministicRng(
            0, f"object-client/{node_id or 'default'}"
        )
        self._backoff_rng = self._rng.substream("backoff")
        self._written_keys: "set[str]" = set()

    @property
    def clock(self):
        return self.store.clock

    def _region(self) -> "Optional[str]":
        """The backing region requests currently land in."""
        region = getattr(self.store, "primary_region", None)
        if region is not None:
            return region
        return getattr(self.store, "region", None)

    def _suffix(self) -> str:
        region = self._region()
        return "" if region is None else f":{region}"

    def _bump(self, name: str, amount: int = 1) -> None:
        """Increment a counter, plus its region-labelled twin if any."""
        self.metrics.counter(name).increment(amount)
        region = self._region()
        if region is not None:
            self.metrics.counter(f"{name}:{region}").increment(amount)

    @property
    def breaker(self) -> "Optional[CircuitBreaker]":
        """The circuit breaker for the *current* backing region."""
        if self._breaker_config is None:
            return None
        region = self._region()
        breaker = self._breakers.get(region)
        if breaker is None:
            breaker = CircuitBreaker(
                self._breaker_config, self.metrics,
                suffix="" if region is None else f":{region}",
            )
            self._breakers[region] = breaker
        return breaker

    def breaker_state(self, now: "Optional[float]" = None) -> str:
        """Effective breaker state ("closed" when no breaker configured)."""
        if self.breaker is None:
            return CircuitBreaker.CLOSED
        return self.breaker.state_at(self.clock.now() if now is None else now)

    # ------------------------------------------------------------------ #
    # the one retry loop and the one window scheduler
    # ------------------------------------------------------------------ #

    def _check_deadline(self, key: str, op_start: float, next_start: float,
                        attempts: int) -> None:
        deadline = self.policy.deadline
        if deadline is not None and next_start - op_start > deadline:
            self.metrics.counter("deadline_expirations").increment()
            raise RetriesExhaustedError(key, attempts, deadline=deadline)

    def _retry(self, span_name: str, key: str, now: float, request,
               retry_counters: "Sequence[str]", *,
               bypass_breaker: bool = False,
               op_start: "Optional[float]" = None,
               max_attempts: "Optional[int]" = None,
               judge=None, exhausted=None, describe=None, **span_attrs):
        """Run one logical operation; return ``(result, completion)``.

        Every verb feeds this loop — breaker admit → attempt → note
        failure/success → backoff → deadline → trace — and differs only in
        the policy it passes:

        - ``request(when) -> (result, completion)`` issues one attempt; a
          :class:`TransientRequestError` bumps ``retry_counters`` and
          retries from the error's ``failed_at``;
        - ``judge(result, when, done, attempt)`` may reject a served
          response by returning a retry reason (GET: ``"not_found"``,
          ``"checksum_mismatch"``); ``None`` accepts it;
        - ``describe(result)`` adds attributes to the finished span;
        - ``exhausted(when, op_start) -> (result, completion, span_attrs)``
          takes over once ``max_attempts`` (default: the policy's) are
          spent; the default raises :class:`RetriesExhaustedError`.

        ``op_start`` is when the *logical* operation began (default:
        ``now``).  The deadline budget runs from there, so a fallback
        chained behind a failed range request gets what is left of the
        budget, not a fresh one.
        """
        span = self.tracer.begin(span_name, "client", start=now, key=key,
                                 **span_attrs)
        if op_start is None:
            op_start = now
        breaker = self.breaker
        when = now
        previous: "Optional[float]" = None
        try:
            for attempt in range(
                1, (max_attempts or self.policy.max_attempts) + 1
            ):
                if breaker is not None and not bypass_breaker:
                    breaker.admit(key, when)
                reason = None
                try:
                    result, done = request(when)
                except TransientRequestError as error:
                    done = error.failed_at
                    if breaker is not None:
                        breaker.record_failure(done)
                    for name in retry_counters:
                        self._bump(name)
                else:
                    if breaker is not None:
                        breaker.record_success(done)
                    if judge is not None:
                        reason = judge(result, when, done, attempt)
                    if reason is None:
                        attrs = {} if describe is None else describe(result)
                        self.tracer.finish(span, end=done, attempts=attempt,
                                           **attrs)
                        span = None
                        return result, done
                previous = self.policy.backoff(
                    attempt, rng=self._backoff_rng, previous=previous
                )
                when = done + previous
                # A checksum mismatch is on the trace as its verify span.
                if reason != "checksum_mismatch":
                    attrs = {} if reason is None else {"reason": reason}
                    self.tracer.record("backoff", "retry", done, when,
                                       key=key, attempt=attempt, **attrs)
                self._check_deadline(key, op_start, when, attempt)
            if exhausted is None:
                raise RetriesExhaustedError(key, self.policy.max_attempts)
            result, done, attrs = exhausted(when, op_start)
            self.tracer.finish(span, end=done, **attrs)
            span = None
            return result, done
        finally:
            if span is not None:
                self.tracer.finish(span, end=when, error="failed")

    def _windowed(self, jobs: "Iterable", window: "Optional[int]",
                  now: float, issue) -> float:
        """Keep up to ``window`` requests in flight, starting at ``now``.

        ``issue(job, start)`` sends one request and returns its completion
        time; the last completion is returned.  Never touches the clock.
        """
        width = window or self.parallel_window
        inflight: "List[float]" = []  # min-heap of completion times
        last_completion = now
        for job in jobs:
            start = now
            if len(inflight) >= width:
                start = max(now, heapq.heappop(inflight))
            done = issue(job, start)
            heapq.heappush(inflight, done)
            last_completion = max(last_completion, done)
        return last_completion

    # ------------------------------------------------------------------ #
    # PUT (timed: never advances the clock)
    # ------------------------------------------------------------------ #

    def _check_unwritten(self, items: "Sequence[Tuple[str, bytes]]") -> None:
        if self.enforce_unique_keys:
            for key, __ in items:
                if key in self._written_keys:
                    raise OverwriteForbiddenError(key)

    def _store_put(self, items: "Sequence[Tuple[str, bytes]]", when: float):
        """One store PUT; accepted keys enter the never-write-twice ledger."""
        done = self.store.put_range_at(items, when, bandwidth=self.bandwidth,
                                       node=self.node_id)
        if self.enforce_unique_keys:
            self._written_keys.update(key for key, __ in items)
        return None, done

    def put_at(self, key: str, data: bytes, now: float,
               bypass_breaker: bool = False,
               op_start: "Optional[float]" = None) -> float:
        """Upload with retry on transient failures; return completion time.

        The never-write-twice ledger records ``key`` only after the store
        accepted the write: a put that exhausted its retries leaves the
        key unwritten, so a later legitimate re-put may succeed.
        """
        items = [(key, data)]
        self._check_unwritten(items)
        crash_point(CP_PUT_BEFORE_REQUEST)
        return self._retry(
            "put", key, now, lambda when: self._store_put(items, when),
            ("put_retries",), bypass_breaker=bypass_breaker,
            op_start=op_start, nbytes=len(data),
        )[1]

    def _put_range_at(self, items: "Sequence[Tuple[str, bytes]]", now: float,
                      bypass_breaker: bool) -> float:
        """One coalesced multi-key PUT; return the batch completion time.

        The batch is a single store request billed as one PUT.  Transient
        failures retry the *whole* range up to ``PUT_RANGE_ATTEMPTS``
        times; after that the batch degrades to per-key single PUTs, each
        carrying the full retry schedule within what is left of the
        batch's deadline — a lost range never strands its pages behind an
        unbounded range-retry loop.  Never-write-twice is preserved on
        both paths: every key in the run is fresh (checked against the
        ledger up front), a failed range landed nothing, and keys enter
        the ledger only after the store accepted them.
        """
        self._check_unwritten(items)
        crash_point(CP_PUT_RANGE_BEFORE_REQUEST)

        def request(when: float):
            outcome = self._store_put(items, when)
            self.metrics.counter("coalesced_put_batches").increment()
            self.metrics.counter("coalesced_put_keys").increment(len(items))
            return outcome

        def per_key_fallback(when: float, op_start: float):
            self.metrics.counter("put_range_fallbacks").increment()
            last = self._windowed(
                items, len(items), when,
                lambda item, start: self.put_at(
                    item[0], item[1], start, bypass_breaker, op_start
                ),
            )
            return None, last, {"outcome": "per_key_fallback"}

        return self._retry(
            "put_range", items[0][0], now, request,
            ("put_retries", "put_range_retries"),
            bypass_breaker=bypass_breaker, max_attempts=PUT_RANGE_ATTEMPTS,
            exhausted=per_key_fallback, count=len(items),
            nbytes=sum(len(data) for __, data in items),
        )[1]

    def put_many_at(
        self, items: "Iterable[Tuple[str, bytes]]", now: float,
        window: "Optional[int]" = None, bypass_breaker: bool = False,
    ) -> float:
        """Upload starting at ``now`` with up to ``window`` requests in
        flight; return the last completion time.

        Runs of adjacent fresh keys are packed into ranged multi-puts of
        up to ``max_run`` keys (a batch repeating a key is not coalesced);
        each run occupies one slot of the request window, so the window
        bounds *requests* in flight, coalesced or not.
        """
        items = list(items)
        unique = len({key for key, __ in items}) == len(items)
        runs = group_adjacent(items, self.max_run if unique else 1,
                              name=lambda item: item[0])

        def issue(run, start: float) -> float:
            if len(run) == 1:
                return self.put_at(run[0][0], run[0][1], start,
                                   bypass_breaker)
            return self._put_range_at(run, start, bypass_breaker)

        return self._windowed(runs, window, now, issue)

    # ------------------------------------------------------------------ #
    # GET (timed: never advances the clock)
    # ------------------------------------------------------------------ #

    def _latency_histogram(self):
        """Observed GET latencies for the current backing region.

        Hedge delays derive from this histogram, so each region's tail is
        tracked separately — after failover, the new primary's hedges are
        driven by its own latency history, not the dead region's.
        """
        return self.metrics.histogram(f"get_latency{self._suffix()}")

    def _hedge_delay(self) -> float:
        assert self.hedge is not None
        latencies = self._latency_histogram()
        if latencies.count >= self.hedge.min_samples:
            return max(latencies.percentile(self.hedge.quantile), 1e-9)
        return self.hedge.initial_delay

    def _store_get(self, key: str, when: float):
        """One raw store GET: ``((data_or_None, expected_crc), done)``."""
        results, done = self.store.get_range_at(
            [key], when, bandwidth=self.bandwidth, node=self.node_id
        )
        return results[key], done

    def _mismatched(self, data: "Optional[bytes]",
                    expected: "Optional[int]") -> bool:
        return (
            self.verify_reads and data is not None
            and expected is not None and crc32c(data) != expected
        )

    def _try_get_once(self, key: str, when: float):
        """One (possibly hedged) GET attempt against the store."""
        latencies = self._latency_histogram()
        if self.hedge is None:
            served, done = self._store_get(key, when)
            latencies.observe(done - when)
            return served, done
        delay = self._hedge_delay()
        primary_error: "Optional[TransientRequestError]" = None
        served = (None, None)
        try:
            served, done = self._store_get(key, when)
        except TransientRequestError as error:
            primary_error = error
            done = error.failed_at
        if done - when <= delay:
            if primary_error is not None:
                raise primary_error
            latencies.observe(done - when)
            return served, done
        # The primary response would land past the hedge delay: fire the
        # hedge and take whichever completion comes first.
        self._bump("hedged_gets")
        try:
            hedge_served, hedge_done = self._store_get(key, when + delay)
        except TransientRequestError:
            if primary_error is not None:
                raise primary_error
            latencies.observe(done - when)
            return served, done
        winner, loser = (served, done), (hedge_served, hedge_done)
        hedge_won = primary_error is not None or hedge_done < done
        if hedge_won:
            winner, loser = loser, winner
        # Never hand up a corrupt winner when the slower completion is
        # clean.
        if (
            primary_error is None and self._mismatched(*winner[0])
            and not self._mismatched(*loser[0])
        ):
            self._bump("hedge_mismatch")
            winner = loser
        elif hedge_won:
            self._bump("hedge_wins")
        latencies.observe(winner[1] - when)
        return winner

    def _attempt_read_repair(self, key: str, when: float) -> int:
        """Ask a replicated store to heal ``key`` from a healthy region."""
        repair = getattr(self.store, "read_repair", None)
        if repair is None:
            return 0
        span = self.tracer.begin("read_repair", "client", start=when,
                                 key=key)
        repaired = repair(key, when)
        if repaired:
            self._bump("read_repairs", repaired)
        self.tracer.finish(span, end=when, repaired=repaired)
        return repaired

    def _note_mismatch(self, key: str, when: float, done: float,
                       attempt: int, **attrs: object) -> None:
        """A served payload failed its checksum: count, trace, repair."""
        self._bump("checksum_mismatches")
        self.tracer.record("verify", "checksum_mismatch", when, done,
                           key=key, attempt=attempt, **attrs)
        self._attempt_read_repair(key, done)

    def get_at(self, key: str, now: float,
               op_start: "Optional[float]" = None) -> "Tuple[bytes, float]":
        """Read with retry on "no such key" and transient failures.

        With ``verify_reads`` on, a served payload whose CRC-32C does not
        match the store's recorded checksum is treated as a third retry
        category (``checksum_mismatches``, distinct from transient-failure
        and not-found retries): the client read-repairs the damaged copy
        from a healthy replica when the store supports it, then retries.
        Corrupt bytes are *never* returned; exhausting the budget on
        mismatches raises :class:`CorruptObjectError`.
        """
        last_mismatch: "List[Optional[int]]" = []

        def judge(served, when: float, done: float, attempt: int):
            data, expected = served
            if data is None:
                self._bump("not_found_retries")
                return "not_found"
            if not self._mismatched(data, expected):
                return None
            last_mismatch[:] = [expected, crc32c(data)]
            self._note_mismatch(key, when, done, attempt,
                                expected=expected, actual=last_mismatch[1])
            return "checksum_mismatch"

        def exhausted(when: float, op_start: float):
            if last_mismatch:
                raise CorruptObjectError(key, *last_mismatch,
                                         self.policy.max_attempts)
            raise RetriesExhaustedError(key, self.policy.max_attempts)

        (data, __), done = self._retry(
            "get", key, now, lambda when: self._try_get_once(key, when),
            ("get_retries",), op_start=op_start, judge=judge,
            exhausted=exhausted,
            describe=lambda served: {"nbytes": len(served[0])},
        )
        return data, done

    def _get_range_at(self, names: "Sequence[str]",
                      now: float) -> "Tuple[Dict[str, bytes], float]":
        """One ranged multi-get, then single GETs for what it left out.

        The range is a single store request: a transient failure fails
        (and retries) the whole range.  Keys it could not serve — not yet
        visible, or (with ``verify_reads``) failing their checksum, after
        a read-repair attempt — fall back to single GETs, which carry the
        not-found / verified retry schedule within what is left of the
        range's deadline.
        """
        def request(when: float):
            return self.store.get_range_at(
                names, when, bandwidth=self.bandwidth, node=self.node_id
            )

        def demote_mismatches(served, when: float, done: float, attempt: int):
            for name in names:
                if self._mismatched(*served[name]):
                    self._note_mismatch(name, when, done, attempt)
                    served[name] = (None, None)

        served, done = self._retry(
            "get_range", names[0], now, request, ("get_retries",),
            judge=demote_mismatches, count=len(names),
        )
        self.metrics.counter("coalesced_get_batches").increment()
        self.metrics.counter("coalesced_get_keys").increment(len(names))
        results = {name: served[name][0] for name in names}

        def refetch(name: str, start: float) -> float:
            results[name], single_done = self.get_at(name, start,
                                                     op_start=now)
            return single_done

        missing = [name for name in names if results[name] is None]
        return results, self._windowed(missing, 1, done, refetch)

    def get_many_at(
        self, keys: "Iterable[str]", now: float,
        window: "Optional[int]" = None,
    ) -> "Tuple[Dict[str, bytes], float]":
        """Fetch starting at ``now`` with up to ``window`` requests in
        flight; return ``(results, last_completion)``.

        Runs of adjacent keys (capped at ``max_run``, so one lost range
        never stalls an unbounded number of pages behind a retry) are
        served by ranged multi-gets; each run occupies one slot of the
        request window.
        """
        runs = group_adjacent(list(keys), self.max_run)
        results: "Dict[str, bytes]" = {}

        def issue(run: "List[str]", start: float) -> float:
            if len(run) == 1:
                results[run[0]], done = self.get_at(run[0], start)
            else:
                fetched, done = self._get_range_at(run, start)
                results.update(fetched)
            return done

        return results, self._windowed(runs, window, now, issue)

    # ------------------------------------------------------------------ #
    # DELETE / HEAD (timed: never advance the clock)
    # ------------------------------------------------------------------ #

    def delete_at(self, key: str, now: float) -> float:
        """Delete with retry on transient failures (GC batches)."""
        crash_point(CP_DELETE_BEFORE_REQUEST)
        return self._retry(
            "delete", key, now,
            lambda when: (None, self.store.delete_at(key, when,
                                                     node=self.node_id)),
            ("delete_retries",),
        )[1]

    def exists_at(self, key: str, now: float) -> "Tuple[bool, float]":
        """Visibility probe with retry on transient failures (restart GC)."""
        return self._retry(
            "head", key, now,
            lambda when: self.store.exists_at(key, when, node=self.node_id),
            ("head_retries",),
        )

    # ------------------------------------------------------------------ #
    # synchronous wrappers: call the timed form, advance the clock
    # ------------------------------------------------------------------ #

    def put(self, key: str, data: bytes) -> None:
        self.clock.advance_to(self.put_at(key, data, self.clock.now()))

    def get(self, key: str) -> bytes:
        data, done = self.get_at(key, self.clock.now())
        self.clock.advance_to(done)
        return data

    def delete(self, key: str) -> None:
        self.clock.advance_to(self.delete_at(key, self.clock.now()))

    def exists(self, key: str) -> bool:
        visible, done = self.exists_at(key, self.clock.now())
        self.clock.advance_to(done)
        return visible

    def get_many(
        self, keys: "Iterable[str]", window: "Optional[int]" = None
    ) -> "Dict[str, bytes]":
        """Fetch many objects with up to ``window`` outstanding requests."""
        results, done = self.get_many_at(keys, self.clock.now(), window)
        self.clock.advance_to(done)
        return results

    def put_many(
        self,
        items: "Iterable[Tuple[str, bytes]]",
        window: "Optional[int]" = None,
        bypass_breaker: bool = False,
    ) -> None:
        self.clock.advance_to(self.put_many_at(
            items, self.clock.now(), window=window,
            bypass_breaker=bypass_breaker,
        ))

    def delete_many(
        self, keys: "Iterable[str]", window: "Optional[int]" = None
    ) -> None:
        """Delete many objects in parallel (GC batches)."""
        self.clock.advance_to(
            self._windowed(keys, window, self.clock.now(), self.delete_at)
        )

    def was_written(self, key: str) -> bool:
        """Whether this client wrote ``key`` (never-write-twice ledger)."""
        return key in self._written_keys
