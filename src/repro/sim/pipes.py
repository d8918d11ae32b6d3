"""Rate limiting primitives used by all simulated devices.

Two models are provided:

- :class:`Pipe` — a serial server with a fixed service rate.  Requests are
  processed first-come-first-served; a request arriving while the pipe is
  busy queues behind earlier work.  This models bandwidth- and IOPS-limited
  resources (an NVMe channel, an EBS volume, a NIC).
- :class:`TokenBucket` — a classic token bucket allowing bursts up to a
  capacity, refilled at a fixed rate.  This models request-rate throttles
  such as S3's per-prefix request limits.

Both return *virtual* start/completion times and never sleep.
"""

from __future__ import annotations


class Pipe:
    """A first-come-first-served server with a fixed rate (units/second).

    ``request(now, amount)`` reserves ``amount`` units of service starting no
    earlier than ``now`` and no earlier than the completion of previously
    accepted work, returning ``(start, end)`` virtual times.
    """

    def __init__(self, rate: float, name: str = "pipe") -> None:
        if rate <= 0:
            raise ValueError(f"pipe rate must be positive, got {rate!r}")
        self.name = name
        self._rate = float(rate)
        self._next_free = 0.0
        self._busy_seconds = 0.0
        self._total_units = 0.0

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def next_free(self) -> float:
        """Virtual time at which all accepted work will have drained."""
        return self._next_free

    @property
    def busy_seconds(self) -> float:
        """Total service time performed so far."""
        return self._busy_seconds

    @property
    def total_units(self) -> float:
        """Total units of work accepted so far."""
        return self._total_units

    def request(self, now: float, amount: float) -> "tuple[float, float]":
        """Reserve ``amount`` units of service; return ``(start, end)``."""
        if amount < 0:
            raise ValueError(f"cannot request negative work {amount!r}")
        start = max(now, self._next_free)
        duration = amount / self._rate
        end = start + duration
        self._next_free = end
        self._busy_seconds += duration
        self._total_units += amount
        return start, end

    def __repr__(self) -> str:
        return f"Pipe({self.name!r}, rate={self._rate:g}, next_free={self._next_free:.6f})"


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, burst capacity ``capacity``.

    ``request(now, tokens)`` returns the earliest virtual time at which the
    requested tokens are available, and consumes them.  Requests larger than
    the capacity are allowed and simply take multiple refill periods.
    """

    def __init__(self, rate: float, capacity: float, name: str = "bucket") -> None:
        if rate <= 0:
            raise ValueError(f"bucket rate must be positive, got {rate!r}")
        if capacity <= 0:
            raise ValueError(f"bucket capacity must be positive, got {capacity!r}")
        self.name = name
        self._rate = float(rate)
        self._capacity = float(capacity)
        self._available = float(capacity)
        self._last_time = 0.0
        self._throttled_requests = 0

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def throttled_requests(self) -> int:
        """Number of requests that had to wait for a refill."""
        return self._throttled_requests

    def _refill(self, now: float) -> None:
        if now > self._last_time:
            self._available = min(
                self._capacity,
                self._available + (now - self._last_time) * self._rate,
            )
            self._last_time = now

    def request(self, now: float, tokens: float = 1.0) -> float:
        """Consume ``tokens``; return the virtual time they become available."""
        if tokens < 0:
            raise ValueError(f"cannot request negative tokens {tokens!r}")
        self._refill(now)
        if self._available >= tokens:
            self._available -= tokens
            return max(now, self._last_time)
        # The bucket owes tokens; requests queue from the time the bucket
        # was last drained (which may lie in the future relative to `now`).
        base = max(now, self._last_time)
        deficit = tokens - self._available
        ready = base + deficit / self._rate
        self._available = 0.0
        self._last_time = ready
        self._throttled_requests += 1
        return ready

    def __repr__(self) -> str:
        return (
            f"TokenBucket({self.name!r}, rate={self._rate:g}, "
            f"capacity={self._capacity:g})"
        )
