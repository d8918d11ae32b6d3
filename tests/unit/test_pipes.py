"""Unit tests for rate-limiting pipes and token buckets."""

import pytest

from repro.sim.pipes import Pipe, TokenBucket


class TestPipe:
    def test_idle_pipe_serves_immediately(self):
        pipe = Pipe(rate=100.0)
        start, end = pipe.request(0.0, 50.0)
        assert start == 0.0
        assert end == pytest.approx(0.5)

    def test_requests_queue_fcfs(self):
        pipe = Pipe(rate=10.0)
        __, first_end = pipe.request(0.0, 10.0)  # busy until t=1
        start, end = pipe.request(0.0, 10.0)
        assert start == pytest.approx(first_end)
        assert end == pytest.approx(2.0)

    def test_idle_gap_not_backdated(self):
        pipe = Pipe(rate=10.0)
        pipe.request(0.0, 10.0)  # done at 1.0
        start, __ = pipe.request(5.0, 10.0)
        assert start == 5.0

    def test_backlog_reflects_queued_work(self):
        pipe = Pipe(rate=10.0)
        pipe.request(0.0, 30.0)
        # An empty request starts once the queued work has drained.
        assert pipe.request(0.0, 0.0)[0] == pytest.approx(3.0)
        assert pipe.request(2.0, 0.0)[0] - 2.0 == pytest.approx(1.0)
        assert pipe.request(10.0, 0.0)[0] == 10.0

    def test_zero_amount_allowed(self):
        pipe = Pipe(rate=10.0)
        start, end = pipe.request(1.0, 0.0)
        assert start == end == 1.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Pipe(rate=10.0).request(0.0, -1.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Pipe(rate=0.0)

    def test_accounting(self):
        pipe = Pipe(rate=10.0)
        pipe.request(0.0, 5.0)
        pipe.request(0.0, 15.0)
        assert pipe.total_units == pytest.approx(20.0)
        assert pipe.busy_seconds == pytest.approx(2.0)


class TestTokenBucket:
    def test_burst_within_capacity_is_free(self):
        bucket = TokenBucket(rate=10.0, capacity=100.0)
        assert bucket.request(0.0, 100.0) == 0.0

    def test_exhausted_bucket_delays(self):
        bucket = TokenBucket(rate=10.0, capacity=10.0)
        bucket.request(0.0, 10.0)
        ready = bucket.request(0.0, 5.0)
        assert ready == pytest.approx(0.5)
        assert bucket.throttled_requests == 1

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, capacity=10.0)
        bucket.request(0.0, 10.0)
        # After 1 second, 10 tokens refilled.
        assert bucket.request(1.0, 10.0) == pytest.approx(1.0)

    def test_refill_capped_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=10.0)
        bucket.request(0.0, 10.0)
        # 100 seconds refill the bucket to its capacity and no further:
        # ten tokens are free, the eleventh waits a refill period.
        assert bucket.request(100.0, 10.0) == 100.0
        assert bucket.request(100.0, 1.0) == pytest.approx(100.1)

    def test_oversized_request_takes_multiple_periods(self):
        bucket = TokenBucket(rate=10.0, capacity=10.0)
        bucket.request(0.0, 10.0)
        ready = bucket.request(0.0, 30.0)
        assert ready == pytest.approx(3.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, capacity=10)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, capacity=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, capacity=10).request(0.0, -1)
