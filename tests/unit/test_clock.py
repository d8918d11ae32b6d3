"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import ClockError, VirtualClock


def test_clock_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_clock_starts_at_given_time():
    assert VirtualClock(5.0).now() == 5.0


def test_clock_rejects_negative_start():
    with pytest.raises(ClockError):
        VirtualClock(-1.0)


def test_advance_moves_forward():
    clock = VirtualClock()
    assert clock.advance(2.5) == 2.5
    assert clock.now() == 2.5


def test_advance_rejects_negative():
    with pytest.raises(ClockError):
        VirtualClock().advance(-0.1)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
def test_advance_rejects_non_finite(seconds):
    clock = VirtualClock(1.0)
    with pytest.raises(ClockError):
        clock.advance(seconds)
    assert clock.now() == 1.0


@pytest.mark.parametrize(
    "when", [float("nan"), float("inf"), float("-inf")]
)
def test_advance_to_rejects_non_finite(when):
    clock = VirtualClock(1.0)
    with pytest.raises(ClockError):
        clock.advance_to(when)
    assert clock.now() == 1.0


def test_advance_to_absolute_time():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now() == 10.0


def test_advance_to_past_raises():
    clock = VirtualClock(10.0)
    with pytest.raises(ClockError):
        clock.advance_to(5.0)


def test_advance_to_same_time_is_noop():
    clock = VirtualClock(3.0)
    clock.advance_to(3.0)
    assert clock.now() == 3.0
