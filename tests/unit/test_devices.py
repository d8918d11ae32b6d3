"""Unit tests for the queueing device model."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile, QueueingDevice, raid0


def make_device(bandwidth=1000.0, read_latency=0.01, write_latency=0.02,
                iops=None):
    profile = DeviceProfile(
        name="test",
        read_latency=read_latency,
        write_latency=write_latency,
        bandwidth=bandwidth,
        iops=iops,
    )
    return QueueingDevice(profile, VirtualClock())


def test_read_charges_latency_and_transfer():
    device = make_device(bandwidth=1000.0, read_latency=0.01)
    done = device.read(100, now=0.0)
    assert done == pytest.approx(0.1 + 0.01)


def test_write_uses_write_latency():
    device = make_device(bandwidth=1000.0, write_latency=0.05)
    done = device.write(100, now=0.0)
    assert done == pytest.approx(0.1 + 0.05)


def test_reads_queue_behind_writes():
    """The shared bandwidth pipe delays reads behind queued writes —
    the mechanism behind the paper's Figure 6 OCM anomaly."""
    device = make_device(bandwidth=1000.0, read_latency=0.0,
                         write_latency=0.0)
    device.write(1000, now=0.0)  # occupies the pipe until t=1
    done = device.read(100, now=0.0)
    assert done == pytest.approx(1.1)


def test_iops_pipe_throttles_small_ops():
    device = make_device(bandwidth=1e9, iops=10.0)
    last = 0.0
    for __ in range(20):
        last = device.read(1, now=0.0)
    # 20 ops at 10 IOPS: the last one cannot complete before ~2 seconds.
    assert last >= 1.9


def test_backlog():
    """An empty read waits out the transfer queued ahead of it, and only
    while that transfer lasts."""
    device = make_device(bandwidth=100.0, read_latency=0.01)
    device.write(100, now=0.0)  # one second of transfer queued
    assert device.read(0, now=0.0) == pytest.approx(1.0 + 0.01)
    assert device.read(0, now=2.0) == pytest.approx(2.0 + 0.01)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        make_device().read(-1)


def test_metrics_recorded():
    device = make_device()
    device.read(10)
    device.write(20)
    snapshot = device.metrics.snapshot()
    assert snapshot["read_ops"] == 1
    assert snapshot["read_bytes"] == 10
    assert snapshot["write_ops"] == 1
    assert snapshot["write_bytes"] == 20


def test_raid0_sums_bandwidth():
    profiles = [
        DeviceProfile("ssd", 0.001, 0.002, 500.0, iops=100.0)
        for __ in range(4)
    ]
    combined = raid0(profiles)
    assert combined.bandwidth == 2000.0
    assert combined.iops == 400.0
    assert combined.read_latency == 0.001


def test_raid0_requires_devices():
    with pytest.raises(ValueError):
        raid0([])
