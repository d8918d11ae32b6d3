"""Unit tests for block devices and volume profiles."""

import pytest

from repro.blockstore.device import BlockDevice, BlockDeviceError
from repro.blockstore.profiles import ebs_gp2, efs_standard, nvme_ssd, ram_disk
from repro.sim.clock import VirtualClock

GIB = 1024 ** 3
TIB = 1024 ** 4


def make_device(profile=None, block_size=4096, blocks=1000):
    return BlockDevice(profile or ram_disk(), block_size, blocks,
                       clock=VirtualClock())


def read_many(device, starts):
    """The pages at ``starts``, read from the device's current time."""
    results, __ = device.read_many_at(starts, device.clock.now())
    return results


class TestBlockDevice:
    def test_write_read_roundtrip(self):
        device = make_device()
        device.write_many([(10, b"hello world")])
        assert read_many(device, [10]) == {10: b"hello world"}

    def test_read_unwritten_raises(self):
        with pytest.raises(BlockDeviceError):
            read_many(make_device(), [5])

    def test_blocks_for(self):
        device = make_device(block_size=4096)
        assert device.blocks_for(1) == 1
        assert device.blocks_for(4096) == 1
        assert device.blocks_for(4097) == 2
        assert device.blocks_for(0) == 1

    def test_out_of_range_write(self):
        device = make_device(blocks=10)
        with pytest.raises(BlockDeviceError):
            device.write_many([(9, b"x" * 8192)])  # needs blocks 9 and 10

    def test_discard_drops_data(self):
        device = make_device()
        device.write_many([(0, b"x")])
        device.discard(0)
        with pytest.raises(BlockDeviceError):
            read_many(device, [0])
        device.discard(0)  # idempotent

    def test_timed_io_advances_clock(self):
        device = make_device(profile=nvme_ssd())
        device.write_many([(0, b"x" * 100_000)])
        assert device.clock.now() > 0

    def test_read_many_parallel(self):
        device = make_device(profile=nvme_ssd())
        device.write_many([(i * 4, b"block%02d" % i) for i in range(16)])
        result = read_many(device, [i * 4 for i in range(16)])
        assert result[8] == b"block02"

    def test_write_many(self):
        device = make_device()
        device.write_many([(0, b"a"), (4, b"b")])
        assert read_many(device, [0, 4]) == {0: b"a", 4: b"b"}

    def test_stored_bytes(self):
        device = make_device()
        device.write_many([(0, b"12345"), (10, b"12")])
        assert device.stored_bytes() == 7

    def test_invalid_geometry(self):
        with pytest.raises(BlockDeviceError):
            BlockDevice(ram_disk(), 0, 10)
        with pytest.raises(BlockDeviceError):
            BlockDevice(ram_disk(), 512, 0)


class TestProfiles:
    def test_ebs_iops_scale_with_size(self):
        small = ebs_gp2(100 * GIB)
        large = ebs_gp2(1024 * GIB)
        assert small.iops == pytest.approx(300.0)
        assert large.iops == pytest.approx(3072.0)

    def test_ebs_iops_capped(self):
        huge = ebs_gp2(16 * TIB)
        assert huge.iops == 16000.0

    def test_ebs_iops_floor(self):
        tiny = ebs_gp2(1 * GIB)
        assert tiny.iops == 100.0

    def test_efs_throughput_scales_with_size(self):
        small = efs_standard(100 * GIB)
        large = efs_standard(4 * TIB)
        assert large.bandwidth > small.bandwidth

    def test_efs_slower_than_ebs_latency(self):
        assert efs_standard(TIB).read_latency > ebs_gp2(TIB).read_latency

    def test_nvme_fastest_latency(self):
        assert nvme_ssd().read_latency < ebs_gp2(TIB).read_latency
