"""Unit tests for the benchmark infrastructure itself."""

import pytest

from repro.bench.configs import bench_config, make_engine
from repro.bench.report import format_table, geomean
from repro.costs.instances import INSTANCE_CATALOG


class TestReport:
    def test_geomean(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bbb", 22.0]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # equal width

    def test_format_table_floats_rounded(self):
        table = format_table(["x"], [[3.14159]])
        assert "3.1" in table and "3.14159" not in table


class TestBenchConfig:
    def test_rate_scale_follows_scale_factor(self):
        config = bench_config(scale_factor=0.01)
        assert config.rate_scale == pytest.approx(1e-5)

    @pytest.mark.parametrize("scale_factor", [
        float("nan"), float("inf"), 0, 0.0, -0.01, True,
    ])
    def test_refuses_scale_factors_the_generator_refuses(self, scale_factor):
        with pytest.raises(ValueError, match="scale factor must be positive "
                           "and finite"):
            bench_config(scale_factor=scale_factor)

    def test_instance_shapes_transfer(self):
        for instance_type, profile in INSTANCE_CATALOG.items():
            if profile.ssd_count == 0:
                continue
            config = bench_config(instance_type=instance_type)
            assert config.vcpus == profile.vcpus
            assert config.nic_gbits == profile.nic_gbits

    def test_bigger_instances_get_bigger_caches(self):
        small = bench_config(instance_type="m5ad.4xlarge")
        large = bench_config(instance_type="m5ad.24xlarge")
        assert large.buffer_capacity_bytes >= small.buffer_capacity_bytes
        assert large.ocm_capacity_bytes >= small.ocm_capacity_bytes

    def test_block_volumes_disable_ocm(self):
        assert bench_config(user_volume="ebs").ocm_enabled is False
        assert bench_config(user_volume="s3").ocm_enabled is True

    def test_overrides_win(self):
        config = bench_config(ocm_capacity_bytes=12345 * 1024)
        assert config.ocm_capacity_bytes == 12345 * 1024

    def test_make_engine_builds(self):
        db = make_engine("m5ad.4xlarge", "s3")
        assert db.config.rate_scale == pytest.approx(1e-5)
        assert db.cpu.parallel_fraction == pytest.approx(0.995)

    def test_efs_volume_kind(self):
        db = make_engine("m5ad.24xlarge", "efs")
        assert db.user_device is not None
        assert db.user_device.profile.name == "user-efs"
