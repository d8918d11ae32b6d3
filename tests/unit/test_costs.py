"""Unit tests for price tables, instance profiles and the cost meter."""

import pytest

from repro.costs.instances import INSTANCE_CATALOG, GIB
from repro.costs.meter import CostMeter
from repro.costs.pricing import DEFAULT_PRICES, RequestPrice, StoragePrice


class TestPrices:
    def test_s3_cheapest_at_rest(self):
        s3 = DEFAULT_PRICES.storage_price("s3").usd_per_gib_month
        ebs = DEFAULT_PRICES.storage_price("ebs-gp2").usd_per_gib_month
        efs = DEFAULT_PRICES.storage_price("efs").usd_per_gib_month
        assert s3 < ebs < efs
        # The paper's order-of-magnitude claim comes from this ratio.
        assert efs / s3 > 10

    def test_storage_price_per_gib(self):
        price = StoragePrice("x", 0.10)
        assert price.monthly_cost(10 * GIB) == pytest.approx(1.0)

    def test_request_price(self):
        price = RequestPrice("s3", put_usd_per_1000=0.005,
                             get_usd_per_1000=0.0004)
        assert price.cost(puts=1000) == pytest.approx(0.005)
        assert price.cost(gets=10000) == pytest.approx(0.004)

    def test_unknown_volume_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_PRICES.storage_price("floppy")

    def test_instance_rates_present(self):
        for instance in ("m5ad.4xlarge", "m5ad.12xlarge", "m5ad.24xlarge",
                         "r5.large"):
            assert DEFAULT_PRICES.instance_rate(instance) > 0

    def test_bigger_instances_cost_more(self):
        assert (
            DEFAULT_PRICES.instance_rate("m5ad.4xlarge")
            < DEFAULT_PRICES.instance_rate("m5ad.12xlarge")
            < DEFAULT_PRICES.instance_rate("m5ad.24xlarge")
        )


class TestInstances:
    def test_catalog_shapes(self):
        m24 = INSTANCE_CATALOG["m5ad.24xlarge"]
        assert m24.vcpus == 96
        assert m24.ram_bytes == 384 * GIB
        assert m24.nic_gbits == 20.0
        assert m24.ssd_count == 4

    def test_buffer_cache_is_half_ram(self):
        profile = INSTANCE_CATALOG["m5ad.4xlarge"]
        assert profile.buffer_cache_bytes == profile.ram_bytes // 2

    def test_vcpus_scale_with_size(self):
        assert INSTANCE_CATALOG["m5ad.4xlarge"].vcpus == 16
        assert INSTANCE_CATALOG["m5ad.12xlarge"].vcpus == 48


class TestCostMeter:
    def test_request_accumulation(self):
        meter = CostMeter()
        meter.record_requests("s3", puts=500, gets=1000)
        meter.record_requests("s3", puts=500)
        assert meter.request_cost("s3") == pytest.approx(
            0.005 + 0.0004
        )

    def test_storage_month(self):
        meter = CostMeter()
        usd = meter.storage_monthly_cost("s3", 100 * GIB)
        assert usd == pytest.approx(2.3)
