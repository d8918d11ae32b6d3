"""Unit tests for the TPC-H generator, schemas and runners."""

import pytest

from repro.tpch.datagen import NATIONS, REGIONS, TpchGenerator
from repro.tpch.dates import CURRENT_DATE, d, iso, year_of
from repro.tpch.runner import make_streams
from repro.tpch.schema import TPCH_SCHEMAS, tpch_schema


class TestDates:
    def test_roundtrip(self):
        ordinal = d(1995, 6, 17)
        assert year_of(ordinal) == 1995
        assert iso(ordinal) == "1995-06-17"
        assert ordinal == CURRENT_DATE

    def test_day_arithmetic(self):
        assert d(1998, 12, 1) - 90 == d(1998, 9, 2)


class TestSchemas:
    def test_all_eight_tables(self):
        assert sorted(TPCH_SCHEMAS) == [
            "customer", "lineitem", "nation", "orders", "part", "partsupp",
            "region", "supplier",
        ]

    def test_paper_hg_indexes(self):
        """HG indexes exactly on the columns the paper lists."""
        indexed = {
            name: schema.indexed_columns()
            for name, schema in TPCH_SCHEMAS.items()
        }
        assert indexed["orders"] == ["o_custkey"]
        assert indexed["nation"] == ["n_regionkey"]
        assert indexed["supplier"] == ["s_nationkey"]
        assert indexed["customer"] == ["c_nationkey"]
        assert sorted(indexed["partsupp"]) == ["ps_partkey", "ps_suppkey"]
        assert indexed["lineitem"] == ["l_orderkey"]
        assert indexed["region"] == []
        assert indexed["part"] == []

    def test_large_tables_partitioned(self):
        assert TPCH_SCHEMAS["lineitem"].partition_count > 1
        assert TPCH_SCHEMAS["orders"].partition_count > 1
        assert TPCH_SCHEMAS["region"].partition_count == 1

    def test_custom_partitioning(self):
        schemas = tpch_schema(partitions=8, rows_per_page=100)
        assert schemas["orders"].partition_count == 8
        assert schemas["orders"].rows_per_page == 100


class TestGenerator:
    @pytest.fixture(scope="class")
    def gen(self):
        return TpchGenerator(0.002, seed=11)

    def test_row_counts_scale(self, gen):
        assert gen.supplier_count == max(10, int(10_000 * 0.002))
        assert gen.customer_count == int(150_000 * 0.002)
        assert gen.order_count == int(1_500_000 * 0.002)

    def test_fixed_tables(self, gen):
        assert len(gen.region()) == 5
        nations = gen.nation()
        assert len(nations) == 25
        assert [name for __, (name, __) in zip(nations, NATIONS)]
        region_keys = {row[2] for row in nations}
        assert region_keys <= set(range(len(REGIONS)))

    def test_deterministic(self):
        a = TpchGenerator(0.001, seed=3).customer()
        b = TpchGenerator(0.001, seed=3).customer()
        assert a == b

    def test_seed_changes_data(self):
        a = TpchGenerator(0.001, seed=3).customer()
        b = TpchGenerator(0.001, seed=4).customer()
        assert a != b

    def test_orders_lineitems_consistency(self, gen):
        orders, lineitems = gen.orders_and_lineitems()
        order_keys = {row[0] for row in orders}
        assert all(li[0] in order_keys for li in lineitems)
        per_order = {}
        for li in lineitems:
            per_order.setdefault(li[0], []).append(li[3])
        assert all(1 <= len(lines) <= 7 for lines in per_order.values())

    def test_lineitem_date_invariants(self, gen):
        __, lineitems = gen.orders_and_lineitems()
        for li in lineitems[:2000]:
            shipdate, commitdate, receiptdate = li[10], li[11], li[12]
            assert receiptdate > shipdate
            status = li[9]
            assert status == ("F" if shipdate <= CURRENT_DATE else "O")
            flag = li[8]
            if receiptdate > CURRENT_DATE:
                assert flag == "N"
            else:
                assert flag in ("R", "A")

    def test_discount_and_tax_ranges(self, gen):
        __, lineitems = gen.orders_and_lineitems()
        for li in lineitems[:2000]:
            assert 0.0 <= li[6] <= 0.10  # discount
            assert 0.0 <= li[7] <= 0.08  # tax
            assert 1 <= li[4] <= 50      # quantity

    def test_order_status_derived_from_lines(self, gen):
        orders, lineitems = gen.orders_and_lineitems()
        lines_by_order = {}
        for li in lineitems:
            lines_by_order.setdefault(li[0], []).append(li[9])
        for order in orders[:500]:
            statuses = set(lines_by_order[order[0]])
            if statuses == {"F"}:
                assert order[2] == "F"
            elif statuses == {"O"}:
                assert order[2] == "O"
            else:
                assert order[2] == "P"

    def test_partsupp_four_suppliers_per_part(self, gen):
        ps = gen.partsupp()
        assert len(ps) == gen.part_count * 4
        per_part = {}
        for row in ps:
            per_part.setdefault(row[0], set()).add(row[1])
        assert all(len(supps) == 4 for supps in per_part.values())

    def test_comment_phrases_present(self):
        gen = TpchGenerator(0.02, seed=1)
        orders, __ = gen.orders_and_lineitems()
        assert any(
            "special" in o[7] and "requests" in o[7] for o in orders
        )

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            TpchGenerator(0)

    @pytest.mark.parametrize("scale_factor,shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
        (True, "True"), (False, "False"),
    ])
    def test_non_finite_and_bool_scale_factors_are_refused(
            self, scale_factor, shown):
        with pytest.raises(ValueError, match=f"got {shown}$"):
            TpchGenerator(scale_factor)

    @pytest.mark.parametrize("whole", [1, 2, 30])
    def test_equal_scale_factors_generate_the_same_rows(self, whole):
        as_int, as_float = TpchGenerator(whole, 7), TpchGenerator(float(whole), 7)
        assert as_int.order_count == as_float.order_count
        # region() draws its comments from the generator's own stream.
        assert as_int.region() == as_float.region()


class TestStreams:
    def test_streams_are_permutations(self):
        streams = make_streams(8)
        for stream in streams:
            assert sorted(stream) == list(range(1, 23))

    def test_streams_differ(self):
        streams = make_streams(8)
        assert len({tuple(s) for s in streams}) > 1

    def test_streams_deterministic(self):
        assert make_streams(4, seed=9) == make_streams(4, seed=9)
