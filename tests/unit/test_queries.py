"""Unit tests for the 22 TPC-H queries (shape + semantic spot checks)."""

import pytest

from repro.columnar.query import QueryContext, n_rows
from repro.tpch.datagen import TpchGenerator
from repro.tpch.dates import CURRENT_DATE, d
from repro.tpch.queries import QUERIES, run_query
from tests.conftest import lists

SF = 0.002


@pytest.fixture()
def ctx(tiny_tpch):
    database, __, __ = tiny_tpch
    context = QueryContext(database)
    yield context
    context.close()


@pytest.fixture(scope="module")
def raw():
    """The generator's raw rows, for independent recomputation."""
    return TpchGenerator(SF, seed=7).all_tables()


def test_all_queries_run_and_are_deterministic(tiny_tpch):
    database, __, __ = tiny_tpch
    for number in sorted(QUERIES):
        with QueryContext(database) as ctx:
            first = lists(run_query(ctx, number, SF))
        with QueryContext(database) as ctx:
            second = lists(run_query(ctx, number, SF))
        assert first == second, f"Q{number} not deterministic"


def test_q1_matches_direct_computation(ctx, raw):
    result = run_query(ctx, 1, SF)
    cutoff = d(1998, 12, 1) - 90
    expected = {}
    for li in raw["lineitem"]:
        if li[10] > cutoff:  # l_shipdate
            continue
        key = (li[8], li[9])
        acc = expected.setdefault(key, [0.0, 0])
        acc[0] += li[4]  # quantity
        acc[1] += 1
    got = {
        (rf, ls): (qty, cnt)
        for rf, ls, qty, cnt in zip(
            result["l_returnflag"], result["l_linestatus"],
            result["sum_qty"], result["count_order"],
        )
    }
    assert set(got) == set(expected)
    for key, (qty, cnt) in expected.items():
        assert got[key][0] == pytest.approx(qty)
        assert got[key][1] == cnt


def test_q1_sorted_by_flag_status(ctx):
    result = run_query(ctx, 1, SF)
    keys = list(zip(result["l_returnflag"], result["l_linestatus"]))
    assert keys == sorted(keys)


def test_q2_only_europe_suppliers(ctx, raw):
    result = lists(run_query(ctx, 2, SF))
    europe_nations = {
        i for i, (name, region) in enumerate(
            (row[1], row[2]) for row in raw["nation"]
        ) if region == 3
    }
    nation_names = {row[0]: row[1] for row in raw["nation"]}
    europe_names = {nation_names[i] for i in europe_nations}
    assert all(name in europe_names for name in result["n_name"])
    # Sorted by account balance, descending.
    balances = result["s_acctbal"]
    assert balances == sorted(balances, reverse=True)


def test_q3_top10_unshipped_revenue(ctx):
    result = lists(run_query(ctx, 3, SF))
    assert n_rows(result) <= 10
    revenues = result["revenue"]
    assert revenues == sorted(revenues, reverse=True)
    assert all(date < d(1995, 3, 15) for date in result["o_orderdate"])


def test_q4_priorities_complete_and_counted(ctx, raw):
    result = lists(run_query(ctx, 4, SF))
    assert result["o_orderpriority"] == sorted(result["o_orderpriority"])
    total_window_orders = sum(
        1 for o in raw["orders"]
        if d(1993, 7, 1) <= o[4] < d(1993, 10, 1)
    )
    assert sum(result["order_count"]) <= total_window_orders


def test_q5_asia_nations_only(ctx, raw):
    result = lists(run_query(ctx, 5, SF))
    asia = {row[1] for row in raw["nation"] if row[2] == 2}
    assert set(result["n_name"]) <= asia
    assert result["revenue"] == sorted(result["revenue"], reverse=True)


def test_q6_matches_direct_computation(ctx, raw):
    result = run_query(ctx, 6, SF)
    expected = sum(
        li[5] * li[6]
        for li in raw["lineitem"]
        if d(1994, 1, 1) <= li[10] < d(1995, 1, 1)
        and 0.05 <= li[6] <= 0.07
        and li[4] < 24
    )
    assert result["revenue"][0] == pytest.approx(expected)


def test_q7_nation_pairs(ctx):
    result = run_query(ctx, 7, SF)
    pairs = set(zip(result["supp_nation"], result["cust_nation"]))
    assert pairs <= {("FRANCE", "GERMANY"), ("GERMANY", "FRANCE")}
    assert all(year in (1995, 1996) for year in result["l_year"])


def test_q8_market_share_fraction(ctx):
    result = run_query(ctx, 8, SF)
    assert all(0.0 <= share <= 1.0 for share in result["mkt_share"])
    assert all(year in (1995, 1996) for year in result["o_year"])


def test_q9_profit_by_nation_year(ctx):
    result = lists(run_query(ctx, 9, SF))
    assert set(result) >= {"n_name", "o_year", "sum_profit"}
    names = result["n_name"]
    assert names == sorted(names)


def test_q10_top20_returned(ctx):
    result = lists(run_query(ctx, 10, SF))
    assert n_rows(result) <= 20
    assert result["revenue"] == sorted(result["revenue"], reverse=True)


def test_q11_values_above_threshold(ctx):
    result = lists(run_query(ctx, 11, SF))
    values = result["value"]
    assert values == sorted(values, reverse=True)


def test_q12_high_low_partition(ctx, raw):
    result = run_query(ctx, 12, SF)
    assert set(result["l_shipmode"]) <= {"MAIL", "SHIP"}
    for high, low in zip(result["high_line_count"],
                         result["low_line_count"]):
        assert high >= 0 and low >= 0


def test_q13_distribution_matches_direct_computation(ctx, raw):
    result = run_query(ctx, 13, SF)
    assert sum(result["custdist"]) == len(raw["customer"])
    per_customer = {row[0]: 0 for row in raw["customer"]}
    for order in raw["orders"]:
        comment = order[7]
        if "special" in comment and "requests" in comment.split("special", 1)[1]:
            continue
        per_customer[order[1]] += 1
    expected = {}
    for count in per_customer.values():
        expected[count] = expected.get(count, 0) + 1
    got = dict(zip(result["c_count"], result["custdist"]))
    assert got == expected


def test_q14_promo_percentage(ctx):
    result = run_query(ctx, 14, SF)
    assert 0.0 <= result["promo_revenue"][0] <= 100.0


def test_q15_top_supplier_is_argmax(ctx):
    result = run_query(ctx, 15, SF)
    assert n_rows(result) >= 1
    assert len(set(result["total_revenue"])) == 1  # all tie at the max


def test_q16_supplier_counts_positive(ctx):
    result = lists(run_query(ctx, 16, SF))
    assert all(count >= 1 for count in result["supplier_cnt"])
    assert all(brand != "Brand#45" for brand in result["p_brand"])
    counts = result["supplier_cnt"]
    assert counts == sorted(counts, reverse=True)


def test_q17_scalar(ctx):
    result = run_query(ctx, 17, SF)
    assert n_rows(result) == 1
    assert result["avg_yearly"][0] >= 0.0


def test_q18_all_orders_over_300(ctx):
    result = run_query(ctx, 18, SF)
    assert all(qty > 300 for qty in result["sum_qty"])
    assert n_rows(result) <= 100


def test_q19_scalar_revenue(ctx):
    result = run_query(ctx, 19, SF)
    assert n_rows(result) == 1
    assert result["revenue"][0] >= 0.0


def test_q20_supplier_names_sorted(ctx):
    result = lists(run_query(ctx, 20, SF))
    assert result["s_name"] == sorted(result["s_name"])


def test_q21_waits_counted(ctx):
    result = lists(run_query(ctx, 21, SF))
    assert all(count >= 1 for count in result["numwait"])
    assert result["numwait"] == sorted(result["numwait"], reverse=True)


def test_q22_country_codes(ctx):
    result = run_query(ctx, 22, SF)
    allowed = {"13", "31", "23", "29", "30", "18", "17"}
    assert set(result["cntrycode"]) <= allowed
    assert all(count >= 1 for count in result["numcust"])
    assert all(total > 0 for total in result["totacctbal"])


def test_unknown_query_number(ctx):
    with pytest.raises(KeyError):
        run_query(ctx, 23, SF)
