"""The 22 TPC-H benchmark queries over the columnar executor.

Each query is a function ``q<N>(ctx, sf)`` taking a
:class:`~repro.columnar.query.QueryContext` and the scale factor (a few
queries' constants are SF-relative per the spec).  Queries use the spec's
validation parameters and return relations; the storage access patterns
(columns touched, zone-map-prunable predicates, HG-index joins) follow the
official SQL.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.columnar.exec import (
    concat,
    distinct,
    extend,
    filter_rows,
    group_by,
    hash_join,
    order_by,
    select,
)
from repro.columnar.query import QueryContext, Relation, n_rows
from repro.columnar.vec import to_list
from repro.tpch.dates import d, year_of


def _revenue(ctx: QueryContext, rel: Relation, name: str = "revenue") -> Relation:
    return extend(
        ctx, rel, name,
        lambda price, discount: price * (1.0 - discount),
        ["l_extendedprice", "l_discount"],
    )


def _nation_of_region(ctx: QueryContext, region_name: str) -> Relation:
    region = ctx.read(
        "region", ["r_regionkey"], {"r_name": lambda v: v == region_name}
    )
    nation = ctx.read("nation", ["n_nationkey", "n_name", "n_regionkey"])
    return hash_join(
        ctx, nation, region, ["n_regionkey"], ["r_regionkey"], semi=True
    )


def q1(ctx: QueryContext, sf: float) -> Relation:
    """Pricing summary report."""
    cutoff = d(1998, 12, 1) - 90
    li = ctx.read(
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"],
        {"l_shipdate": (None, cutoff)},
    )
    li = _revenue(ctx, li, "disc_price")
    li = extend(ctx, li, "charge",
                lambda p, t: p * (1.0 + t), ["disc_price", "l_tax"])
    agg = group_by(
        ctx, li, ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum", "l_quantity"),
            "sum_base_price": ("sum", "l_extendedprice"),
            "sum_disc_price": ("sum", "disc_price"),
            "sum_charge": ("sum", "charge"),
            "avg_qty": ("avg", "l_quantity"),
            "avg_price": ("avg", "l_extendedprice"),
            "avg_disc": ("avg", "l_discount"),
            "count_order": ("count", None),
        },
    )
    return order_by(ctx, agg,
                    [("l_returnflag", False), ("l_linestatus", False)])


def q2(ctx: QueryContext, sf: float) -> Relation:
    """Minimum cost supplier (EUROPE, size 15, *BRASS)."""
    nation = _nation_of_region(ctx, "EUROPE")
    supplier = ctx.read(
        "supplier",
        ["s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone",
         "s_acctbal", "s_comment"],
    )
    supplier = hash_join(ctx, supplier, nation,
                         ["s_nationkey"], ["n_nationkey"])
    part = ctx.read(
        "part", ["p_partkey", "p_mfgr"],
        {"p_size": (15, 15), "p_type": lambda t: t.endswith("BRASS")},
    )
    ps = ctx.read("partsupp", ["ps_partkey", "ps_suppkey", "ps_supplycost"])
    ps = hash_join(ctx, ps, part, ["ps_partkey"], ["p_partkey"])
    ps = hash_join(ctx, ps, supplier, ["ps_suppkey"], ["s_suppkey"])
    mins = group_by(ctx, ps, ["ps_partkey"],
                    {"min_cost": ("min", "ps_supplycost")})
    ps = hash_join(ctx, ps, mins, ["ps_partkey"], ["ps_partkey"])
    ps = filter_rows(ctx, ps, lambda cost, m: cost == m,
                     ["ps_supplycost", "min_cost"])
    out = select(ps, ["s_acctbal", "s_name", "n_name", "ps_partkey",
                      "p_mfgr", "s_address", "s_phone", "s_comment"])
    return order_by(
        ctx, out,
        [("s_acctbal", True), ("n_name", False), ("s_name", False),
         ("ps_partkey", False)],
        limit=100,
    )


def q3(ctx: QueryContext, sf: float) -> Relation:
    """Shipping priority (BUILDING segment)."""
    pivot = d(1995, 3, 15)
    cust = ctx.read("customer", ["c_custkey"],
                    {"c_mktsegment": lambda v: v == "BUILDING"})
    orders = ctx.read(
        "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        {"o_orderdate": (None, pivot - 1)},
    )
    orders = hash_join(ctx, orders, cust, ["o_custkey"], ["c_custkey"],
                       semi=True)
    li = ctx.read(
        "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"],
        {"l_shipdate": (pivot + 1, None)},
    )
    joined = hash_join(ctx, li, orders, ["l_orderkey"], ["o_orderkey"])
    joined = _revenue(ctx, joined)
    agg = group_by(
        ctx, joined, ["l_orderkey", "o_orderdate", "o_shippriority"],
        {"revenue": ("sum", "revenue")},
    )
    return order_by(ctx, agg,
                    [("revenue", True), ("o_orderdate", False)], limit=10)


def q4(ctx: QueryContext, sf: float) -> Relation:
    """Order priority checking (1993-Q3, late lines exist)."""
    lo, hi = d(1993, 7, 1), d(1993, 10, 1) - 1
    orders = ctx.read("orders", ["o_orderkey", "o_orderpriority"],
                      {"o_orderdate": (lo, hi)})
    li = ctx.read("lineitem",
                  ["l_orderkey", "l_commitdate", "l_receiptdate"])
    li = filter_rows(ctx, li, lambda c, r: c < r,
                     ["l_commitdate", "l_receiptdate"])
    orders = hash_join(ctx, orders, li, ["o_orderkey"], ["l_orderkey"],
                       semi=True)
    agg = group_by(ctx, orders, ["o_orderpriority"],
                   {"order_count": ("count", None)})
    return order_by(ctx, agg, [("o_orderpriority", False)])


def q5(ctx: QueryContext, sf: float) -> Relation:
    """Local supplier volume (ASIA, 1994)."""
    nation = _nation_of_region(ctx, "ASIA")
    orders = ctx.read("orders", ["o_orderkey", "o_custkey"],
                      {"o_orderdate": (d(1994, 1, 1), d(1995, 1, 1) - 1)})
    cust = ctx.read("customer", ["c_custkey", "c_nationkey"])
    orders = hash_join(ctx, orders, cust, ["o_custkey"], ["c_custkey"])
    li = ctx.read("lineitem",
                  ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    li = hash_join(ctx, li, orders, ["l_orderkey"], ["o_orderkey"])
    supp = ctx.read("supplier", ["s_suppkey", "s_nationkey"])
    li = hash_join(ctx, li, supp, ["l_suppkey"], ["s_suppkey"])
    li = filter_rows(ctx, li, lambda c, s: c == s,
                     ["c_nationkey", "s_nationkey"])
    li = hash_join(ctx, li, nation, ["s_nationkey"], ["n_nationkey"])
    li = _revenue(ctx, li)
    agg = group_by(ctx, li, ["n_name"], {"revenue": ("sum", "revenue")})
    return order_by(ctx, agg, [("revenue", True)])


def q6(ctx: QueryContext, sf: float) -> Relation:
    """Forecasting revenue change (tight scan: zone maps shine)."""
    li = ctx.read(
        "lineitem", ["l_extendedprice", "l_discount"],
        {
            "l_shipdate": (d(1994, 1, 1), d(1995, 1, 1) - 1),
            "l_discount": (0.05, 0.07),
            "l_quantity": (None, 23.999),
        },
    )
    li = extend(ctx, li, "revenue",
                lambda p, dc: p * dc, ["l_extendedprice", "l_discount"])
    return group_by(ctx, li, [], {"revenue": ("sum", "revenue")})


def q7(ctx: QueryContext, sf: float) -> Relation:
    """Volume shipping between FRANCE and GERMANY, 1995-1996."""
    nation = ctx.read("nation", ["n_nationkey", "n_name"],
                      {"n_name": lambda v: v in ("FRANCE", "GERMANY")})
    li = ctx.read(
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
         "l_shipdate"],
        {"l_shipdate": (d(1995, 1, 1), d(1996, 12, 31))},
    )
    supp = ctx.read("supplier", ["s_suppkey", "s_nationkey"])
    li = hash_join(ctx, li, supp, ["l_suppkey"], ["s_suppkey"])
    li = hash_join(ctx, li, nation, ["s_nationkey"], ["n_nationkey"])
    li = extend(ctx, li, "supp_nation", lambda n: n, ["n_name"])
    orders = ctx.read("orders", ["o_orderkey", "o_custkey"])
    cust = ctx.read("customer", ["c_custkey", "c_nationkey"])
    orders = hash_join(ctx, orders, cust, ["o_custkey"], ["c_custkey"])
    cust_nation = ctx.read("nation", ["n_nationkey", "n_name"],
                           {"n_name": lambda v: v in ("FRANCE", "GERMANY")})
    cust_nation = extend(ctx, cust_nation, "cust_nation",
                         lambda n: n, ["n_name"])
    orders = hash_join(ctx, orders, select(cust_nation,
                                           ["n_nationkey", "cust_nation"]),
                       ["c_nationkey"], ["n_nationkey"])
    li = hash_join(ctx, li, select(orders, ["o_orderkey", "cust_nation"]),
                   ["l_orderkey"], ["o_orderkey"])
    li = filter_rows(
        ctx, li,
        lambda s, c: (s, c) in (("FRANCE", "GERMANY"), ("GERMANY", "FRANCE")),
        ["supp_nation", "cust_nation"],
    )
    li = _revenue(ctx, li, "volume")
    li = extend(ctx, li, "l_year", year_of, ["l_shipdate"])
    agg = group_by(ctx, li, ["supp_nation", "cust_nation", "l_year"],
                   {"revenue": ("sum", "volume")})
    return order_by(ctx, agg, [("supp_nation", False),
                               ("cust_nation", False), ("l_year", False)])


def q8(ctx: QueryContext, sf: float) -> Relation:
    """National market share (BRAZIL in AMERICA, ECONOMY ANODIZED STEEL)."""
    nation = _nation_of_region(ctx, "AMERICA")
    part = ctx.read("part", ["p_partkey"],
                    {"p_type": lambda t: t == "ECONOMY ANODIZED STEEL"})
    li = ctx.read(
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
         "l_discount"],
    )
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"], semi=True)
    orders = ctx.read("orders", ["o_orderkey", "o_custkey", "o_orderdate"],
                      {"o_orderdate": (d(1995, 1, 1), d(1996, 12, 31))})
    cust = ctx.read("customer", ["c_custkey", "c_nationkey"])
    orders = hash_join(ctx, orders, cust, ["o_custkey"], ["c_custkey"])
    orders = hash_join(ctx, orders, nation, ["c_nationkey"], ["n_nationkey"],
                       semi=True)
    li = hash_join(ctx, li, select(orders, ["o_orderkey", "o_orderdate"]),
                   ["l_orderkey"], ["o_orderkey"])
    supp = ctx.read("supplier", ["s_suppkey", "s_nationkey"])
    all_nations = ctx.read("nation", ["n_nationkey", "n_name"])
    supp = hash_join(ctx, supp, all_nations, ["s_nationkey"], ["n_nationkey"])
    li = hash_join(ctx, li, select(supp, ["s_suppkey", "n_name"]),
                   ["l_suppkey"], ["s_suppkey"])
    li = _revenue(ctx, li, "volume")
    li = extend(ctx, li, "o_year", year_of, ["o_orderdate"])
    li = extend(ctx, li, "brazil_volume",
                lambda v, n: v if n == "BRAZIL" else 0.0,
                ["volume", "n_name"])
    agg = group_by(ctx, li, ["o_year"],
                   {"total": ("sum", "volume"),
                    "brazil": ("sum", "brazil_volume")})
    agg = extend(ctx, agg, "mkt_share",
                 lambda b, t: (b / t) if t else 0.0, ["brazil", "total"])
    return order_by(ctx, select(agg, ["o_year", "mkt_share"]),
                    [("o_year", False)])


def q9(ctx: QueryContext, sf: float) -> Relation:
    """Product type profit ('%green%' parts) by nation and year."""
    part = ctx.read("part", ["p_partkey"],
                    {"p_name": lambda nm: "green" in nm})
    li = ctx.read(
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    )
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"], semi=True)
    ps = ctx.read("partsupp", ["ps_partkey", "ps_suppkey", "ps_supplycost"])
    li = hash_join(ctx, li, ps, ["l_partkey", "l_suppkey"],
                   ["ps_partkey", "ps_suppkey"])
    supp = ctx.read("supplier", ["s_suppkey", "s_nationkey"])
    nations = ctx.read("nation", ["n_nationkey", "n_name"])
    supp = hash_join(ctx, supp, nations, ["s_nationkey"], ["n_nationkey"])
    li = hash_join(ctx, li, select(supp, ["s_suppkey", "n_name"]),
                   ["l_suppkey"], ["s_suppkey"])
    orders = ctx.read("orders", ["o_orderkey", "o_orderdate"])
    li = hash_join(ctx, li, orders, ["l_orderkey"], ["o_orderkey"])
    li = extend(ctx, li, "o_year", year_of, ["o_orderdate"])
    li = extend(
        ctx, li, "amount",
        lambda price, disc, cost, qty: price * (1 - disc) - cost * qty,
        ["l_extendedprice", "l_discount", "ps_supplycost", "l_quantity"],
    )
    agg = group_by(ctx, li, ["n_name", "o_year"],
                   {"sum_profit": ("sum", "amount")})
    return order_by(ctx, agg, [("n_name", False), ("o_year", True)])


def q10(ctx: QueryContext, sf: float) -> Relation:
    """Returned item reporting (1993-Q4, flag R); top 20 customers."""
    orders = ctx.read("orders", ["o_orderkey", "o_custkey"],
                      {"o_orderdate": (d(1993, 10, 1), d(1994, 1, 1) - 1)})
    li = ctx.read(
        "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"],
        {"l_returnflag": lambda v: v == "R"},
    )
    li = hash_join(ctx, li, orders, ["l_orderkey"], ["o_orderkey"])
    cust = ctx.read(
        "customer",
        ["c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey",
         "c_address", "c_comment"],
    )
    li = hash_join(ctx, li, cust, ["o_custkey"], ["c_custkey"])
    nations = ctx.read("nation", ["n_nationkey", "n_name"])
    li = hash_join(ctx, li, nations, ["c_nationkey"], ["n_nationkey"])
    li = _revenue(ctx, li)
    agg = group_by(
        ctx, li,
        ["o_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
         "c_address", "c_comment"],
        {"revenue": ("sum", "revenue")},
    )
    return order_by(ctx, agg, [("revenue", True)], limit=20)


def q11(ctx: QueryContext, sf: float) -> Relation:
    """Important stock identification (GERMANY)."""
    nation = ctx.read("nation", ["n_nationkey"],
                      {"n_name": lambda v: v == "GERMANY"})
    supp = ctx.read("supplier", ["s_suppkey", "s_nationkey"])
    supp = hash_join(ctx, supp, nation, ["s_nationkey"], ["n_nationkey"],
                     semi=True)
    ps = ctx.read("partsupp",
                  ["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"])
    ps = hash_join(ctx, ps, supp, ["ps_suppkey"], ["s_suppkey"], semi=True)
    ps = extend(ctx, ps, "value",
                lambda cost, qty: cost * qty,
                ["ps_supplycost", "ps_availqty"])
    total = group_by(ctx, ps, [], {"total": ("sum", "value")})
    threshold = (total["total"][0] if n_rows(total) else 0.0) * (
        0.0001 / max(sf, 1e-9) if sf < 1 else 0.0001 / sf
    )
    agg = group_by(ctx, ps, ["ps_partkey"], {"value": ("sum", "value")})
    agg = filter_rows(ctx, agg, lambda v: v > threshold, ["value"])
    return order_by(ctx, agg, [("value", True)])


def q12(ctx: QueryContext, sf: float) -> Relation:
    """Shipping modes and order priority (MAIL/SHIP, 1994)."""
    li = ctx.read(
        "lineitem",
        ["l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate",
         "l_receiptdate"],
        {
            "l_receiptdate": (d(1994, 1, 1), d(1995, 1, 1) - 1),
            "l_shipmode": lambda v: v in ("MAIL", "SHIP"),
        },
    )
    li = filter_rows(
        ctx, li,
        lambda ship, commit, receipt: ship < commit < receipt,
        ["l_shipdate", "l_commitdate", "l_receiptdate"],
    )
    orders = ctx.read("orders", ["o_orderkey", "o_orderpriority"])
    li = hash_join(ctx, li, orders, ["l_orderkey"], ["o_orderkey"])
    li = extend(
        ctx, li, "high",
        lambda p: 1 if p in ("1-URGENT", "2-HIGH") else 0,
        ["o_orderpriority"],
    )
    li = extend(ctx, li, "low", lambda h: 1 - h, ["high"])
    agg = group_by(ctx, li, ["l_shipmode"],
                   {"high_line_count": ("sum", "high"),
                    "low_line_count": ("sum", "low")})
    return order_by(ctx, agg, [("l_shipmode", False)])


def q13(ctx: QueryContext, sf: float) -> Relation:
    """Customer order-count distribution (excluding special requests)."""
    orders = ctx.read(
        "orders", ["o_custkey"],
        {"o_comment": lambda c: not ("special" in c and
                                     "requests" in c.split("special", 1)[1])},
    )
    counts = group_by(ctx, orders, ["o_custkey"],
                      {"c_count": ("count", None)})
    cust = ctx.read("customer", ["c_custkey"])
    with_orders = hash_join(ctx, cust, counts, ["c_custkey"], ["o_custkey"])
    without = hash_join(ctx, cust, counts, ["c_custkey"], ["o_custkey"],
                        anti=True)
    without = extend(ctx, without, "c_count", lambda __: 0, ["c_custkey"])
    all_counts = concat(select(with_orders, ["c_custkey", "c_count"]),
                        select(without, ["c_custkey", "c_count"]))
    dist = group_by(ctx, all_counts, ["c_count"],
                    {"custdist": ("count", None)})
    return order_by(ctx, dist, [("custdist", True), ("c_count", True)])


def q14(ctx: QueryContext, sf: float) -> Relation:
    """Promotion effect (September 1995)."""
    li = ctx.read(
        "lineitem", ["l_partkey", "l_extendedprice", "l_discount"],
        {"l_shipdate": (d(1995, 9, 1), d(1995, 10, 1) - 1)},
    )
    part = ctx.read("part", ["p_partkey", "p_type"])
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"])
    li = _revenue(ctx, li)
    li = extend(ctx, li, "promo",
                lambda rev, t: rev if t.startswith("PROMO") else 0.0,
                ["revenue", "p_type"])
    agg = group_by(ctx, li, [], {"promo": ("sum", "promo"),
                                 "total": ("sum", "revenue")})
    return extend(ctx, agg, "promo_revenue",
                  lambda p, t: (100.0 * p / t) if t else 0.0,
                  ["promo", "total"])


def q15(ctx: QueryContext, sf: float) -> Relation:
    """Top supplier (1996-Q1)."""
    li = ctx.read(
        "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"],
        {"l_shipdate": (d(1996, 1, 1), d(1996, 4, 1) - 1)},
    )
    li = _revenue(ctx, li, "total_revenue")
    revenue = group_by(ctx, li, ["l_suppkey"],
                       {"total_revenue": ("sum", "total_revenue")})
    best = max(revenue["total_revenue"]) if n_rows(revenue) else 0.0
    top = filter_rows(ctx, revenue, lambda r: r == best, ["total_revenue"])
    supp = ctx.read("supplier", ["s_suppkey", "s_name", "s_address", "s_phone"])
    out = hash_join(ctx, supp, top, ["s_suppkey"], ["l_suppkey"])
    return order_by(ctx, out, [("s_suppkey", False)])


def q16(ctx: QueryContext, sf: float) -> Relation:
    """Parts/supplier relationship (excluding complaints)."""
    part = ctx.read(
        "part", ["p_partkey", "p_brand", "p_type", "p_size"],
        {
            "p_brand": lambda b: b != "Brand#45",
            "p_type": lambda t: not t.startswith("MEDIUM POLISHED"),
            "p_size": lambda s: s in (49, 14, 23, 45, 19, 3, 36, 9),
        },
    )
    ps = ctx.read("partsupp", ["ps_partkey", "ps_suppkey"])
    ps = hash_join(ctx, ps, part, ["ps_partkey"], ["p_partkey"])
    complainers = ctx.read(
        "supplier", ["s_suppkey"],
        {"s_comment": lambda c: "Customer" in c and
         "Complaints" in c.split("Customer", 1)[1]},
    )
    ps = hash_join(ctx, ps, complainers, ["ps_suppkey"], ["s_suppkey"],
                   anti=True)
    pairs = distinct(ctx, ps, ["p_brand", "p_type", "p_size", "ps_suppkey"])
    agg = group_by(ctx, pairs, ["p_brand", "p_type", "p_size"],
                   {"supplier_cnt": ("count", None)})
    return order_by(
        ctx, agg,
        [("supplier_cnt", True), ("p_brand", False), ("p_type", False),
         ("p_size", False)],
    )


def q17(ctx: QueryContext, sf: float) -> Relation:
    """Small-quantity-order revenue (Brand#23, MED BOX)."""
    part = ctx.read(
        "part", ["p_partkey"],
        {"p_brand": lambda b: b == "Brand#23",
         "p_container": lambda c: c == "MED BOX"},
    )
    li = ctx.read("lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"], semi=True)
    avg_qty = group_by(ctx, li, ["l_partkey"], {"avg_qty": ("avg", "l_quantity")})
    li = hash_join(ctx, li, avg_qty, ["l_partkey"], ["l_partkey"])
    li = filter_rows(ctx, li, lambda q, a: q < 0.2 * a,
                     ["l_quantity", "avg_qty"])
    agg = group_by(ctx, li, [], {"total": ("sum", "l_extendedprice")})
    return extend(ctx, agg, "avg_yearly", lambda t: t / 7.0, ["total"])


def q18(ctx: QueryContext, sf: float) -> Relation:
    """Large volume customers (sum qty > 300)."""
    li = ctx.read("lineitem", ["l_orderkey", "l_quantity"])
    per_order = group_by(ctx, li, ["l_orderkey"],
                         {"sum_qty": ("sum", "l_quantity")})
    big = filter_rows(ctx, per_order, lambda q: q > 300.0, ["sum_qty"])
    orders = ctx.read("orders",
                      ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    big = hash_join(ctx, orders, big, ["o_orderkey"], ["l_orderkey"])
    cust = ctx.read("customer", ["c_custkey", "c_name"])
    big = hash_join(ctx, big, cust, ["o_custkey"], ["c_custkey"])
    return order_by(
        ctx,
        select(big, ["c_name", "o_custkey", "o_orderkey", "o_orderdate",
                     "o_totalprice", "sum_qty"]),
        [("o_totalprice", True), ("o_orderdate", False)],
        limit=100,
    )


def q19(ctx: QueryContext, sf: float) -> Relation:
    """Discounted revenue (three brand/container/quantity disjuncts)."""
    li = ctx.read(
        "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        {
            "l_shipmode": lambda m: m in ("AIR", "REG AIR"),
            "l_shipinstruct": lambda i: i == "DELIVER IN PERSON",
        },
    )
    part = ctx.read("part",
                    ["p_partkey", "p_brand", "p_container", "p_size"])
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"])

    def qualifies(brand, container, size, qty):
        if (brand == "Brand#12"
                and container in ("SM CASE", "SM BOX", "SM PACK", "SM PKG")
                and 1 <= qty <= 11 and 1 <= size <= 5):
            return True
        if (brand == "Brand#23"
                and container in ("MED BAG", "MED BOX", "MED PKG", "MED PACK")
                and 10 <= qty <= 20 and 1 <= size <= 10):
            return True
        if (brand == "Brand#34"
                and container in ("LG CASE", "LG BOX", "LG PACK", "LG PKG")
                and 20 <= qty <= 30 and 1 <= size <= 15):
            return True
        return False

    li = filter_rows(ctx, li, qualifies,
                     ["p_brand", "p_container", "p_size", "l_quantity"])
    li = _revenue(ctx, li)
    return group_by(ctx, li, [], {"revenue": ("sum", "revenue")})


def q20(ctx: QueryContext, sf: float) -> Relation:
    """Potential part promotion (CANADA, forest* parts, 1994)."""
    part = ctx.read("part", ["p_partkey"],
                    {"p_name": lambda nm: nm.startswith("forest")})
    li = ctx.read(
        "lineitem", ["l_partkey", "l_suppkey", "l_quantity"],
        {"l_shipdate": (d(1994, 1, 1), d(1995, 1, 1) - 1)},
    )
    li = hash_join(ctx, li, part, ["l_partkey"], ["p_partkey"], semi=True)
    shipped = group_by(ctx, li, ["l_partkey", "l_suppkey"],
                       {"qty": ("sum", "l_quantity")})
    ps = ctx.read("partsupp", ["ps_partkey", "ps_suppkey", "ps_availqty"])
    ps = hash_join(ctx, ps, shipped, ["ps_partkey", "ps_suppkey"],
                   ["l_partkey", "l_suppkey"])
    ps = filter_rows(ctx, ps, lambda avail, qty: avail > 0.5 * qty,
                     ["ps_availqty", "qty"])
    nation = ctx.read("nation", ["n_nationkey"],
                      {"n_name": lambda v: v == "CANADA"})
    supp = ctx.read("supplier", ["s_suppkey", "s_name", "s_address",
                                 "s_nationkey"])
    supp = hash_join(ctx, supp, nation, ["s_nationkey"], ["n_nationkey"],
                     semi=True)
    supp = hash_join(ctx, supp, ps, ["s_suppkey"], ["ps_suppkey"], semi=True)
    return order_by(ctx, select(supp, ["s_name", "s_address"]),
                    [("s_name", False)])


def q21(ctx: QueryContext, sf: float) -> Relation:
    """Suppliers who kept orders waiting (SAUDI ARABIA)."""
    nation = ctx.read("nation", ["n_nationkey"],
                      {"n_name": lambda v: v == "SAUDI ARABIA"})
    supp = ctx.read("supplier", ["s_suppkey", "s_name", "s_nationkey"])
    supp = hash_join(ctx, supp, nation, ["s_nationkey"], ["n_nationkey"],
                     semi=True)
    orders = ctx.read("orders", ["o_orderkey"],
                      {"o_orderstatus": lambda v: v == "F"})
    f_orders = set(orders["o_orderkey"])
    li = ctx.read("lineitem",
                  ["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"])
    ctx.cpu.charge(3.0 * n_rows(li))
    suppliers_by_order: "Dict[object, set]" = {}
    late_by_order: "Dict[object, set]" = {}
    # to_list: iterate python scalars, not numpy columns (boxing
    # per-element numpy scalars in this loop costs more than the
    # one-time conversion).
    for okey, skey, commit, receipt in zip(
        to_list(li["l_orderkey"]), to_list(li["l_suppkey"]),
        to_list(li["l_commitdate"]), to_list(li["l_receiptdate"]),
    ):
        suppliers_by_order.setdefault(okey, set()).add(skey)
        if receipt > commit:
            late_by_order.setdefault(okey, set()).add(skey)
    saudi = set(supp["s_suppkey"])
    names = dict(zip(supp["s_suppkey"], supp["s_name"]))
    counts: "Dict[str, int]" = {}
    for okey, late in late_by_order.items():
        if okey not in f_orders:
            continue
        if len(late) != 1:
            continue  # some other supplier was late too
        (only_late,) = late
        if only_late not in saudi:
            continue
        if len(suppliers_by_order[okey]) < 2:
            continue  # needs another supplier on the order
        counts[names[only_late]] = counts.get(names[only_late], 0) + 1
    out: Relation = {
        "s_name": list(counts.keys()),
        "numwait": list(counts.values()),
    }
    return order_by(ctx, out, [("numwait", True), ("s_name", False)],
                    limit=100)


def q22(ctx: QueryContext, sf: float) -> Relation:
    """Global sales opportunity (dormant wealthy customers)."""
    codes = ("13", "31", "23", "29", "30", "18", "17")
    cust = ctx.read("customer", ["c_custkey", "c_phone", "c_acctbal"])
    cust = extend(ctx, cust, "cntrycode", lambda p: p[:2], ["c_phone"])
    cust = filter_rows(ctx, cust, lambda c: c in codes, ["cntrycode"])
    positive = filter_rows(ctx, cust, lambda b: b > 0.0, ["c_acctbal"])
    avg = group_by(ctx, positive, [], {"avg_bal": ("avg", "c_acctbal")})
    threshold = avg["avg_bal"][0] if n_rows(avg) else 0.0
    rich = filter_rows(ctx, cust, lambda b: b > threshold, ["c_acctbal"])
    orders = ctx.read("orders", ["o_custkey"])
    rich = hash_join(ctx, rich, orders, ["c_custkey"], ["o_custkey"],
                     anti=True)
    agg = group_by(ctx, rich, ["cntrycode"],
                   {"numcust": ("count", None),
                    "totacctbal": ("sum", "c_acctbal")})
    return order_by(ctx, agg, [("cntrycode", False)])


QUERIES: "Dict[int, Callable[[QueryContext, float], Relation]]" = {
    1: q1, 2: q2, 3: q3, 4: q4, 5: q5, 6: q6, 7: q7, 8: q8, 9: q9, 10: q10,
    11: q11, 12: q12, 13: q13, 14: q14, 15: q15, 16: q16, 17: q17, 18: q18,
    19: q19, 20: q20, 21: q21, 22: q22,
}


def run_query(ctx: QueryContext, number: int, sf: float = 0.01) -> Relation:
    """Execute TPC-H query ``number`` in the given context."""
    try:
        query = QUERIES[number]
    except KeyError:
        raise KeyError(f"TPC-H has queries 1-22, not {number}") from None
    return query(ctx, sf)
