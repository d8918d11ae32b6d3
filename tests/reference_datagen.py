"""The call-by-call orders/lineitem generator: the oracle for the word one.

``TpchGenerator.orders_and_lineitems`` reads the ``orders`` substream as
raw MT19937 words and applies CPython's ``randint``/``choice``/``random``
rules inline (DESIGN.md §17).  This module keeps the generator it must
reproduce: every value drawn through ``DeterministicRng`` one call at a
time.  ``tests/property/test_datagen_props.py`` requires both to return
the same rows, with the same value types and float bits.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.tpch.dates import CURRENT_DATE
from repro.tpch.datagen import (
    ORDER_DATE_MAX,
    ORDER_DATE_MIN,
    PRIORITIES,
    SHIP_INSTRUCTIONS,
    SHIP_MODES,
    TpchGenerator,
)

Rows = List[Tuple[object, ...]]


def orders_and_lineitems(gen: TpchGenerator) -> "Tuple[Rows, Rows]":
    rng = gen._rng.substream("orders")
    orders: Rows = []
    lineitems: Rows = []
    for index in range(1, gen.order_count + 1):
        # dbgen leaves gaps in the orderkey space; keep the flavour.
        orderkey = index * 4 - rng.randint(0, 2)
        custkey = rng.randint(1, gen.customer_count)
        orderdate = rng.randint(ORDER_DATE_MIN, ORDER_DATE_MAX)
        line_count = rng.randint(1, 7)
        total = 0.0
        statuses = []
        for line_no in range(1, line_count + 1):
            partkey = rng.randint(1, gen.part_count)
            suppkey = rng.randint(1, gen.supplier_count)
            quantity = float(rng.randint(1, 50))
            extended = round(quantity * gen._retail_price(partkey) / 10, 2)
            discount = rng.randint(0, 10) / 100.0
            tax = rng.randint(0, 8) / 100.0
            shipdate = orderdate + rng.randint(1, 121)
            commitdate = orderdate + rng.randint(30, 90)
            receiptdate = shipdate + rng.randint(1, 30)
            linestatus = "F" if shipdate <= CURRENT_DATE else "O"
            if receiptdate <= CURRENT_DATE:
                returnflag = rng.choice(["R", "A"])
            else:
                returnflag = "N"
            statuses.append(linestatus)
            total += extended * (1 + tax) * (1 - discount)
            lineitems.append(
                (
                    orderkey,
                    partkey,
                    suppkey,
                    line_no,
                    quantity,
                    extended,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    shipdate,
                    commitdate,
                    receiptdate,
                    rng.choice(SHIP_INSTRUCTIONS),
                    rng.choice(SHIP_MODES),
                )
            )
        if all(s == "F" for s in statuses):
            status = "F"
        elif all(s == "O" for s in statuses):
            status = "O"
        else:
            status = "P"
        orders.append(
            (
                orderkey,
                custkey,
                status,
                round(total, 2),
                orderdate,
                rng.choice(PRIORITIES),
                0,
                gen._comment(rng, special=0.01),
            )
        )
    return orders, lineitems
