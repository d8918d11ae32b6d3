"""Deterministic TPC-H data generator (a laptop-scale dbgen).

Row counts scale with the scale factor exactly as in the spec (supplier
10k/SF, part 200k/SF, customer 150k/SF, orders 1.5M/SF, 1-7 lineitems per
order); value distributions follow the spec where they affect query
behaviour (dates, prices, discounts, flags, segments, priorities, brands,
types, containers, nations/regions) and are simplified where only text
cosmetics differ (comments are word salads seeded with the phrases Q13 and
Q16 grep for).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.sim.rng import DeterministicRng
from repro.tpch.dates import CURRENT_DATE, d

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# nation -> region index, in nationkey order (the spec's 25 nations).
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
]
CONTAINERS_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINERS_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
TYPES_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPES_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPES_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
NAME_WORDS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
    "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory",
    "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
]
COMMENT_WORDS = [
    "carefully", "quickly", "furiously", "deposits", "packages", "accounts",
    "instructions", "foxes", "ideas", "theodolites", "pinto", "beans",
    "requests", "platelets", "excuses", "asymptotes", "somas", "dolphins",
]

ORDER_DATE_MIN = d(1992, 1, 1)
ORDER_DATE_MAX = d(1998, 8, 2)


def check_scale_factor(scale_factor: float) -> None:
    """Refuse a scale factor that is not a positive, finite number."""
    if isinstance(scale_factor, bool) or not 0 < scale_factor < math.inf:
        raise ValueError("scale factor must be positive and finite, "
                         f"got {scale_factor!r}")


class TpchGenerator:
    """Generates TPC-H tables deterministically for a scale factor."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 7) -> None:
        check_scale_factor(scale_factor)
        self.scale_factor = scale_factor
        # Named by value, so that 1 and 1.0 generate the same rows.
        self._rng = DeterministicRng(seed, f"tpch/{float(scale_factor)}")
        self.supplier_count = max(10, int(10_000 * scale_factor))
        self.part_count = max(20, int(200_000 * scale_factor))
        self.customer_count = max(30, int(150_000 * scale_factor))
        self.order_count = max(100, int(1_500_000 * scale_factor))

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _comment(self, rng: DeterministicRng, special: float = 0.0) -> str:
        words = [rng.choice(COMMENT_WORDS) for __ in range(rng.randint(3, 6))]
        if special and rng.random() < special:
            # Q13 greps for '%special%requests%'.
            words.insert(rng.randint(0, len(words)), "special")
            words.append("requests")
        return " ".join(words)

    def _supplier_comment(self, rng: DeterministicRng) -> str:
        words = [rng.choice(COMMENT_WORDS) for __ in range(rng.randint(3, 6))]
        if rng.random() < 0.005:
            # Q16 greps for '%Customer%Complaints%'.
            words.append("Customer")
            words.append("Complaints")
        return " ".join(words)

    @staticmethod
    def _phone(rng: DeterministicRng, nationkey: int) -> str:
        return (
            f"{10 + nationkey}-{rng.randint(100, 999)}-"
            f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
        )

    @staticmethod
    def _retail_price(partkey: int) -> float:
        return (90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)) / 100.0

    # ------------------------------------------------------------------ #
    # tables (tuples in schema column order)
    # ------------------------------------------------------------------ #

    def region(self) -> "List[Tuple[object, ...]]":
        rng = self._rng.substream("region")
        return [
            (i, name, self._comment(rng)) for i, name in enumerate(REGIONS)
        ]

    def nation(self) -> "List[Tuple[object, ...]]":
        return [
            (i, name, region) for i, (name, region) in enumerate(NATIONS)
        ]

    def supplier(self) -> "List[Tuple[object, ...]]":
        rng = self._rng.substream("supplier")
        rows = []
        for suppkey in range(1, self.supplier_count + 1):
            nationkey = rng.randint(0, 24)
            rows.append(
                (
                    suppkey,
                    f"Supplier#{suppkey:09d}",
                    f"addr-{rng.randint(1, 10 ** 6)}",
                    nationkey,
                    self._phone(rng, nationkey),
                    round(rng.uniform(-999.99, 9999.99), 2),
                    self._supplier_comment(rng),
                )
            )
        return rows

    def customer(self) -> "List[Tuple[object, ...]]":
        rng = self._rng.substream("customer")
        rows = []
        for custkey in range(1, self.customer_count + 1):
            nationkey = rng.randint(0, 24)
            rows.append(
                (
                    custkey,
                    f"Customer#{custkey:09d}",
                    f"addr-{rng.randint(1, 10 ** 6)}",
                    nationkey,
                    self._phone(rng, nationkey),
                    round(rng.uniform(-999.99, 9999.99), 2),
                    rng.choice(SEGMENTS),
                    self._comment(rng, special=0.01),
                )
            )
        return rows

    def part(self) -> "List[Tuple[object, ...]]":
        rng = self._rng.substream("part")
        rows = []
        for partkey in range(1, self.part_count + 1):
            name = " ".join(rng.sample(NAME_WORDS, 5))
            mfgr = f"Manufacturer#{rng.randint(1, 5)}"
            brand = f"Brand#{mfgr[-1]}{rng.randint(1, 5)}"
            p_type = (
                f"{rng.choice(TYPES_1)} {rng.choice(TYPES_2)} "
                f"{rng.choice(TYPES_3)}"
            )
            container = f"{rng.choice(CONTAINERS_1)} {rng.choice(CONTAINERS_2)}"
            rows.append(
                (
                    partkey,
                    name,
                    mfgr,
                    brand,
                    p_type,
                    rng.randint(1, 50),
                    container,
                    self._retail_price(partkey),
                )
            )
        return rows

    def partsupp(self) -> "List[Tuple[object, ...]]":
        rng = self._rng.substream("partsupp")
        rows = []
        for partkey in range(1, self.part_count + 1):
            for i in range(4):
                suppkey = (
                    (partkey + (i * ((self.supplier_count // 4) + 1)))
                    % self.supplier_count
                ) + 1
                rows.append(
                    (
                        partkey,
                        suppkey,
                        rng.randint(1, 9999),
                        round(rng.uniform(1.0, 1000.0), 2),
                    )
                )
        return rows

    def orders_and_lineitems(
        self,
    ) -> "Tuple[List[Tuple[object, ...]], List[Tuple[object, ...]]]":
        # The "orders" substream is read as raw words with CPython's rules
        # inlined (DESIGN.md §17): randint(a, b), and choice of a list of n
        # items, keep a word's top n.bit_length() bits and retry while they
        # are >= n (n = b - a + 1, or the list's length), so each
        # `>> s) >= n` below pairs n with s = 32 - n.bit_length(); random()
        # joins two words.  tests/reference_datagen.py keeps the
        # call-by-call generator this equals row for row, types included.
        word = self._rng.substream("orders").words()
        n_cust, n_part = self.customer_count, self.part_count
        n_supp = self.supplier_count
        n_date = ORDER_DATE_MAX - ORDER_DATE_MIN + 1
        assert max(n_cust, n_part, n_supp, n_date) < 2 ** 32  # one word a try
        s_cust, s_part, s_supp, s_date = (
            32 - n.bit_length() for n in (n_cust, n_part, n_supp, n_date))
        prices = [self._retail_price(partkey) for partkey in range(n_part + 1)]
        orders: "List[Tuple[object, ...]]" = []
        lineitems: "List[Tuple[object, ...]]" = []
        add_line = lineitems.append
        for index in range(1, self.order_count + 1):
            # dbgen leaves gaps in the orderkey space; keep the flavour.
            while (r := word() >> 30) >= 3:
                pass
            orderkey = index * 4 - r
            while (r := word() >> s_cust) >= n_cust:
                pass
            custkey = r + 1
            while (r := word() >> s_date) >= n_date:
                pass
            orderdate = ORDER_DATE_MIN + r
            while (r := word() >> 29) >= 7:
                pass
            line_count = r + 1
            total = 0.0
            shipped = 0
            for line_no in range(1, line_count + 1):
                while (r := word() >> s_part) >= n_part:
                    pass
                partkey = r + 1
                while (r := word() >> s_supp) >= n_supp:
                    pass
                suppkey = r + 1
                while (r := word() >> 26) >= 50:
                    pass
                quantity = float(r + 1)
                extended = round(quantity * prices[partkey] / 10, 2)
                while (r := word() >> 28) >= 11:
                    pass
                discount = r / 100.0
                while (r := word() >> 28) >= 9:
                    pass
                tax = r / 100.0
                while (r := word() >> 25) >= 121:
                    pass
                shipdate = orderdate + (r + 1)
                while (r := word() >> 26) >= 61:
                    pass
                commitdate = orderdate + (r + 30)
                while (r := word() >> 27) >= 30:
                    pass
                receiptdate = shipdate + (r + 1)
                linestatus = "F" if shipdate <= CURRENT_DATE else "O"
                shipped += shipdate <= CURRENT_DATE
                returnflag = "N"
                if receiptdate <= CURRENT_DATE:
                    while (r := word() >> 30) >= 2:
                        pass
                    returnflag = "RA"[r]
                total += extended * (1 + tax) * (1 - discount)
                while (instruct := word() >> 29) >= 4:
                    pass
                while (mode := word() >> 29) >= 7:
                    pass
                add_line((orderkey, partkey, suppkey, line_no,
                          quantity, extended, discount, tax, returnflag,
                          linestatus, shipdate, commitdate, receiptdate,
                          SHIP_INSTRUCTIONS[instruct], SHIP_MODES[mode]))
            status = ("F" if shipped == line_count
                      else "O" if not shipped else "P")
            while (priority := word() >> 29) >= 5:
                pass
            while (r := word() >> 29) >= 4:
                pass
            comment = []
            for __ in range(r + 3):
                while (r := word() >> 27) >= 18:
                    pass
                comment.append(COMMENT_WORDS[r])
            if ((word() >> 5) * 67108864.0 + (word() >> 6)) / 2 ** 53 < 0.01:
                # Q13 greps for '%special%requests%'.
                n = len(comment) + 1
                while (r := word() >> (32 - n.bit_length())) >= n:
                    pass
                comment.insert(r, "special")
                comment.append("requests")
            orders.append((orderkey, custkey, status, round(total, 2),
                           orderdate, PRIORITIES[priority], 0,
                           " ".join(comment)))
        return orders, lineitems

    def all_tables(self) -> "Dict[str, List[Tuple[object, ...]]]":
        """Every table, keyed by name (orders/lineitem generated together)."""
        orders, lineitems = self.orders_and_lineitems()
        return {
            "region": self.region(),
            "nation": self.nation(),
            "supplier": self.supplier(),
            "customer": self.customer(),
            "part": self.part(),
            "partsupp": self.partsupp(),
            "orders": orders,
            "lineitem": lineitems,
        }
