"""Cost meter: turns simulated request counts and bytes at rest into USD.

Request cost is the S3 PUT/GET/DELETE charges; storage cost is compressed
bytes at rest x the volume's monthly rate.  This is the machinery behind
Tables 3 and 4.
"""

from __future__ import annotations

from typing import Dict

from repro.costs.pricing import DEFAULT_PRICES, PriceTable


class CostMeter:
    """Accumulates request counts during a simulated run."""

    def __init__(self, prices: PriceTable = DEFAULT_PRICES) -> None:
        self._prices = prices
        self._request_counts: Dict[str, Dict[str, int]] = {}

    @property
    def prices(self) -> PriceTable:
        return self._prices

    def record_requests(
        self, volume: str, puts: int = 0, gets: int = 0, deletes: int = 0
    ) -> None:
        """Count requests; :meth:`request_cost` prices them."""
        counts = self._request_counts.setdefault(
            volume, {"puts": 0, "gets": 0, "deletes": 0}
        )
        counts["puts"] += puts
        counts["gets"] += gets
        counts["deletes"] += deletes

    def request_cost(self, volume: str) -> float:
        counts = self._request_counts.get(volume)
        if not counts:
            return 0.0
        return self._prices.request_price(volume).cost(
            puts=counts["puts"], gets=counts["gets"], deletes=counts["deletes"]
        )

    def storage_monthly_cost(self, volume: str, nbytes: int) -> float:
        """Monthly cost of ``nbytes`` at rest on ``volume``."""
        return self._prices.storage_price(volume).monthly_cost(nbytes)
