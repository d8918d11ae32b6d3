"""Cost meter: the price table a run's costs are computed with.

Traced store requests carry their S3 PUT/GET/DELETE charge (priced through
:attr:`CostMeter.prices`); storage cost is compressed bytes at rest x the
volume's monthly rate.  This is the machinery behind Tables 3 and 4.
"""

from __future__ import annotations

from repro.costs.pricing import DEFAULT_PRICES, PriceTable


class CostMeter:
    """Prices a simulated run's requests and bytes at rest."""

    def __init__(self, prices: PriceTable = DEFAULT_PRICES) -> None:
        self._prices = prices

    @property
    def prices(self) -> PriceTable:
        return self._prices

    def storage_monthly_cost(self, volume: str, nbytes: int) -> float:
        """Monthly cost of ``nbytes`` at rest on ``volume``."""
        return self._prices.storage_price(volume).monthly_cost(nbytes)
