"""Small formatting helpers for paper-style benchmark tables."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def geomean(values: "Iterable[float]") -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def format_table(headers: "Sequence[str]",
                 rows: "Sequence[Sequence[object]]") -> str:
    """Render a fixed-width text table."""
    columns = [
        [str(header)] + [
            f"{row[i]:.1f}" if isinstance(row[i], float) else str(row[i])
            for row in rows
        ]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    for row_index in range(len(rows) + 1):
        line = "  ".join(
            columns[col][row_index].rjust(widths[col])
            for col in range(len(headers))
        )
        lines.append(line)
        if row_index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

