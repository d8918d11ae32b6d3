"""The row-at-a-time query kernel: the oracle for the engine's numpy one.

The engine runs one kernel, numpy column vectors (DESIGN.md §14).  This
module keeps the reference it must reproduce: every relational operator
and scan step as a plain python loop over lists.  The property tests in
``tests/unit/test_vectorized_exec.py`` drive random relations through
both and require the same rows, in the same order, with the same value
types and float bits.

Nothing here charges CPU: the engine's operators charge their work by
operator and cardinality before their body runs, so the cost model does
not depend on the body.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.query import ROWID

Relation = Dict[str, List[object]]


def n_rows(rel: Relation) -> int:
    for values in rel.values():
        return len(values)
    return 0


def extend(rel: Relation, name: str, fn, inputs: "Sequence[str]") -> Relation:
    series = [rel[column] for column in inputs]
    rel = dict(rel)
    rel[name] = [fn(*values) for values in zip(*series)] if n_rows(rel) else []
    return rel


def filter_rows(rel: Relation, fn, inputs: "Sequence[str]") -> Relation:
    series = [rel[column] for column in inputs]
    mask = [bool(fn(*values)) for values in zip(*series)] if n_rows(rel) else []
    return {
        column: [v for v, keep in zip(values, mask) if keep]
        for column, values in rel.items()
    }


def hash_join(
    left: Relation,
    right: Relation,
    left_on: "Sequence[str]",
    right_on: "Sequence[str]",
    semi: bool = False,
    anti: bool = False,
) -> Relation:
    """A python dict over the build side's key tuples."""
    if semi or anti:
        keys = set(zip(*(right[c] for c in right_on))) if n_rows(right) else set()
        left_keys = list(zip(*(left[c] for c in left_on))) if n_rows(left) else []
        if anti:
            mask = [key not in keys for key in left_keys]
        else:
            mask = [key in keys for key in left_keys]
        return {
            column: [v for v, keep in zip(values, mask) if keep]
            for column, values in left.items()
        }

    swap = n_rows(right) > n_rows(left)
    build, probe = (left, right) if swap else (right, left)
    build_on, probe_on = (left_on, right_on) if swap else (right_on, left_on)
    table: Dict[Tuple[object, ...], List[int]] = {}
    build_keys = (
        list(zip(*(build[c] for c in build_on))) if n_rows(build) else []
    )
    for row, key in enumerate(build_keys):
        table.setdefault(key, []).append(row)

    probe_keys = (
        list(zip(*(probe[c] for c in probe_on))) if n_rows(probe) else []
    )
    probe_rows: List[int] = []
    build_rows: List[int] = []
    for row, key in enumerate(probe_keys):
        for match in table.get(key, ()):
            probe_rows.append(row)
            build_rows.append(match)

    out: Relation = {}
    drop = set(build_on)
    for column, values in probe.items():
        out[column] = [values[i] for i in probe_rows]
    for column, values in build.items():
        if column in drop or column in out:
            continue
        out[column] = [values[i] for i in build_rows]
    # Re-expose the join keys under the left side's names.
    for left_col in left_on:
        if left_col not in out:
            rows = probe_rows if not swap else build_rows
            out[left_col] = [left[left_col][i] for i in rows]
    return out


def group_by(
    rel: Relation,
    keys: "Sequence[str]",
    aggregates: "Dict[str, Tuple[str, Optional[str]]]",
) -> Relation:
    count = n_rows(rel)
    key_series = [rel[k] for k in keys]
    groups: "Dict[Tuple[object, ...], int]" = {}
    order: List[Tuple[object, ...]] = []
    assignments: List[int] = []
    if keys:
        for key in zip(*key_series):
            index = groups.get(key)
            if index is None:
                index = len(order)
                groups[key] = index
                order.append(key)
            assignments.append(index)
    else:
        order.append(())
        assignments = [0] * count

    out: Relation = {k: [key[i] for key in order] for i, k in enumerate(keys)}
    for out_name, (op, column) in aggregates.items():
        values = rel[column] if column is not None else None
        sums = [0.0] * len(order)
        counts = [0] * len(order)
        mins: "List[object]" = [None] * len(order)
        maxs: "List[object]" = [None] * len(order)
        for row, group in enumerate(assignments):
            counts[group] += 1
            if values is not None:
                value = values[row]
                if op in ("sum", "avg"):
                    sums[group] += value
                elif op == "min":
                    if mins[group] is None or value < mins[group]:
                        mins[group] = value
                elif op == "max":
                    if maxs[group] is None or value > maxs[group]:
                        maxs[group] = value
        if op == "sum":
            out[out_name] = sums
        elif op == "count":
            out[out_name] = counts
        elif op == "avg":
            out[out_name] = [
                (s / c if c else 0.0) for s, c in zip(sums, counts)
            ]
        elif op == "min":
            out[out_name] = mins
        else:
            out[out_name] = maxs
    return out


def order_by(
    rel: Relation,
    keys: "Sequence[Tuple[str, bool]]",
    limit: "Optional[int]" = None,
) -> Relation:
    indexes = list(range(n_rows(rel)))
    # Stable sorts composed right-to-left implement multi-key ordering.
    for column, descending in reversed(list(keys)):
        values = rel[column]
        indexes.sort(key=lambda i: values[i], reverse=descending)
    if limit is not None:
        indexes = indexes[:limit]
    return {
        column: [values[i] for i in indexes] for column, values in rel.items()
    }


def concat(left: Relation, right: Relation) -> Relation:
    return {column: list(left[column]) + list(right[column])
            for column in left}


def distinct(rel: Relation, columns: "Sequence[str]") -> Relation:
    seen = set()
    keep: List[int] = []
    series = [rel[c] for c in columns]
    for i, key in enumerate(zip(*series)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return {c: [rel[c][i] for i in keep] for c in columns}


# ---------------------------------------------------------------------- #
# scan steps (QueryContext._evaluate / _scan_page)
# ---------------------------------------------------------------------- #

def narrow_rows(mask: "List[bool]", values, bounds, check) -> None:
    """Clear ``mask`` where the predicate fails.

    ``bounds`` is the predicate's inclusive ``(lo, hi)`` range, or None
    for a callable predicate ``check``.
    """
    if bounds is not None:
        lo, hi = bounds
        for i in range(len(mask)):
            if not mask[i]:
                continue
            value = values[i]
            if lo is not None and value < lo:
                mask[i] = False
            elif hi is not None and value > hi:
                mask[i] = False
    else:
        for i in range(len(mask)):
            if mask[i] and not check(values[i]):
                mask[i] = False


def take_rows(out: Relation, page_values, columns: "Sequence[str]",
              mask: "List[bool]", deleted, base_row: int,
              with_rowids: bool) -> None:
    """Extend ``out``'s lists with the page's surviving rows."""
    count = len(mask)
    if deleted:
        for i in range(count):
            if mask[i] and (base_row + i) in deleted:
                mask[i] = False
    for column in columns:
        out[column].extend(compress(page_values[column], mask))
    if with_rowids:
        out[ROWID].extend(
            compress(range(base_row, base_row + count), mask)
        )
