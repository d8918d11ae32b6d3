"""Relational operators over materialized relations.

Relations are column dictionaries (``{column: [values]}``); operators
charge CPU work to the context's :class:`~repro.sim.cpu.CpuModel` so query
times reflect both I/O (charged by the storage stack) and compute.

Every operator charges its work once, by operator and cardinality, and
only then runs one of two interchangeable kernels (DESIGN.md §14):

- the **scalar** kernel, row-at-a-time python over lists (the default),
- the **vectorized** kernel (``ctx.vectorized``), numpy column vectors
  processed in batches by the helpers in :mod:`repro.columnar.vec`.

The kernel choice moves wall time only: the vectorized kernels reproduce
the scalar output exactly — same rows, same order, same float bits — and
the simulated time is the same to the last bit, which the equivalence
suite asserts across all 22 TPC-H queries.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar import vec
from repro.columnar.query import QueryContext, Relation, n_rows

_JOIN_BUILD_OPS = 2.0
_JOIN_PROBE_OPS = 3.0
_GROUP_OPS = 3.0
_SORT_OPS = 2.0
_MAP_OPS = 2.0
_FILTER_OPS = 1.0


class ExecError(Exception):
    """Operator misuse (missing columns, ragged relations)."""


def _columns_or_raise(rel: Relation, columns: "Sequence[str]") -> None:
    for column in columns:
        if column not in rel:
            raise ExecError(
                f"relation lacks column {column!r}; has {sorted(rel)}"
            )


def select(rel: Relation, columns: "Sequence[str]") -> Relation:
    """Project onto ``columns``."""
    _columns_or_raise(rel, columns)
    return {column: rel[column] for column in columns}


def extend(ctx: QueryContext, rel: Relation, name: str,
           fn: "Callable[..., object]",
           inputs: "Sequence[str]") -> Relation:
    """Add a computed column ``name = fn(*input_columns)`` row-wise."""
    _columns_or_raise(rel, inputs)
    count = n_rows(rel)
    ctx.cpu.charge(_MAP_OPS * count)
    if ctx.vectorized:
        out = {column: vec.asarray(values) for column, values in rel.items()}
        series = [out[column] for column in inputs]
        out[name] = vec.apply_rowwise(fn, series, count)
        return out
    series = [rel[column] for column in inputs]
    rel = dict(rel)
    rel[name] = [fn(*values) for values in zip(*series)] if count else []
    return rel


def filter_rows(ctx: QueryContext, rel: Relation,
                fn: "Callable[..., bool]",
                inputs: "Sequence[str]") -> Relation:
    """Keep rows where ``fn(*input_columns)`` holds."""
    _columns_or_raise(rel, inputs)
    count = n_rows(rel)
    ctx.cpu.charge(_FILTER_OPS * count)
    if ctx.vectorized:
        np = vec.require_numpy()
        arrays = {column: vec.asarray(values) for column, values in rel.items()}
        series = [arrays[column] for column in inputs]
        mask = np.asarray(
            vec.apply_rowwise(fn, series, count), dtype=bool
        )
        return {column: values[mask] for column, values in arrays.items()}
    series = [rel[column] for column in inputs]
    mask = [bool(fn(*values)) for values in zip(*series)] if count else []
    return {
        column: [v for v, keep in zip(values, mask) if keep]
        for column, values in rel.items()
    }


def hash_join(
    ctx: QueryContext,
    left: Relation,
    right: Relation,
    left_on: "Sequence[str]",
    right_on: "Sequence[str]",
    semi: bool = False,
    anti: bool = False,
) -> Relation:
    """Inner hash join (or semi/anti join restricted to the left columns).

    The smaller input becomes the build side for inner joins; semi/anti
    joins always build on the right.  Join-key columns from the right side
    are dropped (they equal the left's).
    """
    if len(left_on) != len(right_on):
        raise ExecError("join key lists differ in length")
    _columns_or_raise(left, left_on)
    _columns_or_raise(right, right_on)
    if semi and anti:
        raise ExecError("a join cannot be both semi and anti")
    # Inner joins build on the smaller side; semi/anti joins on the right.
    swap = not (semi or anti) and n_rows(right) > n_rows(left)
    build, probe = (left, right) if swap else (right, left)
    ctx.cpu.charge(_JOIN_BUILD_OPS * n_rows(build))
    ctx.cpu.charge(_JOIN_PROBE_OPS * n_rows(probe))
    kernel = _hash_join_vec if ctx.vectorized else _hash_join_rows
    return kernel(left, right, left_on, right_on, semi, anti, swap)


def _hash_join_rows(
    left: Relation,
    right: Relation,
    left_on: "Sequence[str]",
    right_on: "Sequence[str]",
    semi: bool,
    anti: bool,
    swap: bool,
) -> Relation:
    """Scalar join: a python dict over the build side's key tuples."""
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
    for left_col, right_col in zip(left_on, right_on):
        if left_col not in out:
            rows = probe_rows if not swap else build_rows
            out[left_col] = [left[left_col][i] for i in rows]
    return out


def _hash_join_vec(
    left: Relation,
    right: Relation,
    left_on: "Sequence[str]",
    right_on: "Sequence[str]",
    semi: bool,
    anti: bool,
    swap: bool,
) -> Relation:
    """Vectorized join: factorized keys, searchsorted match expansion."""
    left_arr = {column: vec.asarray(values) for column, values in left.items()}
    right_arr = {column: vec.asarray(values) for column, values in right.items()}

    if semi or anti:
        right_codes, left_codes = vec.join_codes(
            [right_arr[c] for c in right_on],
            [left_arr[c] for c in left_on],
        )
        mask = vec.member_mask(left_codes, right_codes)
        if anti:
            mask = ~mask
        return {column: values[mask] for column, values in left_arr.items()}

    build, probe = (left_arr, right_arr) if swap else (right_arr, left_arr)
    build_on, probe_on = (left_on, right_on) if swap else (right_on, left_on)
    build_codes, probe_codes = vec.join_codes(
        [build[c] for c in build_on],
        [probe[c] for c in probe_on],
    )
    probe_rows, build_rows = vec.join_matches(build_codes, probe_codes)

    out: Relation = {}
    drop = set(build_on)
    for column, values in probe.items():
        out[column] = values[probe_rows]
    for column, values in build.items():
        if column in drop or column in out:
            continue
        out[column] = values[build_rows]
    for left_col, right_col in zip(left_on, right_on):
        if left_col not in out:
            rows_idx = probe_rows if not swap else build_rows
            out[left_col] = left_arr[left_col][rows_idx]
    return out


_AGGREGATES = ("sum", "count", "avg", "min", "max")


def group_by(
    ctx: QueryContext,
    rel: Relation,
    keys: "Sequence[str]",
    aggregates: "Dict[str, Tuple[str, Optional[str]]]",
) -> Relation:
    """Hash aggregation.

    ``aggregates`` maps output names to ``(op, column)``; ``op`` is one of
    sum/count/avg/min/max (count ignores its column, which may be None).
    An empty ``keys`` produces a single global group (even over zero rows
    for count, mirroring SQL's scalar aggregates over empty inputs).
    """
    _columns_or_raise(rel, keys)
    for out_name, (op, column) in aggregates.items():
        if op not in _AGGREGATES:
            raise ExecError(f"unknown aggregate {op!r} for {out_name!r}")
        if op != "count" and column is None:
            raise ExecError(f"aggregate {out_name!r} needs a column")
        if column is not None:
            _columns_or_raise(rel, [column])
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count * max(1, len(aggregates)))
    if ctx.vectorized:
        return _group_by_vec(rel, keys, aggregates, count)

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
                    sums[group] += value  # type: ignore[operator]
                elif op == "min":
                    if mins[group] is None or value < mins[group]:  # type: ignore[operator]
                        mins[group] = value
                elif op == "max":
                    if maxs[group] is None or value > maxs[group]:  # type: ignore[operator]
                        maxs[group] = value
        if op == "sum":
            out[out_name] = list(sums)
        elif op == "count":
            out[out_name] = list(counts)
        elif op == "avg":
            out[out_name] = [
                (s / c if c else 0.0) for s, c in zip(sums, counts)
            ]
        elif op == "min":
            out[out_name] = list(mins)
        else:
            out[out_name] = list(maxs)
    return out


def _group_by_vec(
    rel: Relation,
    keys: "Sequence[str]",
    aggregates: "Dict[str, Tuple[str, Optional[str]]]",
    count: int,
) -> Relation:
    """Vectorized aggregation: appearance-ordered codes + bincount."""
    np = vec.require_numpy()
    arrays = {column: vec.asarray(values) for column, values in rel.items()}
    if keys:
        codes, first_rows = vec.group_keys([arrays[k] for k in keys])
        n_groups = len(first_rows)
        out: Relation = {k: arrays[k][first_rows] for k in keys}
    else:
        codes = np.zeros(count, dtype=np.int64)
        n_groups = 1
        out = {}
    counts = vec.group_count(codes, n_groups)
    for out_name, (op, column) in aggregates.items():
        values = arrays[column] if column is not None else None
        if op == "count":
            out[out_name] = counts.copy()
            continue
        assert values is not None
        if count == 0:
            # Only reachable for the single global group over zero rows:
            # mirror the scalar accumulators' initial values.
            if op in ("sum",):
                out[out_name] = np.zeros(n_groups)
            elif op == "avg":
                out[out_name] = np.zeros(n_groups)
            else:
                empty = np.empty(n_groups, dtype=object)
                empty[:] = None
                out[out_name] = empty
            continue
        if op == "sum":
            out[out_name] = vec.group_sum(codes, values, n_groups)
        elif op == "avg":
            sums = vec.group_sum(codes, values, n_groups)
            out[out_name] = np.divide(
                sums,
                counts,
                out=np.zeros(n_groups),
                where=counts > 0,
            )
        else:
            out[out_name] = vec.group_minmax(
                codes, values, n_groups, want_max=(op == "max")
            )
    return out


def order_by(
    ctx: QueryContext,
    rel: Relation,
    keys: "Sequence[Tuple[str, bool]]",
    limit: "Optional[int]" = None,
) -> Relation:
    """Sort by ``(column, descending)`` keys; optionally truncate."""
    _columns_or_raise(rel, [k for k, __ in keys])
    count = n_rows(rel)
    if count:
        ctx.cpu.charge(_SORT_OPS * count * max(1.0, math.log2(count)))
    if ctx.vectorized:
        np = vec.require_numpy()
        arrays = {column: vec.asarray(values) for column, values in rel.items()}
        indexes = np.arange(count, dtype=np.int64)
        # Stable sorts composed right-to-left, on integer ranks so that
        # descending keys negate cleanly for any dtype while keeping
        # list.sort(reverse=True)'s tie order.
        for column, descending in reversed(list(keys)):
            ranks = vec.sort_codes(arrays[column][indexes])
            if descending:
                ranks = -ranks
            indexes = indexes[np.argsort(ranks, kind="stable")]
        if limit is not None:
            indexes = indexes[:limit]
        return {column: values[indexes] for column, values in arrays.items()}
    indexes = list(range(count))
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
    """Union-all of two relations with identical columns."""
    if set(left) != set(right):
        raise ExecError("concat requires identical column sets")
    if vec.have_numpy() and any(
        vec.is_vector(values) for values in (*left.values(), *right.values())
    ):
        np = vec.require_numpy()
        return {
            column: np.concatenate(
                [vec.asarray(left[column]), vec.asarray(right[column])]
            )
            for column in left
        }
    return {column: left[column] + right[column] for column in left}


def distinct(ctx: QueryContext, rel: Relation,
             columns: "Sequence[str]") -> Relation:
    """Distinct projection."""
    _columns_or_raise(rel, columns)
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count)
    if ctx.vectorized:
        arrays = [vec.asarray(rel[c]) for c in columns]
        if count == 0:
            return {c: arr for c, arr in zip(columns, arrays)}
        # first_rows is already in first-appearance (ascending row) order,
        # matching the scalar keep list.
        __, first_rows = vec.group_keys(arrays)
        return {c: arr[first_rows] for c, arr in zip(columns, arrays)}
    seen = set()
    keep: List[int] = []
    series = [rel[c] for c in columns]
    for i, key in enumerate(zip(*series)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return {c: [rel[c][i] for i in keep] for c in columns}


def rows(rel: Relation, columns: "Optional[Sequence[str]]" = None):
    """Iterate a relation as tuples (testing/report helper)."""
    columns = list(columns or sorted(rel))
    series = [vec.to_list(rel[c]) for c in columns]
    return list(zip(*series)) if series and len(series[0]) else []
