"""Numpy kernels behind the columnar executor (DESIGN.md §14).

Relations are numpy column vectors; :mod:`repro.columnar.exec` and
:mod:`repro.columnar.query` build every operator and scan step from these
helpers.  Each kernel reproduces, row for row, what a row-at-a-time
python loop over lists would produce — the reference kept in the test
suite — down to the value types and the float bits:

- group ids are numbered in order of first appearance (dict-insertion
  order), via :func:`group_keys`;
- grouped sums accumulate in row order through ``np.bincount``, whose C
  loop adds weights sequentially like ``sums[g] += value`` (pairwise
  summation à la ``np.sum`` would round differently);
- join output is ordered probe-row-major with matches in build insertion
  order, via :func:`join_matches` (stable argsort + searchsorted ranges);
- sorts factorize values to integer ranks so descending keys can be
  negated while keeping the stable-sort tie behaviour of
  ``list.sort(reverse=True)``;
- a column with no rows has no value type to carry: :func:`asarray`
  gives it the ``object`` dtype, and :func:`concat` takes the dtype of
  the side that has rows, so an empty side never turns an ``int64``
  column into ``float64``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------- #
# column vectors
# ---------------------------------------------------------------------- #

def asarray(values):
    """Coerce a column (list or ndarray) to a 1-D ndarray.

    Homogeneous int/float/str columns get native dtypes; an empty column
    and anything numpy would mangle (mixed types, nested sequences) get
    an object array, so values round-trip unchanged.
    """
    if isinstance(values, np.ndarray):
        return values
    values = list(values)
    try:
        arr = np.asarray(values) if values else None
    except (ValueError, TypeError):
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "biufUS":
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    if arr.dtype.kind in "US" and not all(
        isinstance(v, str) for v in values
    ):
        # numpy stringified a mixed column; keep the original objects.
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return arr


def to_list(values) -> list:
    """Materialize a column as a plain python list of python scalars."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return list(values)


def empty() -> "np.ndarray":
    return np.empty(0, dtype=object)


def concat(parts: "Sequence[np.ndarray]") -> "np.ndarray":
    """Union-all of column chunks, keeping each value's type.

    Chunks without rows are dropped first, so they cannot promote the
    others' dtype; chunks of different dtype kinds (``int64`` beside
    ``float64``, numbers beside strings) meet in an object array.
    """
    parts = [part for part in parts if len(part)]
    if not parts:
        return empty()
    if len(parts) == 1:
        return parts[0]
    if len({part.dtype.kind for part in parts}) > 1:
        parts = [part.astype(object) for part in parts]
    return np.concatenate(parts)


# ---------------------------------------------------------------------- #
# factorization (value -> dense integer codes)
# ---------------------------------------------------------------------- #

def _rank_codes(arr) -> "Tuple[np.ndarray, int]":
    """Codes by sorted rank (not appearance); returns (codes, alphabet)."""
    uniq, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniq)


def _combined_codes(columns: "Sequence[np.ndarray]") -> "np.ndarray":
    """One dense code per row over a tuple of aligned key columns.

    Columns are folded pairwise with re-factorization after every fold,
    so intermediate products stay below ``n_rows**2`` and never overflow
    int64 no matter how many key columns a query groups by.
    """
    codes, __ = _rank_codes(columns[0])
    for column in columns[1:]:
        extra, alphabet = _rank_codes(column)
        codes, __ = _rank_codes(codes * alphabet + extra)
    return codes


def group_keys(
    columns: "Sequence[np.ndarray]",
) -> "Tuple[np.ndarray, np.ndarray]":
    """Factorize aligned key columns into appearance-ordered group ids.

    Returns ``(codes, first_rows)``: ``codes[i]`` is row *i*'s group id,
    groups numbered in order of first appearance (a python dict's
    insertion order); ``first_rows[g]`` is the row index
    where group *g* first appears (strictly increasing).
    """
    codes = _combined_codes(columns)
    uniq, first_idx, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    remap = np.empty(len(uniq), dtype=np.int64)
    remap[order] = np.arange(len(uniq), dtype=np.int64)
    return remap[inverse.astype(np.int64, copy=False)], first_idx[order]


def sort_codes(arr) -> "np.ndarray":
    """Integer ranks of ``arr`` (ties share a rank).

    Sorting by (possibly negated) ranks with a stable sort reproduces
    ``list.sort(key=..., reverse=...)`` for any comparable dtype.
    """
    return _rank_codes(arr)[0]


def join_codes(
    build_columns: "Sequence[np.ndarray]",
    probe_columns: "Sequence[np.ndarray]",
) -> "Tuple[np.ndarray, np.ndarray]":
    """Factorize both sides' key columns into one shared code space."""
    n_build = len(build_columns[0]) if build_columns else 0
    codes: "Optional[np.ndarray]" = None
    for build_col, probe_col in zip(build_columns, probe_columns):
        extra, alphabet = _rank_codes(concat([build_col, probe_col]))
        if codes is None:
            codes = extra
        else:
            codes, __ = _rank_codes(codes * alphabet + extra)
    assert codes is not None
    return codes[:n_build], codes[n_build:]


def join_matches(
    build_codes: "np.ndarray", probe_codes: "np.ndarray"
) -> "Tuple[np.ndarray, np.ndarray]":
    """All (probe_row, build_row) match pairs of an inner hash join.

    Ordered exactly like a python probe loop over a dict: probe rows
    ascending, and within one probe row the matching build rows in build
    insertion order (the stable argsort preserves it among equal keys).
    """
    sort_idx = np.argsort(build_codes, kind="stable")
    sorted_codes = build_codes[sort_idx]
    starts = np.searchsorted(sorted_codes, probe_codes, side="left")
    ends = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = ends - starts
    probe_rows = np.repeat(
        np.arange(len(probe_codes), dtype=np.int64), counts
    )
    total = int(counts.sum())
    if total == 0:
        return probe_rows, probe_rows.copy()
    bases = np.repeat(starts, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return probe_rows, sort_idx[bases + offsets]


def member_mask(codes: "np.ndarray", others: "np.ndarray") -> "np.ndarray":
    """Boolean mask: which ``codes`` appear anywhere in ``others``."""
    return np.isin(codes, others)


# ---------------------------------------------------------------------- #
# grouped aggregation
# ---------------------------------------------------------------------- #

def group_count(codes: "np.ndarray", n_groups: int) -> "np.ndarray":
    return np.bincount(codes, minlength=n_groups).astype(np.int64)


def group_sum(
    codes: "np.ndarray", values: "np.ndarray", n_groups: int
) -> "np.ndarray":
    """Per-group sums, accumulated in row order.

    ``np.bincount``'s C loop adds each weight sequentially — the same
    order and rounding as a python ``sums[g] += value`` loop
    (``np.sum``'s pairwise summation would differ in the last bits).
    """
    return np.bincount(codes, weights=values, minlength=n_groups)


def group_minmax(
    codes: "np.ndarray",
    values: "np.ndarray",
    n_groups: int,
    want_max: bool,
) -> "np.ndarray":
    """Per-group min (or max) for any sortable dtype."""
    order = np.argsort(values, kind="stable")
    sorted_codes = codes[order]
    if want_max:
        __, idx = np.unique(sorted_codes[::-1], return_index=True)
        rows = order[len(order) - 1 - idx]
    else:
        __, idx = np.unique(sorted_codes, return_index=True)
        rows = order[idx]
    return values[rows]


# ---------------------------------------------------------------------- #
# row-wise callables over column vectors
# ---------------------------------------------------------------------- #

def apply_rowwise(fn, series: "Sequence[np.ndarray]", count: int):
    """Apply a row-wise python callable to aligned column vectors.

    Tries one whole-column (broadcast) call first — arithmetic and
    comparison lambdas vectorize for free — and verifies the result
    against a per-row probe of the first rows before trusting it, which
    rejects accidental shape matches (e.g. ``lambda p: p[:2]`` slicing
    the *array* instead of each string).  Callables that raise or return
    non-vectors (string methods, ``in`` checks, chained comparisons)
    fall back to a per-row python loop over python scalars, preserving
    python semantics bit for bit.
    """
    lists: "Optional[List[list]]" = None
    if count:
        try:
            result = fn(*series)
        except Exception:
            result = None
        if isinstance(result, np.ndarray) and result.shape == (count,):
            probe = min(count, 3)
            lists = [column.tolist() for column in series]
            expected = [
                fn(*row) for row in zip(*(col[:probe] for col in lists))
            ]
            if all(
                bool(result[i] == expected[i]) for i in range(probe)
            ):
                return result
    if lists is None:
        lists = [column.tolist() for column in series]
    out = [fn(*row) for row in zip(*lists)]
    return asarray(out)


# ---------------------------------------------------------------------- #
# page decode
# ---------------------------------------------------------------------- #

# Beyond this width the bit-matrix product could overflow the int64
# accumulator; such pages are vanishingly rare, so they take the exact
# scalar unpack path instead.
_MAX_VECTOR_WIDTH = 57


def unpack_nbit(payload: bytes, width: int, count: int) -> "np.ndarray":
    """Vectorized n-bit unpack (see ``encoding._unpack_nbit``).

    Fields of ``2**63`` and above come back wrapped to negative ``int64``;
    adding the page's frame base in ``int64`` wraps them back to the
    stored value, which always lies in the signed 64-bit range.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if width > _MAX_VECTOR_WIDTH:
        from repro.columnar.encoding import _unpack_nbit

        fields = np.array(_unpack_nbit(payload, width, count), dtype=np.uint64)
        return fields.view(np.int64)
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=width * count
    )
    weights = np.left_shift(
        np.int64(1), np.arange(width - 1, -1, -1, dtype=np.int64)
    )
    return bits.reshape(count, width).astype(np.int64) @ weights
