"""The numpy query kernel: helpers, operators, scan steps, page decode.

The contract under test everywhere: the engine's numpy kernel reproduces
the row-at-a-time python oracle (``tests/scalar_kernel.py``) *exactly* —
same rows, same order, same value types, same float bits.  Property
tests drive random relations through each operator and scan step and
compare the reprs; kernel tests pin the order-sensitive details (group
appearance order, join match order, sequential float accumulation) and
the empty-column dtype rule.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import exec as ex
from repro.columnar import query, vec
from repro.columnar.deletes import RowIdSet
from repro.columnar.encoding import (
    _unpack_nbit,
    decode_values_np,
    encode_values,
)
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuModel
from tests import scalar_kernel as oracle
from tests.reference_columnar import decode_values
from tests.conftest import lists


class FakeCtx:
    """Operator context without a database: just a CPU to charge."""

    def __init__(self) -> None:
        self.cpu = CpuModel(VirtualClock(), vcpus=4)


def matches_oracle(got, want):
    """The kernel's relation equals the oracle's, value types included."""
    assert repr(lists(got)) == repr(want)


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #

def test_asarray_preserves_mixed_columns():
    values = [1, "two", 3.0, None]
    arr = vec.asarray(values)
    assert arr.dtype == object
    assert arr.tolist() == values


def test_asarray_native_dtypes():
    assert vec.asarray([1, 2, 3]).dtype.kind == "i"
    assert vec.asarray([1.5, 2.5]).dtype.kind == "f"
    assert vec.asarray(["a", "b"]).dtype.kind == "U"


def test_group_keys_appearance_order():
    codes, first_rows = vec.group_keys([vec.asarray(["b", "a", "b", "c"])])
    assert codes.tolist() == [0, 1, 0, 2]     # 'b' first, then 'a', 'c'
    assert first_rows.tolist() == [0, 1, 3]


def test_join_matches_probe_major_build_insertion_order():
    build = vec.asarray([7, 9, 7, 7])
    probe = vec.asarray([7, 8, 9, 7])
    build_codes, probe_codes = vec.join_codes([build], [probe])
    probe_rows, build_rows = vec.join_matches(build_codes, probe_codes)
    # Probe rows ascending; build matches in insertion order (0, 2, 3).
    assert probe_rows.tolist() == [0, 0, 0, 2, 3, 3, 3]
    assert build_rows.tolist() == [0, 2, 3, 1, 0, 2, 3]


def test_group_sum_accumulates_in_row_order():
    # Catastrophic-cancellation-ish mix where pairwise summation (np.sum)
    # rounds differently from sequential accumulation.
    values = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2] * 7
    codes = np.zeros(len(values), dtype=np.int64)
    expected = 0.0
    for value in values:
        expected += value
    got = vec.group_sum(codes, vec.asarray(values), 1)
    assert got[0] == expected  # bit-identical, not approx


def test_group_minmax_strings():
    codes = np.array([0, 1, 0, 1], dtype=np.int64)
    values = vec.asarray(["pear", "fig", "apple", "yam"])
    assert vec.group_minmax(codes, values, 2, want_max=False).tolist() == \
        ["apple", "fig"]
    assert vec.group_minmax(codes, values, 2, want_max=True).tolist() == \
        ["pear", "yam"]


def test_apply_rowwise_broadcasts_arithmetic():
    a = vec.asarray([1.0, 2.0, 3.0])
    b = vec.asarray([10.0, 20.0, 30.0])
    out = vec.apply_rowwise(lambda x, y: x * (1 - y), [a, b], 3)
    assert out.tolist() == [1 * (1 - 10.0), 2 * (1 - 20.0), 3 * (1 - 30.0)]


def test_apply_rowwise_rejects_accidental_array_result():
    # Slicing the *array* returns a shape the broadcast probe must reject
    # (the per-row meaning is "first two chars of each string").
    s = vec.asarray(["alpha", "beta"])
    out = vec.apply_rowwise(lambda v: v[:2], [s], 2)
    assert out.tolist() == ["al", "be"]


def test_apply_rowwise_falls_back_on_python_semantics():
    s = vec.asarray(["promo stuff", "plain"])
    out = vec.apply_rowwise(lambda v: v.startswith("promo"), [s], 2)
    assert out.tolist() == [True, False]


@given(
    st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_unpack_nbit_matches_scalar(values):
    span = max(values)
    width = max(1, span.bit_length())
    from repro.columnar.encoding import _pack_nbit

    payload = _pack_nbit(values, width)
    assert vec.unpack_nbit(payload, width, len(values)).tolist() == \
        _unpack_nbit(payload, width, len(values))


@given(
    st.one_of(
        st.tuples(st.just("int"),
                  st.lists(st.integers(-2 ** 50, 2 ** 50), max_size=100)),
        st.tuples(st.just("float"),
                  st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=100)),
        st.tuples(st.just("str"),
                  st.lists(st.text(
                      alphabet=st.characters(blacklist_characters="\x00",
                                             blacklist_categories=("Cs",)),
                      max_size=12), max_size=100)),
    )
)
@settings(max_examples=60, deadline=None)
def test_decode_values_np_matches_scalar_decode(case):
    kind, values = case
    payload = encode_values(kind, values)
    got = decode_values_np(payload)
    assert got.tolist() == decode_values(payload)
    assert not got.flags.writeable


def test_decode_values_np_float_is_zero_copy_view():
    payload = encode_values("float", [1.5, -2.25, 1e300])
    got = decode_values_np(payload)
    assert got.base is not None  # a view over the page bytes, not a copy


# --------------------------------------------------------------------- #
# operators: numpy kernel == python oracle (property tests)
# --------------------------------------------------------------------- #

_COLUMN = st.one_of(
    st.lists(st.integers(-50, 50), min_size=0, max_size=60),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=60),
    st.lists(st.text(alphabet="abcXYZ", max_size=4), min_size=0, max_size=60),
)


@st.composite
def relations(draw, min_columns=2, max_columns=4):
    n_cols = draw(st.integers(min_columns, max_columns))
    count = draw(st.integers(0, 60))
    rel = {}
    for i in range(n_cols):
        column = draw(_COLUMN)
        column = (column * (count // max(1, len(column)) + 1))[:count] \
            if column else [0] * count
        rel[f"c{i}"] = column
    return rel


@given(relations())
@settings(max_examples=40, deadline=None)
def test_filter_rows_equivalence(rel):
    pivot = rel["c0"][0] if rel["c0"] else 0
    keep = lambda v: v >= pivot  # noqa: E731
    matches_oracle(ex.filter_rows(FakeCtx(), rel, keep, ["c0"]),
                   oracle.filter_rows(rel, keep, ["c0"]))


@given(relations())
@settings(max_examples=40, deadline=None)
def test_extend_equivalence(rel):
    derive = lambda a, b: (a, b) == (a, b) and str(a) < str(b)  # noqa: E731
    matches_oracle(ex.extend(FakeCtx(), rel, "derived", derive, ["c0", "c1"]),
                   oracle.extend(rel, "derived", derive, ["c0", "c1"]))


@given(relations(), relations())
@settings(max_examples=40, deadline=None)
def test_hash_join_equivalence(left, right):
    left = {f"l_{k}": [str(v) for v in vs] for k, vs in left.items()}
    right = {f"r_{k}": [str(v) for v in vs] for k, vs in right.items()}
    matches_oracle(
        ex.hash_join(FakeCtx(), left, right, ["l_c0"], ["r_c0"]),
        oracle.hash_join(left, right, ["l_c0"], ["r_c0"]),
    )


@given(relations(), relations())
@settings(max_examples=40, deadline=None)
def test_semi_anti_join_equivalence(left, right):
    left = {f"l_{k}": [str(v) for v in vs] for k, vs in left.items()}
    right = {f"r_{k}": [str(v) for v in vs] for k, vs in right.items()}
    matches_oracle(
        ex.hash_join(FakeCtx(), left, right, ["l_c0"], ["r_c0"], semi=True),
        oracle.hash_join(left, right, ["l_c0"], ["r_c0"], semi=True),
    )
    matches_oracle(
        ex.hash_join(FakeCtx(), left, right, ["l_c1"], ["r_c1"], anti=True),
        oracle.hash_join(left, right, ["l_c1"], ["r_c1"], anti=True),
    )


@given(relations(min_columns=3))
@settings(max_examples=40, deadline=None)
def test_group_by_equivalence(rel):
    keyed = {
        "c0": [str(v) for v in rel["c0"]],
        "c1": [float(len(str(v))) + (v if isinstance(v, (int, float)) else 0)
               for v in rel["c1"]],
        "c2": rel["c2"],
    }
    aggregates = {
        "n": ("count", None),
        "total": ("sum", "c1"),
        "mean": ("avg", "c1"),
        "lo": ("min", "c2"),
        "hi": ("max", "c2"),
    }
    matches_oracle(ex.group_by(FakeCtx(), keyed, ["c0"], aggregates),
                   oracle.group_by(keyed, ["c0"], aggregates))


@given(relations(min_columns=3))
@settings(max_examples=40, deadline=None)
def test_global_group_equivalence(rel):
    numeric = dict(rel)
    numeric["c1"] = [float(len(str(v))) for v in rel["c1"]]
    aggregates = {"n": ("count", None), "total": ("sum", "c1"),
                  "lo": ("min", "c1"), "mean": ("avg", "c1")}
    matches_oracle(ex.group_by(FakeCtx(), numeric, [], aggregates),
                   oracle.group_by(numeric, [], aggregates))


@given(relations(min_columns=2))
@settings(max_examples=40, deadline=None)
def test_order_by_equivalence(rel):
    keys = [("c0", True), ("c1", False)]
    matches_oracle(ex.order_by(FakeCtx(), rel, keys, limit=10),
                   oracle.order_by(rel, keys, limit=10))


@given(relations())
@settings(max_examples=40, deadline=None)
def test_distinct_equivalence(rel):
    matches_oracle(ex.distinct(FakeCtx(), rel, ["c0", "c1"]),
                   oracle.distinct(rel, ["c0", "c1"]))


def test_concat_mixed_representations():
    left = {"a": vec.asarray([1, 2])}
    right = {"a": [3, 4]}
    assert vec.to_list(ex.concat(left, right)["a"]) == [1, 2, 3, 4]
    assert vec.to_list(ex.concat({"a": [1]}, {"a": [2]})["a"]) == [1, 2]


def test_rows_helper_handles_vectors():
    rel = {"a": vec.asarray([1, 2]), "b": vec.asarray(["x", "y"])}
    assert ex.rows(rel) == [(1, "x"), (2, "y")]
    assert repr(ex.rows(rel)) == "[(1, 'x'), (2, 'y')]"  # python scalars
    assert ex.rows({"a": vec.asarray([])}) == []


@given(relations(min_columns=1, max_columns=1),
       relations(min_columns=1, max_columns=1))
@settings(max_examples=40, deadline=None)
def test_concat_equivalence(left, right):
    matches_oracle(ex.concat(left, right), oracle.concat(left, right))


# --------------------------------------------------------------------- #
# the empty-column dtype rule
# --------------------------------------------------------------------- #

def test_empty_columns_carry_no_float_dtype():
    assert vec.asarray([]).dtype == object
    assert vec.apply_rowwise(lambda v: 0, [vec.asarray([])], 0).dtype == object
    rel = ex.extend(FakeCtx(), {"k": []}, "n", lambda k: 0, ["k"])
    assert rel["n"].dtype == object


def test_concat_with_zero_row_extend_keeps_ints():
    """Q13's shape: customers with orders carry an int count; the
    zero-row side of customers without orders gets 0 from an extend."""
    ctx = FakeCtx()
    with_orders = {"c_custkey": [1, 2, 3], "c_count": [11, 4, 11]}
    without = ex.filter_rows(ctx, {"c_custkey": [7, 8]}, lambda k: k < 0,
                             ["c_custkey"])
    without = ex.extend(ctx, without, "c_count", lambda __: 0, ["c_custkey"])
    all_counts = ex.concat(with_orders, without)
    assert repr(ex.rows(all_counts, ["c_custkey", "c_count"])) == \
        "[(1, 11), (2, 4), (3, 11)]"
    dist = ex.group_by(ctx, all_counts, ["c_count"],
                       {"custdist": ("count", None)})
    dist = ex.order_by(ctx, dist, [("custdist", True), ("c_count", True)])
    assert repr(ex.rows(dist, ["c_count", "custdist"])) == \
        "[(11, 2), (4, 1)]"


def test_concat_keeps_each_sides_value_types():
    merged = ex.concat({"a": vec.asarray([1, 2])}, {"a": vec.asarray([2.5])})
    assert repr(vec.to_list(merged["a"])) == "[1, 2, 2.5]"


# --------------------------------------------------------------------- #
# scan steps: numpy kernel == python oracle
# --------------------------------------------------------------------- #

_PAGE = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=60),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=60),
    st.lists(st.text(alphabet="abcXYZ", max_size=4), min_size=1, max_size=60),
)


@given(_PAGE, st.data())
@settings(max_examples=60, deadline=None)
def test_narrow_chunk_matches_oracle(values, data):
    page = vec.asarray(values)
    lo = data.draw(st.one_of(st.none(), st.sampled_from(values)))
    hi = data.draw(st.one_of(st.none(), st.sampled_from(values)))
    start = data.draw(st.lists(st.booleans(), min_size=len(values),
                               max_size=len(values)))
    pivot = data.draw(st.sampled_from(values))
    for bounds, check in (((lo, hi), None), (None, lambda v: v != pivot)):
        want = list(start)
        oracle.narrow_rows(want, values, bounds, check)
        got = np.array(start, dtype=bool)
        query._narrow_chunk(got, page, bounds, check)
        assert got.tolist() == want


@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=60),
       st.data())
@settings(max_examples=60, deadline=None)
def test_take_chunk_matches_oracle(values, data):
    page = {"v": decode_values_np(encode_values("int", values))}
    count = len(values)
    mask = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    base_row = data.draw(st.integers(0, 1000))
    deleted = RowIdSet()
    deleted.add_many(data.draw(st.lists(
        st.integers(base_row, base_row + count - 1), max_size=count)))
    want = {"v": [], query.ROWID: []}
    oracle.take_rows(want, {"v": values}, ["v"], list(mask), deleted,
                     base_row, True)
    chunks = {"v": [], query.ROWID: []}
    query._take_chunk(chunks, page, ["v"], np.array(mask, dtype=bool),
                      deleted, base_row, True)
    got = {column: vec.concat(parts) for column, parts in chunks.items()}
    assert repr(lists(got)) == repr(want)
