"""Vectorized kernels: numpy helpers, operators, page decode.

The contract under test everywhere: the numpy path must reproduce the
scalar path's output *exactly* — same rows, same order, same float bits.
Property tests drive random relations through each operator in both
modes and compare; kernel tests pin the order-sensitive details (group
appearance order, join match order, sequential float accumulation).
"""

from __future__ import annotations

import math

import pytest

from repro.columnar import exec as ex
from repro.columnar import vec
from repro.columnar.encoding import (
    _unpack_nbit,
    decode_values,
    decode_values_np,
    encode_values,
)
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuModel

np = pytest.importorskip("numpy")

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class FakeSession:
    """Just enough session surface for operator-level tests."""

    def __init__(self, vcpus: int = 4) -> None:
        self.cpu = CpuModel(VirtualClock(), vcpus=vcpus)


class FakeCtx:
    """Operator context without a database: cpu + kernel flag."""

    def __init__(self, vectorized: bool, vcpus: int = 4) -> None:
        self.session = FakeSession(vcpus)
        self.cpu = self.session.cpu
        self.vectorized = vectorized


def norm(rel):
    """Relation -> plain python lists for comparison."""
    return {k: vec.to_list(v) for k, v in rel.items()}


def both_ways(op):
    """Run ``op(ctx)`` with each kernel; assert identical output and cost."""
    scalar_ctx = FakeCtx(vectorized=False)
    vector_ctx = FakeCtx(vectorized=True)
    scalar = norm(op(scalar_ctx))
    vectorized = norm(op(vector_ctx))
    assert scalar == vectorized
    assert vector_ctx.cpu.total_ops == scalar_ctx.cpu.total_ops
    assert vector_ctx.cpu.clock.now() == scalar_ctx.cpu.clock.now()
    return scalar


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
# operators: scalar == vectorized (property tests)
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
    both_ways(lambda ctx: ex.filter_rows(
        ctx, rel, lambda v: v >= pivot, ["c0"]
    ))


@given(relations())
@settings(max_examples=40, deadline=None)
def test_extend_equivalence(rel):
    both_ways(lambda ctx: ex.extend(
        ctx, rel, "derived", lambda a, b: (a, b) == (a, b) and str(a) < str(b),
        ["c0", "c1"],
    ))


@given(relations(), relations())
@settings(max_examples=40, deadline=None)
def test_hash_join_equivalence(left, right):
    both_ways(lambda ctx: ex.hash_join(
        ctx,
        {f"l_{k}": [str(v) for v in vs] for k, vs in left.items()},
        {f"r_{k}": [str(v) for v in vs] for k, vs in right.items()},
        ["l_c0"], ["r_c0"],
    ))


@given(relations(), relations())
@settings(max_examples=40, deadline=None)
def test_semi_anti_join_equivalence(left, right):
    left = {f"l_{k}": [str(v) for v in vs] for k, vs in left.items()}
    right = {f"r_{k}": [str(v) for v in vs] for k, vs in right.items()}
    both_ways(lambda ctx: ex.hash_join(
        ctx, left, right, ["l_c0"], ["r_c0"], semi=True
    ))
    both_ways(lambda ctx: ex.hash_join(
        ctx, left, right, ["l_c1"], ["r_c1"], anti=True
    ))


@given(relations(min_columns=3))
@settings(max_examples=40, deadline=None)
def test_group_by_equivalence(rel):
    keyed = {
        "c0": [str(v) for v in rel["c0"]],
        "c1": [float(len(str(v))) + (v if isinstance(v, (int, float)) else 0)
               for v in rel["c1"]],
        "c2": rel["c2"],
    }
    both_ways(lambda ctx: ex.group_by(
        ctx, keyed, ["c0"],
        {
            "n": ("count", None),
            "total": ("sum", "c1"),
            "mean": ("avg", "c1"),
            "lo": ("min", "c2"),
            "hi": ("max", "c2"),
        },
    ))


@given(relations(min_columns=3))
@settings(max_examples=40, deadline=None)
def test_global_group_equivalence(rel):
    numeric = dict(rel)
    numeric["c1"] = [float(len(str(v))) for v in rel["c1"]]
    both_ways(lambda ctx: ex.group_by(
        ctx, numeric, [],
        {"n": ("count", None), "total": ("sum", "c1")},
    ))


@given(relations(min_columns=2))
@settings(max_examples=40, deadline=None)
def test_order_by_equivalence(rel):
    both_ways(lambda ctx: ex.order_by(
        ctx, rel, [("c0", True), ("c1", False)], limit=10
    ))


@given(relations())
@settings(max_examples=40, deadline=None)
def test_distinct_equivalence(rel):
    both_ways(lambda ctx: ex.distinct(ctx, rel, ["c0", "c1"]))


def test_concat_mixed_representations():
    left = {"a": vec.asarray([1, 2])}
    right = {"a": [3, 4]}
    assert vec.to_list(ex.concat(left, right)["a"]) == [1, 2, 3, 4]
    assert ex.concat({"a": [1]}, {"a": [2]})["a"] == [1, 2]


def test_rows_helper_handles_vectors():
    rel = {"a": vec.asarray([1, 2]), "b": vec.asarray(["x", "y"])}
    assert ex.rows(rel) == [(1, "x"), (2, "y")]
    assert repr(ex.rows(rel)) == "[(1, 'x'), (2, 'y')]"  # python scalars
    assert ex.rows({"a": vec.asarray([])}) == []


# --------------------------------------------------------------------- #
# numpy-less degradation
# --------------------------------------------------------------------- #

def test_vectorized_executor_requires_numpy(monkeypatch):
    monkeypatch.setattr(vec, "np", None)
    assert not vec.have_numpy()
    with pytest.raises(vec.VectorizedUnavailableError) as err:
        vec.require_numpy("vectorized_executor=True")
    message = str(err.value)
    assert "numpy" in message
    assert "repro[perf]" in message
    assert "vectorized_executor=False" in message


def test_database_fails_fast_without_numpy(monkeypatch):
    from repro.engine import Database, DatabaseConfig

    monkeypatch.setattr(vec, "np", None)
    with pytest.raises(vec.VectorizedUnavailableError):
        Database(DatabaseConfig(vectorized_executor=True))
    # The scalar default stays fully functional.
    db = Database(DatabaseConfig())
    assert db.config.vectorized_executor is False
