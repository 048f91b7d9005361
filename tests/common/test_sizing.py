"""Tests for record size estimation."""

import collections
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common import sizing
from repro.common.sizing import Sized, estimate_partition_size, estimate_size


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(1) == 8.0
        assert estimate_size(1.5) == 8.0
        assert estimate_size(None) == 8.0
        assert estimate_size(True) == 8.0

    def test_numpy_array_uses_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert estimate_size(arr) >= arr.nbytes

    def test_numpy_scalar(self):
        assert estimate_size(np.float64(1.0)) == 8.0

    def test_string_scales_with_length(self):
        assert estimate_size("a" * 100) > estimate_size("a" * 10)

    def test_tuple_includes_elements(self):
        assert estimate_size((1, 2.0)) > estimate_size(1) + estimate_size(2.0)

    def test_dict(self):
        assert estimate_size({"k": 1}) > estimate_size("k") + estimate_size(1)

    def test_unknown_object_fallback(self):
        class Strange:
            pass

        assert estimate_size(Strange()) == 64.0

    def test_sized_protocol_overrides(self):
        class Virtual(Sized):
            def nbytes_virtual(self):
                return 12345.0

        assert estimate_size(Virtual()) == 12345.0

    @given(st.lists(st.integers(), max_size=50))
    def test_list_size_monotone_in_elements(self, xs):
        assert estimate_size(xs) >= estimate_size(xs[: len(xs) // 2])


class TestEstimatePartitionSize:
    def test_empty(self):
        assert estimate_partition_size([]) == 0.0

    def test_sums_records(self):
        records = [(1, 2.0), (3, 4.0)]
        assert estimate_partition_size(records) == sum(
            estimate_size(r) for r in records
        )


def scalar_fold(records):
    """The reference: a float left fold of per-record estimate_size."""
    return float(sum(estimate_size(r) for r in records))


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


class FractionalBytes(Sized):
    def __init__(self, nbytes: float) -> None:
        self.nbytes = nbytes

    def nbytes_virtual(self) -> float:
        return self.nbytes


Pair = collections.namedtuple("Pair", "key value")

numbers = st.one_of(
    st.integers(),  # unbounded: includes values past 64 bits
    st.booleans(),
    st.none(),
    st.complex_numbers(),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
arrays = st.one_of(
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.int8, np.int32, np.complex128]),
        shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
    ),
    st.lists(st.integers(), max_size=4).map(lambda xs: np.array(xs, dtype=object)),
)
# Leaf strategies by name; a schema picks one per column, so that many
# records share a shape and take the columnar exact path.
LEAVES = {
    "number": numbers,
    "int": st.integers(),
    "float": st.floats(),
    "str": st.text(max_size=12),  # non-ASCII included
    "bytes": st.binary(max_size=12),
    "np_str": st.text(max_size=6).map(np.str_),
    "ndarray": arrays,
    "namedtuple": st.builds(Pair, st.integers(), st.text(max_size=4)),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    "sized": st.floats(0, 1e6).map(FractionalBytes),
}
schemas = st.recursive(
    st.sampled_from(sorted(LEAVES)),
    lambda inner: st.tuples(
        st.sampled_from(["tuple", "list"]), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)


def record_strategy(schema):
    if isinstance(schema, str):
        return LEAVES[schema]
    kind, parts = schema
    fields = st.tuples(*[record_strategy(p) for p in parts])
    return fields if kind == "tuple" else fields.map(list)


@st.composite
def shaped_partitions(draw):
    return draw(st.lists(record_strategy(draw(schemas)), max_size=12))


any_record = st.recursive(
    st.one_of(list(LEAVES.values())),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


class TestExactPartitionSize:
    """estimate_partition_size must equal the scalar fold bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(shaped_partitions())
    def test_shaped_partitions(self, records):
        assert same_bits(estimate_partition_size(records), scalar_fold(records))

    @settings(deadline=None)
    @given(st.lists(any_record, max_size=10))
    def test_ragged_and_mixed_partitions(self, records):
        assert same_bits(estimate_partition_size(records), scalar_fold(records))

    def test_workload_shapes_take_the_exact_path(self):
        # Record shapes of the built-in workloads must take the columnar
        # path: the fallback would be just as exact, but slow.
        for records in (
            [(1, "a"), (2, "bc")],
            [(1, 2, 3, 1.5), (4, 5, 6, 2.5)],
            [(1, ("x",)), (2, ("yz",))],
            [(1.0, (0.5, 0.25)), (2.0, (1.5, 0.75))],
            [(3, (np.ones(4), 7)), (4, (np.zeros(4), 8))],
            ["a line of text", "another"],
            [np.int64(1), np.int64(2)],
        ):
            assert sizing._column_bytes(records) is not None, records
            assert same_bits(estimate_partition_size(records), scalar_fold(records))

    def test_totals_past_2_pow_53_fall_back(self):
        # A zero-stride view claims 2**53 bytes without holding them. Each
        # (view, "a") record sizes to 2**53 + 57, which a float fold
        # rounds (2**53 + 16 + 17 is odd past 2**53), so an integer sum
        # would be off.
        view = np.broadcast_to(np.zeros(1), (2**50,))
        assert view.nbytes == 2**53
        records = [(view, "a")] * 3
        assert sizing._column_bytes(records) != int(scalar_fold(records))
        assert same_bits(estimate_partition_size(records), scalar_fold(records))

    def test_totals_at_the_bound_stay_exact(self):
        view = np.broadcast_to(np.zeros(1, dtype=np.int8), (2**53 - 64,))
        records = [(view, "a")]
        assert sizing._column_bytes(records) <= 2**53
        assert same_bits(estimate_partition_size(records), scalar_fold(records))
