"""Unit + property tests for region batches, sinks, frontiers, query objects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import (
    Direction,
    Frontier,
    LineageQuery,
    QueryStep,
    RegionBatch,
)
from repro.core.modes import (
    BLACKBOX,
    FULL_ONE_B,
    MAP,
    EncodingKind,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.errors import LineageError, QueryError
from repro.ops.base import LineageContext


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


class TestRegionPair:
    """A single pair is a one-row batch built by the ``lwrite`` adapters."""

    def test_full_pair(self):
        ctx = LineageContext(frozenset())
        ctx.lwrite(cells((0, 0), (0, 1)), cells((1, 1)))
        (batch,) = ctx.sink.batches
        assert batch.count == 1 and batch.arity == 1
        assert len(batch.out_coords) == 2
        assert batch.in_offsets[0].tolist() == [0, 1]
        assert not batch.is_payload and not batch.unit

    def test_payload_pair(self):
        ctx = LineageContext(frozenset())
        ctx.lwrite_payload(cells((0, 0)), b"x")
        (batch,) = ctx.sink.batches
        assert batch.is_payload and batch.unit
        assert batch.payloads == b"x" and batch.arity == 0

    def test_exactly_one_of_incells_payload(self):
        with pytest.raises(LineageError):
            LineageContext(frozenset()).lwrite(cells((0, 0)))
        with pytest.raises(LineageError):
            RegionBatch(
                out_coords=cells((0, 0)),
                out_offsets=np.asarray([0, 1]),
                in_coords=(cells((0, 0)),),
                in_offsets=(np.asarray([0, 1]),),
                payloads=b"x",
                payload_offsets=np.asarray([0, 1]),
            )

    def test_needs_outcells(self):
        with pytest.raises(LineageError):
            LineageContext(frozenset()).lwrite_payload(
                np.empty((0, 2), dtype=np.int64), b"x"
            )


class TestBatches:
    def test_elementwise_alignment(self):
        ctx = LineageContext(frozenset())
        with pytest.raises(LineageError):
            ctx.lwrite_elementwise(cells((0, 0)), cells((0, 0), (1, 1)))

    def test_payload_batch_ndarray(self):
        ctx = LineageContext(frozenset())
        ctx.lwrite_payload_batch(
            cells((0, 0), (1, 1)), np.zeros((2, 4), dtype=np.uint8)
        )
        (batch,) = ctx.sink.batches
        assert batch.count == 2 and batch.unit
        assert batch.payloads[: batch.payload_offsets[1]] == b"\x00" * 4

    def test_payload_batch_list(self):
        ctx = LineageContext(frozenset())
        ctx.lwrite_payload_batch(cells((0, 0), (1, 1)), [b"ab", b"c"])
        (batch,) = ctx.sink.batches
        assert batch.payloads == b"abc"
        assert batch.payload_offsets.tolist() == [0, 2, 3]

    def test_payload_batch_misaligned(self):
        with pytest.raises(LineageError):
            LineageContext(frozenset()).lwrite_payload_batch(
                cells((0, 0)), [b"a", b"b"]
            )


class TestBufferSink:
    def test_counts(self):
        ctx = LineageContext(frozenset())
        ctx.lwrite(cells((0, 0)), cells((1, 1)))
        ctx.lwrite_elementwise(cells((0, 0), (1, 1)), cells((0, 0), (1, 1)))
        ctx.lwrite_payload_batch(cells((2, 2)), [b"p"])
        # as many input cells as pairs, but not one each: not one-to-one
        ctx.lwrite_batch(
            cells((0, 0), (1, 1)), [0, 1, 2], [cells((0, 0), (0, 1))], [[0, 2, 2]]
        )
        assert ctx.sink.n_pairs == 6
        assert [batch.unit for batch in ctx.sink.batches] == [True, True, True, False]


class TestFrontier:
    def test_add_and_count(self):
        f = Frontier((3, 3))
        f.add_coords(cells((0, 0), (2, 2), (0, 0)))
        assert f.count == 2
        assert (0, 0) in f
        assert (1, 1) not in f

    def test_packed_roundtrip(self):
        f = Frontier((3, 4))
        f.add_packed(np.asarray([0, 5, 11]))
        assert sorted(f.packed().tolist()) == [0, 5, 11]

    def test_full_and_empty(self):
        f = Frontier((2, 2))
        assert f.is_empty
        f.set_all()
        assert f.is_full
        assert Frontier.full((2, 2)).is_full

    def test_mask_shape_checked(self):
        with pytest.raises(QueryError):
            Frontier((2, 2), mask=np.zeros((3, 3), dtype=bool))

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 9)), max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_is_a_set(self, points):
        f = Frontier((8, 10))
        if points:
            f.add_coords(np.asarray(points, dtype=np.int64))
        assert f.count == len(set(points))
        assert {tuple(c) for c in f.coords()} == set(points)


class TestLineageQuery:
    def test_path_coercion(self):
        q = LineageQuery(
            cells=cells((0, 0)),
            path=(("n1", 0), QueryStep("n2", 1)),
            direction=Direction.BACKWARD,
        )
        assert q.path[0] == QueryStep("n1", 0)
        assert q.path[1].input_idx == 1

    def test_empty_path_rejected(self):
        with pytest.raises(QueryError):
            LineageQuery(cells=cells((0, 0)), path=(), direction=Direction.FORWARD)


class TestStorageStrategy:
    def test_labels(self):
        assert FULL_ONE_B.label == "<-FullOne"
        assert MAP.label == "Map"
        assert BLACKBOX.label == "Blackbox"

    def test_stored_modes_need_encoding(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.FULL)

    def test_unstored_modes_reject_encoding(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.MAP, EncodingKind.ONE, Orientation.BACKWARD)

    def test_payload_cannot_be_forward(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.PAY, EncodingKind.ONE, Orientation.FORWARD)

    def test_forward_label(self):
        s = StorageStrategy(LineageMode.FULL, EncodingKind.MANY, Orientation.FORWARD)
        assert s.label == "->FullMany"
