"""Property tests: every store layout is a faithful index of random sinks.

For arbitrary collections of region pairs, the answer any layout gives must
equal the brute-force join over the raw pairs — backward, forward, matched
or mismatched orientation.  This is the encoder/store analogue of the
strategy-equivalence integration tests, at a much higher fuzzing rate.
The payload layouts' forward index is held to the same oracle, and every
``map_p_batch`` override of the benchmark operators to the row-wise
``map_p_many`` it replaces.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import coords as C
from repro.arrays.schema import ArraySchema
from repro.bench.astronomy import CosmicRayDetect, CosmicRayRemove, StarDetect
from repro.bench.genomics import ExtractFeatures, Predict
from repro.core.lineage_store import make_store
from repro.core.modes import (
    COMP_MANY_B,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
    LineageMode,
)
from repro.core.overlay import OverlayStore
from repro.errors import StorageError
from repro.ops.base import LineageContext, Operator

SHAPE = (9, 11)
SIZE = SHAPE[0] * SHAPE[1]


def _cells(packed):
    return C.unpack_coords(np.asarray(packed, dtype=np.int64), SHAPE)


@st.composite
def sinks(draw, arity=1):
    """Random lineage written through :class:`LineageContext`, plus the
    pairs it denotes and a query.

    The sink holds one-row batches (``lwrite``), an all-unit batch
    (``lwrite_elementwise`` — the stores' inline one-to-one path) and a
    batch mixing one-to-one rows with region rows (``lwrite_batch`` — it
    must take the general path).  Each pair is ``(outs, [ins per input])``
    in packed form; inputs past the first may be empty in region rows.
    """
    ctx = LineageContext(frozenset())
    pairs = []

    def cell_set(min_size, max_size):
        values = draw(
            st.lists(
                st.integers(0, SIZE - 1),
                min_size=min_size,
                max_size=max_size,
                unique=True,
            )
        )
        return np.sort(np.asarray(values, dtype=np.int64))

    def region_row():
        return cell_set(1, 4), [cell_set(1 if k == 0 else 0, 5) for k in range(arity)]

    for _ in range(draw(st.integers(0, 4))):
        outs, ins = region_row()
        ctx.lwrite(_cells(outs), *[_cells(cells) for cells in ins])
        pairs.append((outs, ins))
    n_unit = draw(st.integers(0, 8))
    if n_unit:
        outs = [draw(st.integers(0, SIZE - 1)) for _ in range(n_unit)]
        ins = [[draw(st.integers(0, SIZE - 1)) for _ in range(n_unit)] for _ in range(arity)]
        ctx.lwrite_elementwise(_cells(outs), *[_cells(cells) for cells in ins])
        assert ctx.sink.batches[-1].unit
        for j in range(n_unit):
            pairs.append((np.asarray([outs[j]]), [np.asarray([c[j]]) for c in ins]))
    n_mixed = draw(st.integers(0, 5))
    if n_mixed:
        # row 0 is a region (two input cells), the rest one-to-one or region
        rows = [(cell_set(1, 3), [cell_set(2, 5)] + [cell_set(0, 5) for _ in range(arity - 1)])]
        for _ in range(n_mixed - 1):
            if draw(st.booleans()):
                rows.append((cell_set(1, 1), [cell_set(1, 1) for _ in range(arity)]))
            else:
                rows.append(region_row())
        ctx.lwrite_batch(
            _cells(np.concatenate([outs for outs, _ in rows])),
            np.cumsum([0] + [outs.size for outs, _ in rows]),
            [_cells(np.concatenate([ins[k] for _, ins in rows])) for k in range(arity)],
            [np.cumsum([0] + [ins[k].size for _, ins in rows]) for k in range(arity)],
        )
        assert not ctx.sink.batches[-1].unit
        pairs.extend(rows)
    query = draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=12))
    return ctx.sink, pairs, np.unique(np.asarray(query, dtype=np.int64))


def brute_backward(pairs, query, input_idx=0):
    hit, result = set(), set()
    qset = set(query.tolist())
    for outs, ins in pairs:
        touched = qset & set(outs.tolist())
        if touched:
            hit |= touched
            result |= set(ins[input_idx].tolist())
    return hit, result


def brute_forward(pairs, query, input_idx=0):
    qset = set(query.tolist())
    result = set()
    for outs, ins in pairs:
        if qset & set(ins[input_idx].tolist()):
            result |= set(outs.tolist())
    return result


@pytest.mark.parametrize("strategy", [FULL_ONE_B, FULL_MANY_B], ids=lambda s: s.label)
class TestBackwardOrientedStores:
    @given(case=sinks())
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        matched, per_input = store.backward_full(query)
        want_hit, want = brute_backward(pairs, query)
        assert set(query[matched].tolist()) == want_hit
        assert set(per_input[0].tolist()) == want

    @given(case=sinks())
    @settings(max_examples=40, deadline=None)
    def test_forward_scan_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        outs = store.scan_forward_full(query, 0)
        assert set(outs.tolist()) == brute_forward(pairs, query)


@pytest.mark.parametrize("strategy", [FULL_ONE_F, FULL_MANY_F], ids=lambda s: s.label)
class TestForwardOrientedStores:
    @given(case=sinks())
    @settings(max_examples=60, deadline=None)
    def test_forward_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        outs = store.forward_full(query, 0)
        assert set(outs.tolist()) == brute_forward(pairs, query)

    @given(case=sinks())
    @settings(max_examples=40, deadline=None)
    def test_backward_scan_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        matched, per_input = store.scan_backward_full(query)
        want_hit, want = brute_backward(pairs, query)
        assert set(query[matched].tolist()) == want_hit
        assert set(per_input[0].tolist()) == want


class TestMultiInputStores:
    @given(case=sinks(arity=2))
    @settings(max_examples=30, deadline=None)
    def test_two_input_backward(self, case):
        """Pairs over two inputs keep their per-input cell sets separate,
        in every Full layout and both orientations."""
        sink, pairs, query = case
        for strategy in (FULL_ONE_B, FULL_MANY_B, FULL_ONE_F, FULL_MANY_F):
            store = make_store("n", strategy, SHAPE, (SHAPE, SHAPE))
            store.ingest(sink)
            backward = strategy in (FULL_ONE_B, FULL_MANY_B)
            read = store.backward_full if backward else store.scan_backward_full
            read_f = store.scan_forward_full if backward else store.forward_full
            matched, per_input = read(query)
            assert set(query[matched].tolist()) == brute_backward(pairs, query)[0]
            for idx in range(2):
                _, want = brute_backward(pairs, query, idx)
                assert set(per_input[idx].tolist()) == want
                got = read_f(query, idx)
                assert set(got.tolist()) == brute_forward(pairs, query, idx)


# -- the forward payload index ---------------------------------------------------

PAYLOAD_LAYOUTS = (PAY_ONE_B, PAY_MANY_B, COMP_ONE_B, COMP_MANY_B)


class _ListedCells(Operator):
    """Payload = packed input cells (``<i8``); every output cell of a pair
    maps to exactly those cells, so the operator is payload-uniform."""

    arity = 1
    payload_uniform = True

    def _listed(self, payload):
        return np.frombuffer(payload, dtype="<i8").astype(np.int64)

    def map_p_many(self, out_coords, payload, input_idx):
        return _cells(self._listed(payload))


class _ShiftedCells(_ListedCells):
    """Non-uniform: output cell ``o`` maps to the listed cells shifted by
    ``o``'s packed value, so a pair's cells differ per output cell."""

    payload_uniform = False

    def map_p_many(self, out_coords, payload, input_idx):
        outs = C.pack_coords(C.as_coord_array(out_coords, ndim=2), SHAPE)
        listed = self._listed(payload)
        return _cells(np.unique((listed[None, :] + outs[:, None]) % SIZE))


def _mapped(op, out, listed):
    """Brute-force ``map_p`` of one output cell (packed)."""
    if op.payload_uniform:
        return set(listed.tolist())
    return {(int(c) + out) % SIZE for c in listed}


@st.composite
def payload_pairs(draw):
    """Payload pairs ``(outs, listed input cells)``: one-cell pairs and
    region pairs, plus a query."""
    def cell_set(min_size, max_size):
        values = draw(
            st.lists(st.integers(0, SIZE - 1), min_size=min_size, max_size=max_size, unique=True)
        )
        return np.sort(np.asarray(values, dtype=np.int64))

    pairs = [
        (cell_set(1, 1 if draw(st.booleans()) else 4), cell_set(0, 4))
        for _ in range(draw(st.integers(0, 8)))
    ]
    query = draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=12))
    return pairs, np.unique(np.asarray(query, dtype=np.int64))


def _payload_sink(pairs):
    ctx = LineageContext(frozenset())
    for outs, listed in pairs:
        ctx.lwrite_payload(_cells(outs), listed.astype("<i8").tobytes())
    return ctx.sink


def brute_payload_forward(op, pairs, query):
    q = set(query.tolist())
    return {
        int(out)
        for outs, listed in pairs
        for out in outs.tolist()
        if q & _mapped(op, out, listed)
    }


def _reopen(strategy, path):
    store = make_store("n", strategy, SHAPE, (SHAPE,))
    store.load_segment(path)
    return store


class TestForwardPayloadIndex:
    """The cached inverted index answers like the brute-force oracle, on
    its first query, from cache, and after its store closes and reopens —
    over one store and over a two-generation overlay."""

    @pytest.mark.parametrize("op", [_ListedCells(), _ShiftedCells()], ids=["uniform", "per-cell"])
    @pytest.mark.parametrize("strategy", PAYLOAD_LAYOUTS, ids=lambda s: s.label)
    @given(case=payload_pairs())
    @settings(max_examples=30, deadline=None)
    def test_index_matches_brute_force(self, strategy, op, case):
        pairs, query = case
        want = brute_payload_forward(op, pairs, query)
        stored = {int(c) for outs, _ in pairs for c in outs.tolist()}
        half = len(pairs) // 2
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, part in enumerate((pairs, pairs[:half], pairs[half:])):
                store = make_store("n", strategy, SHAPE, (SHAPE,))
                store.ingest(_payload_sink(part))
                paths.append(os.path.join(tmp, f"g{i}.seg"))
                store.flush_segment(paths[-1])

            def one():
                return _reopen(strategy, paths[0])

            def overlay():
                return OverlayStore([_reopen(strategy, p) for p in paths[1:]])

            for open_store in (one, overlay):
                store = open_store()
                assert not store.payload_index_ready(0)
                first = store.forward_payload_index(op, 0)
                assert set(first.forward(query).tolist()) == want
                assert store.payload_index_ready(0)
                again = store.forward_payload_index(op, 0)
                assert again is first and store.payload_index_builds == 1
                assert set(again.forward(query).tolist()) == want
                if strategy.mode is LineageMode.COMP:
                    assert first.overridden.tolist() == sorted(stored)
                store.close()
                assert not store.payload_index_ready(0)
                assert store.payload_index_bytes == 0
                with pytest.raises(StorageError):
                    store.forward_payload_index(op, 0)
                reopened = open_store()
                index = reopened.forward_payload_index(op, 0)
                assert set(index.forward(query).tolist()) == want
                reopened.close()


# -- map_p_batch overrides --------------------------------------------------------


def _bound(op, *shapes):
    op.bind(tuple(ArraySchema.dense(s) for s in shapes))
    return op


def _star_payloads(draw, op):
    """Identity, cell-set and box payloads of StarDetect."""
    kinds = draw(st.lists(st.sampled_from(["identity", "empty", "cells", "box"]), min_size=1, max_size=12))
    payloads = []
    for kind in kinds:
        if kind == "identity":
            payloads.append(b"\0")
        elif kind == "empty":
            payloads.append(b"")
        else:
            rows = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))
            cols = draw(st.lists(st.integers(0, 8), min_size=len(rows), max_size=len(rows)))
            op.granularity = "box" if kind == "box" else "exact"
            payloads.append(op._encode_cells(np.stack([rows, cols], axis=1).astype(np.int64)))
    op.granularity = "exact"
    return payloads


@st.composite
def batch_cases(draw):
    """An operator with a ``map_p_batch`` override, its input, output
    cells and one payload per cell (as a list or an ``(n, w)`` matrix)."""
    name = draw(st.sampled_from(["crd", "crr", "star", "extract", "predict"]))
    if name in ("crd", "crr", "star"):
        shape = (8, 9)
        op = {"crd": CosmicRayDetect, "crr": CosmicRayRemove, "star": StarDetect}[name]()
        _bound(op, *([shape] * op.arity))
        idx = draw(st.integers(0, op.arity - 1))
        if name == "star":
            payloads = _star_payloads(draw, op)
        else:
            radii = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
            payloads = [bytes([r]) for r in radii]
    elif name == "extract":
        op = _bound(ExtractFeatures(n_select=3, label_col=7), (6, 8))
        idx = 0
        picks = draw(st.lists(st.integers(0, 6 * 8 - 1), min_size=1, max_size=12))
        payloads = [np.int64(p).astype("<i8").tobytes() for p in picks]
        shape = op.output_shape
    else:
        op = _bound(Predict(), (5, 2), (7, 5))
        shape = op.output_shape
        idx = draw(st.integers(0, 1))
        patients = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
        payloads = [np.int64(p).astype("<i8").tobytes() for p in patients]
    n = len(payloads)
    rows = draw(st.lists(st.integers(0, shape[0] - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, shape[1] - 1), min_size=n, max_size=n))
    out = np.stack([rows, cols], axis=1).astype(np.int64)
    if len({len(p) for p in payloads}) == 1 and len(payloads[0]) and draw(st.booleans()):
        payloads = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(n, -1)
    return op, out, payloads, idx


class TestMapPBatchOverrides:
    """Every ``map_p_batch`` override in ``repro.bench`` expands each row
    to exactly what ``map_p_many`` gives that row alone."""

    @given(case=batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_row_wise_map_p_many(self, case):
        op, out, payloads, idx = case
        cells, rows = op.map_p_batch(out, payloads, idx)
        assert cells.shape[0] == rows.shape[0]
        for i in range(out.shape[0]):
            payload = bytes(payloads[i])
            want = {tuple(c) for c in op.map_p_many(out[i: i + 1], payload, idx).tolist()}
            got = {tuple(c) for c in cells[rows == i].tolist()}
            assert got == want, (type(op).__name__, i)
