"""Property tests: every store layout is a faithful index of random sinks.

For arbitrary collections of region pairs, the answer any layout gives must
equal the brute-force join over the raw pairs — backward, forward, matched
or mismatched orientation.  This is the encoder/store analogue of the
strategy-equivalence integration tests, at a much higher fuzzing rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import coords as C
from repro.core.lineage_store import make_store
from repro.core.modes import (
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
)
from repro.ops.base import LineageContext

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
