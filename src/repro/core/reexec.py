"""Black-box re-execution in tracing mode (§V-B).

When a lineage query reaches an operator that stored only black-box
lineage, the operator is re-run on its persisted input versions with
``cur_modes = {Full}`` (or the richest pair mode it supports); the resulting
``lwrite()`` calls are captured in a :class:`~repro.core.model.BufferSink`
and joined against the query cells.

Mapping operators have nothing to capture: re-execution pays the compute
cost (the black-box penalty the paper measures) and the join then uses the
mapping functions.  Un-instrumented operators degrade to all-to-all.
"""

from __future__ import annotations

import time

import numpy as np

from repro.arrays import coords as C
from repro.core.model import BufferSink
from repro.core.modes import LineageMode
from repro.core.stats import StatsCollector
from repro.ops.base import LineageContext, Operator
from repro.workflow.instance import WorkflowInstance

__all__ = ["ReExecutor", "join_sink_backward", "join_sink_forward"]


class ReExecutor:
    """Re-runs operators of an executed workflow instance in tracing mode."""

    def __init__(self, instance: WorkflowInstance, stats: StatsCollector | None = None):
        self.instance = instance
        self.stats = stats

    # -- tracing -------------------------------------------------------------

    def _tracing_modes(self, op: Operator) -> frozenset[LineageMode] | None:
        supported = op.supported_modes()
        for mode in (LineageMode.FULL, LineageMode.COMP, LineageMode.PAY):
            if mode in supported:
                return frozenset({mode})
        return None

    def rerun(self, node: str) -> tuple[BufferSink | None, frozenset[LineageMode]]:
        """Re-execute ``node``; returns the captured sink (None when the
        operator has no lineage instrumentation) and the modes used."""
        op = self.instance.operator(node)
        inputs = self.instance.input_arrays(node)
        modes = self._tracing_modes(op)
        start = time.perf_counter()
        if modes is None:
            op.compute(inputs)  # pay the re-execution cost
            sink = None
        else:
            ctx = LineageContext(cur_modes=modes, node=node)
            op.run(inputs, ctx)
            sink = ctx.sink
        elapsed = time.perf_counter() - start
        if self.stats is not None:
            self.stats.record_reexec(node, elapsed)
        return sink, (modes or frozenset())

    # -- query entry points --------------------------------------------------------

    def trace_backward(self, node: str, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        """Backward lineage of ``qpacked`` (packed against the node's output
        array) in input ``input_idx``, via re-execution."""
        op = self.instance.operator(node)
        out_shape = op.output_shape
        in_shape = op.input_shapes[input_idx]
        sink, modes = self.rerun(node)
        if sink is None:
            if LineageMode.MAP in op.supported_modes():
                coords = C.unpack_coords(qpacked, out_shape)
                return C.pack_coords(op.map_b_many(coords, input_idx), in_shape)
            if qpacked.size == 0:
                return np.empty(0, dtype=np.int64)
            return np.arange(int(np.prod(in_shape)), dtype=np.int64)
        result, matched = join_sink_backward(
            sink, op, qpacked, input_idx, out_shape, in_shape
        )
        if LineageMode.COMP in modes:
            unmatched = qpacked[~matched]
            if unmatched.size:
                coords = C.unpack_coords(unmatched, out_shape)
                default = C.pack_coords(op.map_b_many(coords, input_idx), in_shape)
                result = np.concatenate([result, default])
        return np.unique(result) if result.size else result

    def trace_forward(self, node: str, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        """Forward lineage of ``qpacked`` (packed against input ``input_idx``)
        into the node's output array, via re-execution."""
        op = self.instance.operator(node)
        out_shape = op.output_shape
        in_shape = op.input_shapes[input_idx]
        sink, modes = self.rerun(node)
        if sink is None:
            if LineageMode.MAP in op.supported_modes():
                coords = C.unpack_coords(qpacked, in_shape)
                return C.pack_coords(op.map_f_many(coords, input_idx), out_shape)
            if qpacked.size == 0:
                return np.empty(0, dtype=np.int64)
            return np.arange(int(np.prod(out_shape)), dtype=np.int64)
        result, covered = join_sink_forward(
            sink, op, qpacked, input_idx, out_shape, in_shape
        )
        if LineageMode.COMP in modes:
            # Cells whose default (mapping) image is not overridden by a
            # payload pair keep their mapped forward lineage.
            coords = C.unpack_coords(qpacked, in_shape)
            default = C.pack_coords(op.map_f_many(coords, input_idx), out_shape)
            keep = default[~np.isin(default, covered)] if covered.size else default
            result = np.concatenate([result, keep])
        return np.unique(result) if result.size else result


def join_sink_backward(
    sink: BufferSink,
    op: Operator,
    qpacked: np.ndarray,
    input_idx: int,
    out_shape: tuple[int, ...],
    in_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Join captured pairs with query output cells.

    Returns ``(in_packed, matched)`` where ``matched`` flags which query
    cells had explicit lineage (needed for composite defaults).
    """
    query = np.sort(qpacked)
    matched = np.zeros(qpacked.size, dtype=bool)
    parts: list[np.ndarray] = []
    for rb in sink.batches:
        outp = C.pack_coords(rb.out_coords, out_shape)
        hit_mask = C.isin_sorted(outp, query)
        if not hit_mask.any():
            continue
        matched[np.isin(qpacked, outp[hit_mask])] = True
        if rb.is_payload and rb.unit:
            # one output cell per pair: one map_p_batch over the hit rows
            cells, _ = op.map_p_batch(
                rb.out_coords[hit_mask], _unit_payloads(rb, hit_mask), input_idx
            )
            parts.append(C.pack_coords(cells, in_shape))
        elif rb.is_payload:
            # payload expansion is per pair (map_p), over each pair's hits
            for i in np.unique(_owners(rb.out_offsets)[hit_mask]):
                lo, hi = rb.out_offsets[i], rb.out_offsets[i + 1]
                cells = op.map_p_many(
                    C.unpack_coords(outp[lo:hi][hit_mask[lo:hi]], out_shape),
                    _payload(rb, i),
                    input_idx,
                )
                parts.append(C.pack_coords(cells, in_shape))
        else:
            hit_pairs = np.zeros(rb.count, dtype=bool)
            hit_pairs[_owners(rb.out_offsets)[hit_mask]] = True
            in_off = rb.in_offsets[input_idx]
            idx = C.expand_ranges(in_off[:-1][hit_pairs], np.diff(in_off)[hit_pairs])
            if idx.size:
                parts.append(C.pack_coords(rb.in_coords[input_idx][idx], in_shape))
    result = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return result, matched


def join_sink_forward(
    sink: BufferSink,
    op: Operator,
    qpacked: np.ndarray,
    input_idx: int,
    out_shape: tuple[int, ...],
    in_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Join captured pairs with query input cells.

    Returns ``(out_packed, covered)`` where ``covered`` lists every output
    cell that carried an explicit (payload) pair — composite defaults must
    exclude those.
    """
    query = np.sort(qpacked)
    parts: list[np.ndarray] = []
    covered_parts: list[np.ndarray] = []
    for rb in sink.batches:
        if not rb.is_payload:
            in_off = rb.in_offsets[input_idx]
            mask = C.isin_sorted(
                C.pack_coords(rb.in_coords[input_idx], in_shape), query
            )
            if not mask.any():
                continue
            hit_pairs = np.zeros(rb.count, dtype=bool)
            hit_pairs[_owners(in_off)[mask]] = True
            idx = C.expand_ranges(
                rb.out_offsets[:-1][hit_pairs], np.diff(rb.out_offsets)[hit_pairs]
            )
            parts.append(C.pack_coords(rb.out_coords[idx], out_shape))
            continue
        outp = C.pack_coords(rb.out_coords, out_shape)
        covered_parts.append(outp)
        if rb.unit:
            cells, rows = op.map_p_batch(
                rb.out_coords, _unit_payloads(rb, slice(None)), input_idx
            )
            inp = C.pack_coords(cells, in_shape)
            hit_rows = np.unique(rows[np.isin(inp, query)])
            if hit_rows.size:
                parts.append(outp[hit_rows])
            continue
        for i in range(rb.count):
            lo, hi = int(rb.out_offsets[i]), int(rb.out_offsets[i + 1])
            payload = _payload(rb, i)
            # a uniform payload maps every cell of its pair alike: test the
            # pair once instead of cell by cell
            step = hi - lo if op.payload_uniform else 1
            for a in range(lo, hi, step):
                cells = op.map_p_many(rb.out_coords[a : a + step], payload, input_idx)
                if C.isin_sorted(C.pack_coords(cells, in_shape), query).any():
                    parts.append(outp[a : a + step])
    result = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    covered = (
        np.unique(np.concatenate(covered_parts))
        if covered_parts
        else np.empty(0, dtype=np.int64)
    )
    return result, covered


def _owners(offsets: np.ndarray) -> np.ndarray:
    """Pair index of every cell a segment-offsets vector spans."""
    return np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))


def _payload(rb, i: int) -> bytes:
    return rb.payloads[int(rb.payload_offsets[i]) : int(rb.payload_offsets[i + 1])]


def _unit_payloads(rb, rows):
    """The payloads of ``rows`` of a one-cell-per-pair payload batch, as
    ``map_p_batch`` takes them: a ``(n, w)`` uint8 array when every
    payload is ``w`` bytes wide, else a list of byte strings."""
    widths = np.diff(rb.payload_offsets)
    if widths.size and (widths == widths[0]).all():
        fixed = np.frombuffer(rb.payloads, dtype=np.uint8)
        return fixed.reshape(rb.count, int(widths[0]))[rows]
    return [_payload(rb, i) for i in np.arange(rb.count)[rows]]
