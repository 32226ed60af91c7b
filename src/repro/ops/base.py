"""Operator base class and the lineage API of Table I.

An operator consumes ``n`` input arrays and produces one output array (§IV).
Subclasses implement :meth:`Operator.compute` for the data transformation
and, depending on the lineage modes they support:

* ``MAP`` — override :meth:`map_b_many` / :meth:`map_f_many` (vectorised
  counterparts of the paper's ``map_b(outcell, i)`` / ``map_f(incell, i)``;
  they return the *union* of the per-cell lineage, which is all the query
  executor's boolean frontier needs);
* ``FULL`` — override :meth:`write_lineage` and call ``ctx.lwrite(...)``;
* ``PAY``/``COMP`` — also override :meth:`map_p_many` (the paper's
  ``map_p(outcell, payload, i)``) and emit payload pairs from
  :meth:`write_lineage` via ``ctx.lwrite_payload``.

``supported_modes()`` declares what the optimizer may pick (operators that
don't override it are treated as all-to-all black boxes, exactly as §IV
prescribes for un-instrumented UDFs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.arrays.schema import ArraySchema
from repro.core.model import BufferSink, RegionBatch
from repro.core.modes import LineageMode
from repro.errors import LineageError, OperatorError

__all__ = ["LineageContext", "Operator"]


class LineageContext:
    """Handed to :meth:`Operator.run`; carries ``cur_modes`` and the sink
    behind the ``lwrite`` API calls."""

    def __init__(
        self,
        cur_modes: frozenset[LineageMode],
        sink: BufferSink | None = None,
        node: str | None = None,
    ):
        self.cur_modes = frozenset(cur_modes)
        self.sink = sink if sink is not None else BufferSink()
        self.node = node

    # -- mode queries ----------------------------------------------------------

    @property
    def wants_full(self) -> bool:
        return LineageMode.FULL in self.cur_modes

    @property
    def wants_payload(self) -> bool:
        return bool(
            self.cur_modes & {LineageMode.PAY, LineageMode.COMP}
        )

    @property
    def wants_pairs(self) -> bool:
        """True when the operator should execute its lineage-recording code."""
        return self.wants_full or self.wants_payload

    # -- the lwrite API (Table I) ---------------------------------------------
    #
    # Every form builds one RegionBatch; the one-pair and one-to-one forms
    # are adapters over the two columnar ones.

    def lwrite(self, outcells, *incells) -> None:
        """Record one region pair: ``outcells`` depend on every ``incells[i]``."""
        if not incells:
            raise LineageError("lwrite needs input cells (or use lwrite_payload)")
        outcells = C.as_coord_array(outcells)
        incells = [C.as_coord_array(cells) for cells in incells]
        self.lwrite_batch(
            outcells, [0, len(outcells)], incells, [[0, len(cells)] for cells in incells]
        )

    def lwrite_payload(self, outcells, payload: bytes) -> None:
        """Record one payload pair (``lwrite(outcells, payload)`` in Table I)."""
        outcells = C.as_coord_array(outcells)
        self.lwrite_payload_regions(
            outcells, [0, len(outcells)], payload, [0, len(payload)]
        )

    def lwrite_elementwise(self, outcells, *incells) -> None:
        """Bulk form: row ``i`` is its own one-to-one region pair."""
        outcells = C.as_coord_array(outcells)
        one_cell = np.arange(outcells.shape[0] + 1, dtype=np.int64)
        self.lwrite_batch(outcells, one_cell, incells, [one_cell] * len(incells))

    def lwrite_payload_batch(self, outcells, payloads) -> None:
        """Bulk form: output cell ``i`` carries ``payloads[i]`` — a list of
        byte strings or a ``(n, w)`` uint8 array of fixed-width payloads."""
        outcells = C.as_coord_array(outcells)
        n = outcells.shape[0]
        if isinstance(payloads, np.ndarray):
            if payloads.ndim != 2 or payloads.shape[0] != n:
                raise LineageError("fixed-width payloads must be a (n, w) uint8 array")
            offsets = np.arange(n + 1, dtype=np.int64) * payloads.shape[1]
            payloads = payloads.tobytes()
        else:
            if len(payloads) != n:
                raise LineageError("payload list must align with output cells")
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([len(p) for p in payloads], out=offsets[1:])
            payloads = b"".join(payloads)
        self.lwrite_payload_regions(
            outcells, np.arange(n + 1, dtype=np.int64), payloads, offsets
        )

    def lwrite_batch(self, out_coords, out_offsets, in_coords, in_offsets) -> None:
        """Columnar bulk form: ``n`` full region pairs in one call.

        Pair ``i`` spans ``out_coords[out_offsets[i]:out_offsets[i+1]]`` and,
        per input ``k``, ``in_coords[k][in_offsets[k][i]:in_offsets[k][i+1]]``.
        This is the zero-object capture path: built-in operators emit their
        whole lineage as one descriptor and the stores lower it lazily.
        """
        self.sink.add(
            RegionBatch(
                out_coords=C.as_coord_array(out_coords),
                out_offsets=np.asarray(out_offsets, dtype=np.int64),
                in_coords=tuple(C.as_coord_array(cells) for cells in in_coords),
                in_offsets=tuple(
                    np.asarray(off, dtype=np.int64) for off in in_offsets
                ),
            )
        )

    def lwrite_payload_regions(
        self, out_coords, out_offsets, payloads: bytes, payload_offsets
    ) -> None:
        """Columnar bulk form for payload pairs with multi-cell out regions.

        Pair ``i`` spans ``out_coords[out_offsets[i]:out_offsets[i+1]]`` and
        carries ``payloads[payload_offsets[i]:payload_offsets[i+1]]``.
        """
        if type(payloads) is not bytes:  # zero-copy when already immutable
            payloads = bytes(payloads)
        self.sink.add(
            RegionBatch(
                out_coords=C.as_coord_array(out_coords),
                out_offsets=np.asarray(out_offsets, dtype=np.int64),
                payloads=payloads,
                payload_offsets=np.asarray(payload_offsets, dtype=np.int64),
            )
        )


class Operator:
    """Base class for every workflow operator (built-in or UDF)."""

    #: number of input arrays; subclasses may override or set at init
    arity: int = 1
    #: every output cell depends on every input cell (e.g. global mean)
    all_to_all: bool = False
    #: manual annotations for the entire-array optimization (§VI-C).
    #: ``entire_array_safe`` asserts both directions at once; the split
    #: flags handle operators that are safe one way only — concat's forward
    #: lineage of one whole input is a *subset* of the output (the paper's
    #: counterexample), while its backward lineage of the whole output is
    #: each whole input.
    entire_array_safe: bool = False
    entire_array_safe_backward: bool = False
    entire_array_safe_forward: bool = False

    def entire_array_ok(self, backward: bool) -> bool:
        """May a full query frontier short-circuit this operator?"""
        if self.entire_array_safe:
            return True
        return self.entire_array_safe_backward if backward else self.entire_array_safe_forward

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self.input_schemas: tuple[ArraySchema, ...] | None = None
        self.output_schema: ArraySchema | None = None

    # -- binding -----------------------------------------------------------

    def bind(self, input_schemas: Sequence[ArraySchema]) -> ArraySchema:
        """Validate input schemas and derive the output schema.

        Mapping functions may rely on ``self.input_shapes`` and
        ``self.output_shape`` afterwards (the paper's mapping operators
        compute lineage from coordinates and array metadata only).
        """
        input_schemas = tuple(input_schemas)
        if len(input_schemas) != self.arity:
            raise OperatorError(
                f"{self.name}: expected {self.arity} inputs, got {len(input_schemas)}"
            )
        self.input_schemas = input_schemas
        self.output_schema = self.infer_schema(input_schemas).with_name(self.name)
        return self.output_schema

    def infer_schema(self, input_schemas: tuple[ArraySchema, ...]) -> ArraySchema:
        """Default: output mirrors the first input."""
        return input_schemas[0]

    @property
    def input_shapes(self) -> tuple[tuple[int, ...], ...]:
        self._require_bound()
        return tuple(s.shape for s in self.input_schemas)

    @property
    def output_shape(self) -> tuple[int, ...]:
        self._require_bound()
        return self.output_schema.shape

    def _require_bound(self) -> None:
        if self.input_schemas is None or self.output_schema is None:
            raise OperatorError(f"{self.name} has not been bound to input schemas")

    # -- execution ------------------------------------------------------------

    def run(self, inputs: Sequence[SciArray], ctx: LineageContext) -> SciArray:
        """Execute the operator, emitting lineage for ``ctx.cur_modes``.

        The default split keeps pure computation (:meth:`compute`) separate
        from lineage recording (:meth:`write_lineage`); operators may
        instead override ``run`` wholesale, as the paper's pseudocode does.
        """
        output = self.compute(list(inputs))
        if ctx.wants_pairs:
            self.write_lineage(list(inputs), output, ctx)
        return output

    def compute(self, inputs: list[SciArray]) -> SciArray:
        raise NotImplementedError(f"{self.name} does not implement compute()")

    def write_lineage(
        self, inputs: list[SciArray], output: SciArray, ctx: LineageContext
    ) -> None:
        """Emit region pairs via ``ctx.lwrite*``.

        The default covers three cases so built-ins need no extra code when a
        tracing re-execution asks for ``FULL`` (§V-B): all-to-all operators
        emit one exact pair (checked *before* the mapping path — a global
        aggregate supporting ``MAP`` would otherwise expand the identical
        all-to-all relation once per output cell); mapping operators derive
        exact per-cell pairs from one :meth:`map_b_batch` pass; anything else
        degrades to a single all-to-all pair.
        """
        if not self.all_to_all and LineageMode.MAP in self.supported_modes():
            self._trace_full_from_map(output, ctx)
            return
        outcells = C.all_coords(output.shape)
        incells = [C.all_coords(arr.shape) for arr in inputs]
        ctx.lwrite(outcells, *incells)

    def _trace_full_from_map(self, output: SciArray, ctx: LineageContext) -> None:
        """One batch pass: each output cell becomes its own region pair."""
        outcells = C.all_coords(output.shape)
        results = [self.map_b_batch(outcells, i) for i in range(self.arity)]
        n = outcells.shape[0]
        out_offsets = np.arange(n + 1, dtype=np.int64)
        in_offsets = []
        for _, counts in results:
            off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            in_offsets.append(off)
        ctx.lwrite_batch(
            outcells,
            out_offsets,
            [cells for cells, _ in results],
            in_offsets,
        )

    # -- lineage declarations (Table I) ------------------------------------------

    def supported_modes(self) -> frozenset[LineageMode]:
        """Modes the optimizer may schedule for this operator.

        Default: black box only — the paper's conservative all-to-all
        assumption for un-instrumented operators.
        """
        return frozenset({LineageMode.BLACKBOX})

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        """Union of the backward lineage of ``out_coords`` in input ``input_idx``."""
        if self.all_to_all:
            self._require_bound()
            return C.all_coords(self.input_shapes[input_idx])
        raise LineageError(f"{self.name} defines no backward mapping function")

    def map_b_batch(
        self, out_coords: np.ndarray, input_idx: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``map_b``: per-output-cell backward lineage in one pass.

        Returns ``(in_coords, counts)`` where output row ``i`` depends on
        ``counts[i]`` consecutive rows of ``in_coords`` (rows appear in
        output-row order).  Unlike :meth:`map_b_many` this keeps per-row
        boundaries, so tracing re-execution can emit exact region pairs
        without a per-cell Python loop.  The default loops over rows calling
        :meth:`map_b_many`; built-in operators override it with vectorised
        implementations.
        """
        out_coords = C.as_coord_array(out_coords)
        n = out_coords.shape[0]
        pieces: list[np.ndarray] = []
        counts = np.empty(n, dtype=np.int64)
        for i in range(n):
            cells = self.map_b_many(out_coords[i : i + 1], input_idx)
            pieces.append(cells)
            counts[i] = cells.shape[0]
        if not pieces:
            self._require_bound()
            ndim = len(self.input_shapes[input_idx])
            return C.empty_coords(ndim), counts
        return np.concatenate(pieces), counts

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        """Union of the forward lineage of ``in_coords`` from input ``input_idx``."""
        if self.all_to_all:
            self._require_bound()
            return C.all_coords(self.output_shape)
        raise LineageError(f"{self.name} defines no forward mapping function")

    def map_p_many(
        self, out_coords: np.ndarray, payload: bytes, input_idx: int
    ) -> np.ndarray:
        """Expand a payload pair back into input cells (``map_p`` in Table I)."""
        raise LineageError(f"{self.name} defines no payload mapping function")

    #: True when ``map_p`` returns the same input cells for every output
    #: cell of a pair (e.g. all pixels of one detected star).  Lets the
    #: forward payload index expand a pair once instead of per cell.
    payload_uniform: bool = False

    def map_p_batch(
        self, out_coords: np.ndarray, payloads, input_idx: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``map_p``: output cell ``i`` carries ``payloads[i]``.

        Returns ``(in_coords, row_idx)`` where ``in_coords[j]`` belongs to
        output row ``row_idx[j]``.  The default loops over rows calling
        :meth:`map_p_many`; operators with fixed-width payloads should
        override with a vectorised implementation.
        """
        out_coords = C.as_coord_array(out_coords)
        pieces: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for i in range(out_coords.shape[0]):
            if isinstance(payloads, np.ndarray):
                payload = payloads[i].tobytes()
            else:
                payload = payloads[i]
            cells = self.map_p_many(out_coords[i: i + 1], payload, input_idx)
            pieces.append(cells)
            rows.append(np.full(cells.shape[0], i, dtype=np.int64))
        if not pieces:
            return C.empty_coords(out_coords.shape[1]), np.empty(0, dtype=np.int64)
        return np.concatenate(pieces), np.concatenate(rows)

    # -- scalar conveniences matching the paper's signatures ------------------------

    def map_b(self, outcell: Sequence[int], input_idx: int = 0) -> np.ndarray:
        return self.map_b_many(C.as_coord_array([tuple(outcell)]), input_idx)

    def map_f(self, incell: Sequence[int], input_idx: int = 0) -> np.ndarray:
        return self.map_f_many(C.as_coord_array([tuple(incell)]), input_idx)

    def map_p(self, outcell: Sequence[int], payload: bytes, input_idx: int = 0) -> np.ndarray:
        return self.map_p_many(C.as_coord_array([tuple(outcell)]), payload, input_idx)

    # -- cost hints -------------------------------------------------------------

    def runtime_cost_hint(self) -> float:
        """Relative compute weight used by the cost model before any
        measurement exists (1.0 = cheap elementwise pass)."""
        return 1.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} arity={self.arity}>"
