"""Region lineage data model: region batches, frontiers, query paths.

Region lineage (§IV-c) represents lineage as *region pairs* — an all-to-all
relationship between a set of output cells and a set of input cells per
input array.  Payload pairs replace the input cells with a small opaque blob
that a payload function (``map_p``) expands back into input cells at query
time (§V-A.3).

Every ``lwrite*`` call of Table I builds one :class:`RegionBatch` — ``n``
pairs as packed coordinate arrays plus offset vectors — and hands it to a
:class:`BufferSink`, so hot loops (e.g. one pair per pixel across a
megapixel image) cost whole-array passes instead of a million Python
objects.  A single pair is simply a one-row batch.

The query executor tracks intermediate results as a :class:`Frontier` — the
paper's in-memory boolean array with one bit per cell, which deduplicates
for free and makes "all bits set" checks cheap (§VI-C).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.arrays import coords as C
from repro.errors import LineageError, QueryError

__all__ = [
    "RegionBatch",
    "BufferSink",
    "Frontier",
    "Direction",
    "QueryStep",
    "LineageQuery",
]


@dataclass(frozen=True)
class RegionBatch:
    """``n`` independent region pairs in columnar form — the one lineage
    descriptor every ``lwrite*`` call builds and every consumer reads.

    Pair ``i`` relates ``out_coords[out_offsets[i]:out_offsets[i+1]]`` to
    either ``in_coords[k][in_offsets[k][i]:in_offsets[k][i+1]]`` per input
    ``k`` (full pairs) or ``payloads[payload_offsets[i]:payload_offsets[i+1]]``
    (payload pairs).  One batch carries thousands of pairs with zero
    per-pair Python objects, and the stores lower it to codecs/hash tables
    in whole-array passes.
    """

    out_coords: np.ndarray  # (K, ndim_out) int64
    out_offsets: np.ndarray  # (n+1,) int64, monotone, [0] == 0
    in_coords: tuple[np.ndarray, ...] | None = None  # per input: (M_k, ndim_k)
    in_offsets: tuple[np.ndarray, ...] | None = None  # per input: (n+1,)
    payloads: bytes | None = None  # concatenated pair payloads
    payload_offsets: np.ndarray | None = None  # (n+1,)

    def __post_init__(self) -> None:
        if (self.in_coords is None) == (self.payloads is None):
            raise LineageError("a region batch carries either input cells or payloads")
        if self.out_offsets.ndim != 1 or self.out_offsets.size == 0:
            raise LineageError("region batch offsets must be non-empty 1-D arrays")
        n = self.out_offsets.size - 1
        if int(self.out_offsets[0]) != 0 or int(self.out_offsets[-1]) != len(
            self.out_coords
        ):
            raise LineageError("region batch out_offsets do not cover out_coords")
        if (np.diff(self.out_offsets) < 1).any():
            raise LineageError("every region pair needs at least one output cell")
        if self.in_coords is not None:
            if self.in_offsets is None or len(self.in_offsets) != len(self.in_coords):
                raise LineageError("region batch needs one offset array per input")
            for arr, off in zip(self.in_coords, self.in_offsets):
                if off.size != n + 1 or int(off[0]) != 0 or int(off[-1]) != len(arr):
                    raise LineageError("region batch in_offsets do not cover in_coords")
        else:
            off = self.payload_offsets
            if off is None or off.size != n + 1 or int(off[0]) != 0 or int(
                off[-1]
            ) != len(self.payloads):
                raise LineageError("region batch payload_offsets do not cover payloads")

    @property
    def is_payload(self) -> bool:
        return self.payloads is not None

    @property
    def count(self) -> int:
        return int(self.out_offsets.size - 1)

    @property
    def arity(self) -> int:
        return len(self.in_coords) if self.in_coords is not None else 0

    @functools.cached_property
    def unit(self) -> bool:
        """True when every pair is one output cell and, for full pairs, one
        cell of every input — the one-to-one shape the stores and the
        re-executor serve through their inline fast paths."""
        n = self.count
        if len(self.out_coords) != n:
            return False
        return self.in_coords is None or all(
            len(arr) == n and (np.diff(off) == 1).all()
            for arr, off in zip(self.in_coords, self.in_offsets)
        )


@dataclass
class BufferSink:
    """Receiver for an operator's ``lwrite*`` calls (see Table I): the
    batches they built, in call order.  The workflow runtime lowers them
    into stores (inline or on the background encode worker); the
    re-executor joins them against query cells."""

    batches: list[RegionBatch] = field(default_factory=list)

    def add(self, batch: RegionBatch) -> None:
        self.batches.append(batch)

    @property
    def n_pairs(self) -> int:
        return sum(batch.count for batch in self.batches)


class Frontier:
    """Deduplicating set of cells over one array, backed by a boolean mask."""

    __slots__ = ("shape", "_mask")

    def __init__(self, shape: Sequence[int], mask: np.ndarray | None = None):
        self.shape = tuple(int(s) for s in shape)
        if mask is None:
            self._mask = np.zeros(self.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.shape:
                raise QueryError(f"mask shape {mask.shape} != frontier shape {self.shape}")
            self._mask = mask

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coords(cls, coords: np.ndarray, shape: Sequence[int]) -> "Frontier":
        frontier = cls(shape)
        frontier.add_coords(coords)
        return frontier

    @classmethod
    def full(cls, shape: Sequence[int]) -> "Frontier":
        return cls(shape, mask=np.ones(tuple(shape), dtype=bool))

    # -- mutation ---------------------------------------------------------------

    def add_coords(self, coords: np.ndarray) -> None:
        arr = C.validate_coords(coords, self.shape)
        if arr.shape[0]:
            self._mask[tuple(arr.T)] = True

    def add_packed(self, packed: np.ndarray) -> None:
        if packed.size:
            self._mask.reshape(-1)[packed] = True

    def add_mask(self, mask: np.ndarray) -> None:
        self._mask |= mask

    def set_all(self) -> None:
        self._mask[...] = True

    # -- views ------------------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def coords(self) -> np.ndarray:
        return C.mask_to_coords(self._mask)

    def packed(self) -> np.ndarray:
        return np.nonzero(self._mask.reshape(-1))[0].astype(np.int64)

    @property
    def count(self) -> int:
        return int(self._mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self._mask.any()

    @property
    def is_full(self) -> bool:
        return bool(self._mask.all())

    def __contains__(self, coord) -> bool:
        arr = C.validate_coords(np.asarray([coord]), self.shape)
        return bool(self._mask[tuple(arr[0])])

    def __repr__(self) -> str:
        return f"Frontier(shape={self.shape}, count={self.count})"


class Direction(enum.Enum):
    """Lineage query direction (§IV)."""

    BACKWARD = "backward"
    FORWARD = "forward"


@dataclass(frozen=True)
class QueryStep:
    """One hop of a query path: an operator node and which of its inputs the
    path passes through (``idx`` in the paper's notation)."""

    node: str
    input_idx: int = 0


@dataclass(frozen=True)
class LineageQuery:
    """``execute_query(C, ((P1, idx1), ..., (Pm, idxm)))`` from §IV.

    ``cells`` index the starting array: the output of ``path[0]`` for
    backward queries, or input ``path[0].input_idx`` of that node for
    forward queries.
    """

    cells: np.ndarray
    path: tuple[QueryStep, ...]
    direction: Direction

    def __post_init__(self) -> None:
        if not self.path:
            raise QueryError("a lineage query needs a non-empty operator path")
        object.__setattr__(self, "cells", C.as_coord_array(self.cells))
        object.__setattr__(
            self,
            "path",
            tuple(
                step if isinstance(step, QueryStep) else QueryStep(*step)
                for step in self.path
            ),
        )
