"""Per-operator lineage stores: the encoding strategies of §VI-B.

Each workflow node that stores region lineage gets one store object per
:class:`~repro.core.modes.StorageStrategy`.  The layouts match Figure 4 of
the paper:

``FullOne``
    One hash entry per key-side *cell*; the value references a single shared
    entry holding the other side's cells (or, for a one-to-one batch, the
    single cell is inlined — same 8 bytes, no indirection).  Queries are
    direct hash lookups.

``FullMany``
    One entry per *region pair*: the key is the serialized key-side cell
    set, indexed by an R-tree over its bounding box; the value is the
    serialized other side.

``PayOne`` / ``PayMany``
    As above, but the value is the developer payload (duplicated per key
    cell for ``PayOne``, exactly as the paper describes).  Composite lineage
    reuses the payload layouts.

Every store is *oriented*: backward-optimized stores key by output cells,
forward-optimized ones key by input cells (one sub-store per input array,
since cells of different inputs would collide after bit-packing), so the
Full layouts come in four classes and the payload layouts in two.

**Layouts are declared, not hand-written.**  Each layout's constructor
declares its components once — a :class:`~repro.storage.kvstore.HashStore`,
a :class:`~repro.storage.kvstore.BlobStore` heap or a
:class:`RegionEntryTable` — each with its name (the on-disk section
prefix, e.g. ``refs`` or ``table1``), the matched-read key surface it
feeds (``"b"`` or ``"f<i>"``, none for a blob heap) and whether its values
are ids into the blob heap.  :class:`OpLineageStore` derives everything
else from that table: the segment's component list, load and close,
pending-write finalization, the bloom/zone filter surfaces, the lowered
tables to warm (from the strategy: every input field for backward Full
layouts, field 0 for forward ones, none for payload layouts), the
compaction merge (heap first, refs re-based by its id base) and the
accounting.  A layout class keeps only ``ingest`` and its read methods.
``docs/storage_format.md`` tabulates the six layouts' components.

Queries against the matching orientation are hash probes / R-tree
descents — and R-tree candidate collection descends *once per query
coordinate batch* (:meth:`~repro.storage.rtree.RTree.query_points`), not
once per cell.  Queries against the wrong orientation fall back to a scan
over every entry — the expensive mismatch the paper measures in Figure
6(b).  Those scans are *batched*: the whole value heap is handed to
:class:`repro.storage.codecs.BatchProbe`, which groups entries by codec tag
and answers per-entry verdicts or intersections in a handful of vectorised
passes (lowered tables cached per heap by
:class:`~repro.storage.codecs.LoweredProbeCache`, so repeat scans skip the
header walk entirely).  The fixed-width hash layouts scan the same way, via
one ``isin_sorted`` pass over their key/value vectors.  Payload layouts
answer the wrong orientation from a derived :class:`PayloadForwardIndex`:
one ``map_p`` pass over their columnar state
(:meth:`OpLineageStore.payload_entries`) inverted into input cells with
their output keys, cached per open store and never persisted, so a forward
payload query is a binary search.  Matched backward reads are in-situ:
candidate key sets are matched with one concatenated ``searchsorted`` pass,
and only the hit entries' values — and only the requested input's field —
are ever decoded.

Persistence is *scan-ready*: each store flushes to ONE segment file
(:mod:`repro.storage.segment`) holding its sorted columns, the R-tree, the
lowered batch-scan tables and the key filters, so a store reloaded in a
fresh process — lazily, via the :class:`~repro.core.catalog.StoreCatalog` —
answers its first mismatched scan at warm speed (no codec header walk; see
``docs/storage_format.md``).

All public methods speak *packed* coordinates (int64, see
:mod:`repro.arrays.coords`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.analysis import lockcheck
from repro.arrays import coords as C
from repro.core.model import BufferSink, RegionBatch
from repro.core.modes import (
    EncodingKind,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.errors import LineageError, StorageError
from repro.storage import codecs
from repro.storage import filters as filterlib
from repro.storage import segment as seglib
from repro.storage.kvstore import BlobStore, HashStore, _gather_slices
from repro.storage.rtree import RTree

__all__ = [
    "OpLineageStore",
    "PayloadForwardIndex",
    "RegionEntryTable",
    "encode_full_values",
    "make_store",
]


def encode_singleton_int_arrays(values: np.ndarray) -> np.ndarray:
    """Vectorised ``codecs.encode_cells([v])`` for many ``v`` at once.

    Single-element arrays always serialize to the same 12-byte layout
    (magic, sorted flag, count=1, width=1, 8-byte base), so a whole batch
    can be emitted as an ``(n, 12)`` uint8 matrix without a Python loop.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = values.size
    out = np.empty((n, 12), dtype=np.uint8)
    out[:, 0] = 0x49
    out[:, 1] = 0x01
    out[:, 2] = 0x01
    out[:, 3] = 0x01
    out[:, 4:] = values.astype("<i8").view(np.uint8).reshape(n, 8)
    return out


def decode_full_value(buf: bytes, arity: int) -> list[np.ndarray]:
    """Inverse of :func:`encode_full_values` for one pair's value bytes."""
    out = []
    offset = 0
    for _ in range(arity):
        arr, offset = codecs.decode_cells(buf, offset)
        out.append(arr)
    return out


def _encode_sorted_segmented(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Sort each ``offsets`` segment of ``values`` and batch-encode it.

    The byte-for-byte vectorised counterpart of ``encode_cells(sort(s))``
    per segment: one global segmented sort (lexsort keyed by segment owner)
    feeds :func:`repro.storage.codecs.encode_sorted_sets`, so no per-pair
    Python work happens on the deferred capture path.  One-cell segments
    skip both and emit the fixed singleton layout directly."""
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if values.size == counts.size and (counts == 1).all():
        rows = encode_singleton_int_arrays(values)
        return rows.tobytes(), np.full(counts.size, rows.shape[1], dtype=np.int64)
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    order = np.lexsort((values, owner))
    buf, lengths = codecs.encode_sorted_sets(values[order], offsets)
    return buf.tobytes(), lengths


def encode_full_values(
    packed_per_input: list[np.ndarray], offsets_per_input
) -> tuple[bytes, np.ndarray]:
    """Encode the Full-layout values of ``n`` region pairs.

    ``packed_per_input[i]`` holds input ``i``'s packed cells for every pair,
    segmented by ``offsets_per_input[i]`` (an ``(n+1,)`` offset array).
    Returns ``(buf, lengths)`` where pair ``p``'s value bytes — the
    concatenation of its per-input encoded sorted cell sets — occupy
    ``lengths[p]`` consecutive bytes of ``buf`` in pair order.
    """
    arity = len(packed_per_input)
    bufs: list[bytes] = []
    lens_per_input: list[np.ndarray] = []
    for vals, offsets in zip(packed_per_input, offsets_per_input):
        buf, lengths = _encode_sorted_segmented(vals, offsets)
        bufs.append(buf)
        lens_per_input.append(lengths)
    if arity == 1:
        return bufs[0], lens_per_input[0]
    # interleave the per-input streams pair-major (pair p = its arity slices)
    n = lens_per_input[0].size
    starts = np.empty((n, arity), dtype=np.int64)
    lens_m = np.empty((n, arity), dtype=np.int64)
    base = 0
    for i in range(arity):
        li = lens_per_input[i]
        st = np.zeros(n, dtype=np.int64)
        np.cumsum(li[:-1], out=st[1:])
        starts[:, i] = st + base
        lens_m[:, i] = li
        base += len(bufs[i])
    flat_lens = lens_m.reshape(-1)
    out = _gather_slices(
        b"".join(bufs), starts.reshape(-1), flat_lens, int(flat_lens.sum())
    )
    return out, lens_m.sum(axis=1)


class RegionEntryTable(codecs.LoweredProbeCache):
    """Columnar table of (key cell set, value blob) entries with an R-tree
    over the key sets' bounding boxes (the *Many layouts).

    Full-layout values are codec-encoded cell sets, one per input array;
    mismatched scans probe them through the shared lowered-probe cache
    (:class:`~repro.storage.codecs.LoweredProbeCache`), whose tables are
    rebuilt whenever new entries are finalized."""

    def __init__(self, key_shape: tuple[int, ...]):
        self.key_shape = tuple(key_shape)
        self._key_chunks: list[np.ndarray] = []
        self._klen_chunks: list[np.ndarray] = []
        self._val_chunks: list[bytes] = []
        self._vlen_chunks: list[np.ndarray] = []
        self._keys: np.ndarray | None = None
        self._koff: np.ndarray | None = None
        self._vbuf: bytes = b""
        self._voff: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._rtree: RTree | None = None
        self._reset_probes()
        self._dirty = False
        # serializes finalize and probe construction under concurrent
        # readers; the finalized columns themselves are immutable
        self._flock = lockcheck.make_rlock("region_table.finalize")

    # -- writes ----------------------------------------------------------------

    def add_entry(self, key_packed: np.ndarray, value: bytes) -> None:
        """Add one entry: the key cell set ``key_packed`` and its value."""
        key_packed = np.ascontiguousarray(key_packed, dtype=np.int64)
        self.add_entries(key_packed, [key_packed.size], value, [len(value)])

    def add_entries(
        self,
        keys_concat: np.ndarray,
        key_counts: np.ndarray,
        val_buf: bytes,
        val_lengths: np.ndarray,
    ) -> None:
        """Bulk-add ``n`` entries with variable-size key cell sets.

        Entry ``e`` owns ``key_counts[e]`` consecutive cells of
        ``keys_concat`` and ``val_lengths[e]`` consecutive bytes of
        ``val_buf``.  Key sets are sorted with one segmented lexsort pass —
        the columnar counterpart of ``n`` :meth:`add_entry` calls, with no
        per-entry Python objects (the deferred-capture lowering path).
        One-cell key sets need no sort.
        """
        keys_concat = np.ascontiguousarray(keys_concat, dtype=np.int64)
        key_counts = np.ascontiguousarray(key_counts, dtype=np.int64)
        n = key_counts.size
        if n == 0:
            return
        if (key_counts < 1).any():
            raise StorageError("a region entry needs at least one key cell")
        if int(key_counts.sum()) != keys_concat.size:
            raise StorageError("key counts must span the key cell buffer")
        val_lengths = np.ascontiguousarray(val_lengths, dtype=np.int64)
        if val_lengths.size != n or int(val_lengths.sum()) != len(val_buf):
            raise StorageError("value lengths must align with keys and span buffer")
        if keys_concat.size != n:
            owner = np.repeat(np.arange(n, dtype=np.int64), key_counts)
            keys_concat = keys_concat[np.lexsort((keys_concat, owner))]
        # szlint: ignore[SZ006] -- ingest is single-writer by contract; _flock only guards the finalize merge
        self._key_chunks.append(keys_concat)
        self._klen_chunks.append(key_counts)
        # zero-copy when the caller already hands over immutable bytes
        self._val_chunks.append(val_buf if type(val_buf) is bytes else bytes(val_buf))
        self._vlen_chunks.append(val_lengths)
        self._dirty = True

    def extend_from(self, other: "RegionEntryTable") -> None:
        """Append every entry of ``other`` (the generational merge writer):
        entry boundaries are preserved, and the next :meth:`finalize`
        re-sorts boxes/R-tree over the merged entry set.  The columns are
        copied, so the merge outlives the other table's backing segment."""
        keys, koff, vbuf, voff = other.columns()
        if koff.size <= 1:
            return
        # szlint: ignore[SZ006] -- ingest is single-writer by contract; _flock only guards the finalize merge
        self._key_chunks.append(np.array(keys, dtype=np.int64))
        self._klen_chunks.append(np.diff(koff))
        self._val_chunks.append(bytes(vbuf))
        self._vlen_chunks.append(np.diff(np.asarray(voff, dtype=np.int64)))
        self._dirty = True

    # -- finalize -----------------------------------------------------------------

    def finalize(self) -> None:
        if not self._dirty:  # racy fast path; re-checked under the lock
            return
        with self._flock:
            if not self._dirty:
                return
            new_keys = np.concatenate(self._key_chunks) if self._key_chunks else None
            if new_keys is None:
                return
            new_klens = np.concatenate(self._klen_chunks)
            new_vbuf = b"".join(self._val_chunks)
            new_vlens = np.concatenate(self._vlen_chunks)
            if self._keys is not None:
                old_klens = np.diff(self._koff)
                old_vlens = np.diff(self._voff)
                keys = np.concatenate([self._keys, new_keys])
                klens = np.concatenate([old_klens, new_klens])
                vbuf = bytes(self._vbuf) + new_vbuf  # bytes() lifts mmap-backed views
                vlens = np.concatenate([old_vlens, new_vlens])
            else:
                keys, klens, vbuf, vlens = new_keys, new_klens, new_vbuf, new_vlens
            n = klens.size
            koff = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(klens, out=koff[1:])
            voff = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(vlens, out=voff[1:])
            coords = C.unpack_coords(keys, self.key_shape)
            lo = np.minimum.reduceat(coords, koff[:-1], axis=0)
            hi = np.maximum.reduceat(coords, koff[:-1], axis=0)
            self._keys, self._koff = keys, koff
            self._vbuf, self._voff = vbuf, voff
            self._lo, self._hi = lo, hi
            self._rtree = RTree.build(lo, hi)
            # lowered batch-probe tables (cached or persisted) describe the
            # old heap; both must go when the heap grows
            self._reset_probes()
            self._key_chunks, self._klen_chunks = [], []
            self._val_chunks, self._vlen_chunks = [], []
            self._dirty = False

    # -- reads -------------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        pending = sum(arr.size for arr in self._klen_chunks)
        stored = self._koff.size - 1 if self._koff is not None else 0
        return pending + stored

    def candidate_entries(self, query_coords: np.ndarray) -> np.ndarray:
        """Entry ids whose bounding boxes contain any query coordinate.

        Small queries descend the R-tree *once for the whole coordinate
        batch* (:meth:`~repro.storage.rtree.RTree.query_points`, a few
        vectorised passes per level — not one Python descent per cell);
        large frontiers switch to a spatial-join style vectorised sweep
        over the entry boxes.
        """
        self.finalize()
        if self._rtree is None or query_coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        n_entries = self._koff.size - 1
        if query_coords.shape[0] <= min(2048, max(64, n_entries // 8)):
            return self._rtree.query_points(query_coords)
        qlo = query_coords.min(axis=0)
        qhi = query_coords.max(axis=0)
        box_hit = ((self._lo <= qhi) & (self._hi >= qlo)).all(axis=1)
        return np.nonzero(box_hit)[0].astype(np.int64)

    def all_singleton_keys(self) -> np.ndarray | None:
        """The flat key vector when every entry holds exactly one key cell
        (enables fully vectorised matching); None otherwise."""
        self.finalize()
        if self._koff is None:
            return np.empty(0, dtype=np.int64)
        if self._koff.size - 1 != self._keys.size:
            return None
        return self._keys

    def entry_keys(self, entry_id: int) -> np.ndarray:
        self.finalize()
        return self._keys[self._koff[entry_id]: self._koff[entry_id + 1]]

    def entries_keys(self, entry_ids: np.ndarray) -> np.ndarray:
        """Concatenated key cells of many entries in one vectorised gather."""
        self.finalize()
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if self._koff is None or entry_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._koff[entry_ids]
        counts = self._koff[entry_ids + 1] - starts
        return self._keys[C.expand_ranges(starts, counts)]

    def match_keys(
        self, entry_ids: np.ndarray, sorted_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, hit_cells)``: which of ``entry_ids`` have any key cell in
        ``sorted_query``, and the matching key cells themselves — one
        concatenated membership pass instead of a per-entry ``isin``."""
        self.finalize()
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if self._koff is None or entry_ids.size == 0:
            return np.zeros(entry_ids.size, dtype=bool), np.empty(0, dtype=np.int64)
        starts = self._koff[entry_ids]
        counts = self._koff[entry_ids + 1] - starts
        keys = self._keys[C.expand_ranges(starts, counts)]
        member = C.isin_sorted(keys, sorted_query)
        owner = np.repeat(np.arange(entry_ids.size, dtype=np.int64), counts)
        hit = np.zeros(entry_ids.size, dtype=bool)
        hit[owner[member]] = True
        return hit, keys[member]

    def entry_value(self, entry_id: int) -> bytes:
        self.finalize()
        return bytes(self._vbuf[self._voff[entry_id]: self._voff[entry_id + 1]])

    # -- in-situ value probes -----------------------------------------------------
    #
    # Valid only for tables whose values are codec-encoded cell sets (the
    # Full layouts); ``field`` skips over preceding sets when a value holds
    # one per input array.  None of these slice the value buffer.

    def _probe_heap(self):
        if self._voff is None:
            empty = np.empty(0, dtype=np.int64)
            return self._vbuf, empty, empty
        return self._vbuf, self._voff[:-1], self._voff[1:]

    def _field_starts(self, field: int) -> np.ndarray:
        n = self._voff.size - 1
        return np.fromiter(
            (self._value_offset(e, field) for e in range(n)), dtype=np.int64, count=n
        )

    def value_cells(self, entry_id: int, field: int = 0) -> np.ndarray:
        """Decode one cell-set field of the entry value in place."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        cells, _ = codecs.decode_cells(self._vbuf, offset)
        return cells

    def _value_offset(self, entry_id: int, field: int) -> int:
        self.finalize()
        start = int(self._voff[entry_id])
        end = int(self._voff[entry_id + 1])
        # never read into the next entry's bytes: a wrong field count or a
        # value whose header overstates its payload must fail loudly, not
        # probe a neighbouring value
        try:
            offset = codecs.skip_fields(self._vbuf, start, end, field)
        except StorageError as exc:
            raise StorageError(f"entry {entry_id}: {exc}") from None
        if codecs.skip_cells(self._vbuf, offset) > end:
            raise StorageError(
                f"entry {entry_id} field {field} overruns the entry value"
            )
        return offset

    def value_contains_any(
        self, entry_id: int, sorted_query: np.ndarray, field: int = 0
    ) -> bool:
        """Decode-free: does the entry's encoded cell set hit the query?"""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.contains_any(self._vbuf, sorted_query, offset)

    def value_intersect(
        self, entry_id: int, sorted_query: np.ndarray, field: int = 0
    ) -> np.ndarray:
        """Query values present in the entry's encoded cell set."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.intersect(self._vbuf, sorted_query, offset)

    def value_bounds(self, entry_id: int, field: int = 0) -> tuple[int, int, int]:
        """``(lo, hi, count)`` of the encoded set without expanding it."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.decoded_bounds(self._vbuf, offset)

    def columns(self) -> tuple[np.ndarray, np.ndarray, bytes, np.ndarray]:
        """The finalized columnar state ``(keys, koff, vbuf, voff)`` — entry
        ``e`` owns key cells ``keys[koff[e]:koff[e+1]]`` and value bytes
        ``vbuf[voff[e]:voff[e+1]]``.  This is the whole-table scan surface:
        consumers batch over it instead of cursoring entry by entry."""
        self.finalize()
        if self._koff is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), b"", np.zeros(1, dtype=np.int64)
        return self._keys, self._koff, self._vbuf, self._voff

    def keys_array(self) -> np.ndarray:
        """Every entry's key cells, concatenated in entry order."""
        self.finalize()
        if self._keys is None:
            return np.empty(0, dtype=np.int64)
        return self._keys

    def entry_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-entry inclusive bounding boxes ``(lo, hi)`` of the key cells
        (used by the §V-B bounding-box-predicate ablation)."""
        self.finalize()
        if self._lo is None:
            empty = np.empty((0, len(self.key_shape)), dtype=np.int64)
            return empty, empty
        return self._lo, self._hi

    # -- persistence ---------------------------------------------------------------

    def dump(self, writer: seglib.SegmentWriter, prefix: str = "") -> None:
        """Write the finalized table — columns, bounding boxes, R-tree, and
        any warm lowered batch-probe tables — into a segment file.  The
        value buffer is opaque at this layer, so values that predate the
        codec tag bytes round-trip unchanged; the derived structures ride
        along so a load serves queries without rebuilding anything."""
        self.finalize()
        if self._koff is None:
            writer.add_json(prefix + "meta", self._probe_meta(0, []))
            return
        fields = sorted(self.probe_fields())
        writer.add_json(prefix + "meta", self._probe_meta(int(self._koff.size - 1), fields))
        writer.add_array(prefix + "keys", self._keys)
        writer.add_array(prefix + "koff", self._koff)
        writer.add_array(prefix + "voff", self._voff)
        writer.add_bytes(prefix + "vbuf", self._vbuf)
        writer.add_array(prefix + "lo", self._lo)
        writer.add_array(prefix + "hi", self._hi)
        self._rtree.dump(writer, prefix + "rtree.")
        self._dump_probes(writer, prefix, fields)

    @classmethod
    def from_segment(
        cls, seg: seglib.Segment, prefix: str, key_shape: tuple[int, ...]
    ) -> "RegionEntryTable":
        """Rehydrate a :meth:`dump`-ed table from mmap-backed sections: no
        column copy, no box recomputation, no R-tree rebuild, and the
        lowered batch-probe tables come back warm."""
        table = cls(key_shape)
        meta = seg.json(prefix + "meta")
        if meta["n"] == 0:
            return table
        table._keys = seg.array(prefix + "keys")
        table._koff = seg.array(prefix + "koff")
        table._voff = seg.array(prefix + "voff")
        table._vbuf = seg.view(prefix + "vbuf")
        table._lo = seg.array(prefix + "lo")
        table._hi = seg.array(prefix + "hi")
        table._rtree = RTree.from_segment(seg, prefix + "rtree.")
        table._attach_probes(seg, prefix, meta)
        return table

    def flush(self, path: str) -> int:
        """Write the finalized table to one segment file."""
        writer = seglib.SegmentWriter()
        self.dump(writer)
        return writer.write(path)

    @classmethod
    def load(cls, path: str, key_shape: tuple[int, ...]) -> "RegionEntryTable":
        """Open a table :meth:`flush`-ed to ``path``."""
        return cls.from_segment(seglib.Segment.open(path), "", key_shape)

    def disk_bytes(self) -> int:
        self.finalize()
        if self._keys is None:
            return 0
        total = self._keys.nbytes + len(self._vbuf)
        total += self._koff.nbytes + self._voff.nbytes
        total += self._rtree.nbytes() if self._rtree is not None else 0
        return int(total)


class PayloadForwardIndex(NamedTuple):
    """A payload store's inverted lineage for one input: input cell ->
    output keys, so a forward query is a binary search, not a ``map_p``
    pass over the whole store.

    Row ``j`` says input cell ``in_cells[j]`` (packed against the input,
    ascending) feeds every output key of group ``groups[j]``; group ``g``
    owns ``out_keys[group_offsets[g]:group_offsets[g + 1]]``.  A row-wise
    entry (one output cell) is a group of one key; a multi-cell pair of a
    ``payload_uniform`` operator is one group, so its input cells are not
    crossed with its output cells.  ``overridden`` holds the sorted stored
    output keys: the composite default branch must skip them.
    """

    in_cells: np.ndarray
    groups: np.ndarray
    group_offsets: np.ndarray
    out_keys: np.ndarray
    overridden: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self))

    def forward(self, qpacked: np.ndarray) -> np.ndarray:
        """Packed output keys whose stored payload maps onto a query cell."""
        q = np.asarray(qpacked, dtype=np.int64)
        lo = np.searchsorted(self.in_cells, q, side="left")
        hi = np.searchsorted(self.in_cells, q, side="right")
        hit = np.unique(self.groups[C.expand_ranges(lo, hi - lo)])
        starts = self.group_offsets[hit]
        return self.out_keys[C.expand_ranges(starts, self.group_offsets[hit + 1] - starts)]


def _build_payload_index(
    store: "OpLineageStore", op, input_idx: int, ticker=None
) -> PayloadForwardIndex:
    """Run ``map_p`` once over every payload entry of ``store``.

    Row-wise entries — single-cell entries, and every cell of a multi-cell
    entry when the operator is not ``payload_uniform`` — expand through
    ``map_p_batch`` (each row carries its entry's payload), one call per
    distinct payload width over an ``(n, width)`` matrix; a multi-cell
    entry of a uniform operator expands once per pair.  The index holds
    copies only, never views of the segment mapping."""
    keys, koff, vbuf, voff = store.payload_entries()
    if ticker is not None:
        ticker()
    keys = np.asarray(keys, dtype=np.int64)
    klens = np.diff(koff)
    if op.payload_uniform:
        row_entries = np.flatnonzero(klens == 1)
        row_keys = keys[koff[row_entries]]
        pair_entries = np.flatnonzero(klens > 1)
    else:
        row_entries = np.repeat(np.arange(klens.size, dtype=np.int64), klens)
        row_keys = keys[: koff[-1]]
        pair_entries = np.empty(0, dtype=np.int64)
    in_shape = store.in_shapes[input_idx]
    in_parts: list[np.ndarray] = []
    group_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    size_parts: list[np.ndarray] = []
    if row_entries.size:
        starts = voff[row_entries]
        vlens = voff[row_entries + 1] - starts
        raw = np.frombuffer(vbuf, dtype=np.uint8)
        out_coords = C.unpack_coords(row_keys, store.out_shape)
        for width in np.unique(vlens):
            # one fancy-indexed gather, no per-entry byte objects
            rows = np.flatnonzero(vlens == width)
            payloads = raw[starts[rows, None] + np.arange(width, dtype=np.int64)]
            cells, hit = op.map_p_batch(out_coords[rows], payloads, input_idx)
            in_parts.append(C.pack_coords(cells, in_shape))
            group_parts.append(rows[hit])
        key_parts.append(row_keys)
        size_parts.append(np.ones(row_keys.size, dtype=np.int64))
    n_groups = row_keys.size
    for e in pair_entries:
        if ticker is not None:
            ticker()
        out_packed = keys[koff[e]: koff[e + 1]]
        cells = op.map_p_many(
            C.unpack_coords(out_packed, store.out_shape),
            bytes(vbuf[voff[e]: voff[e + 1]]),
            input_idx,
        )
        packed = C.pack_coords(cells, in_shape)
        in_parts.append(packed)
        group_parts.append(np.full(packed.size, n_groups, dtype=np.int64))
        key_parts.append(out_packed)
        size_parts.append(np.asarray([out_packed.size], dtype=np.int64))
        n_groups += 1
    in_cells = _concat(in_parts)
    order = np.argsort(in_cells, kind="stable")
    group_offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(_concat(size_parts), out=group_offsets[1:])
    if store.strategy.mode is LineageMode.COMP:
        overridden = np.unique(store.overridden_keys())
    else:
        overridden = np.empty(0, dtype=np.int64)
    return PayloadForwardIndex(
        in_cells=in_cells[order],
        groups=_concat(group_parts)[order],
        group_offsets=group_offsets,
        out_keys=_concat(key_parts),
        overridden=overridden,
    )


class _PayloadIndexCache:
    """A store's :class:`PayloadForwardIndex` per input, built once.

    Derived state only: it is never persisted, and it dies with the store
    (``close`` clears it, so a closed store rebuilds from its poisoned
    components — which raise).  Concurrent first queries build once: the
    build runs under the lock and later callers take the cached index."""

    def __init__(self):
        self._lock = lockcheck.make_lock("store.payload_index")
        self._indexes: dict[int, PayloadForwardIndex] = {}
        #: indexes this cache built (cumulative)
        self.builds = 0
        #: bytes of the indexes it holds now
        self.nbytes = 0

    def ready(self, input_idx: int) -> bool:
        return input_idx in self._indexes

    def get(self, input_idx: int, build) -> PayloadForwardIndex:
        index = self._indexes.get(input_idx)
        if index is not None:
            return index
        with self._lock:
            index = self._indexes.get(input_idx)
            if index is None:
                index = build()
                self._indexes[input_idx] = index
                self.builds += 1
                self.nbytes += index.nbytes
        return index

    def clear(self) -> None:
        with self._lock:
            self._indexes = {}
            self.nbytes = 0


class _ClosedComponent:
    """Poison component installed by :meth:`OpLineageStore.close`.

    A closed store must fail *loudly*: if it kept empty live components, a
    caller that held the store across an eviction would silently get empty
    lineage for every query — wrong answers, not an error.  Any attribute
    access on a closed component raises instead.
    """

    __slots__ = ("_what",)

    def __init__(self, what: str):
        self._what = what

    def __getattr__(self, name):
        raise StorageError(
            f"lineage store {self._what} is closed (its segment mapping was "
            "released, e.g. by serving-cache eviction); borrow the store "
            "through a QuerySession to keep it pinned while reading"
        )


class _Slot(NamedTuple):
    """One row of a layout's component table (see :meth:`OpLineageStore._declare`)."""

    #: the on-disk section prefix, and the key into ``store.components``
    name: str
    #: the filter surface its keys feed (``"b"`` output-packed, ``"f<i>"``
    #: packed against input ``i``); None for a blob heap, which has no keys
    surface: str | None
    #: its int64 values are ids into the layout's blob heap
    refs: bool


class OpLineageStore:
    """Base class: one strategy layout, declared as a component table.

    Each layout's constructor declares its components once
    (:meth:`_declare`); persistence, close, merging, filter surfaces,
    lowered-table warm-up and accounting are all derived here from that
    table, so a layout class keeps only its ``ingest`` and read methods.
    """

    def __init__(
        self,
        node: str,
        strategy: StorageStrategy,
        out_shape: tuple[int, ...],
        in_shapes: tuple[tuple[int, ...], ...],
    ):
        self.node = node
        self.strategy = strategy
        self.out_shape = tuple(out_shape)
        self.in_shapes = tuple(tuple(s) for s in in_shapes)
        self.arity = len(in_shapes)
        self.write_seconds = 0.0
        #: the layout's components by name (= on-disk section prefix), in
        #: declaration order (= on-disk order)
        self.components: dict[str, object] = {}
        self._slots: list[_Slot] = []
        #: the value fields mismatched scans probe: every input's cell set
        #: for backward Full layouts, the one output cell set for forward
        #: ones; payload layouts scan columnar state and probe none
        if strategy.mode is not LineageMode.FULL:
            self._probed_fields: tuple[int, ...] = ()
        elif strategy.orientation is Orientation.BACKWARD:
            self._probed_fields = tuple(range(self.arity))
        else:
            self._probed_fields = (0,)
        #: the segment handle backing this store's components when it was
        #: hydrated from disk (owned: ``close()`` releases it); None for
        #: resident stores built by ingest
        self._segment = None
        #: per-tag :class:`~repro.storage.filters.GenerationFilter` loaded
        #: from the segment's filter sections; None for resident stores and
        #: segments that predate filters (probes then answer "may contain")
        self._filters: dict | None = None
        #: forward payload indexes (derived, never persisted; see
        #: :meth:`forward_payload_index`)
        self._payload_index = _PayloadIndexCache()

    def _declare(
        self, name: str, component, surface: str | None = None, refs: bool = False
    ) -> None:
        """Add one component to the layout's table.

        ``surface`` names the matched-read key surface the component's keys
        feed (None marks the blob heap); ``refs`` marks int64 values that
        are ids into that heap, which a merge must re-base."""
        self._slots.append(_Slot(name, surface, refs))
        self.components[name] = component

    def _keyed(self):
        """``(slot, component)`` of every component with keys (not heaps)."""
        return [(s, self.components[s.name]) for s in self._slots if s.surface]

    def _probed(self) -> list:
        """Components whose values mismatched scans batch-probe."""
        if not self._probed_fields:
            return []
        return [c for c in self.components.values() if not isinstance(c, HashStore)]

    # -- writes -------------------------------------------------------------

    def ingest(self, sink: BufferSink) -> None:
        """Lower every batch of ``sink`` this layout stores (full or
        payload pairs); one-to-one batches take the layout's inline path
        where it has one."""
        raise NotImplementedError

    def _pack_inputs(self, rb: RegionBatch) -> list[np.ndarray]:
        """A full batch's per-input cells, packed against each input."""
        return [
            C.pack_coords(cells, shape)
            for cells, shape in zip(rb.in_coords, self.in_shapes)
        ]

    def finalize_if_possible(self) -> None:
        """Sort/index pending writes now so the cost lands at write time,
        mirroring the paper's bulk encoding during workflow execution."""
        for _, component in self._keyed():
            component.finalize()

    # -- persistence -------------------------------------------------------

    def _filter_key_arrays(self) -> dict[str, tuple[np.ndarray, tuple]]:
        """The matched-read key surfaces to summarise at flush time:
        ``tag -> (packed keys, shape)``, gathered from the keyed
        components in declaration order."""
        keys: dict[str, list[np.ndarray]] = {}
        for slot, component in self._keyed():
            keys.setdefault(slot.surface, []).append(component.keys_array())
        return {
            tag: (
                _concat(parts),
                self.out_shape if tag == "b" else self.in_shapes[int(tag[1:])],
            )
            for tag, parts in keys.items()
        }

    def filter_decision(self, tag: str, qpacked: np.ndarray):
        """Tri-state generation-skip probe for overlay reads.

        ``False``: this store provably holds none of the query keys on
        surface ``tag`` (exact — the read may be skipped).  ``True``: it
        may hold some (bloom/zone passed).  ``None``: no filter available
        (resident store, pre-filter segment, unknown tag) — the caller
        must read."""
        if self._filters is None:
            return None
        f = self._filters.get(tag)
        if f is None:
            return None
        return f.may_contain(qpacked)

    def warm_lowered_tables(self) -> None:
        """Build the lowered batch-probe tables every mismatched scan of
        this layout would need, so a flush persists them and a reloaded
        store starts warm."""
        for component in self._probed():
            for field in self._probed_fields:
                component.batch_probe(field=field).lowered_tables()

    def lowered_ready(self) -> bool:
        """True when a mismatched-orientation scan runs off cached/persisted
        lowered tables — no codec header walk left to pay."""
        fields = set(self._probed_fields)
        return all(
            c.n_entries == 0 or fields <= c.probe_fields() for c in self._probed()
        )

    def flush_segment(
        self,
        path: str,
        shard_threshold_bytes: int | None = None,
        stale_sink: list | None = None,
    ) -> int:
        """Persist the whole store — every component plus the lowered
        batch-probe tables — and return bytes written.

        Writes ONE segment file by default; when ``shard_threshold_bytes``
        is given and the payload exceeds it, the store is split into
        ``path.0 .. path.k`` shard files instead (each a complete segment;
        see :meth:`~repro.storage.segment.SegmentWriter.write_sharded`), so
        a later reader maps only the shards its query touches.

        ``stale_sink`` defers removal of the previous flush's superseded
        (non-shadowing) files: their paths are appended there instead of
        unlinked, which is how online compaction keeps a pinned reader's
        lazily-mapped shards alive until its last release."""
        self.finalize_if_possible()
        self.warm_lowered_tables()
        writer = seglib.SegmentWriter()
        writer.add_json(
            "store",
            {
                "node": self.node,
                "strategy": self.strategy.label,
                "components": list(self.components),
            },
        )
        for name, component in self.components.items():
            component.dump(writer, prefix=f"{name}.")
        filterlib.dump_filters(
            writer,
            {
                tag: filterlib.GenerationFilter.build(keys, shape)
                for tag, (keys, shape) in self._filter_key_arrays().items()
            },
        )
        if shard_threshold_bytes is not None:
            nbytes, _ = writer.write_sharded(
                path, shard_threshold_bytes, stale_sink=stale_sink
            )
            return nbytes
        return writer.write(path, stale_sink=stale_sink)

    def load_segment(self, source) -> None:
        """Replace every component with its counterpart in ``source`` (a
        path or an open :class:`~repro.storage.segment.Segment` /
        :class:`~repro.storage.segment.ShardedSegment`).  Sections stay
        mmap-backed: nothing is decoded or copied until a query touches it.
        The store takes ownership of the handle: :meth:`close` releases it."""
        if isinstance(source, (seglib.Segment, seglib.ShardedSegment)):
            seg = source
        else:
            seg = seglib.open_segment(source)
        meta = seg.json("store")
        if (
            meta.get("node") != self.node
            or meta.get("strategy") != self.strategy.label
            or set(meta.get("components", ())) != set(self.components)
        ):
            raise StorageError(
                f"segment {seg.path!r} holds store "
                f"({meta.get('node')!r}, {meta.get('strategy')!r}); "
                f"refusing to load it into ({self.node!r}, {self.strategy.label!r})"
            )
        for name, component in self.components.items():
            prefix = f"{name}."
            if isinstance(component, (HashStore, BlobStore)):
                loaded = type(component).from_segment(seg, prefix, name)
            else:
                loaded = RegionEntryTable.from_segment(seg, prefix, component.key_shape)
            self.components[name] = loaded
        self._filters = filterlib.load_filters(seg)
        old = self._segment
        self._segment = seg
        if old is not None and old is not seg:
            old.close()

    def close(self) -> None:
        """Release the backing segment mapping (if any).

        Components are replaced with poison stand-ins first, so their
        mmap-backed views stop exporting the buffer — which is what lets
        the mapping actually unmap — and any later read through this store
        raises :class:`~repro.errors.StorageError` rather than silently
        answering empty off freed state.  Safe to call on resident stores
        (which only drop their derived forward indexes) and safe to call
        twice."""
        self._payload_index.clear()
        seg, self._segment = self._segment, None
        if seg is None:
            return
        # filters hold mmap-backed bit views; drop them so the mapping can
        # unmap (probes on a closed store then answer None, and the read
        # they force hits the poison components below — loud, not empty)
        self._filters = None
        what = f"({self.node!r}, {self.strategy.label})"
        for name in self.components:
            self.components[name] = _ClosedComponent(what)
        seg.close()

    def __enter__(self) -> "OpLineageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- generational merge (compaction writer) -------------------------------

    def _check_absorb(self, other: "OpLineageStore") -> None:
        if (
            other.strategy != self.strategy
            or other.out_shape != self.out_shape
            or other.in_shapes != self.in_shapes
        ):
            raise StorageError(
                f"cannot merge store ({other.node!r}, {other.strategy.label}, "
                f"out={other.out_shape}) into ({self.node!r}, "
                f"{self.strategy.label}, out={self.out_shape}): layouts differ"
            )

    def absorb(self, other: "OpLineageStore") -> None:
        """Merge every entry of ``other`` (same layout and shapes) into this
        store — the compaction merge writer.

        Works component by component: hash segments and entry tables
        concatenate (the multimap/entry-set contracts make union exactly
        concatenation); the blob heap merges first, and the id base its
        :meth:`~repro.storage.kvstore.BlobStore.extend_from` returns
        re-bases the refs that point into it.  All absorbed bytes are
        copied, so the merged store stays valid after the generations'
        segments close."""
        self._check_absorb(other)
        base = 0
        for slot in self._slots:
            if slot.surface is None:
                base = self.components[slot.name].extend_from(other.components[slot.name])
        for slot, component in self._keyed():
            theirs = other.components[slot.name]
            if not slot.refs:
                component.extend_from(theirs)
                continue
            keys, refs = theirs.items_fixed()
            if keys.size:
                component.put_many_fixed(keys, refs + base)

    # -- matched-orientation reads -------------------------------------------

    def backward_full(
        self, qpacked: np.ndarray, only_input: int | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(matched, per_input)`` lineage of the query cells.

        ``only_input`` restricts value decoding to one input's field — the
        other slots of ``per_input`` come back empty — so a query step that
        follows a single edge never materialises the sibling inputs' cells.
        """
        raise LineageError(f"{self.strategy.label} cannot serve backward_full")

    def forward_full(self, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} cannot serve forward_full")

    def backward_payload(
        self, qpacked: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, bytes]]]:
        raise LineageError(f"{self.strategy.label} cannot serve backward_payload")

    def backward_payload_rows(
        self, qpacked: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[bytes]] | None:
        """Row-per-hit variant ``(matched, hit_cells, payloads)`` for layouts
        whose entries are single cells; None when entries may hold many."""
        return None

    # -- mismatched-orientation reads (cursor scans) ------------------------------

    def scan_forward_full(
        self, qpacked: np.ndarray, input_idx: int, ticker=None
    ) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} cannot serve scan_forward_full")

    def scan_backward_full(
        self, qpacked: np.ndarray, ticker=None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        raise LineageError(f"{self.strategy.label} cannot serve scan_backward_full")

    def payload_entries(self) -> tuple[np.ndarray, np.ndarray, bytes, np.ndarray]:
        """Columnar view of every payload entry: ``(keys, koff, vbuf, voff)``
        where entry ``e`` owns key cells ``keys[koff[e]:koff[e+1]]`` and
        payload bytes ``vbuf[voff[e]:voff[e+1]]``.

        The forward payload index is built from this surface (one
        vectorised key-length split, one ``map_p`` batch for the row-wise
        entries) instead of a Python loop over every stored entry.
        """
        raise LineageError(f"{self.strategy.label} stores no payload entries")

    def overridden_keys(self) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} stores no payload entries")

    def forward_payload_index(
        self, op, input_idx: int, ticker=None
    ) -> PayloadForwardIndex:
        """The inverted (input cell -> output key) payload lineage of input
        ``input_idx``, built on first use from :meth:`payload_entries` and
        cached until the store closes.  ``ticker`` is called between the
        build's passes, so a query budget can abandon a build."""
        return self._payload_index.get(
            input_idx, lambda: _build_payload_index(self, op, input_idx, ticker)
        )

    def payload_index_ready(self, input_idx: int) -> bool:
        """True when :meth:`forward_payload_index` would not build."""
        return self._payload_index.ready(input_idx)

    @property
    def payload_index_builds(self) -> int:
        return self._payload_index.builds

    @property
    def payload_index_bytes(self) -> int:
        """Memory held by the cached forward indexes."""
        return self._payload_index.nbytes

    # -- accounting -----------------------------------------------------------------

    def disk_bytes(self) -> int:
        return sum(c.disk_bytes() for c in self.components.values())

    @property
    def n_entries(self) -> int:
        """Stored keyed entries (blob heaps hold values, not entries)."""
        return sum(c.n_entries for _, c in self._keyed())


class _FullBackwardOne(OpLineageStore):
    """``<-FullOne``: hash key = output cell, value = inlined input cell
    (one-to-one bulk writes) or a reference into the shared entry blob."""

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        for i in range(self.arity):
            self._declare(f"direct{i}", HashStore(f"{node}.direct{i}"), "b")
        self._declare("refs", HashStore(f"{node}.refs"), "b", refs=True)
        self._declare("blobs", BlobStore(f"{node}.blobs"))

    def ingest(self, sink: BufferSink) -> None:
        comps = self.components
        for rb in sink.batches:
            if rb.is_payload:
                continue
            out_packed = C.pack_coords(rb.out_coords, self.out_shape)
            in_packed = self._pack_inputs(rb)
            if rb.unit:  # one-to-one: inline the input cell, no blob
                for i, cells in enumerate(in_packed):
                    comps[f"direct{i}"].put_many_fixed(out_packed, cells)
                continue
            ids = comps["blobs"].append_buffer(
                *encode_full_values(in_packed, rb.in_offsets)
            )
            comps["refs"].put_many_fixed(
                out_packed, np.repeat(ids, np.diff(rb.out_offsets))
            )

    def backward_full(self, qpacked, only_input=None):
        comps = self.components
        matched = np.zeros(qpacked.size, dtype=bool)
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        for i in range(self.arity):
            qidx, cells = comps[f"direct{i}"].lookup_refs(qpacked)
            if qidx.size:
                matched[qidx] = True
                if only_input is None or i == only_input:
                    per_input[i].append(cells)
        qidx, refs = comps["refs"].lookup_refs(qpacked)
        if qidx.size:
            matched[qidx] = True
            blobs = comps["blobs"]
            for ref in np.unique(refs):
                blob = blobs.get(int(ref))
                if only_input is None:
                    for i, cells in enumerate(decode_full_value(blob, self.arity)):
                        per_input[i].append(cells)
                else:
                    per_input[only_input].append(
                        _decode_value_field(blob, only_input)
                    )
        return matched, [_concat(parts) for parts in per_input]

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        query = np.sort(qpacked)
        parts: list[np.ndarray] = []
        out_keys, in_cells = self.components[f"direct{input_idx}"].items_fixed()
        if out_keys.size:
            parts.append(out_keys[C.isin_sorted(in_cells, query)])
        if ticker is not None:
            ticker()
        ref_keys, refs = self.components["refs"].items_fixed()
        if ref_keys.size:
            # one vectorised pass over the blob heap; refs are blob ids, so
            # the per-blob verdicts index straight into the ref rows
            verdicts = self.components["blobs"].batch_probe(
                field=input_idx, ticker=ticker
            ).contains_any(query, ticker)
            parts.append(ref_keys[verdicts[refs]])
        return np.unique(_concat(parts))


class _FullBackwardMany(OpLineageStore):
    """``<-FullMany``: one entry per region pair, keyed by the output cell
    set, R-tree indexed."""

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        self._declare("table", RegionEntryTable(out_shape), "b")

    def ingest(self, sink: BufferSink) -> None:
        table = self.components["table"]
        for rb in sink.batches:
            if rb.is_payload:
                continue
            table.add_entries(
                C.pack_coords(rb.out_coords, self.out_shape),
                np.diff(rb.out_offsets),
                *encode_full_values(self._pack_inputs(rb), rb.in_offsets),
            )

    def backward_full(self, qpacked, only_input=None):
        table = self.components["table"]
        query_sorted = np.sort(qpacked)
        coords = C.unpack_coords(qpacked, self.out_shape)
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        candidates = table.candidate_entries(coords)
        hit, hit_cells = table.match_keys(candidates, query_sorted)
        fields = range(self.arity) if only_input is None else (only_input,)
        for entry_id in candidates[hit]:
            for i in fields:
                per_input[i].append(table.value_cells(int(entry_id), field=i))
        matched = np.isin(qpacked, hit_cells)
        return matched, [_concat(parts) for parts in per_input]

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        table = self.components["table"]
        query = np.sort(qpacked)
        verdicts = table.batch_probe(field=input_idx, ticker=ticker).contains_any(
            query, ticker
        )
        return np.unique(table.entries_keys(np.flatnonzero(verdicts)))


class _FullForwardOne(OpLineageStore):
    """``->FullOne``: per input array, hash key = input cell."""

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        for i in range(self.arity):
            self._declare(f"fdirect{i}", HashStore(f"{node}.fdirect{i}"), f"f{i}")
        for i in range(self.arity):
            self._declare(f"frefs{i}", HashStore(f"{node}.frefs{i}"), f"f{i}", refs=True)
        self._declare("fblobs", BlobStore(f"{node}.fblobs"))

    def ingest(self, sink: BufferSink) -> None:
        comps = self.components
        for rb in sink.batches:
            if rb.is_payload:
                continue
            out_packed = C.pack_coords(rb.out_coords, self.out_shape)
            in_packed = self._pack_inputs(rb)
            if rb.unit:  # one-to-one: inline the output cell, no blob
                for i, cells in enumerate(in_packed):
                    comps[f"fdirect{i}"].put_many_fixed(cells, out_packed)
                continue
            ids = comps["fblobs"].append_buffer(
                *_encode_sorted_segmented(out_packed, rb.out_offsets)
            )
            for i, cells in enumerate(in_packed):
                comps[f"frefs{i}"].put_many_fixed(
                    cells, np.repeat(ids, np.diff(rb.in_offsets[i]))
                )

    def forward_full(self, qpacked, input_idx):
        parts: list[np.ndarray] = []
        qidx, cells = self.components[f"fdirect{input_idx}"].lookup_refs(qpacked)
        if qidx.size:
            parts.append(cells)
        qidx, refs = self.components[f"frefs{input_idx}"].lookup_refs(qpacked)
        blobs = self.components["fblobs"]
        for ref in np.unique(refs):
            arr, _ = codecs.decode_cells(blobs.get(int(ref)))
            parts.append(arr)
        return _concat(parts)

    def scan_backward_full(self, qpacked, ticker=None):
        comps = self.components
        query = np.sort(qpacked)
        matched_cells: list[np.ndarray] = []
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        # one vectorised intersect pass over the shared blob heap, reused by
        # every input's ref store (hit_ids ascending, blobs keyed by id)
        hit_ids, intersections = comps["fblobs"].batch_probe().intersect(query, ticker)
        inter_by_blob = dict(zip(hit_ids.tolist(), intersections))
        for i in range(self.arity):
            in_keys, out_cells = comps[f"fdirect{i}"].items_fixed()
            if in_keys.size:
                member = C.isin_sorted(out_cells, query)
                if member.any():
                    matched_cells.append(out_cells[member])
                    per_input[i].append(in_keys[member])
            in_keys, refs = comps[f"frefs{i}"].items_fixed()
            if in_keys.size and hit_ids.size:
                member = C.isin_sorted(refs, hit_ids)
                if member.any():
                    per_input[i].append(in_keys[member])
                    matched_cells.extend(
                        inter_by_blob[int(r)] for r in np.unique(refs[member])
                    )
            if ticker is not None:
                ticker()
        matched = np.isin(qpacked, _concat(matched_cells))
        return matched, [_concat(parts) for parts in per_input]


class _FullForwardMany(OpLineageStore):
    """``->FullMany``: per input array, one R-tree-indexed entry per pair."""

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        for i, shape in enumerate(self.in_shapes):
            self._declare(f"table{i}", RegionEntryTable(shape), f"f{i}")

    def ingest(self, sink: BufferSink) -> None:
        for rb in sink.batches:
            if rb.is_payload:
                continue
            vbuf, vlens = _encode_sorted_segmented(
                C.pack_coords(rb.out_coords, self.out_shape), rb.out_offsets
            )
            vstarts = np.zeros(vlens.size + 1, dtype=np.int64)
            np.cumsum(vlens, out=vstarts[1:])
            for i, in_packed in enumerate(self._pack_inputs(rb)):
                in_counts = np.diff(rb.in_offsets[i])
                keep = in_counts > 0
                if not keep.any():
                    # pairs with no cells in this input store no forward keys
                    continue
                if keep.all():
                    buf_i, lens_i = vbuf, vlens
                else:
                    lens_i = vlens[keep]
                    buf_i = _gather_slices(
                        vbuf, vstarts[:-1][keep], lens_i, int(lens_i.sum())
                    )
                    in_counts = in_counts[keep]
                self.components[f"table{i}"].add_entries(
                    in_packed, in_counts, buf_i, lens_i
                )

    def forward_full(self, qpacked, input_idx):
        table = self.components[f"table{input_idx}"]
        coords = C.unpack_coords(qpacked, self.in_shapes[input_idx])
        query_sorted = np.sort(qpacked)
        parts: list[np.ndarray] = []
        for entry_id in table.candidate_entries(coords):
            keys = table.entry_keys(int(entry_id))
            if C.isin_sorted(keys, query_sorted).any():
                arr, _ = codecs.decode_cells(table.entry_value(int(entry_id)))
                parts.append(arr)
        return _concat(parts)

    def scan_backward_full(self, qpacked, ticker=None):
        query = np.sort(qpacked)
        matched_cells: list[np.ndarray] = []
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        for i in range(self.arity):
            table = self.components[f"table{i}"]
            hit_ids, intersections = table.batch_probe().intersect(query, ticker)
            if hit_ids.size:
                matched_cells.extend(intersections)
                per_input[i].append(table.entries_keys(hit_ids))
        matched = np.isin(qpacked, _concat(matched_cells))
        return matched, [_concat(parts) for parts in per_input]


class _PayBackwardOne(OpLineageStore):
    """``<-PayOne``: hash key = output cell, value = duplicated payload.

    Serves both ``Pay`` and ``Comp`` strategies (composite lineage stores
    its payload overrides the same way, §V-A.4).
    """

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        self._declare("pay", HashStore(f"{node}.pay"), "b")

    def ingest(self, sink: BufferSink) -> None:
        pay = self.components["pay"]
        for rb in sink.batches:
            if not rb.is_payload:
                continue
            out_packed = C.pack_coords(rb.out_coords, self.out_shape)
            if rb.unit:
                pay.put_many(out_packed, rb.payloads, rb.payload_offsets)
                continue
            # duplicate each pair's payload once per output cell (PayOne)
            out_counts = np.diff(rb.out_offsets)
            rep_lens = np.repeat(np.diff(rb.payload_offsets), out_counts)
            buf = _gather_slices(
                rb.payloads,
                np.repeat(rb.payload_offsets[:-1], out_counts),
                rep_lens,
                int(rep_lens.sum()),
            )
            offsets = np.zeros(out_packed.size + 1, dtype=np.int64)
            np.cumsum(rep_lens, out=offsets[1:])
            pay.put_many(out_packed, buf, offsets)

    def backward_payload(self, qpacked):
        matched = np.zeros(qpacked.size, dtype=bool)
        qidx, values = self.components["pay"].lookup_many(qpacked)
        groups: dict[bytes, list[int]] = {}
        for pos, payload in zip(qidx, values):
            matched[pos] = True
            groups.setdefault(payload, []).append(int(qpacked[pos]))
        pairs = [
            (np.asarray(cells, dtype=np.int64), payload)
            for payload, cells in groups.items()
        ]
        return matched, pairs

    def backward_payload_rows(self, qpacked):
        matched = np.zeros(qpacked.size, dtype=bool)
        qidx, values = self.components["pay"].lookup_many(qpacked)
        if qidx.size:
            matched[qidx] = True
        return matched, qpacked[qidx], values

    def payload_entries(self):
        keys, voff, vbuf = self.components["pay"].columns()
        koff = np.arange(keys.size + 1, dtype=np.int64)  # one key cell per entry
        return keys, koff, vbuf, voff

    def overridden_keys(self) -> np.ndarray:
        return np.unique(self.components["pay"].keys_array())


class _PayBackwardMany(OpLineageStore):
    """``<-PayMany``: one entry per payload pair, R-tree indexed."""

    def __init__(self, node, strategy, out_shape, in_shapes):
        super().__init__(node, strategy, out_shape, in_shapes)
        self._declare("paytable", RegionEntryTable(out_shape), "b")

    def ingest(self, sink: BufferSink) -> None:
        table = self.components["paytable"]
        for rb in sink.batches:
            if not rb.is_payload:
                continue
            table.add_entries(
                C.pack_coords(rb.out_coords, self.out_shape),
                np.diff(rb.out_offsets),
                rb.payloads,
                np.diff(rb.payload_offsets),
            )

    def backward_payload(self, qpacked):
        table = self.components["paytable"]
        query_sorted = np.sort(qpacked)
        coords = C.unpack_coords(qpacked, self.out_shape)
        pairs: list[tuple[np.ndarray, bytes]] = []
        matched_cells: list[np.ndarray] = []
        for entry_id in table.candidate_entries(coords):
            keys = table.entry_keys(int(entry_id))
            hit = keys[C.isin_sorted(keys, query_sorted)]
            if hit.size == 0:
                continue
            matched_cells.append(hit)
            pairs.append((hit, table.entry_value(int(entry_id))))
        matched = np.isin(qpacked, _concat(matched_cells))
        return matched, pairs

    def payload_entries(self):
        return self.components["paytable"].columns()

    def overridden_keys(self) -> np.ndarray:
        return np.unique(self.components["paytable"].keys_array())


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _decode_value_field(blob: bytes, field: int) -> np.ndarray:
    """Decode one cell-set field of a value blob, skipping (not decoding)
    the fields before it."""
    offset = codecs.skip_fields(blob, 0, len(blob), field)
    cells, _ = codecs.decode_cells(blob, offset)
    return cells


def make_store(
    node: str,
    strategy: StorageStrategy,
    out_shape: tuple[int, ...],
    in_shapes: tuple[tuple[int, ...], ...],
) -> OpLineageStore:
    """Factory mapping a storage strategy to its layout implementation."""
    if not strategy.stores_pairs:
        raise LineageError(f"{strategy.label} does not materialise lineage")
    if strategy.mode in (LineageMode.PAY, LineageMode.COMP):
        cls = (
            _PayBackwardOne
            if strategy.encoding is EncodingKind.ONE
            else _PayBackwardMany
        )
        return cls(node, strategy, out_shape, in_shapes)
    if strategy.orientation is Orientation.BACKWARD:
        cls = (
            _FullBackwardOne
            if strategy.encoding is EncodingKind.ONE
            else _FullBackwardMany
        )
    else:
        cls = (
            _FullForwardOne
            if strategy.encoding is EncodingKind.ONE
            else _FullForwardMany
        )
    return cls(node, strategy, out_shape, in_shapes)
