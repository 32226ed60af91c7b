"""Source-agnostic read union over the live pieces of one lineage store.

A ``(node, strategy)`` key can be served by more than one physical store
at once, for two independent reasons:

* **Generations.**  An incremental flush (``flush_lineage(append=True)``)
  leaves the key split across the base segment plus one delta segment per
  appended run (``<name>.gen.<g>.seg``, see :mod:`repro.storage.segment`)
  until a compaction merges them.
* **Partitions.**  A partitioned catalog
  (:class:`~repro.storage.partition.PartitionedCatalog`) splits a
  workflow's lineage by node subset; a key that lands in several
  partitions (an explicit multi-assignment, or a re-mapped append) is
  served by one store per partition.

In both cases queries must see the *union* — lineage accumulates, it is
never overwritten — and :class:`OverlayStore` is that union view over any
list of :data:`LineageSource` members (oldest/lowest-precedence first).
It answers the whole read API by consulting all of them, newest first,
merging per-cell verdicts with OR and cell sets by concatenation.  The
merge code is deliberately unaware of *why* the key is split: a
generation overlay and a partition union run the identical paths (one
implementation, per the roadmap — not two parallel merge engines), and a
partition union whose members are themselves generation overlays simply
nests.

Design points:

* **Each source keeps its own indexes.**  Matched probes run one hash
  lookup / R-tree descent per source; mismatched scans run each
  source's vectorised :class:`~repro.storage.codecs.BatchProbe` pass
  over that source's (persisted) lowered tables.  Nothing is rebuilt
  at open time — that is what makes appends cheap — but every extra
  source adds a probe pass, which is the *read amplification* the cost
  model prices (:meth:`~repro.core.costmodel.CostModel.overlay_penalty_seconds`)
  and :meth:`~repro.core.catalog.StoreCatalog.compact` removes.
* **Forward payload queries pay the amplification once**: the forward
  payload index (:meth:`~repro.core.lineage_store.OpLineageStore.forward_payload_index`)
  is built from one ``(keys, koff, vbuf, voff)`` surface, which the
  overlay stitches from its sources' columns; the index is cached on the
  overlay, so later probes see one table, not one per source.
* The overlay is read-only: ingest/absorb go to the concrete layouts.  A
  full (non-append) re-flush of an overlay collapses it — the segment it
  writes is the compacted merge.

Query answers over an overlay are *set-identical* to the same lineage in
one store: every public read returns packed cell sets (or per-cell
verdicts) that the executor deduplicates, so concatenation across
sources is exact, even when sources overlap.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import lockcheck
from repro.core.lineage_store import OpLineageStore, _concat, make_store

__all__ = ["FilterStats", "LineageSource", "OverlayStore"]

#: The union-member contract.  Anything that answers the
#: :class:`~repro.core.lineage_store.OpLineageStore` read API can be a
#: member of an :class:`OverlayStore`: a concrete single-segment store
#: (one generation, or one partition's compacted key), or another overlay
#: (a partition union over per-partition generation overlays nests).  The
#: alias exists so call sites can say what they mean — "a list of lineage
#: sources" — without caring which physical split produced them.
LineageSource = OpLineageStore


class FilterStats:
    """Shared counters for the overlay's source-skip filters.

    One instance is owned by the :class:`~repro.core.catalog.StoreCatalog`
    (or the partitioned root) and injected into every overlay it opens, so
    the serving stats see the whole process's filter effectiveness; a
    standalone overlay makes its own.  Counter names keep the historical
    ``generations_*`` spelling — generations are by far the common source
    kind — but a skipped partition member counts identically.  Counters
    accumulate once per read call (not per source) to keep the hot path
    to a single short lock acquisition.
    """

    __slots__ = ("_lock", "filter_probes", "generations_skipped", "bloom_fp")

    def __init__(self):
        self._lock = lockcheck.make_lock("overlay.filterstats")
        #: generation probes that had a filter to consult
        self.filter_probes = 0
        #: probes answered False — the generation's read was skipped
        self.generations_skipped = 0
        #: probes answered True whose read then matched nothing (bloom /
        #: zone false positives; the overlay read stayed correct, just paid)
        self.bloom_fp = 0

    def record(self, probes: int, skipped: int, fp: int) -> None:
        if not (probes or skipped or fp):
            return
        with self._lock:
            self.filter_probes += probes
            self.generations_skipped += skipped
            self.bloom_fp += fp

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "filter_probes": self.filter_probes,
                "generations_skipped": self.generations_skipped,
                "bloom_fp": self.bloom_fp,
            }


class _OverlaySegments:
    """Accounting/lifecycle shim standing in for a single segment handle.

    The serving cache charges an open store by ``store._segment``'s mapped
    bytes; an overlay's footprint is the sum of its sources' mappings
    (each of which may itself be a lazily-mapped sharded segment, or a
    nested overlay carrying this same shim).
    """

    __slots__ = ("_stores",)

    def __init__(self, stores: list[LineageSource]):
        self._stores = stores

    def mapped_bytes(self) -> int:
        total = 0
        for store in self._stores:
            seg = store._segment
            if seg is None:
                continue
            mapped = getattr(seg, "mapped_bytes", None)
            total += mapped() if mapped is not None else seg.nbytes
        return total


class OverlayStore(OpLineageStore):
    """Union view over one key's lineage sources (see module docstring).

    ``kind`` labels what split produced the sources — ``"generation"``
    (the catalog's delta overlay) or ``"partition"`` (a scatter-gather
    union over per-partition stores).  It changes nothing about the merge;
    it exists so diagnostics can say which union they are looking at.
    """

    def __init__(
        self,
        stores: list[LineageSource],
        filter_stats: FilterStats | None = None,
        kind: str = "generation",
    ):
        if not stores:
            raise ValueError("an overlay needs at least one source")
        first = stores[0]
        super().__init__(first.node, first.strategy, first.out_shape, first.in_shapes)
        for other in stores[1:]:
            self._check_absorb(other)
        #: the sources, oldest/lowest-precedence first (reads iterate
        #: newest first)
        self._sources: list[LineageSource] = list(stores)
        self.kind = kind
        self._segment = _OverlaySegments(self._sources)
        #: source-skip counters (shared with the owning catalog)
        self._fstats = filter_stats if filter_stats is not None else FilterStats()

    # -- introspection -------------------------------------------------------

    @property
    def sources(self) -> int:
        """How many lineage sources this union consults."""
        return len(self._sources)

    def source_stores(self) -> list[LineageSource]:
        return list(self._sources)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._payload_index.clear()
        self._segment = None
        for store in self._sources:
            store.close()

    def finalize_if_possible(self) -> None:
        for store in self._sources:
            store.finalize_if_possible()

    def warm_lowered_tables(self) -> None:
        for store in self._sources:
            store.warm_lowered_tables()

    def lowered_ready(self) -> bool:
        return all(store.lowered_ready() for store in self._sources)

    # -- writes are a layout concern ------------------------------------------

    def ingest(self, sink) -> None:
        raise NotImplementedError("OverlayStore is read-only; ingest into a run store")

    def absorb(self, other) -> None:
        raise NotImplementedError("OverlayStore is read-only; merge via merged_store()")

    # -- persistence: a full flush collapses the overlay -----------------------

    def merged_store(self) -> OpLineageStore:
        """Materialise the union as one concrete store (the compaction
        product): a fresh layout-store absorbing every generation, oldest
        first, finalized and independent of the generations' mappings."""
        merged = make_store(self.node, self.strategy, self.out_shape, self.in_shapes)
        for store in self._sources:
            merged.absorb(store)
        merged.finalize_if_possible()
        return merged

    def flush_segment(
        self,
        path: str,
        shard_threshold_bytes: int | None = None,
        stale_sink: list | None = None,
    ) -> int:
        return self.merged_store().flush_segment(
            path,
            shard_threshold_bytes=shard_threshold_bytes,
            stale_sink=stale_sink,
        )

    # -- matched-orientation reads --------------------------------------------
    #
    # Every matched read consults each generation's persisted bloom/zone
    # filter (``filter_decision``) before touching it: a False is a proof
    # of absence, so the generation's probe is skipped outright — this is
    # what turns an O(generations) matched read back into ~O(1) on stores
    # whose deltas partition the key space.  A None (no filter: resident
    # store or pre-filter segment) always reads.  Counters accumulate once
    # per call on the shared :class:`FilterStats`.

    def backward_full(self, qpacked, only_input=None):
        qpacked = np.asarray(qpacked)
        matched = np.zeros(qpacked.size, dtype=bool)
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        probes = skipped = fp = 0
        for store in reversed(self._sources):
            decision = store.filter_decision("b", qpacked)
            if decision is not None:
                probes += 1
                if not decision:
                    skipped += 1
                    continue
            m, per = store.backward_full(qpacked, only_input=only_input)
            if decision and not m.any():
                fp += 1
            matched |= m
            for i, cells in enumerate(per):
                if cells.size:
                    per_input[i].append(cells)
        self._fstats.record(probes, skipped, fp)
        return matched, [_concat(parts) for parts in per_input]

    def forward_full(self, qpacked, input_idx):
        qpacked = np.asarray(qpacked)
        tag = f"f{input_idx}"
        parts: list[np.ndarray] = []
        probes = skipped = fp = 0
        for store in reversed(self._sources):
            decision = store.filter_decision(tag, qpacked)
            if decision is not None:
                probes += 1
                if not decision:
                    skipped += 1
                    continue
            cells = store.forward_full(qpacked, input_idx)
            if decision and cells.size == 0:
                fp += 1
            parts.append(cells)
        self._fstats.record(probes, skipped, fp)
        return _concat(parts)

    def backward_payload(self, qpacked):
        qpacked = np.asarray(qpacked)
        matched = np.zeros(qpacked.size, dtype=bool)
        pairs = []
        probes = skipped = fp = 0
        for store in reversed(self._sources):
            decision = store.filter_decision("b", qpacked)
            if decision is not None:
                probes += 1
                if not decision:
                    skipped += 1
                    continue
            m, p = store.backward_payload(qpacked)
            if decision and not m.any():
                fp += 1
            matched |= m
            pairs.extend(p)
        self._fstats.record(probes, skipped, fp)
        return matched, pairs

    def backward_payload_rows(self, qpacked):
        qpacked = np.asarray(qpacked)
        matched = np.zeros(qpacked.size, dtype=bool)
        hit_parts: list[np.ndarray] = []
        payloads: list = []
        probes = skipped = fp = 0
        try:
            for store in reversed(self._sources):
                decision = store.filter_decision("b", qpacked)
                if decision is not None:
                    probes += 1
                    if not decision:
                        # a filtered-out generation contributes nothing, so
                        # it cannot force the pair-based fallback either
                        skipped += 1
                        continue
                rows = store.backward_payload_rows(qpacked)
                if rows is None:  # a *Many generation: use the pair-based path
                    return None
                m, hits, values = rows
                if decision and not m.any():
                    fp += 1
                matched |= m
                if hits.size:
                    hit_parts.append(hits)
                    payloads.extend(values)
        finally:
            self._fstats.record(probes, skipped, fp)
        return matched, _concat(hit_parts), payloads

    # -- mismatched-orientation reads ------------------------------------------

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        return np.unique(
            _concat(
                [
                    store.scan_forward_full(qpacked, input_idx, ticker=ticker)
                    for store in reversed(self._sources)
                ]
            )
        )

    def scan_backward_full(self, qpacked, ticker=None):
        matched = np.zeros(np.asarray(qpacked).size, dtype=bool)
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        for store in reversed(self._sources):
            m, per = store.scan_backward_full(qpacked, ticker=ticker)
            matched |= m
            for i, cells in enumerate(per):
                if cells.size:
                    per_input[i].append(cells)
        return matched, [_concat(parts) for parts in per_input]

    def payload_entries(self):
        """Concatenated columnar payload surface across the sources — the
        input of the overlay's forward payload index, which is what gets
        cached (sources are immutable once opened)."""
        key_parts: list[np.ndarray] = []
        klen_parts: list[np.ndarray] = []
        vbuf_parts: list[bytes] = []
        vlen_parts: list[np.ndarray] = []
        for store in self._sources:
            keys, koff, vbuf, voff = store.payload_entries()
            if koff.size <= 1:
                continue
            key_parts.append(np.asarray(keys, dtype=np.int64))
            klen_parts.append(np.diff(np.asarray(koff, dtype=np.int64)))
            vbuf_parts.append(bytes(vbuf))
            vlen_parts.append(np.diff(np.asarray(voff, dtype=np.int64)))
        if not key_parts:
            empty = np.empty(0, dtype=np.int64)
            zero = np.zeros(1, dtype=np.int64)
            return empty, zero, b"", zero
        klens = np.concatenate(klen_parts)
        vlens = np.concatenate(vlen_parts)
        koff = np.zeros(klens.size + 1, dtype=np.int64)
        np.cumsum(klens, out=koff[1:])
        voff = np.zeros(vlens.size + 1, dtype=np.int64)
        np.cumsum(vlens, out=voff[1:])
        return np.concatenate(key_parts), koff, b"".join(vbuf_parts), voff

    def overridden_keys(self) -> np.ndarray:
        return np.unique(
            _concat([store.overridden_keys() for store in self._sources])
        )

    # -- accounting ------------------------------------------------------------

    def disk_bytes(self) -> int:
        return sum(store.disk_bytes() for store in self._sources)

    @property
    def n_entries(self) -> int:
        return sum(store.n_entries for store in self._sources)
