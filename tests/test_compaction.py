"""Incremental append-merge: generational catalog + online compaction.

Five layers under test:

* **equivalence property** — a Hypothesis property asserts that appending a
  run as a delta generation and then compacting answers *identically* to a
  single full flush of all the lineage, for all four Full strategies
  (matched and mismatched) and the three payload layouts, before AND after
  the compaction (the overlay and the merge must both be exact).
* **generational catalog** — delta naming (``<name>.gen.<g>.seg``),
  manifest ``gen`` records (absent for never-appended catalogs, keeping
  the schema byte-compatible), ordinal collision avoidance against stale
  crash residue, shape guards, empty-delta skipping.
* **compaction semantics** — generations merge into one base segment,
  bytes are reclaimed, a rewrite budget leaves the rest for a later pass,
  and — the serve-while-compacting contract — readers pinned on the old
  generation set keep serving it, with the superseded delta files unlinked
  only when the last pin drops.
* **crash recovery** — an interrupted compaction leaves the catalog
  serving the old generation set (and no tmp residue); a crash *after* the
  atomic manifest swap leaves stale delta files that recovery sweeps; a
  torn or missing generation is quarantined alone (older generations keep
  serving); a store directory with files deleted outright — a missing
  shard, a missing monolith — quarantines with a clear ``StorageError``,
  never a raw ``FileNotFoundError``.
* **facade + cost model** — ``flush_lineage(append=True)`` /
  ``compact_lineage`` / ``compaction_advice`` round-trip through
  ``SubZero``, and the cost model prices the overlay read amplification so
  the advice (and the query-time optimizer) can see un-compacted appends.
"""

import json
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_MANY_B,
    PAY_ONE_B,
    SciArray,
    SubZero,
)
from repro.arrays import coords as C
from repro.arrays.versions import VersionStore
from repro.core.catalog import StoreCatalog, store_filename
from repro.core.costmodel import CostModel
from repro.core.lineage_store import make_store
from repro.core.modes import BLACKBOX, COMP_ONE_B, MAP, LineageMode
from repro.core.overlay import OverlayStore
from repro.core.query import QueryRequest
from repro.core.runtime import LineageRuntime
from repro.core.stats import StatsCollector
from repro.errors import StorageError
from repro.ops.base import LineageContext
from repro.storage.segment import (
    SegmentWriter,
    generation_files,
    generation_path,
    segment_files,
)
from repro.workflow.recovery import QUARANTINE_SUFFIX, recover_lineage
from tests.conftest import build_spot_spec
from tests.test_segments import ALL_FULL, SHAPE, SIZE, _answers, sinks

JOIN_TIMEOUT = 120  # seconds before a hung worker counts as a deadlock


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


def _store_from(sink, strategy, node="n"):
    store = make_store(node, strategy, SHAPE, (SHAPE,))
    store.ingest(sink)
    return store


def _sink(seed, n=12):
    """A deterministic elementwise + region-pair sink."""
    rng = np.random.default_rng(seed)
    ctx = LineageContext(frozenset())
    outs = rng.integers(0, SHAPE[0], size=(n, 1))
    outs = np.concatenate([outs, rng.integers(0, SHAPE[1], size=(n, 1))], axis=1)
    ins = np.concatenate(
        [rng.integers(0, SHAPE[0], size=(n, 1)), rng.integers(0, SHAPE[1], size=(n, 1))],
        axis=1,
    )
    ctx.lwrite_elementwise(outs, ins)
    ctx.lwrite(
        cells((0, seed % SHAPE[1]), (1, seed % SHAPE[1])),
        cells((2, 2), (3, (seed + 3) % SHAPE[1])),
    )
    return ctx.sink


QUERY = np.arange(SHAPE[0] * SHAPE[1], dtype=np.int64)

#: every stored layout: the four Full ones plus the payload layouts
ALL_STORED = [*ALL_FULL, PAY_ONE_B, PAY_MANY_B, COMP_ONE_B]


def _packed_cells(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    packed = draw(st.lists(st.integers(0, SIZE - 1), min_size=n, max_size=n))
    return C.unpack_coords(np.unique(np.asarray(packed, dtype=np.int64)), SHAPE)


@st.composite
def mixed_sinks(draw):
    """:func:`~tests.test_segments.sinks` plus payload pairs (multi-cell
    regions and a one-cell-per-row batch), so every layout stores some."""
    sink, query = draw(sinks())
    ctx = LineageContext(frozenset(), sink=sink)
    for _ in range(draw(st.integers(0, 4))):
        outs = _packed_cells(draw, 1, 4)
        ctx.lwrite_payload(outs, draw(st.binary(min_size=1, max_size=3)))
    outs = _packed_cells(draw, 0, 6)
    n = outs.shape[0]
    if n:
        radii = draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        ctx.lwrite_payload_batch(outs, np.asarray(radii, dtype=np.uint8).reshape(n, 1))
    return ctx.sink, query


def _layout_answers(store, strategy, query):
    """:func:`~tests.test_segments._answers` for every stored layout: the
    payload layouts answer matched reads and the columnar scan surface as
    order-free multisets; row reads, where a store offers them, must agree
    with its matched read."""
    if strategy.mode is LineageMode.FULL:
        return _answers(store, strategy, query)
    matched, pairs = store.backward_payload(query)
    hits = {(int(c), bytes(p)) for cells, p in pairs for c in cells}
    rows = store.backward_payload_rows(query)
    if rows is not None:
        assert rows[0].tolist() == matched.tolist()
        assert set(zip(rows[1].tolist(), map(bytes, rows[2]))) == hits
    keys, koff, vbuf, voff = store.payload_entries()
    entries = sorted(
        (
            tuple(sorted(keys[koff[e]: koff[e + 1]].tolist())),
            bytes(vbuf[voff[e]: voff[e + 1]]),
        )
        for e in range(koff.size - 1)
    )
    return (
        matched.tolist(),
        sorted(hits),
        entries,
        sorted(store.overridden_keys().tolist()),
    )


# -- the equivalence property --------------------------------------------------


class TestAppendCompactEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STORED, ids=lambda s: s.label)
    @given(case_a=mixed_sinks(), case_b=mixed_sinks())
    @settings(max_examples=10, deadline=None)
    def test_append_then_compact_matches_full_flush(
        self, strategy, case_a, case_b, tmp_path_factory
    ):
        sink_a, q_a = case_a
        sink_b, q_b = case_b
        query = np.unique(np.concatenate([q_a, q_b]))

        combined = make_store("n", strategy, SHAPE, (SHAPE,))
        combined.ingest(sink_a)
        combined.ingest(sink_b)
        baseline = _layout_answers(combined, strategy, query)

        directory = str(tmp_path_factory.mktemp("gens"))
        key = ("n", strategy)
        catalog, _ = StoreCatalog.write(directory, {key: _store_from(sink_a, strategy)})
        catalog.close()
        delta = _store_from(sink_b, strategy)
        expect_gens = 2 if delta.n_entries else 1
        catalog, _ = StoreCatalog.append(directory, {key: delta})

        # the overlay (pre-compaction) already answers identically
        assert catalog.generation_count("n", strategy) == expect_gens
        overlay = catalog.open_store("n", strategy)
        assert overlay.lowered_ready()  # every generation persisted warm
        assert _layout_answers(overlay, strategy, query) == baseline
        catalog.close()

        # ...and so does the single merged segment compaction writes
        catalog = StoreCatalog.open(directory)
        catalog.compact()
        assert catalog.generation_count("n", strategy) == 1
        catalog.close()
        fresh = StoreCatalog.open(directory)
        assert fresh.generation_count("n", strategy) == 1
        compacted = fresh.open_store("n", strategy)
        assert _layout_answers(compacted, strategy, query) == baseline
        fresh.close()


# -- the generational catalog --------------------------------------------------


class TestGenerationalCatalog:
    def test_generation_path_naming(self):
        assert generation_path("/d/spot.seg", 0) == "/d/spot.seg"
        assert generation_path("/d/spot.seg", 3) == "/d/spot.gen.3.seg"
        with pytest.raises(StorageError):
            generation_path("/d/spot.seg", -1)

    def test_append_writes_delta_and_manifest_gen(self, tmp_path):
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_MANY_B)})
        catalog.close()
        catalog, nbytes = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        assert nbytes > 0
        base = store_filename("n", FULL_MANY_B)
        delta = base.replace(".seg", ".gen.1.seg")
        assert (tmp_path / delta).exists()
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        gens = {obj["file"]: obj.get("gen") for obj in manifest["stores"]}
        assert gens == {base: None, delta: 1}
        # one store, two generations
        assert len(catalog) == 1
        assert len(catalog.entries()) == 2
        assert catalog.entry("n", FULL_MANY_B).gen == 0
        assert [e.gen for e in catalog.generations_for("n", FULL_MANY_B)] == [0, 1]
        # manifest accounting covers all generations
        assert catalog.manifest_bytes("n", FULL_MANY_B) == sum(
            e.nbytes for e in catalog.entries()
        )
        catalog.close()

    def test_never_appended_manifest_stays_gen_free(self, tmp_path):
        key = ("n", FULL_ONE_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(2), FULL_ONE_B)})
        catalog.close()
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        assert all("gen" not in obj for obj in manifest["stores"])

    def test_append_skips_empty_delta(self, tmp_path):
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(3), FULL_MANY_B)})
        catalog.close()
        empty = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
        catalog, nbytes = StoreCatalog.append(str(tmp_path), {key: empty})
        assert nbytes == 0
        assert catalog.generation_count("n", FULL_MANY_B) == 1
        catalog.close()

    def test_append_rejects_shape_change(self, tmp_path):
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(4), FULL_MANY_B)})
        catalog.close()
        other = make_store("n", FULL_MANY_B, (SHAPE[0] + 1, SHAPE[1]), (SHAPE,))
        ctx = LineageContext(frozenset())
        ctx.lwrite_elementwise(cells((0, 0)), cells((1, 1)))
        other.ingest(ctx.sink)
        with pytest.raises(StorageError, match="delta shapes"):
            StoreCatalog.append(str(tmp_path), {key: other})

    def test_append_skips_stale_ordinals_on_disk(self, tmp_path):
        """Crash residue: a generation file no manifest references must not
        be overwritten by (or mixed into) the next append."""
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(5), FULL_MANY_B)})
        catalog.close()
        base_path = str(tmp_path / store_filename("n", FULL_MANY_B))
        stale = generation_path(base_path, 1)
        _store_from(_sink(99), FULL_MANY_B).flush_segment(stale)
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(6), FULL_MANY_B)}
        )
        assert [e.gen for e in catalog.generations_for("n", FULL_MANY_B)] == [0, 2]
        assert os.path.exists(generation_path(base_path, 2))
        catalog.close()

    def test_append_into_empty_directory_is_a_first_flush(self, tmp_path):
        key = ("n", FULL_ONE_B)
        catalog, nbytes = StoreCatalog.append(
            str(tmp_path / "fresh"), {key: _store_from(_sink(7), FULL_ONE_B)}
        )
        assert nbytes > 0
        assert catalog.generation_count("n", FULL_ONE_B) == 1
        assert catalog.entry("n", FULL_ONE_B).gen == 0
        catalog.close()

    def test_full_reflush_collapses_and_cleans_deltas(self, tmp_path):
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(8), FULL_MANY_B)})
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(9), FULL_MANY_B)}
        )
        catalog.close()
        combined = _store_from(_sink(8), FULL_MANY_B)
        combined.ingest(_sink(9))
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: combined})
        catalog.close()
        assert not [f for f in os.listdir(tmp_path) if ".gen." in f]
        fresh = StoreCatalog.open(str(tmp_path))
        assert fresh.generation_count("n", FULL_MANY_B) == 1
        fresh.close()

    def test_runtime_append_flush_and_overlay_load(self, tmp_path):
        runtime = LineageRuntime()
        runtime._stores[("n", FULL_MANY_B)] = _store_from(_sink(10), FULL_MANY_B)
        runtime.flush_all(str(tmp_path))
        runtime2 = LineageRuntime()
        runtime2._stores[("n", FULL_MANY_B)] = _store_from(_sink(11), FULL_MANY_B)
        written = runtime2.flush_all(str(tmp_path), append=True)
        assert written > 0

        combined = _store_from(_sink(10), FULL_MANY_B)
        combined.ingest(_sink(11))
        baseline = _answers(combined, FULL_MANY_B, QUERY)

        fresh = LineageRuntime()
        assert fresh.load_all(str(tmp_path)) == 1
        assert fresh.generation_count("n", FULL_MANY_B) == 2
        assert fresh.lowered_ready("n", FULL_MANY_B)
        store = fresh.store_for("n", FULL_MANY_B)
        assert isinstance(store, OverlayStore)
        assert _answers(store, FULL_MANY_B, QUERY) == baseline
        # accounting: totals answer from the manifest, across generations
        assert fresh.total_disk_bytes() == sum(
            e.nbytes for e in fresh.catalog.entries()
        )
        fresh.close()


# -- compaction semantics ------------------------------------------------------


class TestCompaction:
    def _three_generation_dir(self, tmp_path, strategy=FULL_MANY_B):
        key = ("n", strategy)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), strategy)})
        catalog.close()
        for seed in (1, 2):
            catalog, _ = StoreCatalog.append(
                str(tmp_path), {key: _store_from(_sink(seed), strategy)}
            )
            catalog.close()
        combined = _store_from(_sink(0), strategy)
        combined.ingest(_sink(1))
        combined.ingest(_sink(2))
        return _answers(combined, strategy, QUERY)

    def test_compact_merges_reclaims_and_preserves(self, tmp_path):
        baseline = self._three_generation_dir(tmp_path)
        catalog = StoreCatalog.open(str(tmp_path))
        before = catalog.manifest_bytes("n", FULL_MANY_B)
        report = catalog.compact()
        assert [(n, g) for n, _, g in report.compacted] == [("n", 3)]
        assert report.ok and not report.skipped
        assert report.bytes_written > 0
        assert report.bytes_written + report.bytes_reclaimed == before
        assert catalog.generation_count("n", FULL_MANY_B) == 1
        assert not [f for f in os.listdir(tmp_path) if ".gen." in f]
        store = catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == baseline
        catalog.close()

    def test_compact_budget_leaves_rest_for_later(self, tmp_path):
        keys = [("a", FULL_MANY_B), ("b", FULL_MANY_B)]
        catalog, _ = StoreCatalog.write(
            str(tmp_path),
            {key: _store_from(_sink(i), FULL_MANY_B, node=key[0]) for i, key in enumerate(keys)},
        )
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path),
            {
                key: _store_from(_sink(i + 10), FULL_MANY_B, node=key[0])
                for i, key in enumerate(keys)
            },
        )
        report = catalog.compact(budget_bytes=1)  # the first candidate always runs
        assert len(report.compacted) == 1 and len(report.skipped) == 1
        assert not report.ok
        report2 = catalog.compact()
        assert len(report2.compacted) == 1 and report2.ok
        assert all(catalog.generation_count(n, s) == 1 for n, s in keys)
        catalog.close()

    def test_compact_filters_by_node(self, tmp_path):
        keys = [("a", FULL_MANY_B), ("b", FULL_MANY_B)]
        catalog, _ = StoreCatalog.write(
            str(tmp_path),
            {key: _store_from(_sink(i), FULL_MANY_B, node=key[0]) for i, key in enumerate(keys)},
        )
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path),
            {
                key: _store_from(_sink(i + 20), FULL_MANY_B, node=key[0])
                for i, key in enumerate(keys)
            },
        )
        report = catalog.compact(node="a")
        assert [n for n, _, _ in report.compacted] == ["a"]
        assert catalog.generation_count("a", FULL_MANY_B) == 1
        assert catalog.generation_count("b", FULL_MANY_B) == 2
        catalog.close()

    def test_pinned_reader_defers_unlink_until_release(self, tmp_path):
        """The compact-while-serving contract: a session pinned on the old
        generation set keeps serving it, and the superseded delta files are
        unlinked exactly when the last pin drops."""
        baseline = self._three_generation_dir(tmp_path)
        catalog = StoreCatalog.open(str(tmp_path))
        record = catalog.borrow("n", FULL_MANY_B)
        old_store = record.store
        gen_files = [f for f in os.listdir(tmp_path) if ".gen." in f]
        assert len(gen_files) == 2

        report = catalog.compact()
        assert report.compacted
        # the pinned reader still serves the old overlay, off files that are
        # still on disk
        assert _answers(old_store, FULL_MANY_B, QUERY) == baseline
        assert all((tmp_path / f).exists() for f in gen_files)
        # a new borrow sees the compacted store
        fresh = catalog.borrow("n", FULL_MANY_B)
        assert fresh.store is not old_store
        assert not isinstance(fresh.store, OverlayStore)
        assert _answers(fresh.store, FULL_MANY_B, QUERY) == baseline
        catalog.release(fresh)

        catalog.release(record)  # last pin drops -> deltas unlink
        assert not any((tmp_path / f).exists() for f in gen_files)
        catalog.close()

    def test_evicted_while_pinned_reader_also_defers_unlink(self, tmp_path):
        """A record the LRU evicted under a pin (lingering) is still a
        holder of the old generation set: compaction must not unlink its
        files until that last pin drops either."""
        baseline = self._three_generation_dir(tmp_path)
        catalog = StoreCatalog.open(str(tmp_path), memory_budget_bytes=1)
        record = catalog.borrow("n", FULL_MANY_B)
        # force the pinned record out of the cache: with a 1-byte budget,
        # releasing-and-reborrowing another key is unnecessary — a direct
        # eviction pass runs at every release; trigger it via a second
        # borrow/release cycle of the same key (hit keeps it), so evict by
        # hand through the private path the LRU uses
        with catalog._lock:
            catalog._open.pop(record.key)
            record.evicted = True
            catalog._lingering.append(record)
        gen_files = [f for f in os.listdir(tmp_path) if ".gen." in f]
        report = catalog.compact()
        assert report.compacted
        # the lingering pinned reader keeps its files...
        assert all((tmp_path / f).exists() for f in gen_files)
        assert _answers(record.store, FULL_MANY_B, QUERY) == baseline
        catalog.release(record)
        # ...until its pin drops
        assert not any((tmp_path / f).exists() for f in gen_files)
        catalog.close()

    def test_compacting_sharded_base_keeps_pinned_lazy_reader_alive(self, tmp_path):
        """A pinned reader of a *sharded* base may not have mapped every
        shard yet; compacting to a monolith must leave those shard files on
        disk until the pin drops — and the interim manifest keeps
        referencing them, so a crash in between quarantines nothing."""
        key = ("n", FULL_MANY_B)
        store = _store_from(_sink(0, n=60), FULL_MANY_B)
        catalog, _ = StoreCatalog.write(
            str(tmp_path), {key: store}, shard_threshold_bytes=512
        )
        entry = catalog.entry("n", FULL_MANY_B)
        catalog.close()
        assert len(entry.shards) >= 3, "base did not shard; lower the threshold"
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        combined = _store_from(_sink(0, n=60), FULL_MANY_B)
        combined.ingest(_sink(1))
        baseline = _answers(combined, FULL_MANY_B, QUERY)

        record = catalog.borrow("n", FULL_MANY_B)  # maps shard 0 only
        report = catalog.compact()  # merged base is monolithic
        assert report.compacted
        # every old shard file survives under the pin...
        assert all((tmp_path / shard).exists() for shard in entry.shards)
        # ...so the pinned reader's first (lazy, shard-mapping) scan works
        assert _answers(record.store, FULL_MANY_B, QUERY) == baseline
        catalog.release(record)
        # last pin dropped: the superseded shard files are reclaimed
        assert not any((tmp_path / shard).exists() for shard in entry.shards)
        fresh = catalog.open_store("n", FULL_MANY_B)
        assert _answers(fresh, FULL_MANY_B, QUERY) == baseline
        catalog.close()

    def test_serve_while_compacting_threads(self, tmp_path):
        """Readers hammer the key while the main thread appends and
        compacts in a loop; every answer must equal the (stable) union."""
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_MANY_B)})
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        combined = _store_from(_sink(0), FULL_MANY_B)
        combined.ingest(_sink(1))

        def answer_sets(store):
            # set-normalised: re-appending the same delta duplicates store
            # entries (a multiset the executor dedupes), but the cell *sets*
            # every query is built from must never waver
            matched, per = store.backward_full(QUERY)
            scan = store.scan_forward_full(QUERY, 0)
            return (
                matched.tolist(),
                [frozenset(p.tolist()) for p in per],
                frozenset(scan.tolist()),
            )

        baseline = answer_sets(combined)

        stop = threading.Event()
        failures: list = []

        def reader():
            while not stop.is_set():
                record = catalog.borrow("n", FULL_MANY_B)
                try:
                    got = answer_sets(record.store)
                finally:
                    catalog.release(record)
                if got != baseline:
                    failures.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(4):
                # re-appending the same delta keeps the union (and the
                # baseline) stable while still exercising append + compact
                catalog.append_stores({key: _store_from(_sink(1), FULL_MANY_B)})
                report = catalog.compact()
                assert report.compacted
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=JOIN_TIMEOUT)
        assert not failures
        assert not any(t.is_alive() for t in threads), "reader deadlocked"
        assert catalog.generation_count("n", FULL_MANY_B) == 1
        store = catalog.open_store("n", FULL_MANY_B)
        assert answer_sets(store) == baseline
        catalog.close()


# -- crash recovery ------------------------------------------------------------


class TestCrashRecovery:
    def test_interrupted_compaction_write_changes_nothing(self, tmp_path, monkeypatch):
        baseline = TestCompaction()._three_generation_dir(tmp_path)
        catalog = StoreCatalog.open(str(tmp_path))

        real_write = SegmentWriter.write

        def boom(self, path, stale_sink=None):
            raise RuntimeError("simulated crash mid-compaction write")

        monkeypatch.setattr(SegmentWriter, "write", boom)
        with pytest.raises(RuntimeError, match="simulated crash"):
            catalog.compact()
        monkeypatch.setattr(SegmentWriter, "write", real_write)
        catalog.close()

        # nothing moved: no tmp residue, all generations live, answers intact
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        recovery = recover_lineage(str(tmp_path))
        assert recovery.ok and not recovery.removed_stale
        assert recovery.catalog.generation_count("n", FULL_MANY_B) == 3
        store = recovery.catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == baseline
        recovery.catalog.close()

    def test_crash_after_manifest_swap_leaves_sweepable_residue(
        self, tmp_path, monkeypatch
    ):
        baseline = TestCompaction()._three_generation_dir(tmp_path)
        catalog = StoreCatalog.open(str(tmp_path))
        # simulate dying between the manifest swap and the deferred unlink
        monkeypatch.setattr(
            "repro.core.catalog.seglib.remove_segment", lambda path: []
        )
        catalog.compact()
        catalog.close()
        stale = [f for f in os.listdir(tmp_path) if ".gen." in f]
        assert len(stale) == 2  # merged but never unlinked

        recovery = recover_lineage(str(tmp_path))
        assert recovery.ok
        assert sorted(recovery.removed_stale) == sorted(stale)
        assert not [f for f in os.listdir(tmp_path) if ".gen." in f]
        store = recovery.catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == baseline
        recovery.catalog.close()

    def test_torn_generation_quarantined_older_ones_serve(self, tmp_path):
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_MANY_B)})
        catalog.close()
        base_only = _answers(_store_from(_sink(0), FULL_MANY_B), FULL_MANY_B, QUERY)
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        catalog.close()

        delta = generation_path(str(tmp_path / store_filename("n", FULL_MANY_B)), 1)
        with open(delta, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(b"\xff\xff\xff\xff")

        recovery = recover_lineage(str(tmp_path))
        assert len(recovery.quarantined) == 1
        fname, error = recovery.quarantined[0]
        assert ".gen.1." in fname and "generation 1" in str(error)
        assert os.path.exists(delta + QUARANTINE_SUFFIX)
        # the base generation survived and still answers
        assert recovery.catalog.generation_count("n", FULL_MANY_B) == 1
        store = recovery.catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == base_only
        recovery.catalog.close()
        # the quarantine persisted: a plain reload sees one generation
        fresh = StoreCatalog.open(str(tmp_path))
        assert fresh.generation_count("n", FULL_MANY_B) == 1
        fresh.close()

    def test_missing_generation_file_quarantined_not_raised(self, tmp_path):
        """The partial-delete regression: files deleted outright map to the
        quarantine path, exactly like checksum failures."""
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_MANY_B)})
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        catalog.close()
        os.remove(generation_path(str(tmp_path / store_filename("n", FULL_MANY_B)), 1))

        recovery = recover_lineage(str(tmp_path))  # must not raise
        assert len(recovery.quarantined) == 1
        assert isinstance(recovery.quarantined[0][1], StorageError)
        assert recovery.catalog.generation_count("n", FULL_MANY_B) == 1
        recovery.catalog.close()

    def test_missing_shard_quarantined_with_storage_error(self, tmp_path):
        """A store directory partially deleted (one shard gone, the rest
        healthy) quarantines the store with a StorageError — and the
        surviving shards are renamed aside, not abandoned."""
        key = ("n", FULL_MANY_B)
        store = _store_from(_sink(0, n=60), FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: store}, shard_threshold_bytes=512)
        entry = catalog.entry("n", FULL_MANY_B)
        catalog.close()
        assert len(entry.shards) >= 3, "store did not shard; lower the threshold"
        victim = tmp_path / entry.shards[2]
        os.remove(victim)

        with pytest.raises(StorageError):
            recover_lineage(str(tmp_path), strict=True)

        recovery = recover_lineage(str(tmp_path))  # must not raise
        assert len(recovery.quarantined) == 1
        assert isinstance(recovery.quarantined[0][1], StorageError)
        assert len(recovery.catalog) == 0
        for shard in entry.shards:
            path = tmp_path / shard
            assert not path.exists()
            if shard != entry.shards[2]:
                assert (tmp_path / (shard + QUARANTINE_SUFFIX)).exists()

    def test_missing_monolithic_segment_quarantined(self, tmp_path):
        key = ("n", FULL_ONE_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_ONE_B)})
        catalog.close()
        os.remove(tmp_path / store_filename("n", FULL_ONE_B))
        recovery = recover_lineage(str(tmp_path))  # must not raise
        assert len(recovery.quarantined) == 1
        assert isinstance(recovery.quarantined[0][1], StorageError)
        assert len(recovery.catalog) == 0
        recovery.catalog.close()

    def test_stale_residue_swept_even_when_base_generation_quarantined(self, tmp_path):
        """The sweep keys off (node, strategy), not off a surviving gen-0
        entry: losing the base must not orphan unreferenced delta files."""
        key = ("n", FULL_MANY_B)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: _store_from(_sink(0), FULL_MANY_B)})
        catalog.close()
        catalog, _ = StoreCatalog.append(
            str(tmp_path), {key: _store_from(_sink(1), FULL_MANY_B)}
        )
        catalog.close()
        base_path = str(tmp_path / store_filename("n", FULL_MANY_B))
        # unreferenced residue at gen 7, and a corrupt base generation
        _store_from(_sink(9), FULL_MANY_B).flush_segment(generation_path(base_path, 7))
        with open(base_path, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(b"\xff\xff\xff\xff")

        recovery = recover_lineage(str(tmp_path))
        assert len(recovery.quarantined) == 1  # the base only
        assert recovery.removed_stale == [
            os.path.basename(generation_path(base_path, 7))
        ]
        # the delta generation survived and still serves
        assert recovery.catalog.generation_count("n", FULL_MANY_B) == 1
        assert recovery.catalog.generations_for("n", FULL_MANY_B)[0].gen == 1
        store = recovery.catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == _answers(
            _store_from(_sink(1), FULL_MANY_B), FULL_MANY_B, QUERY
        )
        recovery.catalog.close()

    def test_generation_files_helper_sees_disk_state(self, tmp_path):
        base = str(tmp_path / "s.seg")
        _store_from(_sink(0), FULL_MANY_B).flush_segment(base)
        _store_from(_sink(1), FULL_MANY_B).flush_segment(generation_path(base, 2))
        on_disk = generation_files(base)
        assert sorted(on_disk) == [0, 2]
        assert segment_files(generation_path(base, 2)) == on_disk[2]


# -- facade + cost model -------------------------------------------------------


class TestFacadeAndCostModel:
    def _run(self, image, strategies=(FULL_ONE_B, FULL_MANY_B), versions=None):
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.set_strategy("spot", *strategies)
        sz.run({"img": image}, version_store=versions)
        return sz

    def test_flush_append_resume_compact(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((20, 24)))
        versions = VersionStore()
        sz = self._run(image, versions=versions)
        directory = str(tmp_path / "lineage")
        sz.flush_lineage(directory)
        baseline = sorted(
            map(tuple, sz.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )

        # a second identical run appended as a delta: the union is idempotent,
        # so every answer must stay the baseline through append AND compact
        sz2 = self._run(image)
        written = sz2.flush_lineage(directory, append=True)
        assert 0 < written < os.path.getsize(os.path.join(directory, "catalog.json")) + sum(
            os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory)
        )

        sz3 = SubZero(build_spot_spec(), enable_query_opt=False)
        sz3.resume(versions, wal=sz.wal, lineage_dir=directory)
        assert sz3.runtime.generation_count("spot", FULL_ONE_B) == 2
        got = sorted(
            map(tuple, sz3.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )
        assert got == baseline

        advice = sz3.compaction_advice()
        assert [(n, g) for n, _, g, _ in advice] == [("spot", 2), ("spot", 2)]
        assert all(penalty > 0 for *_, penalty in advice)

        report = sz3.compact_lineage()
        assert len(report.compacted) == 2
        assert sz3.runtime.generation_count("spot", FULL_ONE_B) == 1
        assert sz3.compaction_advice() == []
        got = sorted(
            map(tuple, sz3.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )
        assert got == baseline
        sz3.close()

    def test_payload_store_appends_and_serves_both_directions(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((20, 24)))
        versions = VersionStore()
        sz = self._run(image, strategies=(PAY_ONE_B,), versions=versions)
        directory = str(tmp_path / "pay")
        sz.flush_lineage(directory)
        back = sorted(
            map(tuple, sz.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )
        fwd = sorted(
            map(tuple, sz.forward_query([(5, 5), (2, 2)], ["spot"]).coords.tolist())
        )

        sz2 = self._run(image, strategies=(PAY_ONE_B,))
        sz2.flush_lineage(directory, append=True)

        sz3 = SubZero(build_spot_spec(), enable_query_opt=False)
        sz3.resume(versions, wal=sz.wal, lineage_dir=directory)
        assert sz3.runtime.generation_count("spot", PAY_ONE_B) == 2
        # backward: overlayed hash probes; forward: the merged payload columns
        assert sorted(
            map(tuple, sz3.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        ) == back
        assert sorted(
            map(tuple, sz3.forward_query([(5, 5), (2, 2)], ["spot"]).coords.tolist())
        ) == fwd
        sz3.compact_lineage()
        assert sorted(
            map(tuple, sz3.forward_query([(5, 5), (2, 2)], ["spot"]).coords.tolist())
        ) == fwd
        sz3.close()

    def test_overlay_accounting_sums_generations(self, tmp_path):
        key = ("n", PAY_ONE_B)
        a = make_store("n", PAY_ONE_B, SHAPE, (SHAPE,))
        ctx = LineageContext(frozenset())
        ctx.lwrite_payload(cells((1, 1), (1, 2)), b"PP")
        a.ingest(ctx.sink)
        b = make_store("n", PAY_ONE_B, SHAPE, (SHAPE,))
        ctx = LineageContext(frozenset())
        ctx.lwrite_payload(cells((4, 4)), b"QQ")
        b.ingest(ctx.sink)
        catalog, _ = StoreCatalog.write(str(tmp_path), {key: a})
        catalog.close()
        catalog, _ = StoreCatalog.append(str(tmp_path), {key: b})
        overlay = catalog.open_store("n", PAY_ONE_B)
        assert isinstance(overlay, OverlayStore)
        assert overlay.sources == 2
        assert overlay.n_entries == a.n_entries + b.n_entries
        keys, koff, vbuf, voff = overlay.payload_entries()
        assert koff.size - 1 == overlay.n_entries
        assert voff[-1] == len(vbuf)
        assert sorted(overlay.overridden_keys().tolist()) == sorted(
            np.unique(
                np.concatenate([a.overridden_keys(), b.overridden_keys()])
            ).tolist()
        )
        # the open record is charged the sum of the generations' segments
        assert catalog.stats()["resident_bytes"] == sum(
            e.nbytes for e in catalog.entries()
        )
        catalog.close()

    def test_costmodel_prices_overlay_amplification(self):
        stats = StatsCollector()
        model = CostModel(stats)
        base = model.query_seconds("n", FULL_ONE_B, True, 64, generations=1)
        amplified = model.query_seconds("n", FULL_ONE_B, True, 64, generations=3)
        assert amplified > base
        # matched accesses repeat their per-cell probes per generation, so
        # the matched-direction penalty dominates the mismatched one
        pen_matched = model.overlay_penalty_seconds("n", FULL_ONE_B, True, 64, 3)
        pen_scan = model.overlay_penalty_seconds("n", FULL_ONE_B, False, 64, 3)
        assert pen_matched > pen_scan > 0
        # strategies that never touch a store pay nothing
        assert model.overlay_penalty_seconds("n", BLACKBOX, True, 64, 3) == 0.0
        assert model.overlay_penalty_seconds("n", MAP, True, 64, 3) == 0.0
        assert model.overlay_penalty_seconds("n", FULL_ONE_B, True, 64, 1) == 0.0


# -- generation filters --------------------------------------------------------


def _strip_filters(store):
    """Disable the loaded filters of a store / every overlay generation, so
    the same mapped data answers with the pre-filter read-everything path."""
    gens = store.source_stores() if isinstance(store, OverlayStore) else [store]
    for gen in gens:
        gen._filters = None


class TestGenerationFilters:
    @pytest.mark.parametrize("strategy", ALL_STORED, ids=lambda s: s.label)
    @given(case_a=mixed_sinks(), case_b=mixed_sinks(), case_c=mixed_sinks())
    @settings(max_examples=8, deadline=None)
    def test_filters_are_exact_negative(
        self, strategy, case_a, case_b, case_c, tmp_path_factory
    ):
        """A filter ``False`` is a proof of absence, never a lost answer:
        every query through a filtered multi-generation overlay equals the
        same overlay with its filters stripped."""
        sink_a, q_a = case_a
        query = np.unique(np.concatenate([q_a, case_b[1], case_c[1]]))
        directory = str(tmp_path_factory.mktemp("filters"))
        key = ("n", strategy)
        catalog, _ = StoreCatalog.write(directory, {key: _store_from(sink_a, strategy)})
        catalog.close()
        for case in (case_b, case_c):
            catalog, _ = StoreCatalog.append(
                directory, {key: _store_from(case[0], strategy)}
            )
            catalog.close()

        catalog = StoreCatalog.open(directory)
        store = catalog.open_store("n", strategy)
        with_filters = _layout_answers(store, strategy, query)
        _strip_filters(store)
        without_filters = _layout_answers(store, strategy, query)
        assert with_filters == without_filters
        catalog.close()

    def test_twenty_generation_matched_query_probes_two(self, tmp_path):
        """The tentpole number: a matched backward query on a 20-generation
        store touches only the generations that can contain the key — the
        other 19 are rejected by their zone/bloom filters without a read."""
        shape = (16, 16)
        key = ("n", FULL_ONE_B)

        def owner(lo, hi):
            # one generation owning exactly the packed keys [lo, hi)
            packed = np.arange(lo, hi, dtype=np.int64)
            outs = np.stack(np.unravel_index(packed, shape), axis=1)
            ctx = LineageContext(frozenset())
            ctx.lwrite_elementwise(outs, outs.copy())
            store = make_store("n", FULL_ONE_B, shape, (shape,))
            store.ingest(ctx.sink)
            return store

        catalog, _ = StoreCatalog.write(str(tmp_path), {key: owner(0, 8)})
        catalog.close()
        for g in range(1, 20):
            catalog, _ = StoreCatalog.append(
                str(tmp_path), {key: owner(8 * g, 8 * g + 8)}
            )
            catalog.close()

        catalog = StoreCatalog.open(str(tmp_path))
        assert catalog.generation_count("n", FULL_ONE_B) == 20
        assert catalog.filters_ready("n", FULL_ONE_B)
        store = catalog.open_store("n", FULL_ONE_B)
        q = np.arange(8 * 19, 8 * 19 + 8, dtype=np.int64)  # newest gen's keys
        matched, _per = store.backward_full(q)
        assert matched.all()
        stats = catalog.stats()
        assert stats["filter_probes"] == 20
        assert stats["filter_probes"] - stats["generations_skipped"] <= 2
        catalog.close()

    def test_segments_without_filters_serve_unconditionally(
        self, tmp_path, monkeypatch
    ):
        """Filters are optional sections: a segment without them (older
        writer) reports no decision and the overlay reads the generation —
        conservative, never wrong, zero probe counters."""
        baseline = TestCompaction()._three_generation_dir(tmp_path)
        monkeypatch.setattr(
            "repro.core.lineage_store.filterlib.load_filters", lambda seg: None
        )
        catalog = StoreCatalog.open(str(tmp_path))
        store = catalog.open_store("n", FULL_MANY_B)
        assert _answers(store, FULL_MANY_B, QUERY) == baseline
        stats = catalog.stats()
        assert stats["filter_probes"] == 0
        assert stats["generations_skipped"] == 0
        catalog.close()

    def test_costmodel_discounts_filtered_overlays(self):
        stats = StatsCollector()
        model = CostModel(stats)
        plain = model.overlay_penalty_seconds("n", FULL_ONE_B, True, 64, 8)
        filtered = model.overlay_penalty_seconds(
            "n", FULL_ONE_B, True, 64, 8, filtered=True
        )
        # filters shrink the matched repeat but never erase the penalty:
        # compaction advice keeps firing on filtered overlays too
        assert 0 < filtered < plain
        # the mismatched (scan) direction gains nothing from key filters
        scan = model.overlay_penalty_seconds("n", FULL_ONE_B, False, 64, 8)
        scan_f = model.overlay_penalty_seconds(
            "n", FULL_ONE_B, False, 64, 8, filtered=True
        )
        assert scan == scan_f


# -- autonomous background maintenance -----------------------------------------


class TestAutonomousMaintenance:
    def _resumed(self, tmp_path, rng, n_appends=3):
        """A SubZero resumed over a (1 + n_appends)-generation catalog."""
        image = SciArray.from_numpy(rng.random((20, 24)))
        versions = VersionStore()
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.set_strategy("spot", FULL_ONE_B, FULL_MANY_B)
        sz.run({"img": image}, version_store=versions)
        directory = str(tmp_path / "lineage")
        sz.flush_lineage(directory)
        wal = sz.wal
        for _ in range(n_appends):
            again = SubZero(build_spot_spec(), enable_query_opt=False)
            again.set_strategy("spot", FULL_ONE_B, FULL_MANY_B)
            again.run({"img": image})
            again.flush_lineage(directory, append=True)
        resumed = SubZero(build_spot_spec(), enable_query_opt=False)
        resumed.resume(versions, wal=wal, lineage_dir=directory)
        return resumed

    def test_serve_compacts_in_background_without_manual_compact(
        self, tmp_path, rng
    ):
        sz = self._resumed(tmp_path, rng)
        assert sz.runtime.generation_count("spot", FULL_ONE_B) == 4
        reqs = [QueryRequest.backward([(3, 3), (8, 9)], ["spot"])]
        baseline = sorted(map(tuple, sz.serve(reqs)[0].coords.tolist()))

        # serve() started the maintenance worker; it must drain the advice
        # to empty on its own — zero manual compact_lineage() calls
        deadline = time.monotonic() + JOIN_TIMEOUT
        while sz.compaction_advice() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert sz.compaction_advice() == []
        assert sz.runtime.generation_count("spot", FULL_ONE_B) == 1
        assert sz.stats.maintenance["compactions_run"] >= 1
        assert sz.stats.maintenance["bytes_merged"] > 0
        assert sz.stats.maintenance["maintenance_seconds"] > 0
        assert sz.runtime.serving_stats()["compactions_run"] >= 1

        # answers through the compacted store stay the pre-compaction union
        assert sorted(map(tuple, sz.serve(reqs)[0].coords.tolist())) == baseline
        sz.close()

    def test_close_joins_active_budgeted_compact(self, tmp_path, rng, monkeypatch):
        """The shutdown race: close() arriving while a budgeted compaction
        slice is mid-write must wait for the slice (atomic per key, no safe
        midpoint), then shut down cleanly."""
        sz = self._resumed(tmp_path, rng)
        started = threading.Event()
        real_compact = StoreCatalog.compact

        def slow(self, *args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_compact(self, *args, **kwargs)

        monkeypatch.setattr(StoreCatalog, "compact", slow)
        sz.start_maintenance(interval_s=0.01)
        assert started.wait(JOIN_TIMEOUT)
        sz.close()  # races the sleeping slice; must join without raising
        assert sz.stats.maintenance["compactions_run"] >= 1
        sz.close()  # idempotent

    def test_maintenance_failure_parks_and_reraises_once(
        self, tmp_path, rng, monkeypatch
    ):
        """A compaction crash mid-maintenance leaves the generation set
        untouched (filters from the old generations keep serving) and the
        failure surfaces exactly once, at close()."""
        sz = self._resumed(tmp_path, rng)
        baseline = sorted(
            map(tuple, sz.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )

        def boom(self, *args, **kwargs):
            raise StorageError("simulated crash mid-maintenance")

        monkeypatch.setattr(StoreCatalog, "compact", boom)
        worker = sz.start_maintenance(interval_s=0.01)
        deadline = time.monotonic() + JOIN_TIMEOUT
        while worker.running and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not worker.running  # parked after the failure, not retrying

        # nothing was compacted or torn: every generation keeps serving,
        # filters intact
        assert sz.runtime.generation_count("spot", FULL_ONE_B) == 4
        assert sz.runtime.filters_ready("spot", FULL_ONE_B)
        got = sorted(
            map(tuple, sz.backward_query([(3, 3), (8, 9)], ["spot"]).coords.tolist())
        )
        assert got == baseline

        with pytest.raises(StorageError, match="simulated crash"):
            sz.close()
        sz.close()  # the captured failure re-raises exactly once
