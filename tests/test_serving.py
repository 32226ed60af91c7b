"""The concurrent serving core: sessions, pinning, LRU eviction, shards.

Six layers under test:

* **threaded stress** — N threads x M mixed backward/forward queries
  against one catalog with a tiny ``memory_budget_bytes``, asserting the
  answers match the single-threaded baseline, that eviction/pinning never
  serves a closed mapping, and that the budget caps resident store bytes.
  Thread joins carry explicit timeouts so a deadlock fails instead of
  hanging (CI additionally runs this module under pytest-timeout).
* **pin/evict semantics** — a store borrowed (pinned) survives being chosen
  by the LRU; its mapping closes exactly when the last pin drops; a closed
  segment handle refuses section access.
* **sharded segments** — a Hypothesis property asserts a store flushed with
  a tiny shard threshold answers byte-identically to the monolithic flush,
  shards are recorded in the catalog manifest, sibling shards map lazily,
  and recovery quarantines *every* file of a corrupt sharded store.
* **atomic manifest** — a crash mid-``save_manifest`` leaves the previous
  ``catalog.json`` intact (tmp + rename), not a truncated brick.
* **lifecycle** — Segment refcounting, catalog/SubZero close() and context
  managers, serving counters on ``QueryResult.explain()``.
* **forward payload index** — racing cold queries build one index, a warm
  repeat calls no ``map_p``, and eviction drops the index's bytes.
"""

import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_ONE_B,
    QuerySession,
    SciArray,
    SubZero,
    WorkflowSpec,
)
from repro.arrays.versions import VersionStore
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import make_store
from repro.core.runtime import LineageRuntime
from repro.errors import StorageError
from repro.storage.segment import (
    Segment,
    SegmentWriter,
    ShardedSegment,
    open_segment,
    segment_files,
)
from repro.workflow.recovery import recover_lineage
from tests.conftest import SpotUDF
from tests.test_segments import ALL_FULL, SHAPE, _answers, sinks

JOIN_TIMEOUT = 120  # seconds before a hung worker counts as a deadlock


# -- workload ------------------------------------------------------------------


def _serving_spec() -> WorkflowSpec:
    """Three store-bearing detector stages over one image source."""
    spec = WorkflowSpec(name="serving")
    spec.add_source("img")
    spec.add_node("s1", SpotUDF(thresh=0.55, radius=1), ["img"])
    spec.add_node("s2", SpotUDF(thresh=0.5, radius=2), ["s1"])
    spec.add_node("s3", SpotUDF(thresh=0.5, radius=1), ["s2"])
    return spec


def _assign(sz: SubZero) -> None:
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    sz.set_strategy("s3", PAY_ONE_B)


def _mixed_queries(rng, shape, n_each: int = 2):
    """(kind, cells, path) triples mixing matched, mismatched and payload
    paths over all three stores."""
    jobs = []
    for _ in range(n_each):
        cells = [tuple(c) for c in rng.integers(0, min(shape), size=(6, 2))]
        jobs.extend(
            [
                ("b", cells, ["s1"]),
                ("b", cells, ["s2", "s1"]),
                ("f", cells, ["s1", "s2"]),
                ("b", cells, ["s3", "s2"]),
                ("f", cells, ["s2"]),
                ("f", cells, ["s3"]),
            ]
        )
    return jobs


def _run_job(sz: SubZero, job, **overrides):
    kind, cells, path = job
    if kind == "b":
        return sz.backward_query(cells, path, **overrides)
    return sz.forward_query(cells, path, **overrides)


def _coords_set(result):
    return sorted(map(tuple, result.coords.tolist()))


@pytest.fixture(scope="module")
def flushed_workflow(tmp_path_factory):
    """Run the serving workflow once, flush it, and keep the artifacts a
    fresh engine needs to resume (versions + WAL + lineage dir)."""
    rng = np.random.default_rng(7)
    image = SciArray.from_numpy(rng.random((24, 28)))
    versions = VersionStore()
    sz = SubZero(_serving_spec(), enable_query_opt=False)
    _assign(sz)
    sz.run({"img": image}, version_store=versions)
    lineage_dir = str(tmp_path_factory.mktemp("serving-lineage"))
    sz.flush_lineage(lineage_dir)
    baseline = {
        i: _coords_set(_run_job(sz, job))
        for i, job in enumerate(_mixed_queries(np.random.default_rng(3), (24, 28)))
    }
    return {
        "versions": versions,
        "wal": sz.wal,
        "dir": lineage_dir,
        "baseline": baseline,
        "jobs": _mixed_queries(np.random.default_rng(3), (24, 28)),
    }


def _resume_engine(flushed, memory_budget_bytes=None) -> SubZero:
    sz = SubZero(
        _serving_spec(),
        enable_query_opt=False,
        memory_budget_bytes=memory_budget_bytes,
    )
    sz.resume(flushed["versions"], wal=flushed["wal"], lineage_dir=flushed["dir"])
    return sz


def _tiny_budget(directory: str) -> int:
    """A budget that fits the largest single store and nothing else, so
    mixed queries must evict between stores."""
    catalog = StoreCatalog.open(directory)
    return max(entry.nbytes for entry in catalog.entries()) + 1


# -- the threaded stress test --------------------------------------------------


@pytest.mark.timeout(300)
class TestThreadedServing:
    def test_mixed_queries_match_baseline_under_tiny_budget(self, flushed_workflow):
        budget = _tiny_budget(flushed_workflow["dir"])
        jobs = flushed_workflow["jobs"]
        baseline = flushed_workflow["baseline"]
        with _resume_engine(flushed_workflow, memory_budget_bytes=budget) as sz:
            n_threads, rounds = 8, 4
            failures: list[str] = []

            def worker(seed: int) -> None:
                order = np.random.default_rng(seed).permutation(len(jobs))
                with QuerySession(sz.runtime) as session:
                    for _ in range(rounds):
                        for j in order:
                            got = _coords_set(_run_job(sz, jobs[j], session=session))
                            if got != baseline[j]:
                                failures.append(
                                    f"job {j} diverged: {got[:4]}... vs "
                                    f"{baseline[j][:4]}..."
                                )
                                return

            threads = [
                threading.Thread(target=worker, args=(seed,), daemon=True)
                for seed in range(n_threads)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), (
                "threaded serving deadlocked (workers still alive at timeout)"
            )
            assert not failures, failures[0]

            stats = sz.runtime.serving_stats()
            # the tiny budget forced churn, and the churn was real sharing:
            # hits dominate because sessions pin stores across their queries
            assert stats["evictions"] > 0
            assert stats["hits"] > 0
            # with every session closed, the budget caps resident bytes
            assert stats["resident_bytes"] <= budget
        assert sz.runtime.serving_stats()["open_mappings"] == 0  # close() drained

    def test_serve_threadpool_matches_baseline(self, flushed_workflow):
        """The facade path: SubZero.serve() on a thread pool, hot cache."""
        from repro.core.model import Direction, LineageQuery, QueryStep

        jobs = flushed_workflow["jobs"]
        baseline = flushed_workflow["baseline"]
        queries = [
            LineageQuery(
                cells=np.asarray(job[1]),
                path=tuple(QueryStep(n, 0) for n in job[2]),
                direction=Direction.BACKWARD if job[0] == "b" else Direction.FORWARD,
            )
            for job in jobs
        ]
        with _resume_engine(flushed_workflow) as sz:
            pool = ThreadPoolExecutor(max_workers=1)
            try:
                future = pool.submit(sz.serve, queries * 2, 8)
                done, _ = wait([future], timeout=JOIN_TIMEOUT)
                assert done, "SubZero.serve deadlocked"
                results = future.result()
            finally:
                pool.shutdown(wait=False)
            for i, result in enumerate(results):
                assert _coords_set(result) == baseline[i % len(jobs)]
            stats = sz.runtime.serving_stats()
            assert stats["misses"] <= 3  # one open per store, shared by all


# -- pin / evict semantics -----------------------------------------------------


class TestPinningAndEviction:
    def test_pinned_store_survives_eviction_until_release(self, flushed_workflow):
        # budget below every store size: each borrow is immediately over
        # budget, but a pinned record is never a victim — it closes at the
        # moment its last pin drops and the budget is re-checked
        catalog = StoreCatalog.open(flushed_workflow["dir"], memory_budget_bytes=1)
        key = catalog.keys()[0]
        record = catalog.borrow(*key)
        assert record is not None and record.pins == 1
        assert not record.evicted and not record.closed  # pinned: untouchable
        assert catalog.stats()["open_mappings"] == 1
        # the store still answers (mapping alive under the pin)
        assert record.store.n_entries >= 0
        catalog.release(record)
        assert record.evicted and record.closed  # last pin dropped -> closed
        assert record.store._segment is None
        assert catalog.stats()["open_mappings"] == 0
        assert catalog.stats()["evictions"] == 1
        catalog.close()

    def test_lru_evicts_least_recently_used_unpinned(self, flushed_workflow):
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        sizes = {entry.key: entry.nbytes for entry in catalog.entries()}
        total = sum(sizes.values())
        keys = catalog.keys()
        assert len(keys) == 3
        catalog.memory_budget_bytes = total - 1  # forces exactly one eviction
        opened = [catalog.open_store(*key) for key in keys]
        assert all(store is not None for store in opened)
        stats = catalog.stats()
        assert stats["evictions"] == 1
        assert not catalog.is_open(*keys[0])  # the LRU victim
        assert catalog.is_open(*keys[1]) and catalog.is_open(*keys[2])
        assert stats["resident_bytes"] <= catalog.memory_budget_bytes
        # touching the victim again is a miss (reopen), the others are hits
        catalog.open_store(*keys[0])
        assert catalog.stats()["misses"] == 4
        catalog.close()

    def test_closed_segment_handle_refuses_reads(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(16, dtype=np.int64))
        writer.write(path)
        seg = Segment.open(path)
        seg.acquire()  # two holders
        seg.close()
        assert not seg.closed  # one reference remains
        assert seg.array("vec").size == 16
        seg.close()
        assert seg.closed
        with pytest.raises(StorageError, match="closed"):
            seg.array("vec")
        with pytest.raises(StorageError, match="closed"):
            seg.acquire()

    def test_session_pins_against_concurrent_eviction_pressure(self, flushed_workflow):
        """A session's store keeps answering while another thread churns
        the cache hard enough to evict everything unpinned."""
        budget = _tiny_budget(flushed_workflow["dir"])
        with _resume_engine(flushed_workflow, memory_budget_bytes=budget) as sz:
            keys = sz.runtime.catalog.keys()
            stop = threading.Event()

            def churn():
                while not stop.is_set():
                    for key in keys:
                        with QuerySession(sz.runtime) as s:
                            s.store_for(*key)

            churner = threading.Thread(target=churn, daemon=True)
            churner.start()
            try:
                with QuerySession(sz.runtime) as session:
                    store = session.store_for(*keys[0])
                    for _ in range(200):
                        assert store.n_entries > 0  # never a cleared store
            finally:
                stop.set()
                churner.join(timeout=JOIN_TIMEOUT)
            assert not churner.is_alive()
            assert sz.runtime.serving_stats()["evictions"] > 0


# -- the forward payload index under concurrency --------------------------------


def _count_map_p(op, monkeypatch, delay: float = 0.0) -> dict:
    """Wrap ``op``'s ``map_p_many`` / ``map_p_batch`` on the instance and
    count their calls (``delay`` holds each call open, so racing threads
    pile up behind a build)."""
    calls = {"n": 0}
    lock = threading.Lock()
    for name in ("map_p_many", "map_p_batch"):
        inner = getattr(op, name)

        def wrapped(*args, _inner=inner, **kwargs):
            with lock:
                calls["n"] += 1
            if delay:
                time.sleep(delay)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(op, name, wrapped)
    return calls


def _payload_forward_jobs(flushed):
    return [
        (i, job)
        for i, job in enumerate(flushed["jobs"])
        if job[0] == "f" and job[2] == ["s3"]
    ]


@pytest.mark.timeout(300)
class TestForwardPayloadIndexServing:
    """``s3`` is a PAY_ONE_B store: forward queries over it probe the
    store's inverted index, built once per open store."""

    def test_racing_cold_queries_build_once(self, flushed_workflow, monkeypatch):
        (i, job), *_ = _payload_forward_jobs(flushed_workflow)
        with _resume_engine(flushed_workflow) as sz:
            _count_map_p(sz.instance.operator("s3"), monkeypatch, delay=0.02)
            barrier = threading.Barrier(8)

            def query(_):
                barrier.wait(timeout=JOIN_TIMEOUT)
                return _coords_set(_run_job(sz, job))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the racers finely
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    answers = list(pool.map(query, range(8), timeout=JOIN_TIMEOUT))
            finally:
                sys.setswitchinterval(interval)
            assert answers == [flushed_workflow["baseline"][i]] * 8
            stats = sz.runtime.serving_stats()
            assert stats["payload_index_builds"] == 1
            assert stats["payload_index_bytes"] > 0

    def test_warm_repeat_calls_no_map_p(self, flushed_workflow, monkeypatch):
        jobs = _payload_forward_jobs(flushed_workflow)
        with _resume_engine(flushed_workflow) as sz:
            calls = _count_map_p(sz.instance.operator("s3"), monkeypatch)
            _run_job(sz, jobs[0][1])
            assert calls["n"] > 0
            calls["n"] = 0
            for i, job in jobs:
                result = _run_job(sz, job)
                assert _coords_set(result) == flushed_workflow["baseline"][i]
            assert calls["n"] == 0
            assert "forward payload indexes: 1 builds" in result.explain()

    def test_eviction_drops_index_bytes(self, flushed_workflow):
        (_, job), *_ = _payload_forward_jobs(flushed_workflow)
        with _resume_engine(flushed_workflow) as sz:
            catalog = sz.runtime.catalog
            _run_job(sz, job)
            stats = catalog.stats()
            index_bytes = stats["payload_index_bytes"]
            assert index_bytes > 0
            assert catalog.resident_bytes() == (
                catalog.manifest_bytes("s3", PAY_ONE_B) + index_bytes
            )
            # room for s1 alone: borrowing it evicts s3 and its index
            catalog.memory_budget_bytes = catalog.manifest_bytes("s1", FULL_ONE_B)
            _run_job(sz, ("b", job[1], ["s1"]))
            assert not catalog.is_open("s3", PAY_ONE_B)
            stats = catalog.stats()
            assert stats["evictions"] >= 1
            assert stats["payload_index_bytes"] == 0
            assert stats["payload_index_builds"] == 1
            assert catalog.resident_bytes() == catalog.manifest_bytes("s1", FULL_ONE_B)
            # a reopened store builds its index again
            catalog.memory_budget_bytes = None
            _run_job(sz, job)
            assert catalog.stats()["payload_index_builds"] == 2


# -- sharded segments ----------------------------------------------------------


class TestShardedSegments:
    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(case=sinks())
    @settings(max_examples=15, deadline=None)
    def test_sharded_flush_answers_identically(self, strategy, case, tmp_path_factory):
        """Hypothesis equivalence: shard/LRU round-trips preserve exact
        query answers vs. the monolithic path."""
        sink, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        before = _answers(store, strategy, query)

        base = tmp_path_factory.mktemp("shards")
        mono_path = str(base / "mono.seg")
        shard_path = str(base / "sharded.seg")
        store.flush_segment(mono_path)
        store.flush_segment(shard_path, shard_threshold_bytes=64)

        mono = make_store("n", strategy, SHAPE, (SHAPE,))
        mono.load_segment(mono_path)
        sharded = make_store("n", strategy, SHAPE, (SHAPE,))
        sharded.load_segment(shard_path)
        assert sharded.lowered_ready()
        assert _answers(mono, strategy, query) == before
        assert _answers(sharded, strategy, query) == before
        mono.close()
        sharded.close()

    def test_sharded_write_layout_and_lazy_shard_open(self, tmp_path):
        store = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
        from repro.ops.base import LineageContext

        ctx = LineageContext(frozenset())
        rng = np.random.default_rng(2)
        cells = rng.integers(0, 9, size=(200, 2))
        ctx.lwrite_elementwise(cells, cells[::-1].copy())
        store.ingest(ctx.sink)
        path = str(tmp_path / "store.seg")
        store.flush_segment(path, shard_threshold_bytes=512)
        files = segment_files(path)
        assert len(files) > 1  # genuinely sharded
        assert not os.path.exists(path)  # no stale monolith
        assert files == [f"{path}.{i}" for i in range(len(files))]

        seg = open_segment(path)
        assert isinstance(seg, ShardedSegment)
        opened_at_start = seg.open_shard_count()
        assert opened_at_start < len(files)  # shard 0 + nothing else yet
        clone = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
        clone.load_segment(seg)
        after_load = seg.open_shard_count()
        # the shard(s) holding the lowered probe tables stay unmapped until
        # a mismatched scan asks for them
        q = np.sort(np.unique(rng.integers(0, 99, size=16)))
        clone.scan_forward_full(q, 0)
        assert seg.open_shard_count() >= after_load
        expect = store.scan_forward_full(q, 0)
        got = clone.scan_forward_full(q, 0)
        assert got.tolist() == expect.tolist()
        clone.close()

    def test_mixed_shard_generations_refused(self, tmp_path):
        """A crash mid-reflush can leave internally-clean shards from two
        different writes; reading across them must fail loudly (and under
        recovery, quarantine), never silently mix generations."""
        def write_sharded(tag: bytes) -> list[str]:
            writer = SegmentWriter()
            for i in range(4):
                writer.add_bytes(f"s{i}", tag * 200)
            _, files = writer.write_sharded(str(tmp_path / "x.seg"), 300)
            assert len(files) >= 2
            return files

        files_old = write_sharded(b"A")
        import shutil

        kept_old = str(tmp_path / "old.shard")
        shutil.copy(files_old[1], kept_old)  # a shard of flush generation 1
        write_sharded(b"B")  # generation 2 replaces all shards...
        shutil.copy(kept_old, files_old[1])  # ...but the crash kept an old one

        seg = open_segment(str(tmp_path / "x.seg"))
        with pytest.raises(StorageError, match="different flush"):
            seg.view("s1")  # s1 lives in the stale shard
        seg.close()
        with pytest.raises(StorageError, match="different flush"):
            open_segment(str(tmp_path / "x.seg"), verify=True)

    def test_reflush_monolith_removes_stale_shards(self, tmp_path):
        writer = SegmentWriter()
        for i in range(6):
            writer.add_bytes(f"s{i}", bytes(100))
        path = str(tmp_path / "x.seg")
        total, files = writer.write_sharded(path, 150)
        assert len(files) > 1 and total > 0
        # re-flush the same logical segment as a monolith
        writer2 = SegmentWriter()
        writer2.add_bytes("s0", bytes(10))
        writer2.write(path)
        assert segment_files(path) == [path]
        assert not os.path.exists(path + ".0")

    def test_catalog_records_and_reopens_shards(self, flushed_workflow, tmp_path):
        with _resume_engine(flushed_workflow) as sz:
            written = sz.runtime.flush_all(str(tmp_path), shard_threshold_bytes=512)
            assert written > 0
        catalog = StoreCatalog.open(str(tmp_path))
        sharded_entries = [e for e in catalog.entries() if e.shards]
        assert sharded_entries, "no store crossed the shard threshold"
        for entry in sharded_entries:
            assert [os.path.basename(p) for p in segment_files(
                os.path.join(str(tmp_path), entry.file)
            )] == list(entry.shards)
        # the sharded catalog serves the same answers as the original dir
        sz_mono = SubZero(_serving_spec(), enable_query_opt=False)
        sz_mono.resume(
            flushed_workflow["versions"],
            wal=flushed_workflow["wal"],
            lineage_dir=flushed_workflow["dir"],
        )
        sz_shard = SubZero(_serving_spec(), enable_query_opt=False)
        sz_shard.resume(
            flushed_workflow["versions"], wal=flushed_workflow["wal"],
            lineage_dir=str(tmp_path),
        )
        for job in flushed_workflow["jobs"]:
            assert _coords_set(_run_job(sz_shard, job)) == _coords_set(
                _run_job(sz_mono, job)
            )
        sz_mono.close()
        sz_shard.close()

    def test_recovery_quarantines_every_shard_of_a_corrupt_store(
        self, flushed_workflow, tmp_path
    ):
        with _resume_engine(flushed_workflow) as sz:
            sz.runtime.flush_all(str(tmp_path), shard_threshold_bytes=512)
        catalog = StoreCatalog.open(str(tmp_path))
        entry = next(e for e in catalog.entries() if e.shards)
        victim = os.path.join(str(tmp_path), entry.shards[-1])
        with open(victim, "rb") as fh:
            raw = bytearray(fh.read())
        raw[-10] ^= 0xFF
        with open(victim, "wb") as fh:
            fh.write(bytes(raw))

        report = recover_lineage(str(tmp_path))
        assert not report.ok
        assert any(fname == entry.file for fname, _ in report.quarantined)
        for shard in entry.shards:
            spath = os.path.join(str(tmp_path), shard)
            assert not os.path.exists(spath)
            assert os.path.exists(spath + ".quarantined")
        # the survivors still serve after a plain reopen
        fresh = LineageRuntime()
        assert fresh.load_all(str(tmp_path)) == len(catalog) - 1


# -- atomic manifest -----------------------------------------------------------


class TestManifestAtomicity:
    def test_interrupted_save_leaves_previous_manifest_intact(
        self, flushed_workflow, tmp_path, monkeypatch
    ):
        with _resume_engine(flushed_workflow) as sz:
            sz.runtime.flush_all(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "catalog.json")
        with open(manifest_path, encoding="utf-8") as fh:
            before = fh.read()
        catalog = StoreCatalog.open(str(tmp_path))

        real_dump = json.dump

        def crashing_dump(obj, fh, **kwargs):
            fh.write('{"format": "subzero-catalog", "stores": [{"trunc')
            raise OSError("disk full mid-write")

        monkeypatch.setattr(json, "dump", crashing_dump)
        # the storage boundary wraps the raw OSError (invariant SZ004)
        with pytest.raises(StorageError, match="disk full"):
            catalog.save_manifest()
        monkeypatch.setattr(json, "dump", real_dump)

        # the crash hit the tmp file only: the manifest is byte-identical,
        # still opens, and no tmp debris is left behind
        with open(manifest_path, encoding="utf-8") as fh:
            assert fh.read() == before
        assert not os.path.exists(manifest_path + ".tmp")
        reopened = StoreCatalog.open(str(tmp_path))
        assert len(reopened) == len(catalog)


# -- lifecycle + stats surfacing -----------------------------------------------


class TestLifecycleAndStats:
    def test_subzero_context_manager_drains_mappings(self, flushed_workflow):
        with _resume_engine(flushed_workflow) as sz:
            _run_job(sz, flushed_workflow["jobs"][0])
            assert sz.runtime.serving_stats()["open_mappings"] >= 1
        assert sz.runtime.serving_stats()["open_mappings"] == 0

    def test_explain_surfaces_serving_cache_counters(self, flushed_workflow):
        with _resume_engine(flushed_workflow) as sz:
            result = _run_job(sz, flushed_workflow["jobs"][0])
            assert result.cache is not None
            text = result.explain()
            assert "serving cache:" in text
            assert "open mappings" in text
            # the collector carries the same snapshot for benchmarks
            assert sz.stats.serving["misses"] >= 1

    def test_catalog_context_manager(self, flushed_workflow):
        with StoreCatalog.open(flushed_workflow["dir"]) as catalog:
            key = catalog.keys()[0]
            assert catalog.open_store(*key) is not None
            assert catalog.open_count() == 1
        assert catalog.open_count() == 0

    def test_closed_store_raises_instead_of_answering_empty(self, flushed_workflow):
        """Regression: a caller that holds a store across its eviction must
        get a loud StorageError, never a silent empty answer."""
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        key = ("s1", FULL_ONE_B)
        store = catalog.open_store(*key)
        q = np.arange(8, dtype=np.int64)
        matched, _ = store.backward_full(q)  # live: answers fine
        assert matched.shape == (8,)
        catalog.close()
        with pytest.raises(StorageError, match="closed"):
            store.backward_full(q)
        with pytest.raises(StorageError, match="QuerySession"):
            store.scan_forward_full(q, 0)

    def test_open_store_under_tiny_budget_returns_live_store(self, flushed_workflow):
        """Regression: the unpinned open_store path must never hand back a
        store its own unpin just evicted, even when the budget is smaller
        than the store itself."""
        catalog = StoreCatalog.open(flushed_workflow["dir"], memory_budget_bytes=1)
        for key in catalog.keys():
            store = catalog.open_store(*key)
            assert store is not None
            assert store.n_entries > 0  # live, not evicted-and-poisoned
        catalog.close()

    def test_store_close_is_idempotent_and_resident_safe(self, flushed_workflow):
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        key = catalog.keys()[0]
        store = catalog.open_store(*key)
        catalog.close()
        store.close()  # already closed by the catalog: must be a no-op
        resident = make_store("x", FULL_ONE_B, SHAPE, (SHAPE,))
        resident.close()  # resident store: nothing to release, no error
