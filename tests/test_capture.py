"""Deferred capture correctness: the background encode pipeline.

Three properties of the interactive-speed capture path:

* **deferred == eager** — parking descriptors and lowering them on the
  background worker must answer every query identically to inline
  encoding, across all four Full layouts, matched and mismatched
  orientation (the Hypothesis property).
* **crash containment** — a failure on the background worker (an encode
  job, or a pipelined ``flush_lineage(wait=False)``) surfaces loudly at
  the next join and leaves no torn on-disk state: a previously committed
  generation keeps serving.
* **batch-only capture** — no built-in operator emits lineage through a
  per-pair Python loop; everything arrives at the sink as whole-array
  batch calls (``lwrite_batch`` / ``lwrite_elementwise`` /
  ``lwrite_payload_regions`` / ``lwrite_payload_batch``).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_ONE_B,
    SciArray,
    SubZero,
)
from repro.arrays import coords as C
from repro.core import lineage_store
from repro.core.capture import CapturePipeline
from repro.core.model import BufferSink
from repro.core.runtime import LineageRuntime
from repro.errors import StorageError
from repro.ops.base import LineageContext
from repro.storage import segment as segment_mod
from repro.workflow.executor import execute_workflow
from tests.conftest import build_spot_spec
from tests.test_strategy_equivalence import BACKWARD_PATH, FORWARD_PATH, coord_set

ALL_FULL = [FULL_ONE_B, FULL_ONE_F, FULL_MANY_B, FULL_MANY_F]

SHAPE = (12, 15)


def _spot_engine(strategy, image, capture):
    sz = SubZero(build_spot_spec(), enable_query_opt=False, capture=capture)
    sz.set_strategy("smooth", MAP)
    sz.set_strategy("scale", MAP)
    sz.set_strategy("spot", strategy)
    sz.run({"img": image})
    return sz


# -- deferred == eager ---------------------------------------------------------


class TestDeferredEagerEquivalence:
    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_same_answers_both_orientations(self, strategy, seed):
        """Backward AND forward queries against every Full layout — each
        strategy therefore serves one matched and one mismatched
        orientation — agree between deferred and eager capture."""
        rng = np.random.default_rng(seed)
        image = SciArray.from_numpy(rng.random(SHAPE))
        out_cells = [
            (int(r), int(c))
            for r, c in zip(
                rng.integers(0, SHAPE[0], size=4), rng.integers(0, SHAPE[1], size=4)
            )
        ]
        in_cells = [
            (int(r), int(c))
            for r, c in zip(
                rng.integers(0, SHAPE[0], size=3), rng.integers(0, SHAPE[1], size=3)
            )
        ]
        answers = {}
        for capture in ("eager", "deferred"):
            sz = _spot_engine(strategy, image, capture)
            back = coord_set(sz.backward_query(out_cells, BACKWARD_PATH))
            fwd = coord_set(sz.forward_query(in_cells, FORWARD_PATH))
            answers[capture] = (back, fwd)
            sz.close()
        assert answers["deferred"] == answers["eager"]

    def test_deferred_runs_use_deferred_sinks(self, rng):
        """The default capture mode parks each node's sink on the background
        encode worker; eager mode lowers it inline and never starts one."""
        image = SciArray.from_numpy(rng.random(SHAPE))
        deferred = _spot_engine(FULL_MANY_B, image, "deferred")
        eager = _spot_engine(FULL_MANY_B, image, "eager")
        assert deferred.runtime._capture.active
        assert not eager.runtime._capture.active
        deferred.close()
        eager.close()

    def test_capture_counters_populate(self, rng):
        image = SciArray.from_numpy(rng.random(SHAPE))
        sz = _spot_engine(FULL_MANY_B, image, "deferred")
        c = sz.stats.capture
        assert c["deferred_pairs"] > 0
        assert c["deferred_bytes"] > 0
        assert c["capture_seconds"] > 0.0
        assert c["encode_thread_seconds"] > 0.0
        # ...and they surface through the runtime's serving stats
        merged = sz.runtime.serving_stats()
        assert merged["deferred_pairs"] == c["deferred_pairs"]
        sz.close()


# -- crash containment ---------------------------------------------------------


class TestCrashDuringBackgroundEncode:
    def test_encode_failure_surfaces_at_drain(self, monkeypatch, rng):
        """A store that crashes while lowering on the background worker
        fails the run loudly (the end-of-run drain), and close() stays
        safe afterwards."""
        image = SciArray.from_numpy(rng.random(SHAPE))

        def boom(self, sink):
            raise StorageError("simulated encode crash")

        monkeypatch.setattr(lineage_store._FullBackwardMany, "ingest", boom)
        sz = SubZero(build_spot_spec(), enable_query_opt=False, capture="deferred")
        sz.set_strategy("spot", FULL_MANY_B)
        with pytest.raises(StorageError, match="simulated encode crash"):
            sz.run({"img": image})
        sz.close()  # the failure was delivered once; close must not hang

    def test_flush_crash_keeps_prior_generation_serving(
        self, monkeypatch, rng, tmp_path
    ):
        """A pipelined flush that dies on the worker surfaces at close()
        and leaves the directory exactly as the last committed generation
        wrote it (segment writes are write-then-rename)."""
        directory = str(tmp_path)
        image = SciArray.from_numpy(rng.random(SHAPE))

        # generation 0: a clean deferred run, flushed synchronously
        runtime = LineageRuntime(deferred=True)
        runtime.set_strategies("spot", FULL_MANY_B)
        instance = execute_workflow(
            build_spot_spec(), {"img": image}, runtime=runtime
        )
        out_shape = instance.output_shape("spot")
        q = C.pack_coords(
            np.asarray([(3, 3), (7, 7)], dtype=np.int64), out_shape
        )
        baseline = runtime.store_for("spot", FULL_MANY_B).backward_full(q)
        assert runtime.flush_all(directory) > 0
        runtime.close()
        files_before = sorted(os.listdir(directory))

        # generation 1: the background flush crashes mid-write
        def boom(self, path, stale_sink=None):
            raise StorageError("simulated flush crash")

        sz = SubZero(build_spot_spec(), enable_query_opt=False, capture="deferred")
        sz.set_strategy("spot", FULL_MANY_B)
        sz.run({"img": image})
        monkeypatch.setattr(segment_mod.SegmentWriter, "write", boom)
        future = sz.flush_lineage(directory, append=True, wait=False)
        with pytest.raises(StorageError, match="simulated flush crash"):
            sz.close()
        assert isinstance(future.exception(), StorageError)

        # nothing torn: same file set, catalog loads, answers unchanged
        monkeypatch.undo()
        assert sorted(os.listdir(directory)) == files_before
        fresh = LineageRuntime()
        assert fresh.load_all(directory) == 1
        restored = fresh.store_for("spot", FULL_MANY_B).backward_full(q)
        assert (baseline[0] == restored[0]).all()
        assert set(baseline[1][0].tolist()) == set(restored[1][0].tolist())
        fresh.close()

    def test_pipeline_failure_delivered_exactly_once(self):
        """CapturePipeline.drain re-raises the first failure, joins the
        rest, and a later drain/close is clean."""
        pipeline = CapturePipeline()
        ran = []

        def bad():
            raise StorageError("first")

        def good():
            ran.append(True)

        pipeline.submit(bad)
        pipeline.submit(good)
        with pytest.raises(StorageError, match="first"):
            pipeline.drain()
        assert ran == [True]  # later jobs still joined, not abandoned
        pipeline.drain()  # already delivered: clean
        pipeline.close()
        pipeline.close()  # idempotent


# -- batch-only capture --------------------------------------------------------


class TestBatchOnlyCapture:
    @pytest.fixture
    def pair_counter(self, monkeypatch):
        """Counts calls of the one-pair adapters (``lwrite`` /
        ``lwrite_payload``) and the batches sinks receive."""
        calls = {"lwrite": 0, "batch": 0}
        for name in ("lwrite", "lwrite_payload"):
            orig = getattr(LineageContext, name)

            def counting_pair(self, *args, _orig=orig, **kwargs):
                calls["lwrite"] += 1
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(LineageContext, name, counting_pair)
        orig_add = BufferSink.add

        def counting_add(self, batch):
            calls["batch"] += 1
            return orig_add(self, batch)

        monkeypatch.setattr(BufferSink, "add", counting_add)
        return calls

    def test_astronomy_udfs_emit_no_per_pair_calls(self, pair_counter):
        from repro.bench.astronomy import UDF_NODES, AstronomyBenchmark

        bench = AstronomyBenchmark(shape=(48, 64), seed=3, n_stars=8, n_cosmic=6)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        for udf in UDF_NODES:
            sz.set_strategy(udf, FULL_MANY_B, PAY_ONE_B)
        sz.run(bench.inputs())
        assert pair_counter["lwrite"] == 0, (
            "a built-in operator fell back to per-pair emission"
        )
        assert pair_counter["batch"] > 0
        sz.close()

    def test_genomics_udfs_emit_no_per_pair_calls(self, pair_counter):
        from repro.bench.genomics import UDF_NODES, GenomicsBenchmark

        bench = GenomicsBenchmark(scale=25, seed=5)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        for udf in UDF_NODES:
            sz.set_strategy(udf, FULL_MANY_B, PAY_ONE_B)
        sz.run(bench.inputs())
        assert pair_counter["lwrite"] == 0, (
            "a built-in operator fell back to per-pair emission"
        )
        assert pair_counter["batch"] > 0
        sz.close()

    def test_micro_synthetic_op_emits_no_per_pair_calls(self, pair_counter):
        from repro.bench.micro import MicroBenchmark

        bench = MicroBenchmark(fanin=9, fanout=2, shape=(40, 40), query_cells=16, seed=0)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.set_strategy("synthetic", FULL_MANY_B)
        sz.run(bench.inputs())
        assert pair_counter["lwrite"] == 0
        assert pair_counter["batch"] > 0
        sz.close()
