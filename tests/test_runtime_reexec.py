"""Tests for the lineage runtime (strategy plumbing, ingest accounting) and
the black-box re-executor (tracing-mode joins)."""

import numpy as np
import pytest

from repro import (
    BLACKBOX,
    FULL_ONE_B,
    MAP,
    PAY_ONE_B,
    SciArray,
    WorkflowSpec,
    ops,
)
from repro.core.modes import LineageMode
from repro.core.reexec import ReExecutor
from repro.core.runtime import LineageRuntime
from repro.arrays import coords as C
from repro.errors import LineageError
from repro.workflow.executor import execute_workflow
from tests.conftest import SpotUDF, build_spot_spec


@pytest.fixture
def image(rng):
    return SciArray.from_numpy(rng.random((10, 12)))


class TestRuntimeStrategyPlumbing:
    def test_default_is_blackbox(self):
        runtime = LineageRuntime()
        assert runtime.strategies_for("anything") == (BLACKBOX,)

    def test_dedupe(self):
        runtime = LineageRuntime()
        runtime.set_strategies("n", [FULL_ONE_B, FULL_ONE_B, MAP])
        assert runtime.strategies_for("n") == (FULL_ONE_B, MAP)

    def test_validate_against_rejects_unsupported(self):
        runtime = LineageRuntime()
        runtime.set_strategies("n", MAP)
        with pytest.raises(LineageError):
            runtime.validate_against("n", SpotUDF())  # SpotUDF has no Map

    def test_cur_modes_union(self):
        runtime = LineageRuntime()
        op = SpotUDF()
        runtime.set_strategies("n", [FULL_ONE_B, PAY_ONE_B])
        assert runtime.cur_modes("n", op) == frozenset(
            {LineageMode.FULL, LineageMode.PAY}
        )

    def test_cur_modes_blackbox_when_nothing_stored(self):
        runtime = LineageRuntime()
        op = SpotUDF()
        assert runtime.cur_modes("n", op) == frozenset({LineageMode.BLACKBOX})
        runtime.set_strategies("n", MAP)  # map needs no run-time work
        class MappySpot(SpotUDF):
            def supported_modes(self):
                return super().supported_modes() | {LineageMode.MAP}
        assert runtime.cur_modes("n", MappySpot()) == frozenset(
            {LineageMode.BLACKBOX}
        )

    def test_profile_mode_requests_everything(self):
        runtime = LineageRuntime(profile=True)
        op = SpotUDF()
        modes = runtime.cur_modes("n", op)
        assert LineageMode.FULL in modes and LineageMode.PAY in modes

    def test_profile_mode_stores_nothing(self, image):
        runtime = LineageRuntime(profile=True)
        spec = build_spot_spec()
        execute_workflow(spec, {"img": image}, runtime=runtime)
        assert runtime.total_disk_bytes() == 0
        # ...but statistics were still gathered
        assert runtime.stats.get("spot").n_pairs > 0


class TestRuntimeAccounting:
    def test_disk_by_node_and_totals(self, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        spec = build_spot_spec()
        execute_workflow(spec, {"img": image}, runtime=runtime)
        per_node = runtime.disk_bytes_by_node()
        assert per_node["spot"] > 0
        assert runtime.total_disk_bytes() == sum(per_node.values())
        assert runtime.total_write_seconds() > 0

    def test_stats_record_store_sizes(self, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        stats = runtime.stats.get("spot")
        assert stats.disk_bytes["<-FullOne"] > 0
        assert stats.n_pairs == stats.n_outcells  # spot emits 1-cell pairs

    def test_clear_stores(self, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        runtime.clear_stores()
        assert runtime.total_disk_bytes() == 0


class TestReExecutor:
    @pytest.fixture
    def instance(self, image):
        return execute_workflow(build_spot_spec(), {"img": image})

    def test_trace_backward_matches_stored(self, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        reexec = ReExecutor(instance, runtime.stats)
        out_shape = instance.output_shape("spot")
        q = C.pack_coords(np.asarray([[2, 3], [7, 7]]), out_shape)
        traced = set(reexec.trace_backward("spot", q, 0).tolist())
        store = runtime.store_for("spot", FULL_ONE_B)
        _, per_input = store.backward_full(q)
        assert traced == set(np.unique(per_input[0]).tolist())

    def test_trace_forward_matches_stored(self, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        reexec = ReExecutor(instance, runtime.stats)
        in_shape = instance.operator("spot").input_shapes[0]
        q = C.pack_coords(np.asarray([[2, 3], [5, 5]]), in_shape)
        traced = set(reexec.trace_forward("spot", q, 0).tolist())
        store = runtime.store_for("spot", FULL_ONE_B)
        outs = store.scan_forward_full(q, 0)
        assert traced == set(np.unique(outs).tolist())

    def test_mapping_ops_pay_rerun_but_use_maps(self, instance):
        reexec = ReExecutor(instance)
        out_shape = instance.output_shape("smooth")
        q = C.pack_coords(np.asarray([[4, 4]]), out_shape)
        got = reexec.trace_backward("smooth", q, 0)
        assert got.size == 9  # 3x3 kernel neighbourhood

    def test_uninstrumented_op_degrades_to_all_to_all(self, image):
        class Opaque(ops.Operator):
            def compute(self, inputs):
                return SciArray.from_numpy(inputs[0].values() + 1)

        spec = WorkflowSpec(name="opaque")
        spec.add_source("img")
        spec.add_node("op", Opaque(), ["img"])
        instance = execute_workflow(spec, {"img": image})
        reexec = ReExecutor(instance)
        q = C.pack_coords(np.asarray([[0, 0]]), image.shape)
        assert reexec.trace_backward("op", q, 0).size == image.size

    def test_reexec_seconds_recorded(self, image):
        runtime = LineageRuntime()
        instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        reexec = ReExecutor(instance, runtime.stats)
        q = C.pack_coords(np.asarray([[1, 1]]), instance.output_shape("spot"))
        reexec.trace_backward("spot", q, 0)
        assert runtime.stats.get("spot").reexec_seconds is not None

    def test_comp_tracing_applies_defaults(self, image):
        """Re-running a COMP-only operator must fill unmatched cells with
        the mapping default, and expand its payload pairs exactly — whether
        they come one cell each (``lwrite_payload_batch``) or as multi-cell
        regions (``lwrite_payload``)."""

        class CompOnly(SpotUDF):
            def supported_modes(self):
                return frozenset({LineageMode.COMP, LineageMode.BLACKBOX})

        class RegionComp(CompOnly):
            def write_lineage(self, inputs, output, ctx):
                mask = output.values() > 0.5
                for row in np.unique(np.nonzero(mask)[0]):
                    cols = np.nonzero(mask[row])[0]
                    region = np.stack([np.full_like(cols, row), cols], axis=1)
                    ctx.lwrite_payload(region, bytes([self.radius]))

        for op in (CompOnly(thresh=0.8), RegionComp(thresh=0.8)):
            spec = WorkflowSpec(name="comp")
            spec.add_source("img")
            spec.add_node("spot", op, ["img"])
            instance = execute_workflow(spec, {"img": image})
            reexec = ReExecutor(instance)
            shape = instance.output_shape("spot")
            # a cold cell: default identity lineage
            labels = instance.output_array("spot").values()
            cold = np.stack(np.nonzero(labels < 0.5), axis=1)[0]
            q = C.pack_coords(cold.reshape(1, -1), shape)
            got = reexec.trace_backward("spot", q, 0)
            assert got.tolist() == q.tolist()
            # a hot cell: exactly its own payload neighbourhood, backward;
            # and forward from it, every hot cell whose neighbourhood holds it
            hot = np.stack(np.nonzero(labels > 0.5), axis=1)
            q = C.pack_coords(hot[:1], shape)
            near = (np.abs(np.indices(shape) - hot[0][:, None, None]) <= 1).all(axis=0)
            got = reexec.trace_backward("spot", q, 0)
            assert set(got.tolist()) == set(C.pack_coords(np.argwhere(near), shape).tolist())
            want = hot[(np.abs(hot - hot[0]) <= 1).all(axis=1)]
            fwd = reexec.trace_forward("spot", q, 0)
            assert set(fwd.tolist()) == set(C.pack_coords(want, shape).tolist())
