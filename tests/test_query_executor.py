"""Behavioural tests for the query executor: shortcuts, dedup, validation,
the static vs dynamic strategy choice, and the dynamic blackbox switch."""

import time

import numpy as np
import pytest

from repro import (
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_ONE_B,
    QueryRequest,
    SciArray,
    SubZero,
    WorkflowSpec,
    ops,
)
from repro.errors import QueryError
from tests.conftest import SpotUDF, build_spot_spec


@pytest.fixture
def image(rng):
    return SciArray.from_numpy(rng.random((12, 14)))


def mean_spec():
    spec = WorkflowSpec(name="mean")
    spec.add_source("a")
    spec.add_node("mean", ops.GlobalMean(), ["a"])
    spec.add_node("center", ops.BroadcastSubtract(), ["a", "mean"])
    return spec


class TestShortcuts:
    def test_all_to_all_backward(self, image):
        sz = SubZero(mean_spec())
        sz.use_mapping_where_possible()
        sz.run({"a": image})
        res = sz.backward_query([(0,)], [("mean", 0)])
        assert res.count == image.size
        assert res.steps[0].shortcut == "all-to-all"

    def test_all_to_all_disabled_still_correct(self, image):
        sz = SubZero(mean_spec())
        sz.use_mapping_where_possible()
        sz.run({"a": image})
        res = sz.query(QueryRequest.backward([(0,)], [("mean", 0)], entire_array=False))
        assert res.count == image.size
        assert res.steps[0].shortcut is None

    def test_entire_array_on_full_frontier(self, image):
        sz = SubZero(mean_spec())
        sz.use_mapping_where_possible()
        sz.run({"a": image})
        # forward through mean (-> full output) then center input 1 (scalar)
        res = sz.forward_query(
            [(2, 2)], [("mean", 0), ("center", 1)]
        )
        assert res.count == image.size
        assert res.steps[1].shortcut in ("entire-array", "all-to-all")

    def test_empty_frontier_short_circuits(self, image):
        # a padded border cell has empty backward lineage; the next step
        # must short-circuit instead of probing anything
        spec = WorkflowSpec(name="padded")
        spec.add_source("img")
        spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["img"])
        spec.add_node("pad", ops.Pad((1, 1), (1, 1)), ["smooth"])
        sz = SubZero(spec, enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.run({"img": image})
        res = sz.backward_query([(0, 0)], [("pad", 0), ("smooth", 0)])
        assert res.count == 0
        assert res.steps[1].method == "empty"
        assert res.steps[1].shortcut == "empty-frontier"


class TestValidationErrors:
    def test_query_before_run(self):
        sz = SubZero(build_spot_spec())
        with pytest.raises(QueryError):
            sz.backward_query([(0, 0)], [("scale", 0)])

    def test_broken_path_rejected(self, image):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.run({"img": image})
        with pytest.raises(QueryError):
            sz.backward_query([(0, 0)], [("scale", 0), ("smooth", 0)])

    def test_out_of_bounds_cells_rejected(self, image):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.run({"img": image})
        with pytest.raises(Exception):
            sz.backward_query([(999, 999)], [("scale", 0)])


class TestDeduplication:
    def test_overlapping_lineage_deduped(self, image):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.run({"img": image})
        # adjacent cells have overlapping 3x3 smoothing neighbourhoods
        res = sz.backward_query([(5, 5), (5, 6)], [("smooth", 0)])
        assert res.count == 12  # 3x4 union, not 18


class TestStaticChoice:
    def test_static_uses_mismatched_store(self, image):
        spec = build_spot_spec()
        sz = SubZero(spec, enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_F)  # forward-optimized only
        sz.run({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.steps[0].method == "->FullOne"  # blind mismatched join

    def test_static_prefers_matched_orientation(self, image):
        spec = build_spot_spec()
        sz = SubZero(spec, enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", PAY_ONE_B, FULL_ONE_F)
        sz.run({"img": image})
        back = sz.backward_query([(3, 3)], [("spot", 0)])
        fwd = sz.forward_query([(3, 3)], [("spot", 0)])
        assert back.steps[0].method == "<-PayOne"
        assert fwd.steps[0].method == "->FullOne"

    def test_static_blackbox_when_nothing_stored(self, image):
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.run({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.steps[0].method == "Blackbox"


class TestDynamicChoice:
    def test_optimizer_prefers_stored_lineage(self, image):
        sz = SubZero(build_spot_spec(), enable_query_opt=True)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.steps[0].method == "<-FullOne"

    def test_optimizer_avoids_mismatched_scan(self, image):
        """Given only a forward store, a backward query should re-execute
        when the cost model says scanning is dearer."""
        sz = SubZero(build_spot_spec(), enable_query_opt=True)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_F)
        sz.run({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        # either it picked blackbox outright, or scanned within budget;
        # both must give the right answer
        ref = SubZero(build_spot_spec())
        ref.use_mapping_where_possible()
        ref.run({"img": image})
        expected = ref.backward_query([(3, 3)], [("spot", 0)])
        assert {tuple(c) for c in res.coords} == {tuple(c) for c in expected.coords}


class _SlowStoreUDF(SpotUDF):
    """SpotUDF whose map_p stalls, forcing the dynamic switch."""

    def map_p_many(self, out_coords, payload, input_idx):
        import time

        time.sleep(0.002)
        return super().map_p_many(out_coords, payload, input_idx)


class TestDynamicSwitch:
    def test_switch_to_blackbox_bounds_runtime(self, rng):
        image = SciArray.from_numpy(rng.random((16, 16)))
        spec = WorkflowSpec(name="slow")
        spec.add_source("img")
        spec.add_node("spot", _SlowStoreUDF(thresh=0.05), ["img"])  # ~all bright
        sz = SubZero(spec, enable_query_opt=True)
        sz.set_strategy("spot", PAY_ONE_B)
        sz.run({"img": image})
        # Force the estimate low so the stored path is chosen, then stalls.
        sz.stats.get("spot").reexec_seconds = 0.001
        sz.stats.get("spot").observed_query_seconds.clear()
        res = sz.forward_query(
            [(i, j) for i in range(8) for j in range(8)], [("spot", 0)]
        )
        # it either finished in budget or switched; if switched, flag is set
        step = res.steps[0]
        if step.switched_to_blackbox:
            assert step.method.endswith("->Blackbox")
        ref = SubZero(spec_copy := WorkflowSpec(name="ref"))
        # correctness check against mapping-free blackbox run
        spec2 = WorkflowSpec(name="slow2")
        spec2.add_source("img")
        spec2.add_node("spot", _SlowStoreUDF(thresh=0.05), ["img"])
        sz2 = SubZero(spec2)
        sz2.run({"img": image})
        expected = sz2.forward_query(
            [(i, j) for i in range(8) for j in range(8)], [("spot", 0)]
        )
        assert {tuple(c) for c in res.coords} == {tuple(c) for c in expected.coords}


class TestBudgetAttribution:
    def test_abandoned_attempt_is_charged_to_the_stored_strategy(self, image, monkeypatch):
        """A stored read that always blows its budget: the abandoned
        attempt is observed under the stored strategy, the re-execution
        alone under Blackbox — so the next query re-executes outright."""
        sz = SubZero(build_spot_spec(), enable_query_opt=True)
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})

        def never_done(qpacked, input_idx, ticker=None):
            while True:
                time.sleep(0.005)
                ticker()

        store = sz.runtime.resident_store("spot", FULL_ONE_B)
        monkeypatch.setattr(store, "scan_forward_full", never_done)
        stats = sz.stats.get("spot")
        stats.reexec_seconds = 0.001  # cheap estimate: budget is the 50 ms floor
        stats.observed_query_seconds.clear()
        cells = [(i, j) for i in range(4) for j in range(4)]
        first = sz.forward_query(cells, [("spot", 0)]).steps[0]
        assert first.switched_to_blackbox
        assert first.method == "<-FullOne->Blackbox"
        observed = stats.observed_query_seconds
        assert observed["<-FullOne|f"] >= 0.05
        assert observed["Blackbox|f"] < 0.05
        assert first.seconds >= observed["<-FullOne|f"] + observed["Blackbox|f"]
        second = sz.forward_query(cells, [("spot", 0)]).steps[0]
        assert second.method == "Blackbox" and not second.switched_to_blackbox


class TestStepStats:
    def test_steps_report_methods_and_counts(self, image):
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        res = sz.backward_query([(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)])
        assert [s.method for s in res.steps][:2] == ["Map", "<-FullOne"]
        assert res.steps[0].cells_in == 1
        assert res.seconds >= 0
        assert res.count == res.frontier.count

    def test_healthy_stores_drop_nothing(self, image):
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        res = sz.backward_query([(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)])
        assert all(s.dropped_cells == 0 for s in res.steps)
        assert "dropped=" not in res.explain()

    def test_out_of_range_cells_are_counted_not_masked(self, image, monkeypatch):
        """A store returning cells outside the target array used to have
        them clipped silently; the count now surfaces on StepStats."""
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        store = sz.runtime.store_for("spot", FULL_ONE_B)
        real = store.backward_full
        bogus = np.asarray([10**9, -5], dtype=np.int64)

        def corrupted(qpacked, only_input=None):
            matched, per_input = real(qpacked)
            return matched, [np.concatenate([c, bogus]) for c in per_input]

        monkeypatch.setattr(store, "backward_full", corrupted)
        res = sz.backward_query([(4, 4)], [("spot", 0)])
        assert res.steps[0].dropped_cells == 2
        assert "dropped=2" in res.explain()
