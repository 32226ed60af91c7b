"""Tests for the cost model and the lineage-strategy optimizer (ILP + greedy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SciArray, SubZero
from repro.core.costmodel import CostModel
from repro.core.model import Direction, LineageQuery
from repro.core.modes import (
    BLACKBOX,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_ONE_B,
)
from repro.core.optimizer import (
    StrategyOptimizer,
    WorkloadProfile,
    candidate_strategies,
)
from repro.core.stats import StatsCollector
from repro.errors import OptimizationError
from tests.conftest import SpotUDF, build_spot_spec


def seeded_stats(node="udf", n_pairs=1000, fanin=4, fanout=1, payload=8):
    stats = StatsCollector()
    s = stats.get(node)
    s.compute_seconds = 0.2
    s.output_size = 10000
    s.input_sizes = (10000,)
    s.n_pairs = n_pairs
    s.n_outcells = n_pairs * fanout
    s.n_incells = n_pairs * fanin
    s.n_payload_pairs = n_pairs
    s.n_payload_outcells = n_pairs * fanout
    s.payload_bytes = n_pairs * payload
    return stats


class TestCostModel:
    def test_blackbox_free_storage(self):
        model = CostModel(seeded_stats())
        assert model.disk_bytes("udf", BLACKBOX) == 0
        assert model.write_seconds("udf", MAP) == 0

    def test_disk_scales_with_fanin(self):
        lo = CostModel(seeded_stats(fanin=1))
        hi = CostModel(seeded_stats(fanin=100))
        assert hi.disk_bytes("udf", FULL_ONE_B) > lo.disk_bytes("udf", FULL_ONE_B)

    def test_payload_disk_independent_of_fanin(self):
        lo = CostModel(seeded_stats(fanin=1))
        hi = CostModel(seeded_stats(fanin=100))
        assert hi.disk_bytes("udf", PAY_ONE_B) == lo.disk_bytes("udf", PAY_ONE_B)

    def test_measured_disk_overrides_formula(self):
        stats = seeded_stats()
        stats.get("udf").disk_bytes["<-FullOne"] = 12345
        model = CostModel(stats)
        assert model.disk_bytes("udf", FULL_ONE_B) == 12345

    def test_codec_sampled_bytes_shrink_full_estimates(self):
        """Sampled interval-coded footprints (e.g. convolution lineage at
        ~2 bytes/cell) must flow into the Full estimates in place of the
        flat enc_cell_bytes constant."""
        flat = CostModel(seeded_stats(fanin=25))
        sampled_stats = seeded_stats(fanin=25)
        s = sampled_stats.get("udf")
        s.enc_in_bytes = 2 * s.n_incells  # codec-priced: ~2 bytes per cell
        sampled = CostModel(sampled_stats)
        for strategy in (FULL_ONE_B, FULL_MANY_B):
            assert sampled.disk_bytes("udf", strategy) < flat.disk_bytes(
                "udf", strategy
            )
        # forward stores encode output cells; input-side sampling alone
        # must not change them
        assert sampled.disk_bytes("udf", FULL_ONE_F) == flat.disk_bytes(
            "udf", FULL_ONE_F
        )

    def test_record_sink_prices_contiguous_lineage_below_constant(self):
        """record_sink with shapes prices pairs through cells_nbytes;
        contiguous regions interval-code far below 9 bytes/cell."""
        from repro.ops.base import LineageContext

        shape = (32, 32)
        ctx = LineageContext(frozenset())
        for row in range(8):
            block = np.stack(
                [np.full(32, row, dtype=np.int64), np.arange(32, dtype=np.int64)],
                axis=1,
            )
            ctx.lwrite(block[:1], block)
        stats = StatsCollector()
        stats.record_sink("conv", ctx.sink, out_shape=shape, in_shapes=(shape,))
        s = stats.get("conv")
        assert s.enc_in_bytes > 0
        assert s.enc_in_bytes_per_cell < 2.0  # 32-cell runs: ~0.5 bytes/cell
        assert s.enc_out_bytes_per_cell == 12.0  # singleton layout per pair
        # a later shape-less record_sink overwrites the denominators; the
        # codec samples must reset rather than describe the previous sink
        stats.record_sink("conv", ctx.sink)
        assert stats.get("conv").enc_in_bytes == 0
        assert stats.get("conv").enc_in_bytes_per_cell is None

    def test_matched_query_cheaper_than_mismatched(self):
        model = CostModel(seeded_stats())
        matched = model.query_seconds("udf", FULL_ONE_B, True, 100)
        mismatched = model.query_seconds("udf", FULL_ONE_B, False, 100)
        assert matched < mismatched

    def test_blackbox_query_cost_tracks_compute(self):
        model = CostModel(seeded_stats())
        assert model.query_seconds("udf", BLACKBOX, True, 10) >= 0.2

    def test_observed_query_time_preferred(self):
        stats = seeded_stats()
        model = CostModel(stats)
        model.record_observation("udf", FULL_ONE_B, True, 42.0)
        assert model.query_seconds("udf", FULL_ONE_B, True, 100) == 42.0

    def test_forward_payload_index_pricing(self):
        """A warm index is a probe; a cold one adds its build, whose
        measurement has its own key; forward re-execution rent that
        reaches the build estimate prices the cold index as warm."""
        model = CostModel(seeded_stats())
        k = model.k
        warm = model.query_seconds("udf", PAY_ONE_B, False, 100, index_ready=True)
        assert warm == pytest.approx(100 * k.hash_probe_s)
        comp = model.query_seconds("udf", COMP_ONE_B, False, 100, index_ready=True)
        assert comp == pytest.approx(100 * (k.hash_probe_s + k.map_cell_s))
        build = 1000 * (k.scan_entry_s + k.payload_apply_s / 8.0)
        assert model.query_seconds("udf", PAY_ONE_B, False, 100) == pytest.approx(warm + build)
        model.record_index_build("udf", PAY_ONE_B, 0.5)
        assert model.query_seconds("udf", PAY_ONE_B, False, 100, index_ready=True) == warm
        assert model.query_seconds("udf", PAY_ONE_B, False, 100) == pytest.approx(warm + 0.5)
        model.record_observation("udf", BLACKBOX, False, 0.3)
        model.record_observation("udf", BLACKBOX, True, 0.3)  # backward pays no rent
        assert model.rent_seconds("udf") == pytest.approx(0.3)
        assert model.query_seconds("udf", PAY_ONE_B, False, 100) == pytest.approx(warm + 0.5)
        model.record_observation("udf", BLACKBOX, False, 0.3)
        assert model.query_seconds("udf", PAY_ONE_B, False, 100) == pytest.approx(warm)
        model.record_index_build("udf", PAY_ONE_B, 0.5, done=False)  # abandoned
        assert model.rent_seconds("udf") == pytest.approx(0.6)
        model.record_index_build("udf", PAY_ONE_B, 0.5)
        assert model.rent_seconds("udf") == 0.0
        assert model.query_seconds("udf", PAY_ONE_B, False, 100) == pytest.approx(warm + 0.5)

    def test_require_profiled(self):
        model = CostModel(StatsCollector())
        with pytest.raises(OptimizationError):
            model.require_profiled("ghost")


class TestWorkloadProfile:
    def test_weights_normalised(self):
        q1 = LineageQuery(np.asarray([[0, 0]]), (("a", 0), ("b", 0)), Direction.BACKWARD)
        q2 = LineageQuery(np.asarray([[0, 0]]), (("a", 0),), Direction.FORWARD)
        profile = WorkloadProfile.from_queries([q1, q2])
        assert profile.weights["a"][Direction.BACKWARD] == 0.5
        assert profile.weights["a"][Direction.FORWARD] == 0.5
        assert profile.weights["b"][Direction.BACKWARD] == 0.5

    def test_weighted_queries(self):
        q = LineageQuery(np.asarray([[0, 0]]), (("a", 0),), Direction.BACKWARD)
        profile = WorkloadProfile.from_queries([(q, 3.0)])
        assert profile.weights["a"][Direction.BACKWARD] == 1.0


class TestCandidateStrategies:
    def test_spot_udf_candidates(self):
        labels = {s.label for s in candidate_strategies(SpotUDF())}
        assert "<-FullOne" in labels and "->FullOne" in labels
        assert "<-PayOne" in labels and "<-CompOne" in labels
        assert "Map" not in labels
        assert "Blackbox" in labels


def _optimize(stats, directions, max_disk, pinned=None, max_run=None):
    model = CostModel(stats)
    optimizer = StrategyOptimizer(model)
    profile = WorkloadProfile(
        weights={"udf": directions}, cells=100.0
    )
    return optimizer.optimize(
        {"udf": SpotUDF(name="udf")},
        profile,
        max_disk_bytes=max_disk,
        max_runtime_seconds=max_run,
        pinned=pinned,
    )


class TestStrategyOptimizer:
    def test_tiny_budget_means_blackbox(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=10)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert stored == []
        assert BLACKBOX in result.plan["udf"]

    def test_big_budget_materialises(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=1e9)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert stored, result.describe()
        assert result.est_query_seconds < 0.2  # better than re-execution

    def test_forward_workload_picks_forward_index(self):
        result = _optimize(seeded_stats(), {Direction.FORWARD: 1.0}, max_disk=1e9)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert any(s.label == "->FullOne" or s.label == "->FullMany" for s in stored)

    def test_backward_only_prunes_forward_stores(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=1e9)
        assert all(s.label not in ("->FullOne", "->FullMany") for s in result.plan["udf"])

    def test_disk_constraint_respected(self):
        stats = seeded_stats(n_pairs=10000, fanin=10)
        model = CostModel(stats)
        for budget in (1e3, 1e5, 1e7):
            result = _optimize(stats, {Direction.BACKWARD: 1.0}, max_disk=budget)
            used = sum(
                model.disk_bytes("udf", s) for s in result.plan["udf"]
            )
            assert used <= budget * 1.001

    def test_runtime_constraint_respected(self):
        stats = seeded_stats(n_pairs=100000, fanin=10)
        model = CostModel(stats)
        result = _optimize(
            stats, {Direction.BACKWARD: 1.0}, max_disk=1e9, max_run=1e-6
        )
        used = sum(model.write_seconds("udf", s) for s in result.plan["udf"])
        assert used <= 1e-6 * 1.001

    def test_pinned_strategy_kept(self):
        result = _optimize(
            seeded_stats(),
            {Direction.BACKWARD: 1.0},
            max_disk=1e9,
            pinned={"udf": [PAY_ONE_B]},
        )
        assert PAY_ONE_B in result.plan["udf"]

    def test_greedy_fallback_matches_constraints(self):
        stats = seeded_stats()
        model = CostModel(stats)
        optimizer = StrategyOptimizer(model)
        profile = WorkloadProfile(weights={"udf": {Direction.BACKWARD: 1.0}})
        plan = optimizer._solve_greedy(
            ["udf"],
            {"udf": candidate_strategies(SpotUDF(name="udf"))},
            {"udf": []},
            profile,
            max_disk=1e9,
            max_run=None,
        )
        assert plan["udf"]
        used = sum(model.disk_bytes("udf", s) for s in plan["udf"])
        assert used <= 1e9

    @given(
        budget=st.floats(min_value=1e2, max_value=1e8),
        fanin=st.integers(1, 50),
        n_pairs=st.integers(10, 20000),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimizer_never_violates_budget(self, budget, fanin, n_pairs):
        stats = seeded_stats(n_pairs=n_pairs, fanin=fanin)
        model = CostModel(stats)
        result = _optimize(
            stats,
            {Direction.BACKWARD: 0.5, Direction.FORWARD: 0.5},
            max_disk=budget,
        )
        used = sum(model.disk_bytes("udf", s) for s in result.plan["udf"])
        assert used <= budget * 1.001
        assert result.plan["udf"]  # always at least one strategy


class TestEndToEndOptimize:
    def test_subzero_optimize_roundtrip(self, rng):
        image = SciArray.from_numpy(rng.random((16, 16)))
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.profile({"img": image})
        queries = [
            LineageQuery(
                np.asarray([[4, 4]]),
                (("scale", 0), ("spot", 0), ("smooth", 0)),
                Direction.BACKWARD,
            )
        ]
        result = sz.optimize(queries, max_disk_bytes=10e6)
        assert "spot" in result.plan
        # the plan is applied and a re-run materialises it
        sz.run({"img": image})
        res = sz.backward_query([(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)])
        assert res.count > 0

    def test_optimize_requires_profiling(self, rng):
        sz = SubZero(build_spot_spec())
        with pytest.raises(OptimizationError):
            sz.optimize([], max_disk_bytes=1e6)
