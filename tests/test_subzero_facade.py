"""Tests for the SubZero facade: strategy plumbing, accounting, re-runs."""

import pytest

from repro import (
    BLACKBOX,
    COMP_ONE_B,
    FULL_ONE_B,
    MAP,
    SciArray,
    SubZero,
)
from repro.arrays.versions import VersionStore
from repro.errors import QueryError, WorkflowError
from tests.conftest import build_spot_spec


@pytest.fixture
def image(rng):
    return SciArray.from_numpy(rng.random((14, 16)))


class TestStrategyManagement:
    def test_unknown_node_rejected(self):
        sz = SubZero(build_spot_spec())
        with pytest.raises(WorkflowError):
            sz.set_strategy("nope", FULL_ONE_B)

    def test_use_mapping_where_possible(self):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        strategies = sz.strategies()
        assert strategies["smooth"] == (MAP,)
        assert strategies["scale"] == (MAP,)
        assert "spot" not in strategies  # SpotUDF has no mapping functions

    def test_use_mapping_idempotent(self):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.use_mapping_where_possible()
        assert sz.strategies()["smooth"] == (MAP,)

    def test_apply_plan(self):
        sz = SubZero(build_spot_spec())
        sz.apply_plan({"spot": [FULL_ONE_B, BLACKBOX]})
        assert sz.strategies()["spot"] == (FULL_ONE_B, BLACKBOX)


class TestRunAndAccounting:
    def test_accounting_before_run_is_zero(self):
        sz = SubZero(build_spot_spec())
        assert sz.lineage_disk_bytes() == 0
        assert sz.workflow_seconds() == 0.0
        assert sz.input_bytes() == 0
        assert sz.base_storage_bytes() == 0

    def test_accounting_after_run(self, image):
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        assert sz.lineage_disk_bytes() > 0
        assert sz.workflow_seconds() > 0
        assert sz.input_bytes() == image.nbytes
        # base storage: input + 3 node outputs
        assert sz.base_storage_bytes() == 4 * image.nbytes

    def test_rerun_rebuilds_stores(self, image):
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        first = sz.lineage_disk_bytes()
        sz.set_strategy("spot", COMP_ONE_B)
        sz.run({"img": image})
        second = sz.lineage_disk_bytes()
        assert second < first  # composite stores only the bright cells

    def test_wal_accumulates_across_runs(self, image):
        sz = SubZero(build_spot_spec())
        sz.run({"img": image})
        sz.run({"img": image})
        assert len(sz.wal) == 2 * 3

    def test_queries_require_run(self):
        sz = SubZero(build_spot_spec())
        with pytest.raises(QueryError):
            sz.forward_query([(0, 0)], [("smooth", 0)])

    def test_profile_then_query_works(self, image):
        sz = SubZero(build_spot_spec())
        sz.profile({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.count >= 1  # served by re-execution

    def test_external_version_store(self, image):
        from repro import VersionStore

        store = VersionStore()
        sz = SubZero(build_spot_spec())
        sz.run({"img": image}, version_store=store)
        assert len(store) == 4


class TestResumedPlan:
    @pytest.mark.parametrize("attach", ["resume", "load_lineage"])
    def test_resumed_engine_keeps_mapping_plan(self, image, tmp_path, attach):
        """A resumed engine serves the built-ins by their mapping functions
        (the plan's store-less strategies) and the stored node from the
        catalog, answering exactly like the live engine."""

        def engine():
            sz = SubZero(build_spot_spec(), enable_query_opt=False)
            sz.use_mapping_where_possible()
            sz.set_strategy("spot", FULL_ONE_B)
            return sz

        versions = VersionStore()
        live = engine()
        live.run({"img": image}, version_store=versions)
        live.flush_lineage(str(tmp_path))
        resumed = engine()
        if attach == "load_lineage":
            resumed.load_lineage(str(tmp_path))
            resumed.resume(versions, wal=live.wal)
        else:
            resumed.resume(versions, wal=live.wal, lineage_dir=str(tmp_path))
        cells = [(4, 4), (7, 9), (0, 13)]
        backward = [("scale", 0), ("spot", 0), ("smooth", 0)]
        forward = list(reversed(backward))
        for query, path in ((resumed.backward_query, backward), (resumed.forward_query, forward)):
            live_query = getattr(live, query.__name__)
            want, got = live_query(cells, path), query(cells, path)
            assert [s.method for s in got.steps] == [s.method for s in want.steps]
            assert got.coords.tolist() == want.coords.tolist()
        assert [s.method for s in got.steps] == ["Map", "<-FullOne", "Map"]
        live.close()
        resumed.close()
