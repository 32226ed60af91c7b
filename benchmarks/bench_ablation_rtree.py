"""Ablation: the R-tree over *Many entries vs the alternatives.

The paper's FullMany/PayMany layouts index region-pair keys with an R-tree
(§VI-B).  This bench quantifies the choice against (a) a per-entry cursor
scan — what a hash table gives you without a spatial index — and (b) the
vectorised bounding-box sweep the store switches to for huge frontiers.

Expected shape: for selective (small) queries the R-tree wins by orders of
magnitude over the cursor scan; for frontier-sized queries the sweep wins,
which is exactly why ``candidate_entries`` picks per regime.
"""

import time

import numpy as np
import pytest

from repro.arrays import coords as C
from repro.bench.report import ResultTable
from repro.core.lineage_store import RegionEntryTable

from conftest import FULL

SHAPE = (1000, 1000)
N_ENTRIES = 200_000 if FULL else 50_000


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    table = RegionEntryTable(SHAPE)
    keys = rng.choice(SHAPE[0] * SHAPE[1], size=N_ENTRIES, replace=False).astype(
        np.int64
    )
    lengths = np.ones(N_ENTRIES, dtype=np.int64)
    table.add_entries(keys, lengths, b"x" * N_ENTRIES, lengths)
    table.finalize()
    return table


def rtree_probe(table, coords):
    hits = [table._rtree.query_point(c) for c in coords]
    return np.unique(np.concatenate(hits))


def cursor_scan(table, coords):
    """The ablation baseline: a per-entry Python cursor over the columns
    (the stores themselves no longer have such a loop)."""
    query = np.sort(C.pack_coords(coords, SHAPE))
    keys, koff, _, _ = table.columns()
    hits = []
    for e in range(koff.size - 1):
        if C.isin_sorted(keys[koff[e]: koff[e + 1]], query).any():
            hits.append(e)
    return np.asarray(hits, dtype=np.int64)


def bbox_sweep(table, coords):
    qlo, qhi = coords.min(axis=0), coords.max(axis=0)
    lo, hi = table.entry_boxes()
    return np.nonzero(((lo <= qhi) & (hi >= qlo)).all(axis=1))[0]


@pytest.fixture(scope="module")
def measurements(table):
    rng = np.random.default_rng(1)
    small = rng.integers(0, 1000, size=(64, 2)).astype(np.int64)
    rows = {}
    for name, fn in (("rtree", rtree_probe), ("cursor-scan", cursor_scan)):
        start = time.perf_counter()
        result = fn(table, small)
        rows[name] = (time.perf_counter() - start, len(result))
    start = time.perf_counter()
    swept = bbox_sweep(table, small)
    rows["bbox-sweep"] = (time.perf_counter() - start, len(swept))

    report = ResultTable(
        "Ablation: candidate collection over 50k entries, 64-cell query",
        ["method", "seconds", "candidates"],
    )
    for name, (seconds, count) in rows.items():
        report.add_row(name, seconds, count)
    report.add_note("bbox-sweep returns a superset (query bounding box)")
    report.print()
    return rows


_METHODS = {"rtree": rtree_probe, "cursor-scan": cursor_scan, "bbox-sweep": bbox_sweep}


@pytest.mark.benchmark(group="ablation-rtree")
@pytest.mark.parametrize("method", ["rtree", "cursor-scan", "bbox-sweep"])
def test_candidate_collection(benchmark, table, method):
    rng = np.random.default_rng(1)
    coords = rng.integers(0, 1000, size=(64, 2)).astype(np.int64)
    rounds = 1 if method == "cursor-scan" else 3
    result = benchmark.pedantic(
        lambda: _METHODS[method](table, coords), rounds=rounds, iterations=1
    )
    benchmark.extra_info["candidates"] = len(result)


@pytest.mark.benchmark(group="ablation-rtree-shape")
def test_rtree_beats_cursor_scan(benchmark, measurements):
    def check():
        assert measurements["rtree"][0] * 5 < measurements["cursor-scan"][0]
        # for singleton entries the R-tree is exact; the sweep over-includes
        assert measurements["rtree"][1] <= measurements["bbox-sweep"][1]

    benchmark.pedantic(check, rounds=1, iterations=1)
