"""Batch-scan benchmark: the vectorised BatchProbe vs the per-entry loop.

Not a paper figure — this validates the PR's batch scan engine against its
acceptance bars on the micro workload shapes:

* **scan speed**: probing a whole ``RegionEntryTable`` value heap through
  ``batch_probe()`` must be >= 2x faster than calling the per-entry in-situ
  probes in a Python loop (the pre-batch mismatched-orientation scan path),
  with *identical* verdicts;
* **bitmap footprint**: on dense-but-ragged masks — where interval runs
  fragment to near one run per cell — the ``0x42`` bitmap codec must encode
  to <= 0.5x the interval codec's bytes (and <= 0.5x delta's).

The entry mix mirrors the micro workloads: contiguous reshape-style runs
(interval-coded), strided/dense masks (bitmap-coded), scattered sets
(delta-coded), and a couple of extreme-span sets (raw-coded), so every
codec tag group of the batch engine is exercised.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_batch_scan.py --benchmark-only -s
"""

import time

import numpy as np
import pytest

from repro.bench.report import ResultTable
from repro.core.lineage_store import RegionEntryTable
from repro.storage import codecs

from conftest import MICRO_SHAPE, FULL

N_ENTRIES = 4000 if FULL else 1200
RUN_LENGTH = 64  # cells per contiguous reshape-style run
DENSE_SPAN = 512  # span of each ragged dense mask
N_QUERY_CELLS = 256
N_RAGGED_MASKS = 64


def build_entries(rng) -> list[np.ndarray]:
    size = int(np.prod(MICRO_SHAPE))
    entries: list[np.ndarray] = []
    for j in range(N_ENTRIES):
        kind = j % 4
        if kind == 0:  # contiguous run -> interval codec
            start = int(rng.integers(0, size - RUN_LENGTH))
            entries.append(np.arange(start, start + RUN_LENGTH, dtype=np.int64))
        elif kind == 1:  # ragged dense mask -> bitmap codec
            base = int(rng.integers(0, size - DENSE_SPAN))
            mask = rng.random(DENSE_SPAN) < 0.5
            mask[0] = mask[-1] = True
            entries.append(base + np.flatnonzero(mask).astype(np.int64))
        elif kind == 2:  # scattered set -> delta codec
            cells = rng.choice(size, size=24, replace=False)
            entries.append(np.sort(cells.astype(np.int64)))
        else:  # small unsorted set -> delta (unsorted flavour)
            cells = rng.choice(size, size=8, replace=False)
            entries.append(cells.astype(np.int64))
    return entries


def build_table(entries) -> RegionEntryTable:
    table = RegionEntryTable((len(entries),))
    for j, arr in enumerate(entries):
        table.add_entry(np.asarray([j], dtype=np.int64), codecs.encode_cells(arr))
    table.finalize()
    return table


def per_entry_scan(table: RegionEntryTable, query: np.ndarray) -> np.ndarray:
    """The pre-batch scan: one in-situ probe call per entry."""
    return np.asarray(
        [table.value_contains_any(e, query) for e in range(table.n_entries)],
        dtype=bool,
    )


def batch_scan(table: RegionEntryTable, query: np.ndarray) -> np.ndarray:
    return table.batch_probe().contains_any(query)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(17)
    entries = build_entries(rng)
    table = build_table(entries)
    pool = np.concatenate([entries[i] for i in rng.integers(0, len(entries), 16)])
    query = np.sort(rng.choice(pool, size=N_QUERY_CELLS, replace=False))
    return entries, table, query


@pytest.mark.benchmark(group="batch-scan")
def test_batch_verdicts_identical_to_per_entry(benchmark, workload):
    """Acceptance: the batch pass answers exactly what the per-entry probes
    answer — verdicts and intersections, entry for entry."""
    entries, table, query = workload

    def check():
        assert np.array_equal(batch_scan(table, query), per_entry_scan(table, query))
        hit_ids, parts = table.batch_probe().intersect(query)
        by_entry = dict(zip(hit_ids.tolist(), parts))
        for e in range(table.n_entries):
            expected = table.value_intersect(e, query)
            if expected.size:
                assert by_entry[e].tolist() == expected.tolist()
            else:
                assert e not in by_entry

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="batch-scan")
def test_batch_scan_at_least_2x_faster(benchmark, workload):
    """Acceptance: the vectorised pass beats the per-entry probe loop >= 2x
    on the micro workload (and by far more once the lowered tables are
    warm, which is the steady scan state)."""
    entries, table, query = workload
    assert np.array_equal(batch_scan(table, query), per_entry_scan(table, query))

    loop_s = _best_of(lambda: per_entry_scan(table, query))

    def cold_batch() -> float:
        """First-scan cost: a freshly built table has nothing lowered."""
        fresh = build_table(entries)
        start = time.perf_counter()
        batch_scan(fresh, query)
        return time.perf_counter() - start

    cold_s = min(cold_batch() for _ in range(3))
    batch_scan(table, query)  # ensure the cache is warm
    warm_s = benchmark.pedantic(
        lambda: _best_of(lambda: batch_scan(table, query), rounds=5),
        rounds=1,
        iterations=1,
    )

    table_out = ResultTable(
        title=f"batch scan vs per-entry loop ({table.n_entries} entries, "
        f"{query.size} query cells)",
        columns=["path", "ms", "speedup"],
    )
    table_out.add_row("per-entry loop", round(loop_s * 1e3, 3), 1.0)
    table_out.add_row(
        "batch (cold, builds tables)", round(cold_s * 1e3, 3),
        round(loop_s / max(cold_s, 1e-9), 1),
    )
    table_out.add_row(
        "batch (warm, cached tables)", round(warm_s * 1e3, 3),
        round(loop_s / max(warm_s, 1e-9), 1),
    )
    table_out.print()

    assert warm_s * 2 <= loop_s, (warm_s, loop_s)


@pytest.mark.benchmark(group="batch-scan")
def test_cold_start_first_scan_within_2x_of_warm(benchmark, workload, tmp_path_factory):
    """Acceptance (segmented store format): the first mismatched-orientation
    scan after a fresh load from disk must run within 2x of the warm
    in-memory scan when the lowered tables were persisted in the segment —
    no codec header walk — and the table shows the gap against a segment
    flushed *without* them (which pays the full lowering on first scan)."""
    entries, table, query = workload
    batch_scan(table, query)  # warm the in-memory lowered tables
    warm_s = _best_of(lambda: batch_scan(table, query), rounds=5)

    base = tmp_path_factory.mktemp("coldstart")
    with_path = str(base / "with_lowered.seg")
    table.flush(with_path)  # persists the warm lowered tables
    # a table flushed before any scan ran carries no lowered tables
    bare = build_table(entries)
    without_path = str(base / "without_lowered.seg")
    bare.flush(without_path)
    # the genuine capture-time cost: lower a cold-built table, then flush it
    cold_built = build_table(entries)
    flush_s = time.perf_counter()
    cold_built.batch_probe().lowered_tables()
    cold_built.flush(str(base / "cold_flush.seg"))
    flush_s = time.perf_counter() - flush_s

    def first_scan(path):
        """Fresh objects + fresh mapping from disk: the cold-start cost a
        new serving process pays on its first scan (load timed apart)."""
        best_load, best_scan, verdicts = float("inf"), float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            loaded = RegionEntryTable.load(path, table.key_shape)
            best_load = min(best_load, time.perf_counter() - start)
            start = time.perf_counter()
            verdicts = batch_scan(loaded, query)
            best_scan = min(best_scan, time.perf_counter() - start)
        return best_load, best_scan, verdicts

    with_load_s, with_s, with_v = first_scan(with_path)
    without_load_s, without_s, without_v = first_scan(without_path)
    assert np.array_equal(with_v, without_v)
    assert np.array_equal(with_v, batch_scan(table, query))

    def run():
        out = ResultTable(
            title=f"cold start: flush -> fresh load -> first mismatched scan "
            f"({table.n_entries} entries, {query.size} query cells)",
            columns=["path", "load ms", "first-scan ms", "x warm scan"],
        )
        out.add_row("warm in-memory scan", "-", round(warm_s * 1e3, 3), 1.0)
        out.add_row(
            "segment WITH lowered tables", round(with_load_s * 1e3, 3),
            round(with_s * 1e3, 3), round(with_s / max(warm_s, 1e-9), 2),
        )
        out.add_row(
            "segment WITHOUT lowered tables", round(without_load_s * 1e3, 3),
            round(without_s * 1e3, 3), round(without_s / max(warm_s, 1e-9), 2),
        )
        out.add_row("flush of a cold table (lower + write)", "-", round(flush_s * 1e3, 3), "-")
        out.print()

    benchmark.pedantic(run, rounds=1, iterations=1)
    # the acceptance bar: persisted lowered tables make the first scan warm
    assert with_s <= 2.0 * max(warm_s, 5e-4), (with_s, warm_s)


@pytest.mark.benchmark(group="batch-scan")
def test_bitmap_at_most_half_interval_on_ragged_dense(benchmark, workload):
    """Acceptance: bitmap <= 0.5x interval bytes on ragged dense masks."""
    rng = np.random.default_rng(5)

    def check():
        table = ResultTable(
            title="ragged dense masks: codec bytes",
            columns=["density", "interval", "delta", "bitmap", "interval/bitmap"],
        )
        for density in (0.35, 0.5, 0.65):
            interval_total = delta_total = bitmap_total = 0
            for _ in range(N_RAGGED_MASKS):
                mask = rng.random(DENSE_SPAN) < density
                mask[0] = mask[-1] = True
                arr = np.flatnonzero(mask).astype(np.int64)
                interval_total += codecs.INTERVAL.nbytes(arr)
                delta_total += codecs.DELTA.nbytes(arr)
                bitmap_total += codecs.BITMAP.nbytes(arr)
                assert codecs.encode_cells(arr)[0] == codecs.TAG_BITMAP
            table.add_row(
                density, interval_total, delta_total, bitmap_total,
                round(interval_total / bitmap_total, 2),
            )
            assert bitmap_total * 2 <= interval_total
            assert bitmap_total * 2 <= delta_total
        table.print()

    benchmark.pedantic(check, rounds=1, iterations=1)
