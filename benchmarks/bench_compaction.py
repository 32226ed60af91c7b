"""Append-merge benchmark: delta appends vs full re-flush, and the overlay
read amplification online compaction removes.

Not a paper figure — this validates the generational catalog against its
acceptance bars:

* **append vs re-flush**: committing a 10% delta run with
  ``StoreCatalog.append`` must be >= 5x cheaper than re-flushing the whole
  catalog, in bytes written and in wall time — the OrpheusDB-style cheap
  incremental commit.
* **read amplification**: a mismatched scan over a 4-generation overlay
  pays one batch-scan pass per generation; after ``StoreCatalog.compact``
  the scan must return to within 1.2x of a store that was flushed in one
  piece (structurally, the compacted segment *is* that store).

Both tables are also published machine-readably to ``BENCH_compaction.json``
(metric -> value) for ``benchmarks/check_regressions.py``.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_compaction.py --benchmark-only -s
"""

import shutil
import threading
import time

import numpy as np
import pytest

from repro import FULL_MANY_B
from repro.bench.report import ResultTable, write_bench_json
from repro.core.catalog import StoreCatalog
from repro.core.costmodel import CostModel
from repro.core.lineage_store import make_store
from repro.core.stats import StatsCollector
from repro.ops.base import LineageContext
from repro.serving.maintenance import MaintenanceWorker

from conftest import FULL

SHAPE = (256, 256)
N_BASE = 40_000 if FULL else 12_000
DELTA_FRACTION = 10  # each delta run carries N_BASE / 10 new entries
N_QUERY = 64
KEY = ("n", FULL_MANY_B)


def _store(seed: int, n: int):
    rng = np.random.default_rng(seed)
    store = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
    ctx = LineageContext(frozenset())
    outs = rng.integers(0, SHAPE[0], size=(n, 2))
    ins = rng.integers(0, SHAPE[0], size=(n, 2))
    ctx.lwrite_elementwise(outs, ins)
    store.ingest(ctx.sink)
    store.finalize_if_possible()
    return store


def _best_of(fn, rounds: int = 3) -> float:
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_scan_times(dir_a, dir_b, query, repeats=10, rounds=7):
    """Best-of scan times for two layouts, measured *interleaved* so a
    shared-runner load spike hits both sides, not just one."""
    catalogs = [StoreCatalog.open(d) for d in (dir_a, dir_b)]
    stores = [c.open_store(*KEY) for c in catalogs]
    answers = [None, None]
    best = [np.inf, np.inf]
    for store in stores:  # hydrate the persisted lowered tables
        store.scan_forward_full(query, 0)
    for _ in range(rounds):
        for i, store in enumerate(stores):
            start = time.perf_counter()
            for _ in range(repeats):
                answers[i] = store.scan_forward_full(query, 0)
            best[i] = min(best[i], (time.perf_counter() - start) / repeats)
    gens = [c.generation_count(*KEY) for c in catalogs]
    for catalog in catalogs:
        catalog.close()
    return best, [sorted(a.tolist()) for a in answers], gens


@pytest.mark.benchmark(group="compaction")
def test_append_vs_full_reflush(benchmark, tmp_path_factory):
    """Acceptance: appending a 10% delta run is >= 5x cheaper than a full
    re-flush — in bytes written and in seconds.

    Both paths start from the same state — a committed base catalog plus
    this run's delta store in memory — and commit the delta.  The re-flush
    must rebuild the union (reload the base, merge, re-sort, re-index,
    re-lower) and rewrite every byte; the append writes the delta segment
    and the manifest, leaving committed segments untouched.
    """
    base = _store(0, N_BASE)
    delta = _store(1, N_BASE // DELTA_FRACTION)

    root = tmp_path_factory.mktemp("append-vs-reflush")
    base_dir = str(root / "base")
    catalog, _ = StoreCatalog.write(base_dir, {KEY: base})
    catalog.close()

    # full re-flush: reload the committed base, merge the delta into it,
    # rebuild the derived structures, rewrite the whole catalog
    def full_reflush():
        directory = str(root / "full")
        shutil.rmtree(directory, ignore_errors=True)
        src = StoreCatalog.open(base_dir)
        merged = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
        merged.absorb(src.open_store(*KEY))
        merged.absorb(delta)
        merged.finalize_if_possible()
        catalog, nbytes = StoreCatalog.write(directory, {KEY: merged})
        catalog.close()
        src.close()
        return nbytes

    full_s = _best_of(full_reflush)
    full_bytes = full_reflush()

    # append: the base catalog exists; commit only the delta
    append_dirs = []
    for i in range(4):
        directory = str(root / f"inc{i}")
        shutil.copytree(base_dir, directory)
        append_dirs.append(directory)

    def append_one(directory=iter(append_dirs)):
        catalog, nbytes = StoreCatalog.append(next(directory), {KEY: delta})
        catalog.close()
        return nbytes

    append_s = _best_of(append_one)
    append_bytes = append_one()

    bytes_ratio = full_bytes / append_bytes
    seconds_ratio = full_s / append_s

    def run():
        table = ResultTable(
            title=(
                f"append a {100 // DELTA_FRACTION}% delta vs full re-flush "
                f"({N_BASE} base entries)"
            ),
            columns=["path", "bytes written", "seconds", "vs append"],
        )
        table.add_row("full re-flush", full_bytes, round(full_s, 4),
                      f"{seconds_ratio:.1f}x")
        table.add_row("append delta", append_bytes, round(append_s, 4), "1x")
        table.add_note(
            f"bytes ratio {bytes_ratio:.1f}x, seconds ratio {seconds_ratio:.1f}x "
            "(acceptance: both >= 5x)"
        )
        table.print()

    benchmark.pedantic(run, rounds=1, iterations=1)
    write_bench_json(
        "compaction",
        {
            "append_bytes_ratio": bytes_ratio,
            "append_seconds_ratio": seconds_ratio,
            "append_bytes": append_bytes,
            "full_reflush_bytes": full_bytes,
        },
    )
    assert bytes_ratio >= 5.0, f"delta append only {bytes_ratio:.1f}x cheaper in bytes"
    assert seconds_ratio >= 5.0, f"delta append only {seconds_ratio:.1f}x faster"


@pytest.mark.benchmark(group="compaction")
def test_read_amplification_before_after_compact(benchmark, tmp_path_factory):
    """Acceptance: a mismatched scan over the compacted store runs within
    1.2x of a single-segment flush of the same lineage; the table also
    shows the pre-compaction overlay amplification that motivates it."""
    n_delta = N_BASE // DELTA_FRACTION
    generations = 4
    stores = [_store(0, N_BASE)] + [
        _store(seed, n_delta) for seed in range(1, generations)
    ]

    overlay_dir = str(tmp_path_factory.mktemp("overlay"))
    catalog, _ = StoreCatalog.write(overlay_dir, {KEY: stores[0]})
    catalog.close()
    for store in stores[1:]:
        catalog, _ = StoreCatalog.append(overlay_dir, {KEY: store})
        catalog.close()

    single = _store(0, N_BASE)
    for store in stores[1:]:
        single.absorb(store)
    single.finalize_if_possible()
    single_dir = str(tmp_path_factory.mktemp("single"))
    catalog, _ = StoreCatalog.write(single_dir, {KEY: single})
    catalog.close()

    rng = np.random.default_rng(7)
    query = np.unique(
        rng.integers(0, SHAPE[0] * SHAPE[1], size=N_QUERY).astype(np.int64)
    )

    (overlay_s, single_s), (overlay_answer, single_answer), (gens_before, _) = (
        _paired_scan_times(overlay_dir, single_dir, query)
    )

    compact_catalog = StoreCatalog.open(overlay_dir)
    report = compact_catalog.compact()
    compact_catalog.close()
    assert report.compacted, "nothing compacted"
    (compacted_s, single_s2), (compacted_answer, _), (gens_after, _) = (
        _paired_scan_times(overlay_dir, single_dir, query)
    )

    assert overlay_answer == single_answer == compacted_answer
    amp_overlay = overlay_s / single_s
    amp_compacted = compacted_s / single_s2

    def run():
        table = ResultTable(
            title=(
                f"mismatched scan amplification, {generations} generations "
                f"({N_BASE} + 3x{n_delta} entries, {query.size} query cells)"
            ),
            columns=["layout", "generations", "scan ms", "vs single flush"],
        )
        table.add_row(
            "overlay (pre-compaction)", gens_before,
            round(overlay_s * 1e3, 3), f"{amp_overlay:.2f}x",
        )
        table.add_row(
            "compacted", gens_after,
            round(compacted_s * 1e3, 3), f"{amp_compacted:.2f}x",
        )
        table.add_row("single full flush", 1, round(single_s * 1e3, 3), "1x")
        table.add_note(
            "acceptance: compacted within 1.2x of the single-segment flush"
        )
        table.print()

    benchmark.pedantic(run, rounds=1, iterations=1)
    write_bench_json(
        "compaction",
        {
            "read_amp_overlay": amp_overlay,
            "read_amp_compacted": amp_compacted,
            "generations_before": gens_before,
            "generations_after": gens_after,
            "bytes_reclaimed": report.bytes_reclaimed,
        },
    )
    assert gens_before == generations and gens_after == 1
    assert amp_compacted <= 1.2, (
        f"post-compaction scan {amp_compacted:.2f}x the single-segment store"
    )


# -- autonomous maintenance stress ---------------------------------------------


class _CatalogEngine:
    """The two-method engine surface :class:`MaintenanceWorker` drives,
    bound to a bare :class:`StoreCatalog` — the same advice math the
    facade uses (the cost model's overlay penalty, worst first), without
    dragging a whole workflow into a storage bench."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.stats = StatsCollector()
        self.model = CostModel(self.stats)

    def compaction_advice(self, n_query_cells=64):
        advice = []
        for node, strategy in self.catalog.keys():
            gens = self.catalog.generation_count(node, strategy)
            if gens <= 1:
                continue
            penalty = max(
                self.model.overlay_penalty_seconds(
                    node, strategy, backward, n_query_cells, gens
                )
                for backward in (True, False)
            )
            advice.append((node, strategy, gens, penalty))
        advice.sort(key=lambda item: -item[3])
        return advice

    def compact_lineage(self, node=None, strategy=None, budget_bytes=None):
        return self.catalog.compact(
            node=node, strategy=strategy, budget_bytes=budget_bytes
        )


def _owner_store(lo: int, hi: int):
    """One generation owning exactly the packed output keys ``[lo, hi)`` —
    disjoint ranges give every generation a distinct zone-map footprint."""
    packed = np.arange(lo, hi, dtype=np.int64)
    outs = np.stack(np.unravel_index(packed, SHAPE), axis=1)
    ctx = LineageContext(frozenset())
    ctx.lwrite_elementwise(outs, outs.copy())
    store = make_store("n", FULL_MANY_B, SHAPE, (SHAPE,))
    store.ingest(ctx.sink)
    store.finalize_if_possible()
    return store


@pytest.mark.benchmark(group="compaction")
def test_mixed_stress_autonomous_maintenance(benchmark, tmp_path_factory):
    """Acceptance for the self-driving LSM loop, two bars:

    * **filters**: a matched backward query on a 20-generation store reads
      <= 2 generations — the per-generation bloom/zone filters reject the
      rest without touching them (asserted on the catalog's skip counters).
    * **maintenance**: a serving loop that keeps appending delta runs while
      queries execute — and never calls ``compact()`` itself — ends at
      steady-state read amplification <= 1.2x of a single-segment flush,
      because the background :class:`MaintenanceWorker` drains the
      generations whenever the foreground goes idle.
    """
    # -- bar 1: 20 generations, matched backward query probes <= 2 ---------
    gen_keys = 256
    probe_dir = str(tmp_path_factory.mktemp("probe"))
    catalog, _ = StoreCatalog.write(probe_dir, {KEY: _owner_store(0, gen_keys)})
    for g in range(1, 20):
        catalog.append_stores({KEY: _owner_store(g * gen_keys, (g + 1) * gen_keys)})
    assert catalog.generation_count(*KEY) == 20
    assert catalog.filters_ready(*KEY)

    store = catalog.open_store(*KEY)
    hot = np.arange(19 * gen_keys, 19 * gen_keys + N_QUERY, dtype=np.int64)
    before = catalog.stats()
    matched, _payload = store.backward_full(hot)
    counters = catalog.stats()
    probes = counters["filter_probes"] - before["filter_probes"]
    skipped = counters["generations_skipped"] - before["generations_skipped"]
    generations_probed = probes - skipped
    catalog.close()
    assert matched.all()
    assert probes == 20, f"expected one filter probe per generation, got {probes}"

    # -- bar 2: mixed append/query stress, zero manual compact() -----------
    n_delta = N_BASE // DELTA_FRACTION
    stress_rounds = 12
    deltas = [_store(100 + i, n_delta) for i in range(stress_rounds)]

    stress_dir = str(tmp_path_factory.mktemp("stress"))
    catalog, _ = StoreCatalog.write(stress_dir, {KEY: _store(0, N_BASE)})
    engine = _CatalogEngine(catalog)
    busy = threading.Event()
    worker = MaintenanceWorker(
        engine,
        is_idle=lambda: not busy.is_set(),
        stats=engine.stats,
        interval_s=0.002,
        idle_interval_s=0.02,
    ).start()

    rng = np.random.default_rng(11)
    query = np.unique(
        rng.integers(0, SHAPE[0] * SHAPE[1], size=N_QUERY).astype(np.int64)
    )
    max_gens_seen = 1
    for delta in deltas:
        catalog.append_stores({KEY: delta})
        max_gens_seen = max(max_gens_seen, catalog.generation_count(*KEY))
        worker.wake()
        busy.set()
        try:
            for _ in range(2):
                catalog.open_store(*KEY).scan_forward_full(query, 0)
        finally:
            busy.clear()
        time.sleep(0.005)  # an idle gap the worker can claim

    deadline = time.monotonic() + 120.0
    while engine.compaction_advice() and time.monotonic() < deadline:
        time.sleep(0.02)
    worker.stop()
    assert not engine.compaction_advice(), "maintenance never drained the backlog"
    gens_after_stress = catalog.generation_count(*KEY)
    maintenance = dict(engine.stats.maintenance)
    catalog.close()

    # steady state vs the same lineage flushed in one piece
    single = _store(0, N_BASE)
    for delta in deltas:
        single.absorb(delta)
    single.finalize_if_possible()
    single_dir = str(tmp_path_factory.mktemp("stress-single"))
    catalog, _ = StoreCatalog.write(single_dir, {KEY: single})
    catalog.close()

    (stress_s, single_s), (stress_answer, single_answer), _ = _paired_scan_times(
        stress_dir, single_dir, query
    )
    assert stress_answer == single_answer
    stress_amp = stress_s / single_s

    def run():
        table = ResultTable(
            title=(
                f"autonomous maintenance stress ({stress_rounds} delta runs of "
                f"{n_delta} entries under a query loop, zero manual compact())"
            ),
            columns=["measure", "value", "acceptance"],
        )
        table.add_row(
            "generations probed (20-gen matched query)",
            generations_probed, "<= 2",
        )
        table.add_row("filter probes / skipped", f"{probes} / {skipped}", "-")
        table.add_row(
            "generations after stress",
            f"{gens_after_stress} (peak {max_gens_seen})", "1",
        )
        table.add_row(
            "background compaction slices",
            maintenance["compactions_run"], ">= 1",
        )
        table.add_row(
            "steady-state read amp", f"{stress_amp:.2f}x", "<= 1.2x",
        )
        table.print()

    benchmark.pedantic(run, rounds=1, iterations=1)
    write_bench_json(
        "compaction",
        {
            "stress_read_amp": stress_amp,
            "stress_generations_probed": generations_probed,
            "stress_filter_probes": probes,
            "stress_generations_after": gens_after_stress,
            "stress_compactions_run": maintenance["compactions_run"],
            "stress_bytes_merged": maintenance["bytes_merged"],
        },
    )
    assert generations_probed <= 2, (
        f"matched query read {generations_probed} of 20 generations"
    )
    assert gens_after_stress == 1
    assert maintenance["compactions_run"] >= 1
    assert stress_amp <= 1.2, (
        f"steady-state scan {stress_amp:.2f}x the single-segment store"
    )
