"""Partitioned catalog benchmark: scatter-gather overhead and parallel
per-partition compaction.

Not a paper figure — this validates :mod:`repro.storage.partition` against
its acceptance bars:

* **scatter overhead**: a *targeted* read (the node→partition map routes
  the key to one partition) through a 4-partition catalog must stay within
  a small constant factor of the same read through a monolithic catalog —
  the root facade adds one dict lookup and one counter tick, not an extra
  I/O pass — and must probe exactly one partition (counter-asserted, the
  ISSUE's 4-partition acceptance criterion).
* **parallel compaction**: compacting four partitions on the scatter
  thread pool must not be slower than sweeping them sequentially (their
  maintenance locks are independent, so the pool genuinely overlaps
  merge work), and both orders must converge every key to one generation.

Both tables publish machine-readably to ``BENCH_partition.json`` (metric →
value) for ``benchmarks/check_regressions.py``.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_partition.py --benchmark-only -s
"""

import shutil
import time

import numpy as np
import pytest

from repro import FULL_ONE_B
from repro.bench.report import ResultTable, write_bench_json
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import make_store
from repro.ops.base import LineageContext
from repro.storage.partition import PartitionedCatalog

from conftest import FULL

SHAPE = (256, 256)
N_ENTRIES = 20_000 if FULL else 6_000
N_PARTITIONS = 4
NODES = [f"node{i}" for i in range(N_PARTITIONS)]
STRATEGY = FULL_ONE_B
N_QUERY = 64


def _store(node: str, seed: int, n: int = N_ENTRIES):
    rng = np.random.default_rng(seed)
    store = make_store(node, STRATEGY, SHAPE, (SHAPE,))
    ctx = LineageContext(frozenset())
    outs = rng.integers(0, SHAPE[0], size=(n, 2))
    ins = rng.integers(0, SHAPE[0], size=(n, 2))
    ctx.lwrite_elementwise(outs, ins)
    store.ingest(ctx.sink)
    store.finalize_if_possible()
    return store


def _stores(seed0: int):
    return {
        (node, STRATEGY): _store(node, seed0 + i) for i, node in enumerate(NODES)
    }


def _query(seed: int = 9):
    rng = np.random.default_rng(seed)
    h, w = SHAPE
    flat = rng.integers(0, h * w, size=N_QUERY).astype(np.int64)
    return np.unique(flat)


def _best_backward(store, query, repeats: int = 20, rounds: int = 7) -> float:
    best = np.inf
    store.backward_full(query)  # warm the index once
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            store.backward_full(query)
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


@pytest.mark.benchmark(group="partition")
def test_targeted_scatter_overhead(benchmark, tmp_path_factory):
    """Acceptance: a mapped node's backward query through the partitioned
    root costs within 3x of the monolithic catalog (generous — both sides
    are microseconds, so the bar only catches a structural regression like
    an accidental broadcast), and probes exactly one partition."""
    root = tmp_path_factory.mktemp("scatter")
    mono_dir, part_dir = str(root / "mono"), str(root / "part")
    mono, _ = StoreCatalog.write(mono_dir, _stores(0))
    mono.close()
    part, _ = PartitionedCatalog.write(
        part_dir,
        _stores(0),
        partitions={node: f"p{i}" for i, node in enumerate(NODES)},
    )
    part.close()
    query = _query()
    target = NODES[1]

    mono = StoreCatalog.open(mono_dir)
    part = PartitionedCatalog.open(part_dir)
    m_rec = mono.borrow(target, STRATEGY)
    p_rec = part.borrow(target, STRATEGY)
    mono_s = _best_backward(m_rec.store, query)
    part_s = _best_backward(p_rec.store, query)
    overhead = part_s / mono_s

    probes = part.probes_by_partition()
    owner = part.partition_for_node(target)
    probed = sum(1 for count in probes.values() if count > 0)
    idle_open = sum(
        part.partition(pid).open_count()
        for pid in part.partition_ids()
        if pid != owner
    )

    def run():
        return p_rec.store.backward_full(query)

    benchmark(run)
    mono.release(m_rec)
    part.release(p_rec)
    mono.close()
    part.close()

    table = ResultTable(
        "Targeted scatter vs monolith (backward query, best-of)",
        ["layout", "seconds", "partitions_probed"],
    )
    table.add_row("monolith", mono_s, 1)
    table.add_row(f"{N_PARTITIONS}-partition targeted", part_s, probed)
    table.add_note(f"overhead ratio {overhead:.2f}x (bar: <= 3.0)")
    table.print()

    write_bench_json(
        "partition",
        {
            "partitions": N_PARTITIONS,
            "scatter_overhead_ratio": overhead,
            "targeted_partitions_probed": probed,
            "idle_partition_opens": idle_open,
            "targeted_query_s": part_s,
            "monolith_query_s": mono_s,
        },
    )
    assert probed == 1, f"targeted read probed {probed} partitions"
    assert idle_open == 0, "a non-owning partition opened a store"
    assert overhead <= 3.0, f"scatter overhead {overhead:.2f}x exceeds 3x"


@pytest.mark.benchmark(group="partition")
def test_parallel_compaction_speedup(benchmark, tmp_path_factory):
    """Acceptance: the scatter thread pool's per-partition compaction is
    not slower than the same sweep run partition-by-partition, and both
    converge every key back to a single generation (equivalence counters
    published for the regression gate)."""
    root = tmp_path_factory.mktemp("compact")

    def build(directory: str) -> PartitionedCatalog:
        shutil.rmtree(directory, ignore_errors=True)
        part, _ = PartitionedCatalog.write(
            directory,
            _stores(0),
            partitions={node: f"p{i}" for i, node in enumerate(NODES)},
        )
        for round_ in (1, 2):
            part.append_stores(
                {
                    (node, STRATEGY): _store(node, 100 * round_ + i, N_ENTRIES // 4)
                    for i, node in enumerate(NODES)
                }
            )
        return part

    seq = build(str(root / "seq"))
    gens_before = seq.generation_count(NODES[0], STRATEGY)
    t0 = time.perf_counter()
    seq_report = seq.compact(parallel=1)
    seq_s = time.perf_counter() - t0
    gens_seq = max(seq.generation_count(n, STRATEGY) for n in NODES)
    seq.close()

    par = build(str(root / "par"))
    t0 = time.perf_counter()
    par_report = par.compact(parallel=N_PARTITIONS)
    par_s = time.perf_counter() - t0
    gens_par = max(par.generation_count(n, STRATEGY) for n in NODES)
    par.close()

    speedup = seq_s / par_s if par_s else 1.0

    def run():
        rebuilt = build(str(root / "bench"))
        rebuilt.compact(parallel=N_PARTITIONS)
        rebuilt.close()

    benchmark.pedantic(run, rounds=3, iterations=1)

    table = ResultTable(
        "Per-partition compaction: sequential vs thread pool",
        ["order", "seconds", "keys_merged", "max_generations_after"],
    )
    table.add_row("sequential", seq_s, len(seq_report.compacted), gens_seq)
    table.add_row(f"parallel x{N_PARTITIONS}", par_s, len(par_report.compacted), gens_par)
    table.add_note(f"speedup {speedup:.2f}x (bar: >= 0.6, i.e. never much slower)")
    table.print()

    write_bench_json(
        "partition",
        {
            "parallel_compaction_speedup": speedup,
            "compaction_generations_before": gens_before,
            "compaction_generations_after": max(gens_seq, gens_par),
            "compaction_keys_merged": len(par_report.compacted),
            "compaction_bytes_equal": float(
                seq_report.bytes_written == par_report.bytes_written
            ),
        },
    )
    assert gens_seq == gens_par == 1
    assert len(seq_report.compacted) == len(par_report.compacted) == len(NODES)
