"""Serving-core benchmark: thread scaling, eviction pressure, shard opens.

Not a paper figure — this validates the concurrent-serving refactor against
its acceptance bars:

* **thread scaling**: mixed backward/forward query throughput through
  ``SubZero.serve`` at 1/2/4/8 reader threads, hot cache (no budget) vs an
  evicting cache (``memory_budget_bytes`` sized to one store), all answers
  checked against the single-threaded baseline.  The 8-thread hot-cache
  configuration targets >= 3x the single-thread throughput; the assertion
  is enforced only on machines with enough cores to express it (the
  container this repo is often built in has one), mirroring the other
  wall-clock benches.
* **shard vs monolith cold open**: a fresh process's cost to open one
  store and answer its first matched and first mismatched query, from a
  monolithic segment vs a sharded ``.seg.0..k`` flush — plus how many
  shard files the sharded path actually mapped.
* **daemon QPS / latency percentiles** (``BENCH_daemon.json``): N client
  threads drive the network daemon over HTTP, measuring queries/s and
  p50/p99 latency with every answer checked against the in-process
  baseline; a second overload phase floods a one-slot gate and asserts
  the daemon sheds the excess with 429 (explicit backpressure) instead
  of buffering it.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_serving.py --benchmark-only -s
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_ONE_B,
    QueryRequest,
    SciArray,
    SubZero,
    WorkflowSpec,
)
from repro.arrays.versions import VersionStore
from repro.bench.report import ResultTable, write_bench_json
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import make_store
from repro.core.model import Direction, LineageQuery, QueryStep
from repro.errors import QueueFullError
from repro.serving import DaemonClient, QueryDaemon, ServingLimits, canonical_result

from conftest import FULL

try:  # the serving workload reuses the tier-1 suite's detector operator
    from tests.conftest import SpotUDF
except ImportError:  # pragma: no cover - benchmarks run from the repo root
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tests.conftest import SpotUDF

SHAPE = (192, 224) if FULL else (96, 112)
N_QUERIES = 144 if FULL else 72
CELLS_PER_QUERY = 48
THREADS = (1, 2, 4, 8)
SHARD_THRESHOLD = 4096
N_CLIENTS = 8
OVERLOAD_CLIENTS = 32


def _spec() -> WorkflowSpec:
    spec = WorkflowSpec(name="bench-serving")
    spec.add_source("img")
    spec.add_node("s1", SpotUDF(thresh=0.55, radius=1), ["img"])
    spec.add_node("s2", SpotUDF(thresh=0.5, radius=2), ["s1"])
    spec.add_node("s3", SpotUDF(thresh=0.5, radius=1), ["s2"])
    return spec


def _queries(rng) -> list[LineageQuery]:
    paths = [
        (Direction.BACKWARD, ["s1"]),
        (Direction.BACKWARD, ["s2", "s1"]),
        (Direction.FORWARD, ["s1", "s2"]),
        (Direction.BACKWARD, ["s3", "s2"]),
        (Direction.FORWARD, ["s2"]),
        (Direction.FORWARD, ["s3"]),
    ]
    queries = []
    for i in range(N_QUERIES):
        direction, path = paths[i % len(paths)]
        cells = rng.integers(0, min(SHAPE), size=(CELLS_PER_QUERY, 2))
        queries.append(
            LineageQuery(
                cells=cells,
                path=tuple(QueryStep(n, 0) for n in path),
                direction=direction,
            )
        )
    return queries


@pytest.fixture(scope="module")
def serving_workload(tmp_path_factory):
    rng = np.random.default_rng(11)
    image = SciArray.from_numpy(rng.random(SHAPE))
    versions = VersionStore()
    sz = SubZero(_spec(), enable_query_opt=False)
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    sz.set_strategy("s3", PAY_ONE_B)
    sz.run({"img": image}, version_store=versions)
    directory = str(tmp_path_factory.mktemp("serving"))
    sz.flush_lineage(directory)
    queries = _queries(np.random.default_rng(5))
    baseline = [sorted(map(tuple, r.coords.tolist())) for r in sz.serve(queries, 1)]
    return {
        "versions": versions,
        "wal": sz.wal,
        "dir": directory,
        "queries": queries,
        "baseline": baseline,
    }


def _engine(workload, budget=None) -> SubZero:
    sz = SubZero(_spec(), enable_query_opt=False, memory_budget_bytes=budget)
    sz.resume(workload["versions"], wal=workload["wal"], lineage_dir=workload["dir"])
    return sz


def _tiny_budget(directory: str) -> int:
    catalog = StoreCatalog.open(directory)
    return max(e.nbytes for e in catalog.entries()) + 1


def _throughput(sz: SubZero, queries, workers: int, baseline) -> float:
    start = time.perf_counter()
    results = sz.serve(queries, max_workers=workers)
    elapsed = time.perf_counter() - start
    for got, want in zip(results, baseline):
        assert sorted(map(tuple, got.coords.tolist())) == want
    return len(queries) / elapsed


@pytest.mark.benchmark(group="serving")
def test_thread_scaling_hot_vs_evicting(benchmark, serving_workload):
    """Acceptance: 8 hot-cache reader threads target >= 3x single-thread
    throughput (enforced where the hardware can express it), the evicting
    configuration keeps answering correctly under constant churn, and the
    memory budget caps resident bytes once the pool drains."""
    queries = serving_workload["queries"]
    baseline = serving_workload["baseline"]
    budget = _tiny_budget(serving_workload["dir"])

    table = ResultTable(
        title=(
            f"thread scaling, {len(queries)} mixed queries x "
            f"{CELLS_PER_QUERY} cells ({os.cpu_count()} cpus)"
        ),
        columns=["cache", "threads", "queries/s", "speedup", "evictions"],
    )
    speedups = {}
    metrics = {}
    for label, engine_budget in (("hot", None), ("evicting", budget)):
        base_qps = None
        with _engine(serving_workload, budget=engine_budget) as sz:
            sz.serve(queries[: len(queries) // 4], max_workers=2)  # warm the cache
            for workers in THREADS:
                qps = _throughput(sz, queries, workers, baseline)
                if base_qps is None:
                    base_qps = qps
                speedups[(label, workers)] = qps / base_qps
                metrics[f"{label}_qps_{workers}"] = round(qps, 2)
                table.add_row(
                    label,
                    workers,
                    round(qps, 1),
                    round(qps / base_qps, 2),
                    sz.runtime.serving_stats()["evictions"],
                )
            stats = sz.runtime.serving_stats()
            metrics[f"{label}_evictions"] = stats["evictions"]
            if engine_budget is not None:
                metrics["budget_respected"] = int(
                    stats["resident_bytes"] <= engine_budget
                )
    # publish BEFORE asserting: a regression must land in the JSON so the
    # baseline check trips on it even when this (continue-on-error) bench
    # step is allowed to go red
    write_bench_json("serving", metrics)
    assert metrics["evicting_evictions"] > 0
    assert metrics["budget_respected"] == 1
    assert metrics["hot_evictions"] == 0

    def run():
        table.print()

    benchmark.pedantic(run, rounds=1, iterations=1)
    cpus = os.cpu_count() or 1
    if cpus >= 8:
        assert speedups[("hot", 8)] >= 3.0, speedups
    elif cpus >= 4:
        assert speedups[("hot", 4)] >= 1.5, speedups
    # single-core containers: scaling is unobservable; the table still
    # documents it and correctness was asserted above for every row


@pytest.mark.benchmark(group="serving")
def test_shard_vs_monolith_cold_open(benchmark, serving_workload, tmp_path_factory):
    """A fresh process's first query against one store: the sharded layout
    maps only the shards that query touches, the monolith maps everything
    at once — with identical answers either way."""
    mono_dir = serving_workload["dir"]
    shard_dir = str(tmp_path_factory.mktemp("sharded"))
    with _engine(serving_workload) as sz:
        sz.runtime.flush_all(shard_dir, shard_threshold_bytes=SHARD_THRESHOLD)

    catalog = StoreCatalog.open(shard_dir)
    entry = next((e for e in catalog.entries() if e.shards), None)
    assert entry is not None, "no store crossed the shard threshold"
    rng = np.random.default_rng(23)
    matched_q = np.unique(
        rng.integers(0, int(np.prod(entry.out_shape)), size=CELLS_PER_QUERY)
    )
    scan_q = np.unique(
        rng.integers(0, int(np.prod(entry.in_shapes[0])), size=CELLS_PER_QUERY)
    )

    def cold_first_queries(directory):
        best = {"open": np.inf, "matched": np.inf, "scan": np.inf}
        answers = at_open = after_scan = None
        for _ in range(3):
            cat = StoreCatalog.open(directory)
            start = time.perf_counter()
            store = cat.open_store(entry.node, entry.strategy)
            best["open"] = min(best["open"], time.perf_counter() - start)
            seg = store._segment
            sharded = hasattr(seg, "open_shard_count")
            at_open = (
                f"{seg.open_shard_count()}/{len(seg.shard_files)}" if sharded else "1/1"
            )
            start = time.perf_counter()
            matched, per_input = store.backward_full(matched_q, only_input=0)
            best["matched"] = min(best["matched"], time.perf_counter() - start)
            start = time.perf_counter()
            scan = store.scan_forward_full(scan_q, 0)
            best["scan"] = min(best["scan"], time.perf_counter() - start)
            answers = (
                matched.tolist(),
                sorted(per_input[0].tolist()),
                sorted(scan.tolist()),
            )
            after_scan = (
                f"{seg.open_shard_count()}/{len(seg.shard_files)}" if sharded else "1/1"
            )
            cat.close()
        return best, answers, at_open, after_scan

    mono, mono_answers, mono_open, mono_after = cold_first_queries(mono_dir)
    shard, shard_answers, shard_open, shard_after = cold_first_queries(shard_dir)
    assert mono_answers == shard_answers  # shard round-trip preserves answers

    def run():
        out = ResultTable(
            title=(
                f"cold open + first queries, store {entry.node!r} "
                f"({entry.nbytes} bytes, threshold {SHARD_THRESHOLD})"
            ),
            columns=[
                "layout", "mapped at open", "after scan", "open ms",
                "first matched ms", "first scan ms",
            ],
        )
        out.add_row(
            "monolithic segment", mono_open, mono_after,
            round(mono["open"] * 1e3, 3),
            round(mono["matched"] * 1e3, 3), round(mono["scan"] * 1e3, 3),
        )
        out.add_row(
            f"sharded ({len(entry.shards)} shards)", shard_open, shard_after,
            round(shard["open"] * 1e3, 3), round(shard["matched"] * 1e3, 3),
            round(shard["scan"] * 1e3, 3),
        )
        out.print()

    benchmark.pedantic(run, rounds=1, iterations=1)


class _SlowEngine:
    """Engine wrapper pinning each query's service time, so the one-slot
    overload phase behaves the same on fast and slow machines."""

    def __init__(self, engine: SubZero, delay: float):
        self._engine = engine
        self._delay = delay

    def query(self, request: QueryRequest):
        time.sleep(self._delay)
        return self._engine.query(request)


@pytest.mark.benchmark(group="serving")
def test_daemon_qps_latency_and_backpressure(benchmark, serving_workload):
    """Client-driven daemon bench: 8 client threads push the full mixed
    workload over HTTP (QPS + p50/p99 latency, every answer checked against
    the in-process baseline), then 32 one-shot clients flood a one-slot
    gate and the daemon must shed the excess with 429 — never buffer it."""
    requests = [QueryRequest.from_query(q) for q in serving_workload["queries"]]
    baseline = serving_workload["baseline"]

    latencies: list[float] = []
    mismatches: list[int] = []
    errors: list[tuple[int, str]] = []
    side_lock = threading.Lock()  # szlint: ignore[SZ005] -- bench-local result collection, not engine state

    with _engine(serving_workload) as sz, QueryDaemon(sz) as daemon:
        host, port = daemon.address
        DaemonClient(host, port).wait_ready()

        def client(worker: int) -> None:
            me = DaemonClient(host, port, client_id=f"bench-{worker}")
            local: list[float] = []
            for i in range(worker, len(requests), N_CLIENTS):
                start = time.perf_counter()
                try:
                    canon = me.query_canonical(requests[i])
                except Exception as exc:  # noqa: BLE001 - tallied, then asserted zero
                    with side_lock:
                        errors.append((i, repr(exc)))
                    continue
                local.append(time.perf_counter() - start)
                if sorted(map(tuple, canon["coords"])) != baseline[i]:
                    with side_lock:
                        mismatches.append(i)
            with side_lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(N_CLIENTS)
        ]
        wall = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall

    qps = len(latencies) / wall if latencies else 0.0
    p50 = float(np.percentile(latencies, 50)) * 1e3 if latencies else 0.0
    p99 = float(np.percentile(latencies, 99)) * 1e3 if latencies else 0.0

    # overload phase: one execution slot, two queue seats, a 20 ms service
    # time — 32 simultaneous one-shot clients cannot all fit, and the
    # backpressure contract says the excess is refused loudly (429), not
    # absorbed into an unbounded buffer
    limits = ServingLimits(
        max_inflight=1,
        max_queue=2,
        max_per_client=OVERLOAD_CLIENTS,
        queue_timeout_seconds=0.05,
    )
    outcomes: list[str] = []
    with _engine(serving_workload) as sz2:
        with QueryDaemon(_SlowEngine(sz2, delay=0.02), limits=limits) as daemon:
            host, port = daemon.address
            DaemonClient(host, port).wait_ready()

            def one_shot(worker: int) -> None:
                me = DaemonClient(host, port, client_id=f"flood-{worker}")
                try:
                    me.query(requests[worker % len(requests)])
                    verdict = "ok"
                except QueueFullError:
                    verdict = "shed"
                except Exception as exc:  # noqa: BLE001 - surfaced via overload_bounded
                    verdict = f"error:{exc!r}"
                with side_lock:
                    outcomes.append(verdict)

            flood = [
                threading.Thread(target=one_shot, args=(w,))
                for w in range(OVERLOAD_CLIENTS)
            ]
            for t in flood:
                t.start()
            for t in flood:
                t.join()
            rejected = daemon.gate.stats()["rejected"]

    # keep-alive phase: the same client thread re-issuing calls over one
    # pooled connection vs opening a fresh TCP connection per call.  The
    # gated comparison uses /v1/health round-trips, where the transport IS
    # the cost, so the handshake saving shows as a stable speedup; the
    # query-path ms/query numbers (execution-dominated) ride along as
    # informational context.
    HEALTH_PROBES = 200
    pooled_s = fresh_s = 0.0
    pooled_q = fresh_q = 0.0
    with _engine(serving_workload) as sz3, QueryDaemon(sz3) as daemon:
        host, port = daemon.address
        DaemonClient(host, port).wait_ready()
        probe = requests[: max(1, len(requests) // 4)]
        for keep_alive in (True, False):
            me = DaemonClient(host, port, keep_alive=keep_alive)
            best = best_q = np.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(HEALTH_PROBES):
                    me.health()
                best = min(best, time.perf_counter() - start)
                start = time.perf_counter()
                for req in probe:
                    me.query(req)
                best_q = min(best_q, time.perf_counter() - start)
            me.close()
            if keep_alive:
                pooled_s, pooled_q = best, best_q
            else:
                fresh_s, fresh_q = best, best_q
    pooled_speedup = fresh_s / pooled_s if pooled_s else 0.0

    served = outcomes.count("ok")
    shed = outcomes.count("shed")
    metrics = {
        # wall-clock numbers are informational (machine-dependent, not
        # baselined); the structural indicators below are the gate
        "daemon_qps": round(qps, 2),
        "daemon_p50_ms": round(p50, 3),
        "daemon_p99_ms": round(p99, 3),
        "answers_match": int(not mismatches and not errors),
        "daemon_errors": len(errors) + len(mismatches),
        "queue_full_seen": int(shed > 0),
        "overload_served": int(served > 0),
        "overload_bounded": int(served + shed == OVERLOAD_CLIENTS),
        # keep-alive pooling: wall-clock numbers are informational; the
        # structural gate is that a pooled round-trip beats a fresh
        # connection on the transport-bound path
        "pooled_ms_per_rtt": round(pooled_s / HEALTH_PROBES * 1e3, 3),
        "fresh_ms_per_rtt": round(fresh_s / HEALTH_PROBES * 1e3, 3),
        "pooled_ms_per_query": round(pooled_q / len(probe) * 1e3, 3),
        "fresh_ms_per_query": round(fresh_q / len(probe) * 1e3, 3),
        "pooled_not_slower": int(pooled_speedup >= 1.0),
    }
    # publish BEFORE asserting, same as the thread-scaling bench above
    write_bench_json("daemon", metrics)
    assert metrics["answers_match"] == 1, (errors[:5], mismatches[:5])
    assert metrics["daemon_errors"] == 0
    oddballs = [v for v in outcomes if v not in ("ok", "shed")]
    assert metrics["queue_full_seen"] == 1, outcomes
    assert metrics["overload_served"] == 1, outcomes
    assert metrics["overload_bounded"] == 1, oddballs
    assert rejected == shed  # every client-visible 429 is an explicit gate rejection

    def run():
        table = ResultTable(
            title=(
                f"daemon over HTTP, {len(requests)} queries x "
                f"{N_CLIENTS} clients ({os.cpu_count()} cpus)"
            ),
            columns=["phase", "clients", "queries/s", "p50 ms", "p99 ms", "shed"],
        )
        table.add_row("steady", N_CLIENTS, round(qps, 1), round(p50, 2), round(p99, 2), 0)
        table.add_row("overload", OVERLOAD_CLIENTS, "-", "-", "-", shed)
        table.add_note(
            f"keep-alive: pooled {metrics['pooled_ms_per_rtt']} ms/rtt "
            f"vs fresh {metrics['fresh_ms_per_rtt']} ms/rtt "
            f"({pooled_speedup:.2f}x); queries "
            f"{metrics['pooled_ms_per_query']} vs "
            f"{metrics['fresh_ms_per_query']} ms"
        )
        table.print()

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.benchmark(group="serving")
def test_shard_equivalence_spot_check(benchmark):
    """Belt-and-braces: one synthetic store, monolith vs 1-section-per-shard
    flush, identical matched + mismatched answers (the exhaustive version is
    the Hypothesis property in tests/test_serving.py)."""
    from repro.ops.base import LineageContext

    shape = (64, 64)
    rng = np.random.default_rng(3)
    store = make_store("n", FULL_MANY_B, shape, (shape,))
    ctx = LineageContext(frozenset())
    cells = rng.integers(0, 64, size=(4096, 2))
    ctx.lwrite_elementwise(cells, cells[::-1].copy())
    store.ingest(ctx.sink)

    def run():
        import tempfile

        with tempfile.TemporaryDirectory() as base:
            mono_path = os.path.join(base, "m.seg")
            shard_path = os.path.join(base, "s.seg")
            store.flush_segment(mono_path)
            store.flush_segment(shard_path, shard_threshold_bytes=1)
            q = np.sort(rng.integers(0, 64 * 64, size=128).astype(np.int64))
            mono = make_store("n", FULL_MANY_B, shape, (shape,))
            mono.load_segment(mono_path)
            sharded = make_store("n", FULL_MANY_B, shape, (shape,))
            sharded.load_segment(shard_path)
            m_matched, m_per = mono.backward_full(q)
            s_matched, s_per = sharded.backward_full(q)
            assert m_matched.tolist() == s_matched.tolist()
            assert [sorted(p.tolist()) for p in m_per] == [
                sorted(p.tolist()) for p in s_per
            ]
            assert sorted(mono.scan_forward_full(q, 0).tolist()) == sorted(
                sharded.scan_forward_full(q, 0).tolist()
            )
            mono.close()
            sharded.close()

    benchmark.pedantic(run, rounds=1, iterations=1)
