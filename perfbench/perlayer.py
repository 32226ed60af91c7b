"""Per-layer metrics of a traced run, derived from span summaries and the
program's own public counters.

Query-path metrics are per query answered in the traced phase.
Write-path metrics are per captured run (or per call, where named so).
Layer self times are per operation of the workload: a query, or an
ingest cycle.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import common as C
from tracing import LAYERS, merge_summaries

#: every per-layer metric and its unit, in report order
PER_LAYER = (
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_share", "ratio"),
    ("client.roundtrip_p50_ms", "ms"),
    ("daemon.admit_wait_s", "s/query"),
    ("daemon.execute_s", "s/query"),
    ("daemon.rejected", "count"),
    ("protocol.decode_s", "s/query"),
    ("protocol.encode_s", "s/query"),
    ("query.execute_s", "s/query"),
    ("query.self_s", "s/query"),
    ("query.steps_stored", "1/query"),
    ("query.steps_map", "1/query"),
    ("query.steps_blackbox", "1/query"),
    ("query.steps_shortcut", "1/query"),
    ("query.budget_switches", "1/query"),
    ("costmodel.calls", "1/query"),
    ("costmodel.s", "s/query"),
    ("ops.map_calls", "1/query"),
    ("ops.map_s", "s/query"),
    ("reexec.calls", "1/query"),
    ("reexec.s", "s/query"),
    ("store.probe_calls", "1/query"),
    ("store.probe_s", "s/query"),
    ("store.lowerings", "1/query"),
    ("store.ingest_s", "s/run"),
    ("workflow.bare_run_s", "s"),
    ("capture.submit_wait_s", "s/run"),
    ("capture.encode_s", "s/run"),
    ("capture.overhead_x", "x"),
    ("segment.write_bytes", "B/run"),
    ("segment.write_s", "s/run"),
    ("segment.open_calls", "1/query"),
    ("segment.open_s", "s/query"),
    ("catalog.borrow_calls", "1/query"),
    ("catalog.borrow_s", "s/query"),
    ("catalog.hit_ratio", "ratio"),
    ("catalog.evictions", "1/query"),
    ("catalog.resident_bytes_max", "B"),
    ("catalog.append_s", "s/call"),
    ("catalog.compact_s", "s/call"),
    ("catalog.compact_bytes_written", "B/call"),
    ("filters.probes", "1/query"),
    ("filters.generations_skipped", "1/query"),
    ("filters.skip_ratio", "ratio"),
    ("filters.bloom_fp", "1/query"),
    ("partition.scatter_queries", "1/query"),
    ("partition.fanout_mean", "count"),
    ("partition.broadcast_probes", "1/query"),
    *((f"selftime.{layer}_s", "s/op") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
    ("trace.root_coverage", "ratio"),
)

#: the traced run's root spans must cover the benchmark's own timing of
#: the same calls to within this share (the rest is wrapper overhead)
ROOT_COVERAGE_TOLERANCE = 0.05


#: root spans on worker threads, which overlap the foreground roots
BACKGROUND_ROOTS = ("capture.encode",)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean_seconds(measure) -> float:
    """Mean operation time of a QueryLog or a list of cycle durations."""
    values = measure.all() if hasattr(measure, "all") else list(measure)
    return _div(sum(values), len(values))


def layer_metrics(
    setup: dict | None,
    timed: dict,
    *,
    queries: int,
    untraced,
    traced,
    measured_s: float,
    stats: dict,
    child: dict | None = None,
    ops: int | None = None,
    capture_runs=(),
    bare_runs=(),
    encode_s=(),
    loadgen: dict | None = None,
) -> dict:
    """Every metric of :data:`PER_LAYER` as ``name -> (value, unit)``.

    ``setup`` and ``timed`` are tracer summaries of the set-up and the
    traced half; ``child`` the daemon process's summary of the traced
    half.  ``stats`` holds deltas of the program's serving counters over
    the traced phase; ``measured_s`` is the benchmark's own timing of the
    calls that the root spans wrap."""
    q = merge_summaries(timed, child)
    w = merge_summaries(setup, timed)
    calls, secs = q["calls"], q["seconds"]
    n_runs = w["calls"].get("engine.run", 0) - len(bare_runs)
    ops = ops or queries
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    probes = stats.get("filter_probes", 0)
    client = q["root_durations"].get("client.query", [])
    loadgen = loadgen or {"late_p99_ms": 0.0, "late_share": 0.0}
    values = {
        "loadgen.late_p99_ms": loadgen["late_p99_ms"],
        "loadgen.late_share": loadgen["late_share"],
        "client.roundtrip_p50_ms": C.percentile(client, 50) * 1e3 if client else 0.0,
        "daemon.admit_wait_s": _div(secs.get("daemon.admit", 0.0), queries),
        "daemon.execute_s": _div(secs.get("daemon.execute", 0.0), queries),
        "daemon.rejected": float(stats.get("rejected", 0)),
        "protocol.decode_s": _div(secs.get("protocol.decode", 0.0), queries),
        "protocol.encode_s": _div(secs.get("protocol.encode", 0.0), queries),
        "query.execute_s": _div(secs.get("query.execute", 0.0), queries),
        "query.self_s": _div(q["self_s"].get("query", 0.0), queries),
        "costmodel.calls": _div(calls.get("costmodel.query_seconds", 0), queries),
        "costmodel.s": _div(secs.get("costmodel.query_seconds", 0.0), queries),
        "ops.map_calls": _div(calls.get("ops.map", 0), queries),
        "ops.map_s": _div(secs.get("ops.map", 0.0), queries),
        "reexec.calls": _div(calls.get("reexec.trace", 0), queries),
        "reexec.s": _div(secs.get("reexec.trace", 0.0), queries),
        "store.probe_calls": _div(calls.get("store.probe", 0), queries),
        "store.probe_s": _div(secs.get("store.probe", 0.0), queries),
        "store.lowerings": _div(q["counters"].get("lowerings", 0), queries),
        "store.ingest_s": _div(w["seconds"].get("store.ingest", 0.0), n_runs),
        "workflow.bare_run_s": C.median(bare_runs) if bare_runs else 0.0,
        "capture.submit_wait_s": _div(w["seconds"].get("capture.submit", 0.0), n_runs),
        "capture.encode_s": C.median(encode_s) if encode_s else 0.0,
        "capture.overhead_x": (
            _div(C.median(capture_runs), C.median(bare_runs)) if bare_runs and capture_runs else 0.0
        ),
        "segment.write_bytes": _div(w["counters"].get("write_bytes", 0), n_runs),
        "segment.write_s": _div(w["seconds"].get("segment.write", 0.0), n_runs),
        "segment.open_calls": _div(calls.get("segment.open", 0), queries),
        "segment.open_s": _div(secs.get("segment.open", 0.0), queries),
        "catalog.borrow_calls": _div(calls.get("catalog.borrow", 0), queries),
        "catalog.borrow_s": _div(secs.get("catalog.borrow", 0.0), queries),
        "catalog.hit_ratio": _div(hits, hits + misses),
        "catalog.evictions": _div(stats.get("evictions", 0), queries),
        "catalog.resident_bytes_max": q["maxima"].get("resident_bytes", 0.0),
        "catalog.append_s": _div(w["seconds"].get("catalog.append", 0.0), w["calls"].get("catalog.append", 0)),
        "catalog.compact_s": _div(w["seconds"].get("catalog.compact", 0.0), w["calls"].get("catalog.compact", 0)),
        "catalog.compact_bytes_written": _div(
            w["counters"].get("compact_bytes_written", 0), w["calls"].get("catalog.compact", 0)),
        "filters.probes": _div(probes, queries),
        "filters.generations_skipped": _div(stats.get("generations_skipped", 0), queries),
        "filters.skip_ratio": _div(stats.get("generations_skipped", 0), probes),
        "filters.bloom_fp": _div(stats.get("bloom_fp", 0), queries),
        "partition.scatter_queries": _div(stats.get("scatter_queries", 0), queries),
        "partition.fanout_mean": _div(
            stats.get("scatter_partitions_matched", 0), stats.get("scatter_queries", 0)),
        "partition.broadcast_probes": _div(stats.get("broadcast_probes", 0), queries),
        "trace.overhead_pct": (_div(_mean_seconds(traced), _mean_seconds(untraced)) - 1.0) * 100.0,
        "trace.root_coverage": _div(
            sum(sum(d) for f, d in timed["root_durations"].items() if f not in BACKGROUND_ROOTS),
            measured_s),
    }
    for name in ("steps_stored", "steps_map", "steps_blackbox", "steps_shortcut", "budget_switches"):
        values[f"query.{name}"] = _div(q["counters"].get(name, 0), queries)
    self_s = merge_summaries(timed, child)["self_s"]
    for layer in LAYERS:
        values[f"selftime.{layer}_s"] = _div(self_s.get(layer, 0.0), ops)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}


def coverage_ok(metrics: dict) -> bool:
    coverage = metrics["trace.root_coverage"][0]
    return 1.0 - ROOT_COVERAGE_TOLERANCE <= coverage <= 1.0


__all__ = ["PER_LAYER", "ROOT_COVERAGE_TOLERANCE", "coverage_ok", "layer_metrics"]
