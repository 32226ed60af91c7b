"""Traced mode: spans around the public functions of each layer.

Nothing in the program is edited.  :class:`Tracer` replaces chosen class
attributes and module functions with thin wrappers, records one span per
call (name, layer, start, end, parent, request id) in memory, and puts
everything back on :meth:`Tracer.uninstall`.

Only calls made under a *root* span are recorded: the roots are the
benchmark's own entry points into the program (the ``SubZero`` facade
in-process, ``DaemonClient.query`` in the load generator, the HTTP
handler in the daemon process).  So a ``to_dict`` the benchmark calls to
check an answer never shows up as protocol work.

A layer's self time is the sum of its spans' durations minus the time
their child spans cover.  Children run on their parent's thread, one
after another, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import repro.bench.astronomy  # noqa: F401  (registers the UDF operator classes)
import repro.ops  # noqa: F401  (registers the built-in operator classes)
from repro.core import capture, catalog, costmodel, lineage_store, overlay, query, reexec, subzero
from repro.ops.base import Operator
from repro.serving import client, daemon, protocol
from repro.storage import codecs, partition, segment

#: every layer that owns spans, in report order
LAYERS = (
    "engine", "workflow", "capture", "query", "costmodel", "ops", "reexec",
    "store", "overlay", "segment", "catalog", "partition", "client",
    "protocol", "daemon",
)

_PROBES = (
    "backward_full", "forward_full", "scan_forward_full", "scan_backward_full",
    "backward_payload", "backward_payload_rows", "payload_entries",
)
_MAPS = ("map_b_many", "map_f_many", "map_p_many", "map_p_batch")

# span record layout (a list, so the end time can be filled in place);
# _NAME is the wrapped function, _FAMILY the metric it counts towards
_NAME, _LAYER, _T0, _T1, _PARENT, _RID, _CHILD, _FAMILY = range(8)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._rids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: spans of earlier :meth:`take` batches, kept for :meth:`dump`
        self.archive: list[list] = []
        #: wrappers record nothing while False
        self.enabled = True

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def take(self) -> dict:
        """Summarise the spans and counters recorded since the last take,
        then start a fresh batch."""
        summary = self.summary()
        self.archive.extend(self.spans)
        self.spans = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        return summary

    # -- installing ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, owner, attr: str, layer: str, family: str | None = None,
        root: bool = False, on_result=None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method, classmethod or
        staticmethod defined directly on ``owner``) with a span wrapper.
        Spans are summed per ``family`` (default: the function's name)."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        family = family or label
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and not root:
                return fn(*args, **kwargs)
            if parent is not None and parent[_LAYER] == layer and parent[_PARENT] is not None:
                return fn(*args, **kwargs)  # a layer calling itself: one span, the outer
            rid = parent[_RID] if parent is not None else next(tracer._rids)
            span = [label, layer, time.perf_counter(), 0.0, parent, rid, 0.0, family]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_T1] = end = time.perf_counter()
                if parent is not None:
                    parent[_CHILD] += end - span[_T0]
                tracer.spans.append(span)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` made under a root, without a span."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            if tracer.enabled and tracer._stack():
                tracer.counters[counter] += 1
            return raw(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- counters --------------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- what to wrap -------------------------------------------------------------

    def install_engine(self) -> None:
        """Roots and layers of an in-process engine."""
        sz = subzero.SubZero
        self.wrap(sz, "run", "engine", "engine.run", root=True)
        self.wrap(sz, "flush_lineage", "engine", "engine.flush", root=True)
        self.wrap(sz, "resume", "engine", "engine.resume", root=True)
        self.wrap(sz, "compact_lineage", "engine", "engine.compact", root=True)
        self.wrap(sz, "query", "engine", "engine.query", root=True, on_result=self._on_query)
        self.wrap(subzero, "execute_workflow", "workflow", "workflow.execute")
        self.wrap(capture.CapturePipeline, "submit", "capture", "capture.submit")
        self._trace_encode_jobs()
        self.wrap(query.QueryExecutor, "execute_request", "query", "query.execute")
        self.wrap(costmodel.CostModel, "query_seconds", "costmodel", "costmodel.query_seconds")
        self.wrap(reexec.ReExecutor, "trace_backward", "reexec", "reexec.trace")
        self.wrap(reexec.ReExecutor, "trace_forward", "reexec", "reexec.trace")
        for cls in (Operator, *_subclasses(Operator)):
            for attr in _MAPS:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "ops", "ops.map")
        for cls in (lineage_store.OpLineageStore, *_subclasses(lineage_store.OpLineageStore)):
            layer = "overlay" if cls is overlay.OverlayStore else "store"
            for attr in _PROBES:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, layer, f"{layer}.probe")
            if "ingest" in cls.__dict__:
                self.wrap(cls, "ingest", layer, f"{layer}.ingest")
        self.count_calls(codecs.BatchProbe, "__init__", "lowerings")
        self.wrap(segment.SegmentWriter, "write", "segment", "segment.write", on_result=self._on_write)
        self.wrap(segment.SegmentWriter, "write_sharded", "segment", "segment.write", on_result=self._on_write)
        self.wrap(segment.Segment, "open", "segment", "segment.open")
        self.wrap(segment.ShardedSegment, "open", "segment", "segment.open")
        self.wrap(catalog.StoreCatalog, "write", "catalog", "catalog.write")
        self.wrap(partition.PartitionedCatalog, "write", "partition", "partition.write")
        self.wrap(catalog.StoreCatalog, "borrow", "catalog", "catalog.borrow")
        self.wrap(catalog.StoreCatalog, "append_stores", "catalog", "catalog.append")
        self.wrap(catalog.StoreCatalog, "compact", "catalog", "catalog.compact", on_result=self._on_compact)
        self.wrap(partition.PartitionedCatalog, "borrow", "partition", "partition.borrow")
        self.wrap(partition.PartitionedCatalog, "append_stores", "partition", "partition.append")
        self.wrap(partition.PartitionedCatalog, "compact", "partition", "partition.compact")
        self.wrap(partition.ScatterGatherExecutor, "execute_request", "partition", "partition.scatter")

    def _trace_encode_jobs(self) -> None:
        """Deferred capture lowers lineage on a worker thread, outside any
        foreground span: make each submitted job a root span of its own
        (family ``capture.encode``), so the store ingest inside it shows."""
        submit = capture.CapturePipeline.__dict__["submit"]
        holder = type("EncodeJob", (), {"run": staticmethod(lambda fn: fn())})
        self.wrap(holder, "run", "capture", "capture.encode", root=True)
        run_job = holder.run

        @functools.wraps(submit)
        def traced_submit(pipeline, fn):
            return submit(pipeline, functools.partial(run_job, fn))

        capture.CapturePipeline.submit = traced_submit
        self._patches.append((capture.CapturePipeline, "submit", submit))

    def install_daemon(self) -> None:
        """The daemon process: the HTTP handler is the root."""
        self.install_engine()
        self.wrap(daemon._RequestHandler, "do_POST", "daemon", "daemon.request", root=True)
        self.wrap(daemon.AdmissionGate, "enter", "daemon", "daemon.admit")
        self.wrap(daemon.QueryDaemon, "execute", "daemon", "daemon.execute")
        self.wrap(protocol, "load_request", "protocol", "protocol.decode")
        self.wrap(query.QueryResult, "to_dict", "protocol", "protocol.encode")
        # the handler serialises responses through its module's json
        proxy = type("json", (), {"dumps": staticmethod(json.dumps), "loads": staticmethod(json.loads)})
        self.wrap(proxy, "dumps", "protocol", "protocol.encode")
        self._patches.append((daemon, "json", daemon.json))
        daemon.json = proxy

    def install_client(self) -> None:
        """The load generator: ``DaemonClient.query`` is the root."""
        self.wrap(client.DaemonClient, "query", "client", "client.query", root=True)

    # -- result hooks ---------------------------------------------------------------

    def _on_query(self, args, result) -> None:
        for step in result.steps:
            if step.shortcut:
                self.count("steps_shortcut")
            elif step.switched_to_blackbox:
                self.count("budget_switches")
                self.count("steps_blackbox")
            elif step.method == "Blackbox":
                self.count("steps_blackbox")
            elif step.method == "Map":
                self.count("steps_map")
            else:
                self.count("steps_stored")
        cat = args[0].runtime.catalog
        if cat is not None:
            self.peak("resident_bytes", cat.resident_bytes())

    def _on_write(self, args, result) -> None:
        self.count("write_bytes", result[0] if isinstance(result, tuple) else result)

    def _on_compact(self, args, result) -> None:
        self.count("compact_bytes_written", result.bytes_written)

    # -- summaries ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-label totals and per-layer self times (sums; the caller
        normalises by its own operation counts)."""
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        root_durations: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            dur = span[_T1] - span[_T0]
            calls[span[_FAMILY]] += 1
            seconds[span[_FAMILY]] += dur
            self_s[span[_LAYER]] += dur - span[_CHILD]
            if span[_PARENT] is None:
                root_durations[span[_FAMILY]].append(dur)
        return {
            "root_durations": dict(root_durations),
            "calls": dict(calls),
            "seconds": dict(seconds),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def dump(self, path: str) -> int:
        """Write every span recorded so far as one JSON line each; returns
        the span count."""
        spans = self.archive + self.spans
        ids = {id(span): i for i, span in enumerate(spans)}
        with open(path, "w") as out:
            for i, s in enumerate(spans):
                parent = ids.get(id(s[_PARENT])) if s[_PARENT] is not None else None
                out.write(json.dumps({
                    "id": i, "name": s[_NAME], "layer": s[_LAYER],
                    "start": s[_T0], "end": s[_T1], "parent": parent, "rid": s[_RID],
                }) + "\n")
        return len(spans)


def merge_summaries(*summaries: dict) -> dict:
    """Combine :meth:`Tracer.summary` dicts: sums, except maxima."""
    out = {"calls": {}, "seconds": {}, "self_s": {}, "counters": {}, "maxima": {},
           "root_durations": {}}
    for summary in summaries:
        if not summary:
            continue
        for key in ("calls", "seconds", "self_s", "counters"):
            for name, value in summary[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in summary["maxima"].items():
            out["maxima"][name] = max(value, out["maxima"].get(name, 0.0))
        for name, values in summary["root_durations"].items():
            out["root_durations"].setdefault(name, []).extend(values)
    return out


__all__ = ["LAYERS", "Tracer", "merge_summaries"]
