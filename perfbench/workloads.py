"""The three workloads.  Each returns an :class:`Outcome`: end-to-end
metrics (untraced run) or per-layer metrics (traced run), the tally of
operations attempted and failed, and run metadata."""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import common as C
from perlayer import layer_metrics
from tracing import merge_summaries
from repro.arrays.versions import VersionStore
from repro.errors import SubZeroError
from repro.serving.client import DaemonClient

HERE = os.path.dirname(os.path.abspath(__file__))
#: most warm-up passes before the step-method mix must be steady
MAX_WARMUP_PASSES = 6
#: appended generations per ingest cycle, and in the daemon's catalog
APPENDS = 2
#: open-loop offered rate of daemon_evict, requests per second; at 40,
#: queueing behind the slow shapes turned machine-speed noise into
#: latency spreads wider than the bounds
RATE = 30.0
#: captured runs per query_warm set-up (the catalog keeps the last): one
#: run's time swings with the encode worker's scheduling
CAPTURE_RUNS = 3


#: set-ups per run (one input set each); setup_s is their median
SETUPS = 3


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool = False
    #: the self-test's preset: toy inputs, one set-up, two warm-up passes
    toy: bool = False

    @property
    def query_scale(self) -> C.Scale:
        return C.TOY_SCALE if self.toy else C.QUERY_SCALE

    @property
    def ingest_scale(self) -> C.Scale:
        return C.TOY_SCALE if self.toy else C.INGEST_SCALE

    @property
    def setups(self) -> int:
        return 1 if self.toy else SETUPS

    @property
    def max_warmup_passes(self) -> int:
        return 2 if self.toy else MAX_WARMUP_PASSES


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    tally: C.Tally = field(default_factory=C.Tally)
    meta: dict = field(default_factory=dict)


class QueryLog:
    """Latencies per query class, plus the step-method mix."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.by_shape: dict[str, list[float]] = defaultdict(list)
        self.mix: dict[str, Counter] = defaultdict(Counter)

    def add(self, q: C.Query, seconds: float, steps) -> None:
        self.latencies[q.klass].append(seconds)
        self.by_shape[f"{q.klass}.{q.shape_name}"].append(seconds)
        self.mix[q.klass][C.method_signature(steps)] += 1

    def shape_p50_ms(self) -> dict:
        """Median latency of each query shape (where the class p50s fall)."""
        return {k: round(C.percentile(v, 50) * 1e3, 4) for k, v in sorted(self.by_shape.items())}

    def all(self) -> list[float]:
        return [s for values in self.latencies.values() for s in values]

    def count(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def metrics(self, busy_seconds: float | None = None) -> dict:
        """queries_per_s (over ``busy_seconds``, else over the logged
        latencies), query p50 and the per-class p50s, in ms."""
        every = self.all()
        out = {
            "queries_per_s": (len(every) / (busy_seconds or sum(every)), "1/s"),
            "query_p50_ms": (C.percentile(every, 50) * 1e3, "ms"),
        }
        for klass in C.CLASSES:
            out[f"{klass}_p50_ms"] = (C.percentile(self.latencies[klass], 50) * 1e3, "ms")
        return out

    def samples(self) -> dict:
        counts = {k: len(self.latencies[k]) for k in C.CLASSES}
        counts["all"] = self.count()
        return counts

    def tail(self) -> dict:
        """p99 with the number of samples beyond it (metadata: with a few
        hundred samples it is too coarse to bound)."""
        every = self.all()
        return {
            "query_p99_ms": C.percentile(every, 99) * 1e3,
            "samples_beyond_p99": int(len(every) * 0.01),
        }

    def mix_report(self) -> dict:
        return {k: dict(self.mix[k].most_common()) for k in C.CLASSES if k in self.mix}

    @classmethod
    def merged(cls, logs) -> "QueryLog":
        out = cls()
        for log in logs:
            for klass, values in log.latencies.items():
                out.latencies[klass].extend(values)
            for shape, values in log.by_shape.items():
                out.by_shape[shape].extend(values)
            for klass, mix in log.mix.items():
                out.mix[klass].update(mix)
        return out


def _check(tally: C.Tally, got: dict, want: dict, what: str) -> None:
    if got == want:
        tally.ok()
    else:
        tally.fail(f"wrong answer: {what}")


def _timed_query(tally, log, engine, q, want) -> float:
    """Answer ``q`` on ``engine``, log its latency, check the answer;
    returns the seconds spent inside ``SubZero.query``."""
    start = time.perf_counter()
    try:
        result = engine.query(q.request)
    except SubZeroError as exc:
        tally.fail(f"{q.shape_name}: {exc!r}")
        return time.perf_counter() - start
    seconds = time.perf_counter() - start
    log.add(q, seconds, result.steps)
    _check(tally, C.answer_of(result.to_dict()), want, q.shape_name)
    return seconds


#: warm-up ends when no query class's step-method mix moved by more than
#: this total-variation distance between two consecutive passes
MIX_STEADY = 0.1



def _mix_distance(a: dict, b: dict) -> float:
    """Largest per-class total-variation distance between two mixes."""
    worst = 0.0
    for klass in set(a) | set(b):
        pa, pb = a.get(klass, {}), b.get(klass, {})
        na, nb = sum(pa.values()) or 1, sum(pb.values()) or 1
        tv = 0.5 * sum(abs(pa.get(s, 0) / na - pb.get(s, 0) / nb) for s in set(pa) | set(pb))
        worst = max(worst, tv)
    return worst


def warm_up(pool, seed: int, answer, max_passes: int = MAX_WARMUP_PASSES) -> int:
    """Passes over the pool until the per-class step-method mix is steady
    (see :data:`MIX_STEADY`); returns the number of passes.  ``answer``
    is ``(query, pool index, log)``-callable."""
    previous = None
    for n in range(1, max_passes + 1):
        log = QueryLog()
        for idx in C.schedule(pool, seed + 7919 * n, 1):
            answer(pool[idx], idx, log)
        mix = log.mix_report()
        if previous is not None and _mix_distance(mix, previous) <= MIX_STEADY:
            return n
        previous = mix
    return max_passes


def _halves(cfg: Config, share: int = 1) -> list[float]:
    """A ``1/share`` slice of the timed phase: all of it untraced, or an
    untraced half followed by a traced half (their difference is the
    tracing overhead)."""
    seconds = cfg.seconds / share
    if cfg.trace:
        return [seconds / 2, seconds / 2]
    return [seconds]


def _bare_runs(inputs, n: int) -> list[float]:
    """``SubZero.run`` with a mapping-only plan, ``n`` times."""
    seconds = []
    for _ in range(n):
        engine = C.make_engine(plan="bare")
        with C.Stopwatch() as sw:
            engine.run(inputs)
        engine.close()
        seconds.append(sw.seconds)
    return seconds


def _median_of_groups(groups: list[list[float]]) -> float:
    """Median over groups (one per input set or cycle) of each group's
    median: a plain median over two input sets' samples would land in the
    gap between them."""
    return C.median([C.median(g) for g in groups])


def _flat(groups: list[list[float]]) -> list[float]:
    return [x for g in groups for x in g]


def _write_path_metrics(capture_runs, flush_calls, live_ratio, written_ratio) -> dict:
    """The write-path metrics; the timings come grouped per input set."""
    return {
        "capture_run_s": (_median_of_groups(capture_runs), "s"),
        "flush_s": (_median_of_groups(flush_calls), "s"),
        "lineage_bytes_per_input_byte": (live_ratio, "B/B"),
        "bytes_written_per_input_byte": (written_ratio, "B/B"),
    }


def _stats_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


# -- query_warm ------------------------------------------------------------------


def query_warm(cfg: Config, tracer=None) -> Outcome:
    """One client, closed loop, in process, over a flushed monolithic
    one-generation catalog with no memory budget.  Each set-up builds
    its own engine over its own input set; each engine is warmed up and
    measured for an equal share of the run, and the metrics are medians
    over the engines."""
    out = Outcome()
    tally = out.tally
    scale = cfg.query_scale
    setups, capture_runs, flush_calls, first_answers, encode_s = [], [], [], [], []
    engines, passes, stats, live, written = [], [], [], [], []
    setup_trace = None
    bare = []
    for i in range(cfg.setups):
        pool = C.make_pool(scale, C.input_seed(cfg.seed, i))
        first_q = C.first_answer_query(scale, C.input_seed(cfg.seed, i))
        with C.Stopwatch() as total:
            inputs = C.make_inputs(scale, C.input_seed(cfg.seed, i))
            versions = VersionStore()
            ref = C.make_engine()
            capture_runs.append([])
            for _ in range(CAPTURE_RUNS):
                with C.Stopwatch() as sw:
                    ref.run(inputs, version_store=versions)
                capture_runs[-1].append(sw.seconds)
            directory = C.work_dir("warm-")
            with C.Stopwatch() as sw:
                flushed = ref.flush_lineage(directory)
            flush_calls.append([sw.seconds])
            seconds, served, first = C.first_answers(
                C.make_engine, versions, ref.wal, directory, first_q.request)
            first_answers.append(seconds)
        setups.append(total.seconds)
        encode_s.append(ref.stats.capture["encode_thread_seconds"])
        live.append(C.dir_bytes(directory) / C.input_nbytes(inputs))
        written.append(flushed / C.input_nbytes(inputs))
        if tracer is not None and i == 0:
            bare = _bare_runs(inputs, cfg.setups)
            setup_trace = tracer.take()
            tracer.disable()
        refs = C.reference_answers(ref, pool)
        first_ref = C.reference_answers(ref, [first_q])[0]
        ref.close()
        _check(tally, C.answer_of(first.to_dict()), first_ref, "first answer")
        passes.append(warm_up(
            pool, cfg.seed, lambda q, idx, log: _timed_query(tally, log, served, q, refs[idx]),
            cfg.max_warmup_passes))
        halves = []
        for half, seconds in enumerate(_halves(cfg, share=cfg.setups)):
            if half == 1:
                stats.append(served.runtime.serving_stats())
                tracer.enable()
            log = QueryLog()
            deadline = time.perf_counter() + seconds
            cycle = 0
            while time.perf_counter() < deadline:
                # whole cycles only, so the mix holds its exact proportions
                for idx in C.schedule(pool, cfg.seed * 1000 + i * 100 + half * 10 + cycle, 1):
                    _timed_query(tally, log, served, pool[idx], refs[idx])
                cycle += 1
            if half == 1:
                tracer.disable()
                stats.append(served.runtime.serving_stats())
            halves.append(log)
        engines.append(halves)
        served.close()
        C.remove_dir(directory)
    timed = [halves[-1] for halves in engines]
    out.meta.update(
        warmup_passes=passes,
        samples=QueryLog.merged(timed).samples(),
        step_method_mix=QueryLog.merged(timed).mix_report(),
        shape_p50_ms=QueryLog.merged(timed).shape_p50_ms(),
        engines=len(engines),
        input_bytes=C.input_nbytes(inputs),
        first_answer_ms=_median_of_groups(first_answers) * 1e3,
        **QueryLog.merged(timed).tail(),
    )
    if tracer is None:
        out.metrics.update(_median_metrics([log.metrics() for log in timed]))
        out.metrics.update(_write_path_metrics(
            capture_runs, flush_calls, C.median(live), C.median(written)))
        out.metrics["setup_s"] = (C.median(setups), "s")
        out.metrics["peak_rss_mb"] = (C.peak_rss_mb(), "MB")
    else:
        traced = QueryLog.merged(timed)
        delta = Counter()
        for before, after in zip(stats[::2], stats[1::2]):
            delta.update(_stats_delta(before, after))
        out.metrics.update(layer_metrics(
            setup_trace, tracer.take(), queries=traced.count(),
            untraced=QueryLog.merged(h[0] for h in engines), traced=traced,
            measured_s=sum(traced.all()), stats=dict(delta),
            capture_runs=_flat(capture_runs), bare_runs=bare, encode_s=encode_s,
        ))
    return out


def _median_metrics(per_engine: list[dict]) -> dict:
    """Each metric's median over engines (same units)."""
    return {
        name: (C.median([m[name][0] for m in per_engine]), unit)
        for name, (_, unit) in per_engine[0].items()
    }


# -- ingest_append ---------------------------------------------------------------


@dataclass
class IngestLog:
    """Everything one ingest half records."""

    #: one query log per (phase, input set index); phase is "overlay" or
    #: "compacted"
    queries: dict = field(default_factory=lambda: defaultdict(QueryLog))
    capture_runs: list = field(default_factory=list)
    flush_calls: list = field(default_factory=list)
    first_answers: list = field(default_factory=list)
    encode_s: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    warmup_passes: list = field(default_factory=list)
    #: the benchmark's own timing of every call a root span wraps
    measured_s: float = 0.0
    live_bytes: int = 0
    written_bytes: int = 0
    runs: int = 0
    stats: Counter = field(default_factory=Counter)


def ingest_append(cfg: Config, tracer=None) -> Outcome:
    """Cycles of capture, flush, appends, a fresh engine's first answer,
    queries over the overlay, compaction and queries over the result."""
    out = Outcome()
    tally = out.tally
    scale = cfg.ingest_scale
    # one input set per set-up: (inputs, pool, reference answers); the
    # cycles take turns over them
    sets, setups = [], []
    for i in range(cfg.setups):
        with C.Stopwatch() as total:
            inputs = C.make_inputs(scale, C.input_seed(cfg.seed, i))
            pool = C.make_pool(scale, C.input_seed(cfg.seed, i))
            first_q = C.first_answer_query(scale, C.input_seed(cfg.seed, i))
            ref = C.make_engine()
            ref.run(inputs)
            refs = C.reference_answers(ref, pool)
            first_ref = C.reference_answers(ref, [first_q])[0]
        setups.append(total.seconds)
        ref.close()
        sets.append((inputs, pool, refs, first_q, first_ref))
    in_bytes = C.input_nbytes(inputs)
    setup_trace = tracer.take() if tracer is not None else None
    if tracer is not None:
        tracer.disable()

    halves = []
    bare = []
    for half, seconds in enumerate(_halves(cfg)):
        if half == 1:
            tracer.enable()
        rec = IngestLog()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index = len(rec.cycles) % len(sets)
            with C.Stopwatch() as whole:
                _ingest_cycle(sets[index], index, tally, rec, cfg.max_warmup_passes,
                              seed=cfg.seed * 1000 + half * 100 + len(rec.cycles))
            rec.cycles.append(whole.seconds)
            if half == 1:
                bare.extend(_bare_runs(sets[index][0], 1))
                rec.measured_s += bare[-1]
        halves.append(rec)
    rec = halves[-1]
    log = QueryLog.merged(rec.queries.values())
    out.meta.update(
        cycles=[len(h.cycles) for h in halves],
        warmup_passes=rec.warmup_passes,
        samples=log.samples(),
        step_method_mix=log.mix_report(),
        shape_p50_ms=log.shape_p50_ms(),
        setups=len(setups),
        input_bytes=in_bytes,
        appends_per_cycle=APPENDS,
        first_answer_ms=_median_of_groups(rec.first_answers) * 1e3,
        **log.tail(),
    )
    if tracer is None:
        out.metrics.update(_phase_metrics(rec.queries))
        out.metrics.update(_write_path_metrics(
            rec.capture_runs, rec.flush_calls,
            rec.live_bytes / (rec.runs * in_bytes), rec.written_bytes / (rec.runs * in_bytes)))
        out.metrics["setup_s"] = (C.median(setups), "s")
        out.metrics["peak_rss_mb"] = (C.peak_rss_mb(), "MB")
    else:
        tracer.disable()
        out.metrics.update(layer_metrics(
            setup_trace, tracer.take(), queries=log.count(), ops=len(rec.cycles),
            untraced=halves[0].cycles, traced=rec.cycles, measured_s=rec.measured_s,
            stats=dict(rec.stats), capture_runs=_flat(rec.capture_runs),
            bare_runs=bare, encode_s=rec.encode_s,
        ))
    return out


#: timed passes over the pool in each phase of an ingest cycle
INGEST_TIMED_PASSES = 2


def _phase_metrics(groups: dict) -> dict:
    """ingest_append's query metrics: per phase, the median over input
    sets of each set's metrics, then the median of the two phases.  How
    many cycles each input set got depends on the deadline, so a plain
    median over the pooled samples would weigh the sets differently from
    run to run."""
    phases = sorted({phase for phase, _ in groups})
    return _median_metrics([
        _median_metrics([log.metrics() for (p, _), log in sorted(groups.items()) if p == phase])
        for phase in phases
    ])


def _ingest_cycle(input_set, index: int, tally, rec: IngestLog, max_passes: int,
                  seed: int) -> None:
    """One cycle over input set ``index``: a captured run flushed,
    ``appends`` more runs appended, a fresh engine's first answer over the
    overlay, warm-up and timed passes over the overlay, compaction, the
    first answer again, and warm-up and timed passes over the compacted
    catalog."""
    inputs, pool, refs, first_q, first_ref = input_set
    directory = C.work_dir("ingest-")
    versions = VersionStore()
    writer = C.make_engine()
    rec.capture_runs.append([])
    rec.flush_calls.append([])
    try:
        for k in range(1 + APPENDS):
            with C.Stopwatch() as run:
                writer.run(inputs, version_store=versions)
            with C.Stopwatch() as flush:
                rec.written_bytes += writer.flush_lineage(directory, append=k > 0)
            rec.capture_runs[-1].append(run.seconds)
            rec.flush_calls[-1].append(flush.seconds)
            rec.measured_s += run.seconds + flush.seconds
            tally.ok()
            tally.ok()
        rec.runs += 1 + APPENDS
        rec.encode_s.append(writer.stats.capture["encode_thread_seconds"] / (1 + APPENDS))
        rec.live_bytes += C.dir_bytes(directory)
        seconds, engine, first = C.first_answers(
            C.make_engine, versions, writer.wal, directory, first_q.request)
        try:
            rec.first_answers.append(seconds)
            rec.measured_s += sum(seconds)
            _check(tally, C.answer_of(first.to_dict()), first_ref, "first answer (overlay)")

            def answer(q, idx, log):
                rec.measured_s += _timed_query(tally, log, engine, q, refs[idx])

            def phase(name: str, base: int) -> None:
                rec.warmup_passes.append(warm_up(pool, base, answer, max_passes))
                for n in range(INGEST_TIMED_PASSES):
                    for idx in C.schedule(pool, base + n, 1):
                        answer(pool[idx], idx, rec.queries[name, index])

            phase("overlay", seed * 10)
            with C.Stopwatch() as sw:
                report = engine.compact_lineage()
            rec.measured_s += sw.seconds
            if report.ok:
                tally.ok()
            else:
                tally.fail("compaction skipped stores")
            rec.written_bytes += report.bytes_written
            with C.Stopwatch() as sw:
                first = engine.query(first_q.request)
            rec.measured_s += sw.seconds
            _check(tally, C.answer_of(first.to_dict()), first_ref, "first answer (compacted)")
            phase("compacted", seed * 10 + 5)
            rec.stats.update(
                {k: v for k, v in engine.runtime.serving_stats().items() if isinstance(v, int)})
        finally:
            engine.close()
    finally:
        writer.close()
        C.remove_dir(directory)


# -- daemon_evict ----------------------------------------------------------------


class DaemonChild:
    """The daemon in a child process (``daemon_child.py``), driven by
    one-line commands on its stdin."""

    def __init__(self, cfg: Config, seed: int, directory: str, budget: int):
        scale = cfg.query_scale
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "daemon_child.py"),
                "--dir", directory, "--seed", str(seed), "--budget", str(budget),
                "--shape", str(scale.shape[0]), str(scale.shape[1]),
                "--stars", str(scale.n_stars), "--cosmic", str(scale.n_cosmic),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=C.ROOT,
        )
        try:
            ready = self._expect("READY")
            self.host, self.port = ready[0], int(ready[1])
            self.first_answers = [float(x) for x in ready[2].split(",")]
            self.first_answer = json.loads(self.proc.stdout.readline())
        except BaseException:
            self.kill()
            raise

    def _expect(self, word: str) -> list[str]:
        line = self.proc.stdout.readline()
        if not line.startswith(word + " ") and line.strip() != word:
            raise RuntimeError(f"daemon child said {line!r}, expected {word}")
        return line.split()[1:]

    def command(self, word: str, expect: str) -> list[str]:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        return self._expect(expect)

    def stop(self) -> dict:
        """Drain and stop the daemon; returns its final report."""
        done = json.loads(" ".join(self.command("stop", "DONE")))
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return done

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def daemon_evict(cfg: Config, tracer=None) -> Outcome:
    """Open loop over HTTP against a daemon process serving a
    2-partition, 3-generation catalog through a memory budget of a third
    of its bytes, maintenance off.  Each set-up starts its own daemon
    process over its own input set and catalog; each is warmed up and
    measured for an equal share of the run, and the latencies of all of
    them are pooled."""
    out = Outcome()
    tally = out.tally
    scale = cfg.query_scale
    capture_runs, flush_calls, encode_s, live, written = [], [], [], [], []
    setups, first_answers, drives, bare = [], [], [], []
    setup_trace = child = None
    n_daemons = cfg.setups
    for i in range(n_daemons):
        seed = C.input_seed(cfg.seed, i)
        pool = C.make_pool(scale, seed)
        inputs = C.make_inputs(scale, seed)
        ref, directory, nbytes = _daemon_catalog(inputs, capture_runs, flush_calls)
        try:
            encode_s.append(ref.stats.capture["encode_thread_seconds"] / (1 + APPENDS))
            catalog_bytes = C.dir_bytes(directory)
            live.append(catalog_bytes / ((1 + APPENDS) * C.input_nbytes(inputs)))
            written.append(nbytes / ((1 + APPENDS) * C.input_nbytes(inputs)))
            if tracer is not None and i == 0:
                bare = _bare_runs(inputs, n_daemons)
                setup_trace = tracer.take()
                tracer.disable()
            with C.Stopwatch() as sw:
                child = DaemonChild(cfg, seed, directory, catalog_bytes // 3)
            setups.append(sw.seconds)
            first_answers.append(child.first_answers)
            refs = C.reference_answers(ref, pool)
            first_ref = C.reference_answers(ref, [C.first_answer_query(scale, seed)])[0]
            _check(tally, child.first_answer, first_ref, "first answer")
            drive = _drive_daemon(cfg, child, pool, refs, tally, tracer, i, n_daemons)
            drive["done"] = child.stop()
            drives.append(drive)
        except BaseException:
            if child is not None:
                child.kill()
            raise
        finally:
            ref.close()
            C.remove_dir(directory)
    timed = [d["logs"][-1] for d in drives]
    loadgen = _loadgen_report([s for d in drives for s in d["lateness"][-1]])
    out.meta.update(
        samples=QueryLog.merged(timed).samples(),
        step_method_mix=QueryLog.merged(timed).mix_report(),
        shape_p50_ms=QueryLog.merged(timed).shape_p50_ms(),
        warmup_passes=[d["passes"] for d in drives],
        offered_rate=RATE,
        connections=2,
        loadgen=loadgen,
        daemons=len(drives),
        catalog_bytes=catalog_bytes,
        memory_budget_bytes=catalog_bytes // 3,
        input_bytes=C.input_nbytes(inputs),
        first_answer_ms=_median_of_groups(first_answers) * 1e3,
        **QueryLog.merged(timed).tail(),
    )
    if not loadgen["valid"]:
        print("WARNING: the load generator fell behind its schedule; "
              "daemon_evict latencies are not valid", file=sys.stderr)
    if tracer is None:
        # pooled: one daemon's share holds too few samples beyond its p99.
        # The open loop's wall time is fixed by the offered rate, so
        # queries_per_s is the service rate: completed requests over the
        # time the connections were busy (request sent to reply read)
        out.metrics.update(QueryLog.merged(timed).metrics(
            busy_seconds=sum(d["sent_s"][-1] for d in drives)))
        out.metrics.update(_write_path_metrics(
            capture_runs, flush_calls, C.median(live), C.median(written)))
        out.metrics["setup_s"] = (C.median(setups), "s")
        out.metrics["peak_rss_mb"] = (C.median([d["done"]["peak_rss_mb"] for d in drives]), "MB")
    else:
        stats = Counter()
        for d in drives:
            before, after = d["stats"]
            stats.update(_stats_delta(before["cache"], after["cache"]))
            stats["rejected"] += after["gate"]["rejected"] - before["gate"]["rejected"]
        traced = QueryLog.merged(timed)
        out.metrics.update(layer_metrics(
            setup_trace, tracer.take(), queries=traced.count(),
            child=merge_summaries(*(d["done"]["trace"] for d in drives)),
            untraced=QueryLog.merged(d["logs"][0] for d in drives), traced=traced,
            measured_s=sum(d["sent_s"][-1] for d in drives), stats=dict(stats),
            capture_runs=_flat(capture_runs), bare_runs=bare, encode_s=encode_s, loadgen=loadgen,
        ))
    return out


def _daemon_catalog(inputs, capture_runs, flush_calls) -> tuple:
    """A 2-partition catalog of ``1 + appends`` generations of the same
    inputs; returns (the engine that wrote it, its directory, bytes
    written)."""
    ref = C.make_engine()
    versions = VersionStore()
    directory = C.work_dir("daemon-")
    written = 0
    capture_runs.append([])
    flush_calls.append([])
    for k in range(1 + APPENDS):
        with C.Stopwatch() as sw:
            ref.run(inputs, version_store=versions)
        capture_runs[-1].append(sw.seconds)
        with C.Stopwatch() as sw:
            if k == 0:
                written += ref.flush_lineage(directory, partitions=2)
            else:
                written += ref.flush_lineage(directory, append=True)
        flush_calls[-1].append(sw.seconds)
    return ref, directory, written


def _drive_daemon(cfg, child, pool, refs, tally, tracer, index: int, share: int) -> dict:
    """Warm one daemon up, then run its share of the open loop."""
    client = DaemonClient(child.host, child.port, client_id="perfbench")
    client.wait_ready()
    passes = int(child.command(f"warmup {cfg.max_warmup_passes}", "WARM")[0])
    drive = {"logs": [], "lateness": [], "stats": [], "sent_s": [], "passes": passes}
    for half, seconds in enumerate(_halves(cfg, share=share)):
        if half == 1:
            child.command(f"trace {trace_path(cfg, f'daemon_evict-server{index}')}", "TRACING")
            drive["stats"].append(client.stats())
            tracer.enable()
        cycles = max(1, round(RATE * seconds / len(pool)))
        order = C.schedule(pool, cfg.seed * 1000 + index * 100 + half * 10, cycles)
        lateness, replies = _open_loop(client, order, pool)
        if half == 1:
            tracer.disable()
            drive["stats"].append(client.stats())
        # answers are checked after the loop, so the checking never
        # competes with the load generator for the interpreter
        log = QueryLog()
        sent = 0.0
        for idx, due, start, done, got in replies:
            q = pool[idx]
            if isinstance(got, Exception):
                tally.fail(f"{q.shape_name}: {got!r}")
                continue
            sent += done - start
            log.add(q, done - due, got["steps"])
            _check(tally, C.answer_of(got), refs[idx], q.shape_name)
        for _ in range(len(order) - len(replies)):
            tally.fail("a request got no reply")
        drive["logs"].append(log)
        drive["sent_s"].append(sent)
        drive["lateness"].append(lateness)
    client.close()
    return drive


def trace_path(cfg: Config, name: str) -> str:
    """Where a traced run writes its spans (inside the checkout)."""
    os.makedirs(C.WORK, exist_ok=True)
    return os.path.join(C.WORK, f"trace-{name}-seed{cfg.seed}.jsonl")


#: a request dispatched this much after its due time (seconds) counts as
#: the generator falling behind its schedule
LATE_S = 0.005
#: a run is flagged invalid when a larger share of requests went out late
LATE_SHARE_LIMIT = 0.01


#: the interpreter's thread switch interval while the load generator runs:
#: short, so a sender thread decoding a reply cannot hold the dispatcher
#: past its due time for the default 5 ms
SWITCH_INTERVAL_S = 0.0005


def _open_loop(client, order, pool) -> tuple[list[float], list]:
    """Send ``order`` open loop at :data:`RATE` over two keep-alive
    connections.  Returns the dispatch lateness of every request and
    ``(pool index, due, sent, done, reply or exception)`` per request;
    latency runs from the due time."""
    work: queue.Queue = queue.Queue()
    lateness: list[float] = []
    replies: list = []

    def sender():
        while True:
            item = work.get()
            if item is None:
                return
            idx, due = item
            start = time.perf_counter()
            try:
                got = client.query(pool[idx].request)
            except Exception as exc:  # every failure counts in error_rate
                got = exc
            replies.append((idx, due, start, time.perf_counter(), got))

    senders = [threading.Thread(target=sender, name=f"perfbench-conn-{i}") for i in range(2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    for t in senders:
        t.start()
    start = time.perf_counter() + 0.01
    try:
        for i, idx in enumerate(order):
            due = start + i / RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            lateness.append(max(0.0, time.perf_counter() - due))
            work.put((idx, due))
    finally:
        for _ in senders:
            work.put(None)
        for t in senders:
            t.join()
        sys.setswitchinterval(switch)
    return lateness, replies


def _loadgen_report(lateness: list[float]) -> dict:
    late_share = sum(1 for s in lateness if s > LATE_S) / len(lateness)
    return {
        "late_p99_ms": C.percentile(lateness, 99) * 1e3,
        "late_share": late_share,
        "late_threshold_ms": LATE_S * 1e3,
        "valid": late_share <= LATE_SHARE_LIMIT,
    }


WORKLOADS = {
    "query_warm": query_warm,
    "ingest_append": ingest_append,
    "daemon_evict": daemon_evict,
}
