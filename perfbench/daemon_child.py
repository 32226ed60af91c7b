"""The daemon process of the ``daemon_evict`` workload.

Rebuilds the workflow instance from the seed (a mapping-only run gives
the version store and write-ahead log), resumes an engine over the
catalog directory with the given memory budget, answers the first query,
and serves it through a ``QueryDaemon`` with maintenance off.

Talks to the benchmark over stdin/stdout, one line each:

* prints ``READY <host> <port> <first-answer seconds, comma-separated>``
  and the first answer as JSON once serving;
* ``warmup <max passes>`` warms the engine up in process (see
  ``workloads.warm_up``), answered by ``WARM <passes>``;
* ``trace <path>`` installs the span wrappers, answered by ``TRACING``;
  the spans are written to ``<path>`` when the daemon stops;
* ``stop`` drains and stops the daemon, answered by ``DONE <json>`` with
  the process's peak RSS and, when traced, its span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common as C  # noqa: E402
from repro.arrays.versions import VersionStore  # noqa: E402
from repro.serving.daemon import QueryDaemon  # noqa: E402
from workloads import warm_up  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--shape", type=int, nargs=2, required=True)
    parser.add_argument("--stars", type=int, required=True)
    parser.add_argument("--cosmic", type=int, required=True)
    args = parser.parse_args()
    scale = C.Scale(tuple(args.shape), args.stars, args.cosmic)
    pool = C.make_pool(scale, args.seed)

    inputs = C.make_inputs(scale, args.seed)
    versions = VersionStore()
    bare = C.make_engine(plan="bare")
    bare.run(inputs, version_store=versions)
    seconds, engine, first = C.first_answers(
        lambda: C.make_engine(memory_budget_bytes=args.budget),
        versions, bare.wal, args.dir, C.first_answer_query(scale, args.seed).request)
    daemon = QueryDaemon(engine, maintenance=False).start()
    host, port = daemon.address
    print(f"READY {host} {port} {','.join(map(repr, seconds))}", flush=True)
    print(json.dumps(C.answer_of(first.to_dict())), flush=True)

    tracer = trace_path = None
    for line in sys.stdin:
        words = line.strip().split(" ", 1)
        if words[0] == "warmup":
            # in process: the optimizer and the cache warm the same way as
            # over HTTP, at a fraction of the cost
            passes = warm_up(
                pool, args.seed,
                lambda q, idx, log: log.add(q, 0.0, engine.query(q.request).steps),
                int(words[1]))
            print(f"WARM {passes}", flush=True)
        elif words[0] == "trace":
            from tracing import Tracer

            trace_path = words[1]
            tracer = Tracer()
            tracer.install_daemon()
            print("TRACING", flush=True)
        elif words[0] == "stop":
            break
    daemon.stop()
    summary = None
    if tracer is not None:
        tracer.disable()
        summary = tracer.summary()
        tracer.uninstall()
        tracer.dump(trace_path)
    engine.close()
    bare.close()
    print("DONE " + json.dumps({"peak_rss_mb": C.peak_rss_mb(), "trace": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
