"""The SubZero benchmark: one command, three workloads.

    python3 perfbench/run.py --workload query_warm --seed 1 --seconds 20 --trace 0

Runs one workload over the astronomy workflow of the paper (Fig. 1),
checks every answer against a reference engine, prints each metric with
its unit, a JSON line of run metadata, and as the last line one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with span wrappers around each layer's public functions and
reports the per-layer metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common as C  # noqa: E402
import numpy as np  # noqa: E402
from perlayer import ROOT_COVERAGE_TOLERANCE, coverage_ok  # noqa: E402
from workloads import WORKLOADS, Config, trace_path  # noqa: E402


def git_sha(root: str) -> str:
    """The checkout's commit, or ``unknown`` when it is not a git
    repository of its own."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(workload: str, cfg: Config) -> tuple[dict, dict]:
    """Run one workload; returns (result line, metadata)."""
    tracer = None
    if cfg.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_engine()
        if workload == "daemon_evict":
            tracer.install_client()
    try:
        outcome = WORKLOADS[workload](cfg, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    meta = {
        "workload": workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": int(cfg.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(C.ROOT),
        "failures": outcome.tally.failures,
        **outcome.meta,
    }
    tally = outcome.tally
    if tracer is not None:
        path = trace_path(cfg, workload)
        meta["trace_file"] = os.path.relpath(path, C.ROOT)
        meta["trace_spans"] = tracer.dump(path)
        meta["root_coverage_ok"] = coverage_ok(outcome.metrics)
        meta["root_coverage_tolerance"] = ROOT_COVERAGE_TOLERANCE
        if not meta["root_coverage_ok"]:
            tally.fail("the root spans miss the measured wall clock by more than "
                       f"{ROOT_COVERAGE_TOLERANCE:.0%}")
    meta["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cfg = Config(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    result, meta = run(args.workload, cfg)
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    print(f"{'error_rate':<{width}}  {meta['error_rate']:>14.6g}  ratio")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
