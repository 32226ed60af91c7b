"""Self-test of the benchmark at toy size (about a minute):

    python3 perfbench/selftest.py

Checks that every metric declared in BENCHMARK.json is emitted with its
unit on every workload, traced and untraced; that two seeds give
different inputs but the same metric names; and that an answer corrupted
by a wrapper around ``SubZero.query`` is caught by the correctness check.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common as C  # noqa: E402
from repro.core import subzero  # noqa: E402
from run import run  # noqa: E402
from workloads import WORKLOADS, Config  # noqa: E402


def toy(seed: int, trace: bool = False) -> Config:
    return Config(seed=seed, seconds=2.0, trace=trace, toy=True)


def declared() -> dict:
    with open(os.path.join(C.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def inputs_digest(seed: int) -> str:
    digest = hashlib.sha256()
    for arr in C.make_inputs(C.TOY_SCALE, seed).values():
        digest.update(arr.values().tobytes())
    for q in C.make_pool(C.TOY_SCALE, seed):
        digest.update(json.dumps(q.request.to_dict()).encode())
    return digest.hexdigest()


class _Corrupted:
    """A query result whose answer lost its last cell."""

    def __init__(self, result):
        self._result = result
        self.steps = result.steps

    def to_dict(self) -> dict:
        out = self._result.to_dict()
        out["coords"] = out["coords"][:-1]
        out["count"] -= 1
        return out


def corrupted_run() -> dict:
    """query_warm with every 5th served answer corrupted (reference
    answers, asked with ``query_opt=False``, are left alone)."""
    original = subzero.SubZero.query
    calls = [0]

    def query(self, request, session=None):
        result = original(self, request, session)
        if request.query_opt is False:
            return result
        calls[0] += 1
        return _Corrupted(result) if calls[0] % 5 == 0 else result

    subzero.SubZero.query = query
    try:
        result, _ = run("query_warm", toy(3))
    finally:
        subzero.SubZero.query = original
    return result


def main() -> int:
    want = declared()
    names = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            for seed in (1, 2):
                if trace and seed == 2:
                    continue
                result, meta = run(workload, toy(seed, trace))
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                label = f"{workload} trace={int(trace)} seed={seed}"
                if trace:
                    check(meta["root_coverage_ok"],
                          f"{label}: root spans cover the measured time "
                          f"({result['metrics']['trace.root_coverage']['value']:.3f})")
                check(result["correct"] and result["failed"] == 0, f"{label}: every answer correct")
                check(got == want[trace], f"{label}: every declared metric, with its unit")
                names[(workload, trace, seed)] = sorted(got)
        check(names[(workload, False, 1)] == names[(workload, False, 2)],
              f"{workload}: two seeds report the same metric names")
    check(inputs_digest(1) != inputs_digest(2), "two seeds give different inputs")
    check(inputs_digest(1) == inputs_digest(1), "one seed gives the same inputs")
    bad = corrupted_run()
    check(not bad["correct"] and bad["failed"] > 0,
          f"a corrupted answer is caught ({bad['failed']} of {bad['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
