"""Shared pieces of the benchmark: inputs, engines, the query mix, the
correctness oracle and the statistics helpers.

Everything here is driven by the workload seed.  The program under test
only ever receives the generated images and query cells.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for catalogs and trace files, inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    COMP_ONE_B,
    FULL_MANY_F,
    FULL_ONE_B,
    PAY_ONE_B,
    QueryRequest,
    SubZero,
)
from repro.bench.astronomy import build_spec, generate_images  # noqa: E402
from repro.serving.protocol import canonical_result  # noqa: E402

#: the stored layouts of the four UDFs.  crd_2 is forward-indexed, so the
#: Full stores answer each direction once matched and once mismatched;
#: one store per node leaves the optimizer no coin-flip between two
#: near-equal stored plans
STORED_PLAN = {
    "crd_1": (FULL_ONE_B,),
    "crd_2": (FULL_MANY_F,),
    "cr_remove": (COMP_ONE_B,),
    "star_detect": (PAY_ONE_B,),
}

CELLS_PER_QUERY = 32

#: the spine from the star map back to the cosmic-ray-removed image
#: (cr_remove's output)
_SPINE = (
    ("star_detect", 0), ("floor", 0), ("contrast", 0), ("smooth2", 0),
    ("clip2", 0), ("bg2_sub", 0), ("rescale", 0),
)
_MAP_BACK = (
    ("gain_1", 0), ("clip_1", 0), ("bg_sub_1", 0), ("smooth_1", 0),
    ("flat_div_1", 0), ("bias_sub_1", 0),
)
_MAP_FWD = (
    ("bias_sub_1", 0), ("flat_div_1", 0), ("smooth_1", 0), ("bg_sub_1", 0),
    ("clip_1", 0), ("gain_1", 0), ("min_combine", 0),
)

#: (class, shape name, direction, path, copies per pool cycle).  One pool
#: cycle is 100 queries: 60 backward, 35 forward, 5 payload-forward.  The
#: copy counts keep each reported percentile inside a group of shapes,
#: away from the cost gaps between groups, and away from the one
#: optimizer decision that flips from run to run: under eviction it moves
#: cr_remove between its COMP store and re-execution, so comp_one_b costs
#: either about 5 or about 20 ms.  Backward p50 (rank 30 of 60) lies in
#: the 48 copies of the three cheap shapes that never flip, query p50
#: (rank 50 of 100) at or just past their top, forward p50 (rank 17.5 of
#: 35) inside the middle forward shape, and p99 inside comp_cr_remove, the
#: costliest.  The metadata's shape_p50_ms shows where each shape falls.
MIX = (
    ("backward", "full_one_matched", "backward", (("crd_1", 0), ("gain_1", 0)), 16),
    ("backward", "pay_one_b", "backward", (("star_detect", 0), ("floor", 0), ("contrast", 0)), 16),
    ("backward", "map_chain", "backward", _MAP_BACK, 16),
    ("backward", "full_many_mismatched", "backward", (("crd_2", 0), ("gain_2", 0)), 5),
    ("backward", "comp_one_b", "backward", (("cr_remove", 0), ("min_combine", 0)), 3),
    ("backward", "spine", "backward", _SPINE, 4),
    ("forward", "full_one_mismatched", "forward", (("crd_1", 0),), 12),
    ("forward", "full_many_matched", "forward", (("gain_2", 0), ("crd_2", 0)), 15),
    ("forward", "map_chain", "forward", _MAP_FWD, 8),
    ("payload_forward", "pay_star_detect", "forward", (("star_detect", 0),), 1),
    ("payload_forward", "comp_cr_remove", "forward", (("cr_remove", 0),), 4),
)
CLASSES = ("backward", "forward", "payload_forward")
#: the query a fresh engine answers first (first_answer_ms): the mask
#: chain from the repaired image back through crd_1's mask opens two stores
#: (COMP cr_remove, Full crd_1), and its cost hardly depends on the cells
FIRST_ANSWER_PATH = (("cr_remove", 1), ("crd_1", 0), ("gain_1", 0))
#: fresh engines resumed per set-up (or ingest cycle) to time a first answer
FIRST_ANSWER_TRIALS = 5


@dataclass(frozen=True)
class Scale:
    """Input size of one workload."""

    shape: tuple[int, int]
    n_stars: int
    n_cosmic: int


#: the paper's astronomy images at the size the query workloads use
QUERY_SCALE = Scale((128, 500), 40, 25)
#: a quarter of that area, so one ingest cycle takes about two seconds
INGEST_SCALE = Scale((64, 250), 10, 6)
#: toy size for the self-test
TOY_SCALE = Scale((32, 64), 3, 2)


@dataclass
class Query:
    klass: str
    shape_name: str
    request: QueryRequest


def input_seed(seed: int, i: int) -> int:
    """The seed of input set ``i`` of a run: each set-up gets its own
    images and query cells, so one run's metrics are medians over several
    inputs rather than one draw."""
    return seed * 1009 + i


def make_inputs(scale: Scale, seed: int) -> dict:
    img_1, img_2 = generate_images(scale.shape, scale.n_stars, scale.n_cosmic, seed)
    return {"img_1": img_1, "img_2": img_2}


def input_nbytes(inputs: dict) -> int:
    return sum(arr.values().nbytes for arr in inputs.values())


def make_engine(
    plan: str = "stored",
    enable_query_opt: bool = True,
    memory_budget_bytes: int | None = None,
) -> SubZero:
    """A SubZero engine with the benchmark's plan: built-ins on mapping
    functions, the four UDFs on their stored layouts (``plan="stored"``),
    or mapping functions only (``plan="bare"``)."""
    sz = SubZero(
        build_spec(),
        enable_query_opt=enable_query_opt,
        memory_budget_bytes=memory_budget_bytes,
    )
    sz.use_mapping_where_possible()
    if plan == "stored":
        for node, strategies in STORED_PLAN.items():
            sz.set_strategy(node, *strategies)
    return sz


def make_pool(scale: Scale, seed: int) -> list[Query]:
    """One pool cycle: 100 distinct queries (per ``MIX``), each with 32
    random cells of the array the query starts in."""
    rng = np.random.default_rng([seed, 0x5EED])
    h, w = scale.shape
    pool = []
    for klass, shape_name, direction, path, copies in MIX:
        for _ in range(copies):
            cells = np.stack(
                [rng.integers(0, h, CELLS_PER_QUERY), rng.integers(0, w, CELLS_PER_QUERY)],
                axis=1,
            )
            make = QueryRequest.backward if direction == "backward" else QueryRequest.forward
            pool.append(Query(klass, shape_name, make(cells, list(path))))
    return pool


def schedule(pool: list[Query], seed: int, cycles: int) -> list[int]:
    """Pool indices for ``cycles`` whole cycles, each a fresh seeded
    permutation, so every cycle holds the mix in its exact proportions."""
    rng = np.random.default_rng([seed, 0xC7C1E])
    order: list[int] = []
    for _ in range(cycles):
        order.extend(int(i) for i in rng.permutation(len(pool)))
    return order


def first_answer_query(scale: Scale, seed: int) -> Query:
    """The first-answer query of an input set (not part of the mix)."""
    rng = np.random.default_rng([seed, 0xF125])
    h, w = scale.shape
    cells = np.stack(
        [rng.integers(0, h, CELLS_PER_QUERY), rng.integers(0, w, CELLS_PER_QUERY)], axis=1
    )
    return Query("backward", "first_answer", QueryRequest.backward(cells, list(FIRST_ANSWER_PATH)))


def first_answers(make, versions, wal, directory, request):
    """Resume :data:`FIRST_ANSWER_TRIALS` fresh engines (``make()``) over
    ``directory`` and time each one's first answer to ``request``.
    Returns the seconds, the first engine (still open) and its answer."""
    seconds, kept, answer = [], None, None
    for _ in range(FIRST_ANSWER_TRIALS):
        engine = make()
        gc.collect()
        start = time.perf_counter()
        engine.resume(versions, wal=wal, lineage_dir=directory)
        result = engine.query(request)
        seconds.append(time.perf_counter() - start)
        if kept is None:
            kept, answer = engine, result
        else:
            engine.close()
    return seconds, kept, answer


# -- correctness -----------------------------------------------------------------

#: per-step fields that record *how* a step ran; the optimizer may pick a
#: different method than the reference, so only the answer is compared
_HOW_FIELDS = ("method", "switched_to_blackbox")


def answer_of(result_dict: dict) -> dict:
    """The part of ``canonical_result`` that must equal the reference: the
    final frontier (shape, count, coordinates) and every step's cell
    counts.  Step methods are left out because the reference runs with
    the optimizer off."""
    canon = canonical_result(result_dict)
    canon["steps"] = [
        {k: v for k, v in step.items() if k not in _HOW_FIELDS}
        for step in canon["steps"]
    ]
    return canon


def reference_answers(engine: SubZero, pool: list[Query]) -> list[dict]:
    """The oracle: ``engine`` answers every pool query with the optimizer
    off (the request-level override), over its own lineage, unbudgeted."""
    return [
        answer_of(engine.query(q.request.with_overrides(query_opt=False)).to_dict())
        for q in pool
    ]


def method_signature(steps) -> str:
    """A query's step methods as one string (``StepStats`` or step dicts)."""
    return "/".join(s["method"] if isinstance(s, dict) else s.method for s in steps)


# -- statistics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def work_dir(prefix: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


@dataclass
class Tally:
    """Operations attempted and failed (exceptions, refusals, mismatches)."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``.  Collects
    garbage first, so each timed operation starts from the same heap."""

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start
