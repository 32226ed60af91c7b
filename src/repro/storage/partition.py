"""Partitioned lineage catalog: independent catalog directories, one root.

A :class:`~repro.core.catalog.StoreCatalog` serves one directory of
segments — one box.  For bigger-than-one-box datasets this module splits a
workflow's lineage **by node subset** into *partitions*: each partition is
a fully independent catalog directory (its own ``catalog.json`` manifest,
its own delta generations, bloom/zone filters, and compaction), and a root
manifest (``partitions.json``) records the partition ids, their paths, and
the node→partition map.  The shape follows FamDB's root+leaf partition
files — a root index plus self-contained leaves, any subset of which can
be present — and OrpheusDB's bolt-on facade: independent storage units
behind one logical catalog.

:class:`PartitionedCatalog` presents the same serving surface as
``StoreCatalog`` (borrow/release pinning, lazy opens, per-key generation
accounting, online compaction), so :class:`~repro.core.runtime.LineageRuntime`,
:class:`~repro.core.query.QuerySession`, the background
:class:`~repro.serving.maintenance.MaintenanceWorker`, and the serving
daemon all work against either, unchanged.  Reads *scatter*: a key is
routed to the partition its node maps to (one probe), falling back to an
all-partition broadcast for nodes the map does not cover; when a key turns
out to live in several partitions, the per-partition stores are merged
through the same source-agnostic
:class:`~repro.core.overlay.OverlayStore` union that merges generations —
one merge implementation, with ``kind="partition"``.

Failure isolation is per partition: a torn partition (unreadable or
corrupt child manifest) is *degraded* at open time — its nodes lose their
materialised lineage (queries on them fall back to mapping functions or
re-execution) while every other partition keeps serving.
:func:`repro.workflow.recovery.recover_lineage` persists that verdict by
marking the partition ``quarantined`` in the root manifest.

:class:`ScatterGatherExecutor` adds the request-level plan on top: given a
backward/forward :class:`~repro.core.query.QueryRequest` it computes which
partitions can match (the unique partitions of the path's nodes),
recording targeted-vs-broadcast fan-out counters the cost model and the
benchmarks consume.  A partition is the stepping stone to a remote shard:
the plan's partition set is exactly the fan-out set a multi-machine
deployment would send the request to (see ``docs/partitioning.md``).
"""

from __future__ import annotations

import json
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.analysis import lockcheck
from repro.core.catalog import CompactionReport, StoreCatalog
from repro.core.modes import StorageStrategy
from repro.core.overlay import FilterStats, OverlayStore
from repro.errors import QueryError, StorageError

__all__ = [
    "PARTITIONS_MANIFEST",
    "PartitionInfo",
    "PartitionedCatalog",
    "ScatterGatherExecutor",
    "ScatterPlan",
    "assign_partition",
    "is_partitioned_root",
]

PARTITIONS_MANIFEST = "partitions.json"
PARTITION_FORMAT = "subzero-partitions"
PARTITION_VERSION = 1

#: floor on a partition's open-store cache budget when the root budget is
#: split across partitions — a sliver budget would thrash every borrow
_MIN_CHILD_BUDGET = 1 << 16


def assign_partition(node: str, partition_ids: list[str]) -> str:
    """Stable hash assignment: which partition serves ``node``.

    CRC32 of the node name modulo the partition count — deterministic
    across processes and Python versions, so a re-opened catalog (or a
    remote shard router) computes the same map without reading it."""
    if not partition_ids:
        raise StorageError("cannot assign a node to zero partitions")
    return partition_ids[zlib.crc32(node.encode("utf-8")) % len(partition_ids)]


def is_partitioned_root(directory: str) -> bool:
    """True when ``directory`` holds a partitioned-catalog root manifest."""
    return os.path.isfile(os.path.join(directory, PARTITIONS_MANIFEST))


@dataclass(frozen=True)
class PartitionInfo:
    """One partition as the root manifest records it."""

    id: str
    #: directory of the partition's own catalog, relative to the root
    path: str
    #: set when recovery set the whole partition aside (unreadable child
    #: manifest); a quarantined partition is skipped at open — its nodes
    #: degrade to mapping/re-execution, everything else keeps serving
    quarantined: bool = False


@dataclass
class _PartitionLease:
    """One borrow served by the partitioned root: the merged read surface
    plus the child-catalog pins backing it.  ``store`` is the single
    partition's store in the common (targeted) case, or a
    ``kind="partition"`` overlay when the key lives in several partitions;
    ``leases`` are released child-by-child on the root's release."""

    key: tuple[str, StorageStrategy]
    store: object
    leases: list[tuple[StoreCatalog, object]] = field(default_factory=list)


@dataclass(frozen=True)
class ScatterPlan:
    """Which partitions one request can touch (see
    :meth:`ScatterGatherExecutor.plan`)."""

    #: unique partition ids the request's path nodes map to
    partition_ids: tuple[str, ...]
    #: True when the plan could not be narrowed (a path node missing from
    #: the node map, or ``entire_array`` in play) and every live partition
    #: must be consulted
    broadcast: bool
    #: the path nodes the plan was derived from
    nodes: tuple[str, ...]

    @property
    def fanout(self) -> int:
        return len(self.partition_ids)


class PartitionedCatalog:
    """Root facade over per-partition :class:`StoreCatalog` children
    (see module docstring).  Duck-compatible with ``StoreCatalog`` for
    every surface the runtime, sessions, recovery, and maintenance use."""

    def __init__(
        self,
        directory: str,
        infos: Iterable[PartitionInfo],
        node_map: Mapping[str, str],
        memory_budget_bytes: int | None = None,
    ):
        self.directory = directory
        self.memory_budget_bytes = memory_budget_bytes
        self._infos: dict[str, PartitionInfo] = {}
        for info in infos:
            if info.id in self._infos:
                raise StorageError(
                    f"partitioned catalog {directory!r} lists partition "
                    f"{info.id!r} twice"
                )
            self._infos[info.id] = info
        self._node_map: dict[str, str] = dict(node_map)
        for node, pid in self._node_map.items():
            if pid not in self._infos:
                raise StorageError(
                    f"node {node!r} maps to unknown partition {pid!r}"
                )
        #: partition id -> child catalog; None when quarantined or degraded
        self._children: dict[str, StoreCatalog | None] = {}
        #: ``(partition id, StorageError)`` per partition that failed to
        #: open — the runtime quarantine verdict recovery later persists
        self.degraded: list[tuple[str, StorageError]] = []
        live = [i for i in self._infos.values() if not i.quarantined]
        child_budget = self._split_budget(memory_budget_bytes, len(live))
        for info in self._infos.values():
            if info.quarantined:
                self._children[info.id] = None
                continue
            try:
                self._children[info.id] = StoreCatalog.open(
                    os.path.join(directory, info.path),
                    memory_budget_bytes=child_budget,
                )
            except StorageError as exc:
                # per-partition quarantine at open: a torn partition
                # degrades only its own nodes, never the whole root
                self._children[info.id] = None
                self.degraded.append((info.id, exc))
        #: shared skip counters for partition-level unions (children keep
        #: their own for generation overlays)
        self._filter_stats = FilterStats()
        self._lock = lockcheck.make_lock("partition.root")
        #: per-partition child-catalog probes routed by borrows/opens
        self._probes: dict[str, int] = {pid: 0 for pid in self._infos}
        self._targeted_probes = 0
        self._broadcast_probes = 0
        self._scatter_queries = 0
        self._scatter_broadcasts = 0
        self._scatter_partitions_matched = 0

    @staticmethod
    def _split_budget(budget: int | None, n_live: int) -> int | None:
        """Each child gets an even share of the root budget, so the total
        resident bytes stay bounded by the root figure (not N times it)."""
        if budget is None or n_live <= 0:
            return budget
        return max(budget // n_live, _MIN_CHILD_BUDGET)

    # -- writing ---------------------------------------------------------------

    @classmethod
    def write(
        cls,
        directory: str,
        stores,
        partitions,
        shard_threshold_bytes: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> tuple["PartitionedCatalog", int]:
        """Flush ``stores`` split across partitions; returns
        ``(catalog, total_bytes_written)``.

        ``partitions`` is either an int ``N`` (partitions ``p0..p{N-1}``,
        nodes hash-assigned via :func:`assign_partition`) or an explicit
        ``node -> partition id`` mapping (ids are taken from its values;
        unmapped nodes are hash-assigned over the same ids).  ``stores``
        is anything with ``.items()`` yielding ``((node, strategy),
        store)`` — including the runtime's lazy one-at-a-time borrowing
        view, which this method iterates once per partition so at most
        one store is pinned at a time."""
        infos, explicit = cls._resolve_partitions(partitions)
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create partitioned catalog root {directory!r}: {exc}"
            ) from exc
        ids = [info.id for info in infos]
        node_map: dict[str, str] = {}

        def pid_of(node: str) -> str:
            pid = node_map.get(node)
            if pid is None:
                pid = explicit.get(node) or assign_partition(node, ids)
                node_map[node] = pid
            return pid

        class _OnePartition:
            """items() view filtered to one partition (re-iterable)."""

            def __init__(self, pid: str):
                self.pid = pid

            def items(self):
                for key, store in stores.items():
                    if pid_of(key[0]) == self.pid:
                        yield key, store

        total = 0
        for info in infos:
            child, nbytes = StoreCatalog.write(
                os.path.join(directory, info.path),
                _OnePartition(info.id),
                shard_threshold_bytes=shard_threshold_bytes,
            )
            child.close()
            total += nbytes
        catalog = cls(
            directory, infos, node_map, memory_budget_bytes=memory_budget_bytes
        )
        total += catalog.save_root_manifest()
        return catalog, total

    @staticmethod
    def _resolve_partitions(partitions) -> tuple[list[PartitionInfo], dict[str, str]]:
        """Normalise the ``partitions`` argument to ``(infos, explicit
        node->id map)``."""
        if isinstance(partitions, int):
            if partitions < 1:
                raise StorageError(
                    f"a partitioned catalog needs >= 1 partition, got {partitions}"
                )
            infos = [
                PartitionInfo(id=f"p{i}", path=f"p{i}") for i in range(partitions)
            ]
            return infos, {}
        if isinstance(partitions, Mapping):
            if not partitions:
                raise StorageError("an explicit partition map must be non-empty")
            ids = sorted({str(pid) for pid in partitions.values()})
            infos = [PartitionInfo(id=pid, path=pid) for pid in ids]
            return infos, {str(n): str(p) for n, p in partitions.items()}
        raise StorageError(
            "partitions must be an int (hash assignment) or a node->id mapping, "
            f"got {type(partitions).__name__}"
        )

    def save_root_manifest(self) -> int:
        """Atomically (re)write ``partitions.json``; returns its size."""
        with self._lock:
            obj = {
                "format": PARTITION_FORMAT,
                "version": PARTITION_VERSION,
                "partitions": [
                    {
                        "id": info.id,
                        "path": info.path,
                        **({"quarantined": True} if info.quarantined else {}),
                    }
                    for info in self._infos.values()
                ],
                "nodes": dict(sorted(self._node_map.items())),
            }
        path = os.path.join(self.directory, PARTITIONS_MANIFEST)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
            return os.path.getsize(path)
        except BaseException as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise StorageError(
                    f"cannot write partition manifest {path!r}: {exc}"
                ) from exc
            raise

    def save_manifest(self) -> int:
        """Persist every live child manifest plus the root; returns the
        root manifest's size (mirrors ``StoreCatalog.save_manifest``)."""
        for child in self._live_children().values():
            child.save_manifest()
        return self.save_root_manifest()

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(
        cls, directory: str, memory_budget_bytes: int | None = None
    ) -> "PartitionedCatalog":
        """Parse the root manifest and each live child manifest; no
        segment file is touched.  A child that fails to open is degraded
        (recorded in :attr:`degraded`), not fatal."""
        path = os.path.join(directory, PARTITIONS_MANIFEST)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError as exc:
            raise StorageError(
                f"no partitioned catalog at {directory!r}: {exc}"
            ) from exc
        except ValueError as exc:
            raise StorageError(f"corrupt partition manifest {path!r}: {exc}") from exc
        if manifest.get("format") != PARTITION_FORMAT:
            raise StorageError(f"{path!r} is not a partition manifest")
        if int(manifest.get("version", 0)) > PARTITION_VERSION:
            raise StorageError(
                f"partition manifest {path!r} has version {manifest['version']}, "
                f"newer than supported version {PARTITION_VERSION}"
            )
        try:
            infos = [
                PartitionInfo(
                    id=str(p["id"]),
                    path=str(p["path"]),
                    quarantined=bool(p.get("quarantined", False)),
                )
                for p in manifest["partitions"]
            ]
            node_map = {str(n): str(p) for n, p in manifest.get("nodes", {}).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt partition manifest {path!r}: {exc}") from exc
        return cls(directory, infos, node_map, memory_budget_bytes=memory_budget_bytes)

    # -- partition topology ----------------------------------------------------

    def partition_ids(self) -> list[str]:
        return list(self._infos)

    def partition(self, pid: str) -> StoreCatalog | None:
        """The live child catalog for ``pid``; None when quarantined,
        degraded, or unknown."""
        return self._children.get(pid)

    def partition_for_node(self, node: str) -> str | None:
        """The partition the node map routes ``node`` to; None when the
        node is unmapped (reads broadcast)."""
        return self._node_map.get(node)

    def partition_fanout(self, node: str) -> int:
        """How many partitions a read on ``node`` must probe: 1 when the
        node map covers it, every live partition otherwise.  Feeds the
        cost model's scatter fan-out pricing."""
        if self._node_map.get(node) is not None:
            return 1
        return max(1, len(self._live_children()))

    def node_map(self) -> dict[str, str]:
        with self._lock:
            return dict(self._node_map)

    def _live_children(self) -> dict[str, StoreCatalog]:
        with self._lock:
            return {
                pid: child
                for pid, child in self._children.items()
                if child is not None
            }

    def _children_for(self, node: str) -> list[tuple[str, StoreCatalog]]:
        """The children a read on ``node`` must consult: the mapped one
        (possibly none when it is degraded), or — unmapped — all live."""
        pid = self._node_map.get(node)
        if pid is not None:
            child = self._children.get(pid)
            return [(pid, child)] if child is not None else []
        return list(self._live_children().items())

    def mark_quarantined(self, pid: str, persist: bool = True) -> None:
        """Set a partition aside: close its child (if open), flag it in
        the root manifest, and drop its nodes from serving.  Recovery
        calls this when a child manifest fails verification."""
        with self._lock:
            info = self._infos.get(pid)
            if info is None or info.quarantined:
                return
            self._infos[pid] = replace(info, quarantined=True)
            child = self._children.get(pid)
            self._children[pid] = None
        if child is not None:
            child.close()
        if persist:
            self.save_root_manifest()

    # -- scatter accounting ----------------------------------------------------

    def _count_probes(self, pids: list[str], targeted: bool) -> None:
        with self._lock:
            for pid in pids:
                self._probes[pid] = self._probes.get(pid, 0) + 1
            if targeted:
                self._targeted_probes += len(pids)
            else:
                self._broadcast_probes += len(pids)

    def probes_by_partition(self) -> dict[str, int]:
        """Child-catalog probes per partition id (the counter the targeted
        4-partition benchmark asserts on)."""
        with self._lock:
            return dict(self._probes)

    def record_scatter(self, plan: ScatterPlan) -> None:
        """Account one request-level scatter plan (see
        :class:`ScatterGatherExecutor`)."""
        with self._lock:
            self._scatter_queries += 1
            self._scatter_partitions_matched += plan.fanout
            if plan.broadcast:
                self._scatter_broadcasts += 1

    # -- serving: borrow / release ---------------------------------------------

    def borrow(self, node: str, strategy: StorageStrategy) -> _PartitionLease | None:
        """Scatter one key: probe the owning partition (or broadcast when
        the node is unmapped), pinning each child record touched.  Returns
        a lease whose ``.store`` is the merged read surface — the single
        partition's store, or a ``kind="partition"`` overlay — or None
        when no live partition serves the key."""
        targets = self._children_for(node)
        self._count_probes(
            [pid for pid, _ in targets],
            targeted=self._node_map.get(node) is not None,
        )
        leases: list[tuple[StoreCatalog, object]] = []
        try:
            for _pid, child in targets:
                record = child.borrow(node, strategy)
                if record is not None:
                    leases.append((child, record))
        except BaseException:
            for child, record in leases:
                child.release(record)
            raise
        if not leases:
            return None
        if len(leases) == 1:
            store = leases[0][1].store
        else:
            # the key spans partitions: same union code as generations
            store = OverlayStore(
                [record.store for _, record in leases],
                filter_stats=self._filter_stats,
                kind="partition",
            )
        return _PartitionLease(key=(node, strategy), store=store, leases=leases)

    def release(self, lease: _PartitionLease) -> None:
        for child, record in lease.leases:
            child.release(record)

    def open_store(self, node: str, strategy: StorageStrategy):
        """Unpinned convenience open (the ``StoreCatalog.open_store``
        contract): the store is live when handed back, but a later child
        eviction may close it — long-lived readers should borrow through a
        session instead."""
        targets = self._children_for(node)
        self._count_probes(
            [pid for pid, _ in targets],
            targeted=self._node_map.get(node) is not None,
        )
        stores = []
        for _pid, child in targets:
            store = child.open_store(node, strategy)
            if store is not None:
                stores.append(store)
        if not stores:
            return None
        if len(stores) == 1:
            return stores[0]
        return OverlayStore(
            stores, filter_stats=self._filter_stats, kind="partition"
        )

    # -- appending / compaction -------------------------------------------------

    def append_stores(self, stores, shard_threshold_bytes: int | None = None) -> int:
        """Route each store to its partition and append it there as a
        delta generation; returns bytes written.  Unmapped (new) nodes are
        hash-assigned over the full partition list — including quarantined
        ids, so the assignment stays stable when a partition returns — and
        the root manifest is rewritten when the map grew.  Appending a
        node that routes to a quarantined/degraded partition is an error:
        its lineage would vanish from serving."""
        pending = [(key, store) for key, store in stores.items()]
        ids = list(self._infos)
        grew = False
        with self._lock:
            for (node, _strategy), _store in pending:
                if node not in self._node_map:
                    self._node_map[node] = assign_partition(node, ids)
                    grew = True
        by_pid: dict[str, dict] = {}
        for key, store in pending:
            pid = self._node_map[key[0]]
            if self._children.get(pid) is None:
                raise StorageError(
                    f"cannot append node {key[0]!r}: its partition {pid!r} "
                    "is quarantined/degraded"
                )
            by_pid.setdefault(pid, {})[key] = store
        total = 0
        for pid, sub in by_pid.items():
            total += self._children[pid].append_stores(
                sub, shard_threshold_bytes=shard_threshold_bytes
            )
        if grew:
            total += self.save_root_manifest()
        return total

    def compact(
        self,
        node: str | None = None,
        strategy: StorageStrategy | None = None,
        budget_bytes: int | None = None,
        shard_threshold_bytes: int | None = None,
        parallel: int | None = None,
    ) -> CompactionReport:
        """Compact the partitions' delta generations, each partition
        independently (their maintenance locks do not contend), and merge
        the per-partition reports.

        A ``node``-restricted sweep is routed to the owning partition
        only.  The full sweep fans across the live partitions on a small
        thread pool — ``parallel`` workers (default: one per partition,
        capped at 4); each partition applies ``budget_bytes`` to its own
        sweep, so the cap bounds per-partition foreground impact."""
        if node is not None and self._node_map.get(node) is not None:
            targets = [c for _pid, c in self._children_for(node)]
        else:
            targets = list(self._live_children().values())
        if not targets:
            return CompactionReport()
        kwargs = dict(
            node=node,
            strategy=strategy,
            budget_bytes=budget_bytes,
            shard_threshold_bytes=shard_threshold_bytes,
        )
        if len(targets) == 1 or (parallel is not None and parallel <= 1):
            reports = [child.compact(**kwargs) for child in targets]
        else:
            workers = parallel if parallel is not None else min(4, len(targets))
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="subzero-partition-compact"
            ) as pool:
                reports = list(
                    pool.map(lambda child: child.compact(**kwargs), targets)
                )
        merged = CompactionReport()
        for report in reports:
            merged.compacted.extend(report.compacted)
            merged.skipped.extend(report.skipped)
            merged.bytes_written += report.bytes_written
            merged.bytes_reclaimed += report.bytes_reclaimed
        return merged

    # -- manifest-level accessors ------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct keys across the live partitions."""
        return len({key for child in self._live_children().values() for key in child.keys()})

    def keys(self) -> list[tuple[str, StorageStrategy]]:
        seen: dict[tuple[str, StorageStrategy], None] = {}
        for child in self._live_children().values():
            for key in child.keys():
                seen[key] = None
        return list(seen)

    def entries(self) -> list:
        return [e for child in self._live_children().values() for e in child.entries()]

    def entry(self, node: str, strategy: StorageStrategy):
        for _pid, child in self._children_for(node):
            entry = child.entry(node, strategy)
            if entry is not None:
                return entry
        return None

    def generations_for(self, node: str, strategy: StorageStrategy) -> tuple:
        out: tuple = ()
        for _pid, child in self._children_for(node):
            out += child.generations_for(node, strategy)
        return out

    def generation_count(self, node: str, strategy: StorageStrategy) -> int:
        """Live sources a read must union — generations summed across the
        partitions serving the key (normally exactly one partition)."""
        return sum(
            child.generation_count(node, strategy)
            for _pid, child in self._children_for(node)
        )

    def strategies_for(self, node: str) -> tuple[StorageStrategy, ...]:
        out: list[StorageStrategy] = []
        for _pid, child in self._children_for(node):
            for strategy in child.strategies_for(node):
                if strategy not in out:
                    out.append(strategy)
        return tuple(out)

    def manifest_bytes(self, node: str, strategy: StorageStrategy) -> int:
        return sum(
            child.manifest_bytes(node, strategy)
            for _pid, child in self._children_for(node)
        )

    def lowered_ready(self, node: str, strategy: StorageStrategy) -> bool:
        holders = [
            child
            for _pid, child in self._children_for(node)
            if child.generation_count(node, strategy)
        ]
        return bool(holders) and all(
            child.lowered_ready(node, strategy) for child in holders
        )

    def payload_index_ready(
        self, node: str, strategy: StorageStrategy, input_idx: int
    ) -> bool:
        """A key served by one partition is warm when that child's store
        is; a key spanning partitions gets a fresh union (and index) per
        borrow, so it is never warm."""
        holders = [
            child
            for _pid, child in self._children_for(node)
            if child.generation_count(node, strategy)
        ]
        return len(holders) == 1 and holders[0].payload_index_ready(
            node, strategy, input_idx
        )

    def filters_ready(self, node: str, strategy: StorageStrategy) -> bool:
        holders = [
            child
            for _pid, child in self._children_for(node)
            if child.generation_count(node, strategy)
        ]
        return bool(holders) and all(
            child.filters_ready(node, strategy) for child in holders
        )

    def drop(self, node: str, strategy: StorageStrategy) -> None:
        for _pid, child in self._children_for(node):
            child.drop(node, strategy)

    def drop_generation(self, node: str, strategy: StorageStrategy, gen: int) -> None:
        for _pid, child in self._children_for(node):
            child.drop_generation(node, strategy, gen)

    # -- introspection -----------------------------------------------------------

    def resident_bytes(self) -> int:
        return sum(c.resident_bytes() for c in self._live_children().values())

    def open_count(self) -> int:
        return sum(c.open_count() for c in self._live_children().values())

    def is_open(self, node: str, strategy: StorageStrategy) -> bool:
        return any(
            child.is_open(node, strategy)
            for _pid, child in self._children_for(node)
        )

    def is_catalog_store(self, node: str, strategy: StorageStrategy, store) -> bool:
        for _pid, child in self._children_for(node):
            if child.is_catalog_store(node, strategy, store):
                return True
        return False

    def stats(self) -> dict[str, int]:
        """Child cache counters summed, plus the root's scatter counters
        (``partitions``, ``partition_probes``, targeted/broadcast splits,
        and the request-level scatter-plan tallies)."""
        out: dict[str, int] = {}
        for child in self._live_children().values():
            for key, value in child.stats().items():
                out[key] = out.get(key, 0) + value
        for key, value in self._filter_stats.snapshot().items():
            out[key] = out.get(key, 0) + value
        with self._lock:
            out["partitions"] = len(self._infos)
            out["partitions_degraded"] = sum(
                1 for child in self._children.values() if child is None
            )
            out["partition_probes"] = sum(self._probes.values())
            out["targeted_probes"] = self._targeted_probes
            out["broadcast_probes"] = self._broadcast_probes
            out["scatter_queries"] = self._scatter_queries
            out["scatter_broadcasts"] = self._scatter_broadcasts
            out["scatter_partitions_matched"] = self._scatter_partitions_matched
        return out

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        for child in self._live_children().values():
            child.close()

    def __enter__(self) -> "PartitionedCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScatterGatherExecutor:
    """Request-level scatter-gather over a :class:`PartitionedCatalog`.

    Wraps a :class:`~repro.core.query.QueryExecutor`: :meth:`plan`
    computes which partitions a :class:`~repro.core.query.QueryRequest`
    can touch (the unique partitions of its path's nodes — resolved from
    endpoints when the request carries those), and
    :meth:`execute_request` records the plan on the catalog's scatter
    counters before running the query through the standard executor,
    whose per-step store borrows then land only on the planned
    partitions.  The plan degrades to an all-partition broadcast when it
    cannot be narrowed: a path node missing from the node map, an
    unresolvable path, or ``entire_array`` forced on (shortcut steps may
    touch any store the engine deems cheapest)."""

    def __init__(self, executor, catalog: PartitionedCatalog):
        self._executor = executor
        self.catalog = catalog

    def plan(self, request) -> ScatterPlan:
        """The partitions ``request`` can match; never raises — an
        unresolvable request yields a broadcast plan and the real error
        surfaces from execution."""
        all_live = tuple(self.catalog._live_children())
        try:
            query = request.to_query(self._executor.instance.spec)
            nodes = tuple(step.node for step in query.path)
        except QueryError:
            return ScatterPlan(partition_ids=all_live, broadcast=True, nodes=())
        if request.entire_array is True:
            return ScatterPlan(partition_ids=all_live, broadcast=True, nodes=nodes)
        pids: list[str] = []
        for node in nodes:
            pid = self.catalog.partition_for_node(node)
            if pid is None:
                return ScatterPlan(
                    partition_ids=all_live, broadcast=True, nodes=nodes
                )
            if pid not in pids:
                pids.append(pid)
        return ScatterPlan(partition_ids=tuple(pids), broadcast=False, nodes=nodes)

    def execute_request(self, request, session=None):
        plan = self.plan(request)
        self.catalog.record_scatter(plan)
        return self._executor.execute_request(request, session=session)
