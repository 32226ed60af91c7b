"""Workflow executor: runs a spec over inputs, persisting every version.

Each operator runs when its inputs are available (§IV); its output is
persisted as a new version (black-box lineage), its invocation is logged to
the WAL *before* the array data, and whatever region lineage it emitted is
encoded into the runtime's stores.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.arrays.array import SciArray
from repro.arrays.versions import VersionStore
from repro.core.runtime import LineageRuntime
from repro.errors import WorkflowError
from repro.ops.base import LineageContext
from repro.storage.wal import InvocationRecord, WriteAheadLog
from repro.workflow.instance import NodeExecution, WorkflowInstance
from repro.workflow.spec import WorkflowSpec

__all__ = ["execute_workflow"]


def execute_workflow(
    spec: WorkflowSpec,
    inputs: Mapping[str, SciArray],
    runtime: LineageRuntime | None = None,
    version_store: VersionStore | None = None,
    wal: WriteAheadLog | None = None,
) -> WorkflowInstance:
    """Execute ``spec`` on ``inputs`` and return the workflow instance.

    ``runtime`` carries the lineage strategy assignment; omit it to run with
    black-box lineage only (the workflow executor then still persists every
    intermediate, which is all black-box lineage needs).
    """
    spec.validate()
    runtime = runtime if runtime is not None else LineageRuntime()
    versions = version_store if version_store is not None else VersionStore()
    wal = wal if wal is not None else WriteAheadLog()

    missing = [s for s in spec.sources if s not in inputs]
    if missing:
        raise WorkflowError(f"missing input arrays for sources: {missing}")
    extra = [s for s in inputs if s not in spec.sources]
    if extra:
        raise WorkflowError(f"inputs supplied for unknown sources: {extra}")

    instance = WorkflowInstance(spec=spec, versions=versions)
    for source in spec.sources:
        version = versions.put(source, inputs[source])
        instance.source_versions[source] = version.version_id

    produced: dict[str, int] = dict(instance.source_versions)
    for node_name in spec.topo_order():
        node = spec.node(node_name)
        op = node.operator
        input_versions = tuple(produced[dep] for dep in node.inputs)
        input_arrays = [versions.get(v).array for v in input_versions]
        op.bind(tuple(arr.schema for arr in input_arrays))
        runtime.prepare_node(node_name, op)

        cur_modes = runtime.cur_modes(node_name, op)
        ctx = LineageContext(cur_modes=cur_modes, node=node_name)

        start = time.perf_counter()
        output = op.run(input_arrays, ctx)
        compute_seconds = time.perf_counter() - start

        if output.shape != op.output_schema.shape:
            raise WorkflowError(
                f"node {node_name!r} produced shape {output.shape}, "
                f"declared {op.output_schema.shape}"
            )

        # WAL before array data ("black-box lineage is written before the
        # array data", §VI-A).
        wal.append(
            InvocationRecord(
                node=node_name,
                op_name=type(op).__name__,
                input_versions=input_versions,
                output_version=len(versions),
                lineage_modes=tuple(sorted(m.value for m in cur_modes)),
            )
        )
        version = versions.put(
            node_name, output, parents=input_versions, producer=node_name
        )
        produced[node_name] = version.version_id

        lineage_seconds = runtime.ingest(
            node_name, ctx.sink, out_shape=op.output_shape, in_shapes=op.input_shapes
        )
        runtime.stats.record_run(
            node_name,
            compute_seconds,
            output.size,
            tuple(arr.size for arr in input_arrays),
        )
        instance.executions[node_name] = NodeExecution(
            node=node_name,
            operator=op,
            input_versions=input_versions,
            output_version=version.version_id,
            compute_seconds=compute_seconds,
            lineage_seconds=lineage_seconds,
        )
    # Join any background encodes before handing the instance back, so a
    # deferred run's lineage is queryable (and failures surface) on return.
    runtime.drain_capture()
    return instance
