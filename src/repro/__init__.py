"""SubZero — a fine-grained lineage system for scientific databases.

Reproduction of Wu, Madden & Stonebraker, *SubZero: A Fine-Grained Lineage
System for Scientific Databases* (ICDE 2013), built on a from-scratch
SciDB-like array substrate.

Quickstart::

    import numpy as np
    from repro import SubZero, WorkflowSpec, SciArray, ops

    spec = WorkflowSpec(name="demo")
    spec.add_source("image")
    spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["image"])
    spec.add_node("bright", ops.Threshold(0.5), ["smooth"])

    sz = SubZero(spec)
    sz.use_mapping_where_possible()
    sz.run({"image": SciArray.from_numpy(np.random.rand(64, 64))})
    result = sz.backward_query([(10, 12)], ["bright", "smooth"])
    print(result.coords)
"""

from repro import ops
from repro.arrays import ArraySchema, Attribute, Dimension, SciArray, VersionStore
from repro.core import (
    ALL_STRATEGIES,
    BLACKBOX,
    COMP_MANY_B,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_MANY_B,
    PAY_ONE_B,
    Direction,
    EncodingKind,
    Frontier,
    LineageMode,
    LineageQuery,
    Orientation,
    QueryStep,
    RegionBatch,
    StorageStrategy,
)
from repro.core.costmodel import CostConstants, CostModel
from repro.core.optimizer import (
    OptimizationResult,
    StrategyOptimizer,
    WorkloadProfile,
)
from repro.core.query import (
    QueryExecutor,
    QueryRequest,
    QueryResult,
    QuerySession,
    StepStats,
)
from repro.core.runtime import LineageRuntime
from repro.core.stats import OperatorStats, StatsCollector
from repro.core.subzero import SubZero
from repro.errors import (
    CoordinateError,
    LineageError,
    OperatorError,
    OptimizationError,
    QueryError,
    SchemaError,
    StorageError,
    SubZeroError,
    VersionError,
    WorkflowError,
)
from repro.ops.base import LineageContext, Operator
from repro.workflow import (
    WorkflowInstance,
    WorkflowSpec,
    execute_workflow,
    recover_instance,
)

__version__ = "0.1.0"

__all__ = [
    "SubZero",
    "WorkflowSpec",
    "WorkflowInstance",
    "execute_workflow",
    "recover_instance",
    "SciArray",
    "ArraySchema",
    "Attribute",
    "Dimension",
    "VersionStore",
    "Operator",
    "LineageContext",
    "ops",
    # lineage model
    "RegionBatch",
    "Frontier",
    "LineageQuery",
    "QueryStep",
    "Direction",
    "LineageMode",
    "EncodingKind",
    "Orientation",
    "StorageStrategy",
    "ALL_STRATEGIES",
    "BLACKBOX",
    "MAP",
    "FULL_ONE_B",
    "FULL_ONE_F",
    "FULL_MANY_B",
    "FULL_MANY_F",
    "PAY_ONE_B",
    "PAY_MANY_B",
    "COMP_ONE_B",
    "COMP_MANY_B",
    # engine pieces
    "LineageRuntime",
    "QueryExecutor",
    "QueryRequest",
    "QueryResult",
    "QuerySession",
    "StepStats",
    "StatsCollector",
    "OperatorStats",
    "CostModel",
    "CostConstants",
    "StrategyOptimizer",
    "WorkloadProfile",
    "OptimizationResult",
    # errors
    "SubZeroError",
    "SchemaError",
    "CoordinateError",
    "VersionError",
    "StorageError",
    "WorkflowError",
    "OperatorError",
    "LineageError",
    "QueryError",
    "OptimizationError",
    "__version__",
]
