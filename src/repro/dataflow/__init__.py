"""A deterministic, partition-parallel dataflow engine.

This package is the project's stand-in for Apache Flink (see DESIGN.md §2):
lazy :class:`DataSet` DAGs, hash/broadcast join strategies, bulk iteration
and a :class:`ClusterCostModel` that converts execution metrics into
simulated cluster runtimes.
"""

from .cancellation import CancellationToken, QueryCancelled, QueryTimeout
from .cost import ClusterCostModel
from .dataset import DataSet, GroupedDataSet
from .environment import ExecutionEnvironment, JobScope
from .errors import DataflowError, IterationError, JobExecutionError, PlanError
from .fusion import DEFAULT_BATCH_SIZE, FusedChainOperator, plan_fusion
from .metrics import JobMetrics, OperatorRun
from .modes import MODES
from .operators import JoinStrategy
from .partitioner import partition_index, round_robin_partitions, stable_hash
from .sizing import estimate_size

__all__ = [
    "CancellationToken",
    "ClusterCostModel",
    "DEFAULT_BATCH_SIZE",
    "DataSet",
    "DataflowError",
    "ExecutionEnvironment",
    "FusedChainOperator",
    "GroupedDataSet",
    "IterationError",
    "JobExecutionError",
    "JobMetrics",
    "JobScope",
    "JoinStrategy",
    "MODES",
    "OperatorRun",
    "PlanError",
    "QueryCancelled",
    "QueryTimeout",
    "estimate_size",
    "partition_index",
    "plan_fusion",
    "round_robin_partitions",
    "stable_hash",
]
