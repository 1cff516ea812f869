"""Benchmark harness: the paper's queries and experiment runners."""

from .experiments import (
    DatasetCache,
    QueryRun,
    SCALE_FACTOR_LARGE,
    SCALE_FACTOR_SMALL,
    datasize_series,
    default_cost_model,
    format_table,
    intermediate_result_sizes,
    result_cardinalities,
    run_query,
    runtime_grid,
    selectivity_series,
    speedup_series,
)
from .paper_reference import CARDINALITIES, TABLE3, TABLE4, paper_speedup
from .queries import (
    ALL_QUERIES,
    ANALYTICAL_QUERIES,
    OPERATIONAL_QUERIES,
    TABLE3_PATTERNS,
    instantiate,
)

__all__ = [
    "ALL_QUERIES",
    "CARDINALITIES",
    "TABLE3",
    "TABLE4",
    "paper_speedup",
    "ANALYTICAL_QUERIES",
    "DatasetCache",
    "OPERATIONAL_QUERIES",
    "QueryRun",
    "SCALE_FACTOR_LARGE",
    "SCALE_FACTOR_SMALL",
    "TABLE3_PATTERNS",
    "datasize_series",
    "default_cost_model",
    "format_table",
    "instantiate",
    "intermediate_result_sizes",
    "result_cardinalities",
    "run_query",
    "runtime_grid",
    "selectivity_series",
    "speedup_series",
]
