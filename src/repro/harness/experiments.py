"""Experiment runners regenerating the paper's tables and figures.

Each runner measures *simulated* cluster runtime (the dataflow cost model)
together with real result cardinalities and shuffle metrics.  Absolute
numbers differ from the paper's 16-node cluster; the claims under test are
the *shapes* listed in DESIGN.md §4.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.dataflow import ClusterCostModel, ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.ldbc import LDBCGenerator

from .queries import ALL_QUERIES, instantiate

#: Laptop-scale stand-ins for the paper's SF 10 / SF 100 (ratio 10x).
SCALE_FACTOR_SMALL = 0.1
SCALE_FACTOR_LARGE = 1.0

#: Cost model matched to the paper's cluster narrative: a fixed job
#: overhead that caps speedup on small inputs, a per-worker memory budget
#: small enough that single-worker joins on the large SF spill.
def default_cost_model(workers):
    # Calibration: our synthetic graphs are ~1000x smaller than the paper's
    # LDBC instances, so per-record and per-byte costs are scaled up by the
    # same factor; the absolute simulated runtimes then land in the same
    # hundreds-of-seconds range as Table 4 and the *shape* claims (speedup,
    # skew stagnation, spill-driven super-linearity, overhead-limited small
    # inputs) are preserved.
    return ClusterCostModel(
        workers=workers,
        cpu_seconds_per_record=4.0e-3,
        network_seconds_per_byte=2.0e-6,
        memory_records_per_worker=20_000,
        spill_penalty=3.0,
        job_overhead_seconds=0.5,
        barrier_overhead_seconds=0.02,
    )


@dataclass
class QueryRun:
    """Outcome of one query execution on a simulated cluster."""

    query: str
    workers: int
    scale_factor: float
    result_count: int
    simulated_seconds: float
    metrics: Dict = field(default_factory=dict)


class DatasetCache:
    """Generate each (scale_factor, seed) dataset once per process."""

    def __init__(self, seed=42):
        self.seed = seed
        self._datasets = {}

    def dataset(self, scale_factor):
        key = scale_factor
        if key not in self._datasets:
            self._datasets[key] = LDBCGenerator(scale_factor, self.seed).generate()
        return self._datasets[key]

    def first_name(self, scale_factor, selectivity):
        return self.dataset(scale_factor).first_name(selectivity)


_GLOBAL_CACHE = DatasetCache()


def run_query(
    query_name,
    scale_factor,
    workers,
    selectivity=None,
    cache=None,
    cost_model_factory=default_cost_model,
    indexed=False,
    planner_cls=None,
):
    """Execute one named paper query on a fresh simulated cluster."""
    cache = cache or _GLOBAL_CACHE
    dataset = cache.dataset(scale_factor)
    environment = ExecutionEnvironment(cost_model=cost_model_factory(workers))
    graph = dataset.to_logical_graph(environment, indexed=indexed)
    template = ALL_QUERIES[query_name]
    first_name = (
        dataset.first_name(selectivity) if "{firstName}" in template else None
    )
    query = instantiate(template, first_name)

    # statistics are pre-computed in Gradoop; exclude them from the metrics
    statistics = GraphStatistics.from_graph(graph)
    environment.reset_metrics(query_name)

    # the figures price the paper's dataflow on the simulated cluster,
    # which only the reference path partitions and shuffles
    kwargs = {"statistics": statistics, "mode": "reference"}
    if planner_cls is not None:
        kwargs["planner_cls"] = planner_cls
    runner = CypherRunner(graph, **kwargs)
    embeddings, _ = runner.execute_embeddings(query)
    return QueryRun(
        query=query_name,
        workers=workers,
        scale_factor=scale_factor,
        result_count=len(embeddings),
        simulated_seconds=environment.simulated_runtime_seconds(),
        metrics=environment.metrics.summary(),
    )


# Figure 3 / Table 4 -----------------------------------------------------------


def speedup_series(query_name, scale_factor, worker_counts, selectivity=None,
                   cache=None):
    """Runtime and speedup for one query over increasing worker counts."""
    runs = [
        run_query(query_name, scale_factor, workers, selectivity, cache)
        for workers in worker_counts
    ]
    base = runs[0].simulated_seconds
    return [
        {
            "workers": run.workers,
            "seconds": run.simulated_seconds,
            "speedup": base / run.simulated_seconds,
            "results": run.result_count,
        }
        for run in runs
    ]


def runtime_grid(worker_counts, selectivities=("low", "medium", "high"),
                 cache=None, scale_factors=None):
    """The full Table 4 grid: operational queries × selectivity × SF ×
    workers, analytical queries × SF × workers."""
    if scale_factors is None:
        scale_factors = (SCALE_FACTOR_SMALL, SCALE_FACTOR_LARGE)
    grid = []
    for query_name in ("Q1", "Q2", "Q3"):
        for selectivity in selectivities:
            for scale_factor in scale_factors:
                series = speedup_series(
                    query_name, scale_factor, worker_counts, selectivity, cache
                )
                grid.append(
                    {
                        "query": query_name,
                        "selectivity": selectivity,
                        "scale_factor": scale_factor,
                        "series": series,
                    }
                )
    for query_name in ("Q4", "Q5", "Q6"):
        for scale_factor in scale_factors:
            series = speedup_series(query_name, scale_factor, worker_counts,
                                    cache=cache)
            grid.append(
                {
                    "query": query_name,
                    "selectivity": None,
                    "scale_factor": scale_factor,
                    "series": series,
                }
            )
    return grid


# Figure 4 ----------------------------------------------------------------------


def datasize_series(query_names, workers, scale_factors, cache=None):
    """Runtime per query for growing data volumes at fixed workers."""
    table = {}
    for query_name in query_names:
        selectivity = "low" if query_name in ("Q1", "Q2", "Q3") else None
        table[query_name] = [
            {
                "scale_factor": scale_factor,
                "seconds": run_query(
                    query_name, scale_factor, workers, selectivity, cache
                ).simulated_seconds,
            }
            for scale_factor in scale_factors
        ]
    return table


# Figure 5 ----------------------------------------------------------------------


def selectivity_series(query_names, workers, scale_factor, cache=None):
    """Runtime per query for high/medium/low selectivity predicates."""
    table = {}
    for query_name in query_names:
        table[query_name] = {
            selectivity: run_query(
                query_name, scale_factor, workers, selectivity, cache
            )
            for selectivity in ("high", "medium", "low")
        }
    return table


# Table 3 -------------------------------------------------------------------------


def intermediate_result_sizes(scale_factor, cache=None):
    """Result cardinalities of the Table 3 sub-patterns per selectivity."""
    from .queries import TABLE3_PATTERNS

    cache = cache or _GLOBAL_CACHE
    dataset = cache.dataset(scale_factor)
    environment = ExecutionEnvironment(cost_model=default_cost_model(4))
    graph = dataset.to_logical_graph(environment)
    runner = CypherRunner(graph)
    table = {}
    for pattern, template in TABLE3_PATTERNS.items():
        row = {}
        for selectivity in ("high", "medium", "low"):
            query = instantiate(template, dataset.first_name(selectivity))
            embeddings, _ = runner.execute_embeddings(query)
            row[selectivity] = len(embeddings)
        table[pattern] = row
    return table


# Appendix cardinalities --------------------------------------------------------------


def result_cardinalities(scale_factors, cache=None):
    """Per-query result counts (the appendix cardinality tables)."""
    table = {}
    for query_name in ALL_QUERIES:
        rows = {}
        for scale_factor in scale_factors:
            if query_name in ("Q1", "Q2", "Q3"):
                rows[scale_factor] = {
                    selectivity: run_query(
                        query_name, scale_factor, 4, selectivity, cache
                    ).result_count
                    for selectivity in ("high", "medium", "low")
                }
            else:
                rows[scale_factor] = run_query(
                    query_name, scale_factor, 4, cache=cache
                ).result_count
        table[query_name] = rows
    return table


# Rendering helpers ---------------------------------------------------------------------


def format_table(headers, rows):
    """Plain-text table with right-aligned numeric columns."""
    widths = [len(h) for h in headers]
    rendered_rows = []
    for row in rows:
        rendered = [
            ("%.1f" % value if isinstance(value, float) else str(value))
            for value in row
        ]
        rendered_rows.append(rendered)
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for rendered in rendered_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(rendered, widths)))
    return "\n".join(lines)
