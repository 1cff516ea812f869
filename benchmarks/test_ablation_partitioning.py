"""Ablation E12 — graph data partitioning strategies (paper §5 outlook).

"We want to investigate how different join implementations and data
partitioning as well as replication strategies can further reduce
runtimes."  We compare Flink-style round-robin block placement with
hash co-partitioning (vertices by id, edges by source id) on the
analytical queries: co-partitioning leaves one side of every
vertex-to-outgoing-edge join in place.
"""

import pytest

from repro.dataflow import ExecutionEnvironment, JoinStrategy
from repro.engine import CypherRunner, GraphStatistics, GreedyPlanner
from repro.epgm import GraphPartitioning
from repro.harness import (
    ALL_QUERIES,
    SCALE_FACTOR_SMALL,
    default_cost_model,
    format_table,
)


class _RepartitionPlanner(GreedyPlanner):
    """Force repartition joins: placement effects are invisible under
    broadcast joins, which replicate one side regardless."""

    def __init__(self, *args, **kwargs):
        kwargs["join_strategy"] = JoinStrategy.REPARTITION_HASH
        super().__init__(*args, **kwargs)


def _run(dataset, query_name, partitioning):
    environment = ExecutionEnvironment(cost_model=default_cost_model(8))
    graph = dataset.to_logical_graph(environment, partitioning=partitioning)
    statistics = GraphStatistics.from_graph(graph)
    environment.reset_metrics(query_name)
    runner = CypherRunner(
        graph, statistics=statistics, planner_cls=_RepartitionPlanner,
        mode="reference",
    )
    embeddings, _ = runner.execute_embeddings(ALL_QUERIES[query_name])
    return {
        "results": len(embeddings),
        "shuffled_records": environment.metrics.total_shuffled_records,
        "shuffled_bytes": environment.metrics.total_shuffled_bytes,
        "seconds": environment.simulated_runtime_seconds(),
    }


@pytest.mark.benchmark(group="ablation-partitioning")
def test_ablation_partitioning(benchmark, dataset_cache, report):
    dataset = dataset_cache.dataset(SCALE_FACTOR_SMALL)

    def run():
        outcome = {}
        for query_name in ("Q4", "Q5", "Q6"):
            outcome[query_name] = {
                "round-robin": _run(
                    dataset, query_name, GraphPartitioning.ROUND_ROBIN
                ),
                "hash": _run(dataset, query_name, GraphPartitioning.HASH),
            }
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for query_name, variants in outcome.items():
        for placement, result in variants.items():
            rows.append(
                (
                    query_name,
                    placement,
                    result["results"],
                    result["shuffled_records"],
                    result["seconds"],
                )
            )
    report.add(
        "Ablation E12 — data placement: round-robin vs hash co-partitioning "
        "(8 workers, SF-small)",
        format_table(
            ["query", "placement", "results", "shuffled records", "sim s"], rows
        ),
    )
    report.write("ablation_partitioning")

    for query_name, variants in outcome.items():
        assert variants["hash"]["results"] == variants["round-robin"]["results"]
        assert (
            variants["hash"]["shuffled_records"]
            < variants["round-robin"]["shuffled_records"]
        ), query_name
