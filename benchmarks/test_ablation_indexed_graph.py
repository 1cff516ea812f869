"""Ablation E7 — IndexedLogicalGraph vs plain label scans (paper §3.4).

The paper added per-label datasets so that a label predicate loads only
its label's dataset.  We measure the records processed and the simulated
runtime of Query 1 on both representations.
"""

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.harness import (
    ALL_QUERIES,
    SCALE_FACTOR_LARGE,
    default_cost_model,
    format_table,
    instantiate,
)


def _run(dataset, indexed):
    environment = ExecutionEnvironment(cost_model=default_cost_model(4))
    graph = dataset.to_logical_graph(environment, indexed=indexed)
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("low"))
    statistics = GraphStatistics.from_graph(graph)
    environment.reset_metrics("q1")
    # the figure prices the paper's dataflow — an edge scan, two shuffles
    # and a hash join per query edge — not the adjacency hop a columnar run
    # takes on the indexed graph
    runner = CypherRunner(graph, statistics=statistics, mode="reference")
    embeddings, _ = runner.execute_embeddings(query)
    return {
        "results": len(embeddings),
        "records": environment.metrics.total_records_processed,
        "seconds": environment.simulated_runtime_seconds(),
    }


@pytest.mark.benchmark(group="ablation-indexed")
def test_ablation_indexed_logical_graph(benchmark, dataset_cache, report):
    dataset = dataset_cache.dataset(SCALE_FACTOR_LARGE)

    def run():
        return {"plain": _run(dataset, False), "indexed": _run(dataset, True)}

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (name, result["results"], result["records"], result["seconds"])
        for name, result in outcome.items()
    ]
    report.add(
        "Ablation E7 — plain vs label-indexed logical graph (Q1, SF-large)",
        format_table(["representation", "results", "records processed", "sim s"], rows),
    )
    report.write("ablation_indexed_graph")

    plain, indexed = outcome["plain"], outcome["indexed"]
    assert indexed["results"] == plain["results"]  # same answer
    assert indexed["records"] < plain["records"]  # fewer records scanned
    assert indexed["seconds"] <= plain["seconds"] * 1.01
