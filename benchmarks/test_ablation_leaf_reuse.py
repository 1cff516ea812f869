"""Ablation E11 — recurring-subquery reuse (paper §5 "ongoing work").

The triangle query Q5 references ``:knows`` three times; with leaf-scan
sharing the edge relation is selected and transformed once instead of
three times.  Measures scan volume and simulated runtime on Q5 and Q6.
"""

import pytest

from repro.engine import CypherRunner, GreedyPlanner
from repro.harness import ALL_QUERIES, SCALE_FACTOR_SMALL, format_table


class _NoReusePlanner(GreedyPlanner):
    def __init__(self, *args, **kwargs):
        kwargs["reuse_leaf_scans"] = False
        super().__init__(*args, **kwargs)


def _run(setup, query_name, planner_cls):
    _, environment, graph, statistics = setup
    environment.reset_metrics(query_name)
    runner = CypherRunner(
        graph, statistics=statistics, planner_cls=planner_cls, mode="reference"
    )
    embeddings, _ = runner.execute_embeddings(ALL_QUERIES[query_name])
    leaf_scans = sum(
        run.records_in
        for run in environment.metrics.runs
        if run.name.startswith(("SelectAndProject", "vertices", "edges"))
    )
    return {
        "results": len(embeddings),
        "leaf_records": leaf_scans,
        "seconds": environment.simulated_runtime_seconds(),
    }


@pytest.mark.benchmark(group="ablation-leaf-reuse")
def test_ablation_leaf_scan_reuse(benchmark, graph_cache, report):
    setup = graph_cache.get(SCALE_FACTOR_SMALL)

    def run():
        outcome = {}
        for query_name in ("Q5", "Q6"):
            outcome[query_name] = {
                "shared": _run(setup, query_name, GreedyPlanner),
                "separate": _run(setup, query_name, _NoReusePlanner),
            }
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for query_name, variants in outcome.items():
        for mode, result in variants.items():
            rows.append(
                (
                    query_name,
                    mode,
                    result["results"],
                    result["leaf_records"],
                    result["seconds"],
                )
            )
    report.add(
        "Ablation E11 — leaf-scan reuse (recurring subqueries, §5)",
        format_table(
            ["query", "leaf scans", "results", "leaf records", "sim s"], rows
        ),
    )
    report.write("ablation_leaf_reuse")

    for query_name, variants in outcome.items():
        assert variants["shared"]["results"] == variants["separate"]["results"]
        assert (
            variants["shared"]["leaf_records"] < variants["separate"]["leaf_records"]
        ), query_name
        assert variants["shared"]["seconds"] <= variants["separate"]["seconds"]
