"""Ablation E8 — greedy planner vs textual-order baseline (paper §3.2).

The greedy planner orders joins to minimize intermediate cardinality; the
baseline folds query edges in the order they appear in the query text.
We compare total records processed (the intermediate-result volume).

Findings mirror the paper's discussion: with the basic statistics of §3.2
the greedy order helps most when the textual order is poor (the
``BAD_ORDER`` query and low-selectivity Q3/Q4) and can even lose slightly
when the crude estimates mislead (Q6) — which is exactly why the authors
name "more sophisticated estimation methods" as ongoing work.
"""

import pytest

from repro.engine import CypherRunner, GreedyPlanner, LeftDeepPlanner
from repro.harness import (
    ALL_QUERIES,
    SCALE_FACTOR_SMALL,
    format_table,
    instantiate,
)

#: A query whose textual order is deliberately terrible: it starts from the
#: unselective forum-membership edge and names the highly selective person
#: predicate last.  A statistics-driven planner must start from the rare
#: person instead.
BAD_ORDER_QUERY = """
MATCH (forum:Forum)-[:hasMember]->(person:Person),
      (person)-[:isLocatedIn]->(city:City),
      (rare:Person)-[:knows]->(person)
WHERE rare.firstName = '{firstName}'
RETURN *
"""


def _run(setup, query, planner_cls, selectivity=None):
    dataset, environment, graph, statistics = setup
    first_name = dataset.first_name(selectivity) if selectivity else None
    query = instantiate(query, first_name)
    environment.reset_metrics("ablation")
    runner = CypherRunner(
        graph, statistics=statistics, planner_cls=planner_cls, mode="reference"
    )
    embeddings, _ = runner.execute_embeddings(query)
    intermediate = sum(
        run.records_in
        for run in environment.metrics.runs
        if run.name.startswith(
            ("JoinEmbeddings", "SelectEmbeddings", "ExpandEmbeddings", "Cartesian")
        )
    )
    return {
        "results": len(embeddings),
        "records": intermediate,
        "shuffled": environment.metrics.total_shuffled_records,
    }


@pytest.mark.benchmark(group="ablation-planner")
def test_ablation_greedy_vs_left_deep(benchmark, graph_cache, report):
    setup = graph_cache.get(SCALE_FACTOR_SMALL)
    cases = [
        ("BAD_ORDER", BAD_ORDER_QUERY, "high"),
        ("Q3", ALL_QUERIES["Q3"], "low"),
        ("Q4", ALL_QUERIES["Q4"], None),
        ("Q6", ALL_QUERIES["Q6"], None),
    ]

    def run():
        outcome = {}
        for name, query, selectivity in cases:
            outcome[name] = {
                "greedy": _run(setup, query, GreedyPlanner, selectivity),
                "left-deep": _run(setup, query, LeftDeepPlanner, selectivity),
            }
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, variants in outcome.items():
        ratio = variants["left-deep"]["records"] / max(
            variants["greedy"]["records"], 1
        )
        for planner, result in variants.items():
            rows.append(
                (name, planner, result["results"], result["records"],
                 result["shuffled"])
            )
        rows.append((name, "ratio", "-", round(ratio, 2), "-"))
    report.add(
        "Ablation E8 — greedy vs left-deep planner (SF-small); "
        "ratio = left-deep records / greedy records",
        format_table(
            ["query", "planner", "results", "intermediate records", "shuffled"], rows
        ),
    )
    report.write("ablation_planner")

    for name, variants in outcome.items():
        # identical answers regardless of plan
        assert variants["greedy"]["results"] == variants["left-deep"]["results"], name

    # statistics-driven ordering clearly wins when the textual order is bad
    bad = outcome["BAD_ORDER"]
    assert bad["greedy"]["records"] * 1.3 < bad["left-deep"]["records"], bad

    # and stays competitive overall (crude estimates may lose a little, §5)
    total_greedy = sum(v["greedy"]["records"] for v in outcome.values())
    total_left = sum(v["left-deep"]["records"] for v in outcome.values())
    assert total_greedy <= total_left * 1.1
