"""Ablation E13 — join-based engine vs PSgL-style vertex-centric matching.

The paper's related work suggests PSgL's vertex-centric ideas could
improve the join-based implementation.  We compare the two architectures
on the triangle query (Q5): the engine's cost is join shuffle, PSgL's is
partial-embedding message traffic; both must produce identical matches.
"""

import pytest

from repro.bsp import PSgLMatcher
from repro.engine import CypherRunner, canonical_rows_from_embeddings
from repro.harness import ALL_QUERIES, SCALE_FACTOR_SMALL, format_table

QUERY = ALL_QUERIES["Q5"]


def _engine_run(setup):
    _, environment, graph, statistics = setup
    environment.reset_metrics("engine")
    runner = CypherRunner(graph, statistics=statistics, mode="reference")
    embeddings, meta = runner.execute_embeddings(QUERY)
    return {
        "rows": sorted(canonical_rows_from_embeddings(embeddings, meta)),
        "shuffled_records": environment.metrics.total_shuffled_records,
        "seconds": environment.simulated_runtime_seconds(),
    }


def _psgl_run(setup):
    _, environment, graph, _ = setup
    environment.reset_metrics("psgl")
    rows = PSgLMatcher(graph).match(QUERY)
    message_records = sum(
        run.records_in
        for run in environment.metrics.runs
        if run.name == "pregel-deliver"
    )
    return {
        "rows": sorted(rows),
        "shuffled_records": environment.metrics.total_shuffled_records,
        "messages": message_records,
        "seconds": environment.simulated_runtime_seconds(),
    }


@pytest.mark.benchmark(group="ablation-bsp")
def test_ablation_engine_vs_psgl(benchmark, graph_cache, report):
    setup = graph_cache.get(SCALE_FACTOR_SMALL)

    def run():
        return {"engine": _engine_run(setup), "psgl": _psgl_run(setup)}

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    engine, psgl = outcome["engine"], outcome["psgl"]
    report.add(
        "Ablation E13 — join-based engine vs PSgL (Q5 triangles, SF-small)",
        format_table(
            ["matcher", "matches", "shuffled records", "messages", "sim s"],
            [
                ("engine", len(engine["rows"]), engine["shuffled_records"], "-",
                 engine["seconds"]),
                ("psgl", len(psgl["rows"]), psgl["shuffled_records"],
                 psgl["messages"], psgl["seconds"]),
            ],
        ),
    )
    report.write("ablation_bsp_matcher")

    # identical answers from two architecturally different matchers
    assert engine["rows"] == psgl["rows"]
    assert len(engine["rows"]) > 0
