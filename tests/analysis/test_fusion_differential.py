"""Columnar-vs-reference differential checking.

For every LDBC paper query (Q1–Q6), under every planner, the embedding
multiset of a columnar (fused) run equals the per-record reference one —
and the same holds for generated queries (labels, predicates, undirected
edges, variable-length paths).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import fusion_differential_check
from repro.dataflow import ExecutionEnvironment
from repro.engine import GraphStatistics
from repro.epgm import LogicalGraph
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator
from tests.analysis.test_property import cypher_queries
from tests.conftest import build_figure1_elements


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph, GraphStatistics.from_graph(graph)


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_ldbc_queries_fused_equals_per_record(ldbc, name):
    dataset, graph, statistics = ldbc
    query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
    report = fusion_differential_check(graph, query, statistics=statistics)
    assert report.clean, "%s: %s" % (
        name, [str(d) for d in report.diagnostics]
    )
    # both modes really ran for every planner
    assert len(report.runs) == 6
    assert len({run.row_count for run in report.runs}) == 1


def test_report_names_both_modes(ldbc):
    dataset, graph, statistics = ldbc
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
    report = fusion_differential_check(graph, query, statistics=statistics)
    modes = {run.planner.rsplit("[", 1)[1].rstrip("]") for run in report.runs}
    assert modes == {"columnar", "reference"}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(query=cypher_queries())
def test_generated_queries_fused_equals_per_record(query):
    head, vertices, edges = build_figure1_elements()
    graph = LogicalGraph.from_collections(
        ExecutionEnvironment(), vertices, edges, graph_head=head
    )
    report = fusion_differential_check(graph, query)
    assert report.clean, "%s: %s" % (
        query, [str(d) for d in report.diagnostics]
    )
