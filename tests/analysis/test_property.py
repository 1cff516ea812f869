"""Property tests tying the analyzer layers together.

Two contracts probed with generated queries (labels, direction changes,
shared variables, predicates, inline property maps and variable-length
paths):

1. any query the linter passes without errors compiles — under the
   greedy, exhaustive *and* naive-order planner — into a physical plan
   the verifier accepts;
2. its *sanitized* execution raises no sanitizer finding and all three
   planners return the same result multiset — which the columnar engine
   over a label-indexed copy of the graph returns too.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_plan, differential_check, lint_query
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, canonical_rows_from_embeddings
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.epgm import IndexedLogicalGraph, LogicalGraph
from tests.conftest import build_figure1_elements

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]

_VARS = ["a", "b", "c", "d"]
_VERTEX_LABELS = [None, "Person", "University", "City", "Person|City"]
_EDGE_LABELS = [None, "knows", "studyAt", "isLocatedIn"]
_PREDICATES = [
    None,
    "{v}.name = 'Alice'",
    "{v}.name < 'M'",
    "{v}.yob > 1980",
    "{v}.gender = 'female'",
]
_VERTEX_MAPS = [
    None,
    "{name: 'Alice'}",
    "{gender: 'female'}",
    "{name: 'Leipzig'}",
]


def _fresh_graph():
    head, vertices, edges = build_figure1_elements()
    return LogicalGraph.from_collections(
        ExecutionEnvironment(), vertices, edges, graph_head=head
    )


@st.composite
def cypher_queries(draw):
    edge_count = draw(st.integers(1, 3))
    used = [draw(st.sampled_from(_VARS))]
    parts = []
    for index in range(edge_count):
        source = draw(st.sampled_from(used))
        target = draw(st.sampled_from(_VARS))
        if target not in used:
            used.append(target)
        source_label = draw(st.sampled_from(_VERTEX_LABELS))
        target_label = draw(st.sampled_from(_VERTEX_LABELS))
        edge_label = draw(st.sampled_from(_EDGE_LABELS))
        edge_body = "e%d" % index
        if edge_label:
            edge_body += ":" + edge_label
        if draw(st.booleans()):  # occasional bounded variable-length path
            lower = draw(st.integers(0, 1))
            edge_body += "*%d..%d" % (lower, lower + draw(st.integers(1, 2)))
        arrow = draw(st.sampled_from(["-[{e}]->", "<-[{e}]-"]))
        left = source if not source_label else "%s:%s" % (source, source_label)
        right = target if not target_label else "%s:%s" % (target, target_label)
        source_map = draw(st.sampled_from(_VERTEX_MAPS))
        target_map = draw(st.sampled_from(_VERTEX_MAPS))
        if source_map:
            left += " " + source_map
        if target_map:
            right += " " + target_map
        parts.append(
            "(%s)%s(%s)" % (left, arrow.format(e=edge_body), right)
        )
    where = []
    for variable in used:
        template = draw(st.sampled_from(_PREDICATES))
        if template:
            where.append(template.format(v=variable))
    query = "MATCH " + ", ".join(parts)
    if where:
        query += " WHERE " + " AND ".join(where)
    query += " RETURN *"
    return query


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(query=cypher_queries())
def test_lint_clean_implies_plan_verifies(query):
    graph = _fresh_graph()
    diagnostics = lint_query(query)
    assert not any(d.is_blocking for d in diagnostics), (
        "generator produced an ill-formed query: %s" % query
    )
    for planner_cls in PLANNERS:
        runner = CypherRunner(graph, planner_cls=planner_cls)
        handler, root = runner.compile(query)
        analysis = analyze_plan(
            root,
            handler,
            vertex_strategy=runner.vertex_strategy,
            edge_strategy=runner.edge_strategy,
        )
        assert not [d for d in analysis.diagnostics if d.code == "S300"], (
            "planner %s produced an invalid plan for %s: %s" % (
                planner_cls.__name__, query,
                [d.format() for d in analysis.diagnostics],
            )
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(query=cypher_queries())
def test_lint_clean_implies_sanitized_planners_agree(query):
    """Lint-clean ⇒ sanitized execution is finding-free ⇒ planners agree
    ⇒ columnar ≡ reference.

    The full dynamic contract: the sanitizer validates every embedding at
    every operator boundary (raising nothing), and the three planners
    return one result multiset.
    """
    graph = _fresh_graph()
    diagnostics = lint_query(query)
    assert not any(d.is_blocking for d in diagnostics), (
        "generator produced an ill-formed query: %s" % query
    )
    report = differential_check(graph, query)
    assert report.clean, "%s: %s" % (
        query, [str(d) for d in report.diagnostics]
    )
    assert all(run.checked >= run.row_count for run in report.runs)
    # ... and the columnar engine over the label-indexed graph (expand
    # kernel, one-sided PATH join) returns the reference's multiset
    columnar, meta = CypherRunner(
        IndexedLogicalGraph.from_logical_graph(graph)
    ).execute_embeddings(query)
    assert Counter(canonical_rows_from_embeddings(columnar, meta)) == (
        report.runs[0].rows
    ), query
