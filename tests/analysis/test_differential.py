"""Differential checking and the cardinality-estimate audit.

Acceptance: every LDBC paper query (Q1–Q6) executed under sanitized
instrumentation by all three planners returns identical result multisets
with zero sanitizer findings.  Disagreement detection is exercised with a
deliberately broken planner; the audit tests pin the q-error math and the
S211 emission path.
"""

import pytest

from repro.analysis import (
    DifferentialReport,
    PlannerRun,
    audit_estimates,
    compare_runs,
    differential_check,
    q_error,
)
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics, PhysicalOperator
from repro.engine.planning import GreedyPlanner
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph, GraphStatistics.from_graph(graph)


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_ldbc_queries_agree_across_planners_sanitized(ldbc, name):
    dataset, graph, statistics = ldbc
    query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
    report = differential_check(graph, query, statistics=statistics)
    assert report.clean, "%s: %s" % (
        name, [str(d) for d in report.diagnostics]
    )
    assert len({run.row_count for run in report.runs}) == 1
    assert report.runs[0].row_count > 0  # every paper query matches here
    # the instrumentation really ran: operator boundaries were checked
    assert all(run.checked >= run.row_count for run in report.runs)


def test_report_summary_names_every_planner(ldbc):
    dataset, graph, statistics = ldbc
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
    report = differential_check(graph, query, statistics=statistics)
    summary = report.summary()
    for run in report.runs:
        assert run.planner in summary
    assert "agree" in summary


class _Dropper(PhysicalOperator):
    """Passes its input through minus one arbitrary row."""

    display = "DropOne"

    def __init__(self, child):
        super().__init__([child])
        self.meta = child.meta
        self.estimated_cardinality = child.estimated_cardinality

    def _build(self):
        dropped = []

        def keep(embedding):
            if not dropped:
                dropped.append(embedding)
                return False
            return True

        return self.children[0].evaluate().filter(keep, name="drop-one")


class _DropOne(GreedyPlanner):
    """A deliberately unsound planner: silently drops one result row."""

    def plan(self):
        return _Dropper(super().plan())


def test_planner_disagreement_is_s210(figure1_graph):
    report = differential_check(
        figure1_graph,
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, b",
        planners=(GreedyPlanner, _DropOne),
    )
    assert not report.agree
    assert not report.clean
    codes = [d.code for d in report.diagnostics]
    assert "S210" in codes
    (disagreement,) = [d for d in report.diagnostics if d.code == "S210"]
    assert "GreedyPlanner" in disagreement.message
    assert "_DropOne" in disagreement.message


def test_compare_runs_reports_missing_and_extra_rows():
    from collections import Counter

    reference = PlannerRun("A", Counter({("x",): 2, ("y",): 1}))
    other = PlannerRun("B", Counter({("x",): 1, ("z",): 1}))
    (diagnostic,) = compare_runs([reference, other])
    assert diagnostic.code == "S210"
    assert "only under A" in diagnostic.message
    assert "only under B" in diagnostic.message
    assert compare_runs([reference, PlannerRun("C", Counter(reference.rows))]) == []


def test_identical_runs_make_a_clean_report():
    from collections import Counter

    runs = [PlannerRun("A", Counter()), PlannerRun("B", Counter())]
    report = DifferentialReport("q", runs, compare_runs(runs))
    assert report.agree and report.clean


class TestEstimateAudit:
    def test_q_error_is_symmetric_and_smoothed(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == q_error(10, 100)
        assert q_error(0, 0) == 1.0  # +1 smoothing: no division by zero
        assert q_error(3, 0) == 4.0

    def test_accurate_estimates_stay_quiet(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        audit = runner.audit_estimates(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        assert audit.records
        assert all(record.actual >= 0 for record in audit.records)
        assert audit.diagnostics == []

    def test_off_estimates_emit_s211(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        # nobody is named Nobody: the leaf estimate (selectivity-based)
        # overshoots the actual zero rows
        audit = runner.audit_estimates(
            "MATCH (a:Person) WHERE a.name = 'Nobody' RETURN a",
            max_q_error=1.2,
        )
        assert audit.diagnostics
        assert all(d.code == "S211" for d in audit.diagnostics)
        assert not any(d.is_error for d in audit.diagnostics)
        assert audit.worst.q_error > 1.2

    def test_audit_walks_every_estimated_operator(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        audit = audit_estimates(root)

        def count_estimated(operator):
            total = 1 if operator.estimated_cardinality is not None else 0
            return total + sum(count_estimated(c) for c in operator.children)

        assert len(audit.records) == count_estimated(root)

    def test_format_table_lists_operators(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        audit = runner.audit_estimates(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        table = audit.format_table()
        assert "q-err" in table
        assert "JoinEmbeddings" in table
