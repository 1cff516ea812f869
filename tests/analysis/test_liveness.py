"""Backward liveness (S401–S403) of the plan analysis: transfer rules and
planted fixtures."""

import pytest

from repro.analysis import analyze_plan
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, MatchStrategy
from repro.engine.operators.leaves import SelectAndProjectVertices
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]

HOMO = MatchStrategy.HOMOMORPHISM

#: every column and record the root produces is read by the RETURN clause
ALL_LIVE_QUERY = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, e, b"
#: a.name is read inside a's leaf only: the planner loads no record of it
DEAD_PROP_QUERY = (
    "MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.name = 'Alice' RETURN e, b.name"
)
PATH_QUERY = "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a, b"


def codes_of(report):
    return [d.code for d in report.diagnostics]


def planting_dead_record(planner_cls):
    """``planner_cls`` with the leaf of ``a`` loading ``a.name``, which
    nothing reads: the planted S402."""

    class Planted(planner_cls):
        def _vertex_leaf(self, variable):
            entry = super()._vertex_leaf(variable)
            if variable == "a":
                entry.op = SelectAndProjectVertices(
                    self.graph, self.handler.vertices["a"], ["name"]
                )
                entry.op.estimated_cardinality = entry.cardinality
            return entry

    return Planted


def find_leaf(root, variable):
    for node in root.postorder():
        if (
            isinstance(node, SelectAndProjectVertices)
            and node.query_vertex.variable == variable
        ):
            return node
    raise AssertionError("plan contains no leaf for %r" % variable)


def compiled(graph, query, planner_cls=GreedyPlanner, **kwargs):
    runner = CypherRunner(graph, planner_cls=planner_cls, **kwargs)
    handler, root = runner.compile(query)
    return runner, handler, root


class TestCleanPlans:
    @pytest.mark.parametrize("planner_cls", PLANNERS)
    def test_fully_returned_plan_is_clean(self, figure1_graph, planner_cls):
        _, handler, root = compiled(figure1_graph, ALL_LIVE_QUERY, planner_cls)
        report = analyze_plan(root, handler)
        assert report.clean, [d.format() for d in report.diagnostics]
        assert (
            "0 dead column(s), 0 dead property record(s), 0 dead path(s)"
            in report.format_summary()
        )

    def test_return_star_demands_everything(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph, "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *"
        )
        report = analyze_plan(root, handler)
        assert report.clean
        demand = report.demand_of(root)
        assert demand.variables == set(root.meta.variables)

    def test_return_star_reads_no_property_record(self, figure1_graph):
        # the result builds one column per variable: ids and paths only
        query = (
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) "
            "WHERE a.name < b.name RETURN *"
        )
        _, handler, root = compiled(figure1_graph, query)
        report = analyze_plan(root, handler)
        assert "S402" not in codes_of(report)
        demand = report.demand_of(root)
        assert demand.properties == set()
        assert demand.paths == {"e"}
        assert list(root.meta.property_entries()) == []

    def test_no_handler_is_conservatively_clean(self, figure1_graph):
        # without the RETURN clause the root demand is everything
        _, _, root = compiled(figure1_graph, ALL_LIVE_QUERY)
        assert analyze_plan(root).clean

    def test_assert_liveness_returns_clean_report(self, figure1_graph):
        _, handler, root = compiled(figure1_graph, ALL_LIVE_QUERY)
        report = analyze_plan(root, handler)
        assert report.clean
        assert report.diagnostics == []


class TestDeadByteFindings:
    @pytest.mark.parametrize("planner_cls", PLANNERS)
    def test_predicate_only_property_is_s402(self, figure1_graph, planner_cls):
        # a.name is evaluated element-locally inside the leaf's flat-map;
        # a record of it riding in the embeddings above is dead freight
        _, handler, root = compiled(
            figure1_graph, DEAD_PROP_QUERY, planting_dead_record(planner_cls)
        )
        report = analyze_plan(root, handler)
        assert "S402" in codes_of(report)
        finding = next(d for d in report.diagnostics if d.code == "S402")
        assert "a.name" in finding.message
        assert not finding.is_error  # dead bytes are wasteful, not wrong

    def test_s402_reported_at_introduction_site_only(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph, DEAD_PROP_QUERY, planting_dead_record(GreedyPlanner)
        )
        report = analyze_plan(root, handler)
        s402 = [d for d in report.diagnostics if d.code == "S402"]
        assert len(s402) == 1  # once at the leaf, not at every ancestor

    def test_dead_finding_carries_source_span(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph, DEAD_PROP_QUERY, planting_dead_record(GreedyPlanner)
        )
        report = analyze_plan(root, handler)
        finding = next(d for d in report.diagnostics if d.code == "S402")
        assert finding.span is not None
        assert "^" in finding.format(DEAD_PROP_QUERY)

    def test_unreturned_edge_column_is_s401(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, b",
        )
        report = analyze_plan(root, handler)
        findings = [d for d in report.diagnostics if d.code == "S401"]
        assert any("'e'" in d.message for d in findings)

    def test_unread_path_contents_are_s403_under_homo(self, figure1_graph):
        # under homo/homo no morphism check inspects the hop sequence, so
        # a path variable that is never returned carries dead contents
        _, handler, root = compiled(
            figure1_graph, PATH_QUERY,
            vertex_strategy=HOMO, edge_strategy=HOMO,
        )
        report = analyze_plan(
            root, handler, vertex_strategy=HOMO, edge_strategy=HOMO
        )
        assert "S403" in codes_of(report)

    def test_path_contents_live_under_edge_iso(self, figure1_graph):
        # the default edge-isomorphism check replays every path's hops,
        # so the same plan has no dead path contents
        _, handler, root = compiled(figure1_graph, PATH_QUERY)
        report = analyze_plan(root, handler)
        assert "S403" not in codes_of(report)

    def test_returned_path_contents_are_live(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph,
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a, e, b",
            vertex_strategy=HOMO, edge_strategy=HOMO,
        )
        report = analyze_plan(
            root, handler, vertex_strategy=HOMO, edge_strategy=HOMO
        )
        assert "S403" not in codes_of(report)

    def test_assert_liveness_raises_on_dead_bytes(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph, DEAD_PROP_QUERY, planting_dead_record(GreedyPlanner)
        )
        report = analyze_plan(root, handler)
        assert not report.clean
        assert any(d.code == "S402" for d in report.diagnostics)


class TestDemandIntrospection:
    def test_root_demand_matches_return_items(self, figure1_graph):
        _, handler, root = compiled(
            figure1_graph,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, b.name",
        )
        report = analyze_plan(root, handler)
        demand = report.demand_of(root)
        assert "a" in demand.variables
        assert ("b", "name") in demand.properties
        assert ("a", "name") not in demand.properties

    def test_runner_livecheck_entry_point(self, figure1_graph):
        planted = planting_dead_record(GreedyPlanner)
        report = CypherRunner(figure1_graph, planner_cls=planted).analyze(
            DEAD_PROP_QUERY
        )
        assert "S402" in codes_of(report)
        planned = CypherRunner(figure1_graph).analyze(DEAD_PROP_QUERY)
        assert "S402" not in codes_of(planned)


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph


class TestLDBCAcceptance:
    @pytest.mark.parametrize("planner_cls", PLANNERS)
    def test_q1_first_name_is_not_carried(self, ldbc, planner_cls):
        # the paper's Q1 filters on person.firstName but returns only
        # message fields: the person leaf evaluates the predicate and
        # loads no record; the anonymous edge column stays (S401)
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
        runner = CypherRunner(graph, planner_cls=planner_cls)
        report = runner.analyze(query)
        assert "S402" not in codes_of(report)
        assert "0 dead property record(s)" in report.format_summary()
        assert any(
            d.code == "S401" and "__e0" in d.message
            for d in report.diagnostics
        )
        _, root = runner.compile(query)
        assert find_leaf(root, "person").property_keys == []

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    @pytest.mark.parametrize("planner_cls", PLANNERS)
    def test_every_plan_interprets_fully(self, ldbc, name, planner_cls):
        # every operator of every paper-query plan gets a demand
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        runner = CypherRunner(graph, planner_cls=planner_cls)
        report = runner.analyze(query)
        _, root = runner.compile(query)
        assert all(
            report.demand_of(operator) is not None
            for operator in root.postorder()
        )


class TestLeafNarrowingGround:
    def test_leaf_records_demand_split(self, figure1_graph):
        # the planner's leaf loads exactly the records its consumers read
        _, handler, root = compiled(figure1_graph, DEAD_PROP_QUERY)
        report = analyze_plan(root, handler)
        leaf = find_leaf(root, "a")
        assert leaf.property_keys == []
        assert ("a", "name") not in report.demand_of(leaf).properties
        assert report.demand_of(find_leaf(root, "b")).properties == {
            ("b", "name")
        }
