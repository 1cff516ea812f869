"""Structural invariants (S300) of the plan analysis: clean plans pass,
corrupted plans are caught.

Real planner output must always verify (tested across all three
planners); each structural rule is then exercised by deliberately
corrupting a compiled plan in place.  A structural finding is one
``S300`` diagnostic whose message starts with the rule name.
"""

import pytest

from repro.analysis import analyze_plan
from repro.cypher.predicates import to_cnf
from repro.cypher.parser import parse
from repro.engine import CypherRunner, MatchStrategy
from repro.engine.operators.filter_project import SelectEmbeddings
from repro.engine.operators.join import JoinEmbeddings
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]

QUERIES = [
    "MATCH (p:Person) RETURN p",
    "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, b, e",
    "MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a, b, c",
    "MATCH (p:Person)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 "
    "RETURN p.name, u.name",
    "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a, b, e",
    "MATCH (a)-[:knows]->(b), (a)-[:studyAt]->(u) RETURN a, b, u",
]


def compile_plan(graph, query, planner_cls=GreedyPlanner):
    runner = CypherRunner(graph, planner_cls=planner_cls)
    handler, root = runner.compile(query)
    return runner, handler, root


def rules_of(analysis):
    """The structural rule names ``analysis`` reports."""
    return [
        d.message.split(":", 1)[0]
        for d in analysis.diagnostics
        if d.code == "S300"
    ]


def find_operator(root, operator_type):
    if isinstance(root, operator_type):
        return root
    for child in root.children:
        found = find_operator(child, operator_type)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("planner_cls", PLANNERS)
@pytest.mark.parametrize("query", QUERIES)
def test_planner_output_verifies(figure1_graph, planner_cls, query):
    runner, handler, root = compile_plan(figure1_graph, query, planner_cls)
    analysis = analyze_plan(
        root,
        handler,
        vertex_strategy=runner.vertex_strategy,
        edge_strategy=runner.edge_strategy,
    )
    assert rules_of(analysis) == []
    assert analysis.proven


class TestCorruptedPlans:
    def violations_of(self, root, handler=None):
        return set(rules_of(analyze_plan(root, handler)))

    def codes_of(self, root, handler=None):
        return {d.code for d in analyze_plan(root, handler).errors}

    def test_missing_meta(self, figure1_graph):
        _, _, root = compile_plan(figure1_graph, "MATCH (p:Person) RETURN p")
        root.meta = None
        # refuted by the declared-metadata comparison, not a structure rule
        assert "S301" in self.codes_of(root)

    def test_missing_cardinality(self, figure1_graph):
        _, _, root = compile_plan(figure1_graph, "MATCH (p:Person) RETURN p")
        root.estimated_cardinality = None
        assert "cardinality-missing" in self.violations_of(root)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_invalid_cardinality(self, figure1_graph, bad):
        _, _, root = compile_plan(figure1_graph, "MATCH (p:Person) RETURN p")
        root.estimated_cardinality = bad
        assert "cardinality-invalid" in self.violations_of(root)

    # a cross-variable predicate cannot be pushed to a leaf, so it keeps a
    # SelectEmbeddings operator in the plan for us to corrupt
    CROSS_PREDICATE_QUERY = (
        "MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name < b.name "
        "RETURN a, b"
    )

    def test_select_referencing_unbound_variable(self, figure1_graph):
        _, _, root = compile_plan(figure1_graph, self.CROSS_PREDICATE_QUERY)
        select = find_operator(root, SelectEmbeddings)
        assert select is not None
        select.cnf = to_cnf(parse(
            "MATCH (p) WHERE ghost.name < b.name RETURN p"
        ).where)
        assert "select-unbound" in self.violations_of(root)

    def test_select_reading_unprojected_property(self, figure1_graph):
        _, _, root = compile_plan(figure1_graph, self.CROSS_PREDICATE_QUERY)
        select = find_operator(root, SelectEmbeddings)
        assert select is not None
        select.cnf = to_cnf(parse(
            "MATCH (p) WHERE a.unprojected < b.name RETURN p"
        ).where)
        assert "select-property-missing" in self.violations_of(root)

    def test_join_variable_not_bound_by_child(self, figure1_graph):
        _, _, root = compile_plan(
            figure1_graph,
            "MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a, b, c",
        )
        join = find_operator(root, JoinEmbeddings)
        assert join is not None
        join.join_variables = join.join_variables + ["phantom"]
        # refuted by the join's key rule, not a structure rule
        assert "S306" in self.codes_of(root)

    def test_overlapping_inputs_without_join_variable(self, figure1_graph):
        _, _, root = compile_plan(
            figure1_graph,
            "MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a, b, c",
        )
        join = find_operator(root, JoinEmbeddings)
        assert join is not None
        join.join_variables = []
        # refuted by the join's merge rule, not a structure rule
        assert "S302" in self.codes_of(root)

    def test_morphism_inconsistency(self, figure1_graph):
        _, _, root = compile_plan(
            figure1_graph,
            "MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a, b, c",
        )
        join = find_operator(root, JoinEmbeddings)
        assert join is not None
        join.vertex_strategy = MatchStrategy.ISOMORPHISM
        join.edge_strategy = MatchStrategy.HOMOMORPHISM
        assert "morphism-inconsistent" in self.violations_of(root)

    def test_plan_strategy_contradicting_runner(self, figure1_graph):
        runner, handler, root = compile_plan(
            figure1_graph, "MATCH (a:Person)-[e:knows]->(b) RETURN a, b, e"
        )
        analysis = analyze_plan(
            root,
            handler,
            vertex_strategy=MatchStrategy.ISOMORPHISM,  # runner used HOMO
        )
        assert "morphism-inconsistent" in rules_of(analysis)

    def test_root_missing_query_variable(self, figure1_graph):
        _, handler, root = compile_plan(
            figure1_graph, "MATCH (p:Person) RETURN p"
        )
        handler.vertices["extra"] = next(iter(handler.vertices.values()))
        assert "variable-unbound" in self.violations_of(root, handler)

    def test_return_property_dropped(self, figure1_graph):
        _, handler, root = compile_plan(
            figure1_graph, "MATCH (p:Person) RETURN p"
        )
        # swap the AST for one whose RETURN reads a property the plan
        # never projected
        handler.ast = parse("MATCH (p:Person) RETURN p.salary")
        assert "return-property-dropped" in self.violations_of(root, handler)

    def test_verify_plan_raises_with_every_violation_listed(
        self, figure1_graph
    ):
        _, handler, root = compile_plan(
            figure1_graph, "MATCH (p:Person) RETURN p"
        )
        root.estimated_cardinality = -2
        root.meta = None
        analysis = analyze_plan(root, handler)
        assert not analysis.proven
        messages = "\n".join(d.message for d in analysis.errors)
        assert "cardinality-invalid" in messages
        assert "operator declares no metadata" in messages  # S301
        assert len(analysis.errors) >= 2
