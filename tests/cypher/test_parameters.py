"""Tests for ``$parameter`` binding."""

import pytest

from repro.cypher import (
    CypherSemanticError,
    CypherSyntaxError,
    QueryHandler,
    bind_parameters,
    find_parameters,
    parse,
)
from repro.cypher.ast import Literal, Parameter
from repro.engine import CypherRunner


class TestParsing:
    def test_parameter_in_where(self):
        where = parse("MATCH (p) WHERE p.name = $name").where
        assert where.right == Parameter("name")

    def test_parameter_in_property_map(self):
        node = parse("MATCH (p:Person {firstName: $fn})").patterns[0].nodes[0]
        assert node.properties == [("firstName", Parameter("fn"))]

    def test_whole_list_parameter(self):
        where = parse("MATCH (p) WHERE p.name IN $names").where
        assert where.operator == "IN"
        assert where.right == Parameter("names")

    def test_parameter_inside_list_literal_rejected(self):
        with pytest.raises(CypherSyntaxError) as excinfo:
            parse("MATCH (p) WHERE p.name IN [$a, 'x']")
        assert "whole list" in str(excinfo.value)

    def test_in_list_parameter_executes(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person) WHERE p.name IN $names RETURN p.name",
            parameters={"names": ["Alice", "Bob"]},
        )
        assert sorted(row["p.name"] for row in rows) == ["Alice", "Bob"]

    def test_bare_dollar_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (p) WHERE p.x = $")


class TestBinding:
    def test_bind_in_where(self):
        query = bind_parameters(
            parse("MATCH (p) WHERE p.name = $name"), {"name": "Jan"}
        )
        assert query.where.right == Literal("Jan")

    def test_bind_in_property_map(self):
        query = bind_parameters(
            parse("MATCH (p:Person {firstName: $fn, age: $age})"),
            {"fn": "Jan", "age": 30},
        )
        node = query.patterns[0].nodes[0]
        assert node.properties == [
            ("firstName", Literal("Jan")),
            ("age", Literal(30)),
        ]

    def test_unbound_parameter_rejected_at_compile(self):
        with pytest.raises(CypherSemanticError) as excinfo:
            QueryHandler("MATCH (p) WHERE p.name = $name")
        assert "$name" in str(excinfo.value)

    def test_unused_parameters_ignored(self):
        handler = QueryHandler(
            "MATCH (p:Person) RETURN *", parameters={"unused": 1}
        )
        assert handler.vertices

    def test_find_parameters(self):
        query = parse(
            "MATCH (p {x: $a})-[e {y: $b}]->(q) WHERE p.z = $c RETURN p.w"
        )
        assert find_parameters(query) == {"a", "b", "c"}

    def test_original_query_not_mutated(self):
        query = parse("MATCH (p) WHERE p.name = $name")
        bind_parameters(query, {"name": "Jan"})
        assert query.where.right == Parameter("name")


class TestExecution:
    def test_parameterized_query_end_to_end(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        rows = runner.execute_table(
            "MATCH (p:Person {name: $who}) RETURN p.gender",
            parameters={"who": "Alice"},
        )
        assert rows == [{"p.gender": "female"}]

    def test_same_query_different_parameters(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (p:Person) WHERE p.name = $who RETURN count(*) AS n"
        for who, expected in [("Alice", 1), ("Eve", 1), ("Nobody", 0)]:
            rows = runner.execute_table(query, parameters={"who": who})
            count = rows[0]["n"] if rows else 0
            assert count == expected, who

    def test_graph_cypher_accepts_parameters(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person)-[s:studyAt]->(u) WHERE s.classYear > $year RETURN *",
            parameters={"year": 2014},
        )
        assert collection.graph_count() == 2

    def test_numeric_parameter_in_comparison(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person) WHERE p.yob >= $min RETURN p.name",
            parameters={"min": 1900},
        )
        assert [row["p.name"] for row in rows] == ["Eve"]


class TestCompile:
    def test_a_parameterized_plan_keeps_the_literal_twins_spans(self, figure1_graph):
        # the parameter comes last, so every pattern element sits at the
        # same place in both texts; the rebuilt AST must keep those places
        from repro.engine.operators import (
            SelectAndProjectEdges, SelectAndProjectVertices,
        )

        def leaf_spans(text):
            root = CypherRunner(figure1_graph).prepare(text).root
            return [
                (type(operator).__name__, operator.span())
                for operator in root.postorder()
                if isinstance(
                    operator, (SelectAndProjectVertices, SelectAndProjectEdges)
                )
            ]

        pattern = "MATCH (p:Person)-[e:knows]->(q:Person) WHERE q.name = %s"
        literal = leaf_spans(pattern % "'Alice'")
        assert len(literal) == 3
        assert all(span is not None for _, span in literal)
        assert leaf_spans(pattern % "$name") == literal

    def test_a_bound_literal_keeps_its_parameters_span(self):
        query = parse("MATCH (p) WHERE p.name = $name")
        bound = bind_parameters(query, {"name": "Jan"})
        assert bound.where.right.span == query.where.right.span is not None
        assert bound.where.span == query.where.span is not None

    def test_a_cold_compile_walks_for_parameters_once(self, figure1_graph, monkeypatch):
        from repro.cypher import parameters as parameters_module
        from repro.engine import prepared as prepared_module

        walks = []
        walk = parameters_module.find_parameters

        def counted(query):
            walks.append(query)
            return walk(query)

        monkeypatch.setattr(parameters_module, "find_parameters", counted)
        monkeypatch.setattr(prepared_module, "find_parameters", counted)
        runner = CypherRunner(figure1_graph)
        runner.prepare("MATCH (p:Person)-[:knows]->(q:Person) RETURN q.name")
        assert len(walks) == 1
        # a direct QueryHandler still checks its own text
        with pytest.raises(CypherSemanticError):
            QueryHandler("MATCH (p) WHERE p.name = $name")
        assert len(walks) == 2
