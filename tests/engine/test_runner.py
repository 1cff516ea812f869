"""Tests for CypherRunner and the graph.cypher() operator."""

import pytest

from repro.analysis.diagnostics import QueryLintError
from repro.cypher import parser
from repro.engine import CypherRunner, MatchStrategy
from repro.epgm import PropertyValue


class TestExecuteTable:
    def test_paper_table_2a(self, figure1_graph):
        """§2.5 example: persons studying somewhere with classYear > 2014."""
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p1:Person)-[s:studyAt]->(u:University) "
            "WHERE s.classYear > 2014 RETURN p1.name, u.name"
        )
        assert sorted(r["p1.name"] for r in rows) == ["Alice", "Eve"]
        assert all(r["u.name"] == "Uni Leipzig" for r in rows)

    def test_alias(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person) RETURN p.name AS who"
        )
        assert {"who"} == set(rows[0])

    def test_distinct(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN DISTINCT u.name"
        )
        assert rows == [{"u.name": "Uni Leipzig"}]

    def test_limit(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person) RETURN p.name LIMIT 2"
        )
        assert len(rows) == 2

    def test_return_star_binds_variables(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person {name: 'Alice'})-[s:studyAt]->(u) RETURN *"
        )
        assert rows == [{"p": 10, "s": 3, "u": 40}]

    def test_return_variable_ref(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p:Person {name: 'Alice'}) RETURN p"
        )
        assert rows == [{"p": 10}]

    def test_path_binding_in_star(self, figure1_graph):
        rows = CypherRunner(figure1_graph).execute_table(
            "MATCH (p1:Person {name: 'Alice'})-[e:knows*2..2]->(p2:Person) RETURN *"
        )
        # vertex HOMO admits the round trip [5, 20, 6] back to Alice too
        assert sorted(row["e"] for row in rows) == [[5, 20, 6], [5, 20, 7]]


class TestExecuteCollection:
    def test_returns_graph_collection(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person)-[s:studyAt]->(u:University) "
            "WHERE s.classYear > 2014 RETURN *"
        )
        assert collection.graph_count() == 2

    def test_definition_2_4_membership(self, figure1_graph):
        """Matched elements join the result logical graphs."""
        collection = figure1_graph.cypher(
            "MATCH (p:Person {name: 'Alice'})-[s:studyAt]->(u) RETURN *"
        )
        graph = collection.graphs()[0]
        names = {v.get_property("name").raw() for v in graph.collect_vertices()}
        assert names == {"Alice", "Uni Leipzig"}
        assert [e.label for e in graph.collect_edges()] == ["studyAt"]

    def test_bindings_attached_to_head(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person {name: 'Alice'})-[s:studyAt]->(u) RETURN *"
        )
        head = collection.collect_graph_heads()[0]
        assert head.get_property("p").raw() == 10
        assert head.get_property("s").raw() == 3
        assert head.get_property("u").raw() == 40

    def test_return_star_heads_carry_variable_ids_only(self, figure1_graph):
        # RETURN * reads ids: the leaf evaluates p.name itself and carries
        # no record of it, so no head binds it
        collection = figure1_graph.cypher(
            "MATCH (p:Person {name: 'Alice'})-[s:studyAt]->(u) RETURN *",
            attach_bindings=True,
        )
        for head in collection.collect_graph_heads():
            assert sorted(head.properties.to_dict()) == ["p", "s", "u"]

    def test_property_bindings_attached(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person)-[s:studyAt]->(u) WHERE p.name = 'Alice' RETURN p.name"
        )
        head = collection.collect_graph_heads()[0]
        assert head.get_property("p.name") == PropertyValue("Alice")

    def test_bindings_can_be_disabled(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person {name: 'Alice'}) RETURN *", attach_bindings=False
        )
        head = collection.collect_graph_heads()[0]
        assert len(head.properties) == 0

    def test_path_elements_join_result_graph(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p1:Person {name: 'Alice'})-[e:knows*2..2]->(p2:Person) RETURN *",
            vertex_strategy=MatchStrategy.ISOMORPHISM,
        )
        graph = collection.graphs()[0]
        names = {v.get_property("name").raw() for v in graph.collect_vertices()}
        assert names == {"Alice", "Eve", "Bob"}  # Eve is path-internal
        edge_ids = {e.id.value for e in graph.collect_edges()}
        assert edge_ids == {5, 7}

    def test_no_matches_yields_empty_collection(self, figure1_graph):
        collection = figure1_graph.cypher(
            "MATCH (p:Person {name: 'Nobody'}) RETURN *"
        )
        assert collection.graph_count() == 0

    def test_strategies_change_results(self, figure1_graph):
        query = (
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) RETURN *"
        )
        homo = figure1_graph.cypher(query, vertex_strategy=MatchStrategy.HOMOMORPHISM)
        iso = figure1_graph.cypher(query, vertex_strategy=MatchStrategy.ISOMORPHISM)
        assert homo.graph_count() == 6
        assert iso.graph_count() == 2


class TestExplain:
    def test_explain_mentions_operators(self, figure1_graph):
        text = CypherRunner(figure1_graph).explain(
            "MATCH (p:Person)-[e:knows*1..3]->(q:Person) WHERE p.name = 'Alice' RETURN *"
        )
        assert "ExpandEmbeddings" in text
        assert "SelectAndProjectVertices" in text

    def test_statistics_reused(self, figure1_graph):
        from repro.engine import GraphStatistics

        stats = GraphStatistics.from_graph(figure1_graph)
        runner = CypherRunner(figure1_graph, statistics=stats)
        assert runner.statistics is stats


class TestCompile:
    @staticmethod
    def _count_parses(monkeypatch):
        calls = []
        original = parser._Parser.parse_query

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(parser._Parser, "parse_query", counting)
        return calls

    def test_a_cold_compile_parses_the_text_once(self, figure1_graph, monkeypatch):
        calls = self._count_parses(monkeypatch)
        runner = CypherRunner(figure1_graph)
        assert runner.lint_enabled
        text = "MATCH (p:Person)-[:knows]->(q:Person) WHERE p.name = $name RETURN q.name"
        handler, root = runner.compile(text)
        assert len(calls) == 1
        assert runner.compile(text) == (handler, root)  # a plan cache hit
        assert len(calls) == 1
        # every binding runs the one statement: nothing is parsed again
        # (lint re-checks the values on a bound copy of the parsed text)
        runner.execute_table(text, {"name": "Alice"})
        runner.execute_table(text, {"name": "Eve"})
        assert len(calls) == 1
        stats = runner.plan_cache.stats
        assert (stats.misses, stats.hits) == (1, 3)

    def test_a_blocking_lint_error_keeps_the_query_text(self, figure1_graph, monkeypatch):
        calls = self._count_parses(monkeypatch)
        text = "MATCH (p:Person) RETURN q"
        with pytest.raises(QueryLintError) as raised:
            CypherRunner(figure1_graph).compile(text)
        assert len(calls) == 1
        # the caret excerpt quotes the text
        assert "RETURN q" in str(raised.value) and "^" in str(raised.value)
        assert str(raised.value) == str(
            QueryLintError(raised.value.diagnostics, query_text=text)
        )
