"""Tests for JoinEmbeddingsOnProperty and its planner integration."""

import pytest

from repro.engine import CypherRunner, NaiveMatcher, canonical_rows_from_embeddings
from repro.epgm import GradoopId, LogicalGraph, Vertex


@pytest.fixture
def people_graph(env):
    vertices = [
        Vertex(GradoopId(1), "Person", {"name": "Ann", "city": "Leipzig"}),
        Vertex(GradoopId(2), "Person", {"name": "Ben", "city": "Leipzig"}),
        Vertex(GradoopId(3), "Person", {"name": "Cid", "city": "Dresden"}),
        Vertex(GradoopId(4), "Person", {"name": "Dot"}),  # no city
        Vertex(GradoopId(5), "Tag", {"name": "Leipzig"}),
    ]
    return LogicalGraph.from_collections(env, vertices, [])


QUERY = (
    "MATCH (a:Person), (b:Person) WHERE a.city = b.city RETURN a.name, b.name"
)


class TestPlannerIntegration:
    def test_planner_uses_value_join(self, people_graph):
        runner = CypherRunner(people_graph)
        assert "JoinEmbeddingsOnProperty" in runner.explain(QUERY)
        assert "Cartesian" not in runner.explain(QUERY)

    def test_results_match_naive(self, people_graph):
        embeddings, meta = CypherRunner(people_graph).execute_embeddings(QUERY)
        engine_rows = sorted(canonical_rows_from_embeddings(embeddings, meta))
        naive_rows = sorted(NaiveMatcher(people_graph).match(QUERY))
        assert engine_rows == naive_rows

    def test_null_never_joins(self, people_graph):
        """Dot has no city: NULL = NULL must not match (Cypher ternary)."""
        rows = CypherRunner(people_graph).execute_table(QUERY)
        names = {row["a.name"] for row in rows}
        assert "Dot" not in names

    def test_same_vertex_joins_with_itself_under_homo(self, people_graph):
        rows = CypherRunner(people_graph).execute_table(QUERY)
        # Ann-Ann, Ann-Ben, Ben-Ann, Ben-Ben, Cid-Cid
        assert len(rows) == 5

    def test_vertex_iso_excludes_self_pairs(self, people_graph):
        from repro.engine import MatchStrategy

        runner = CypherRunner(
            people_graph, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        rows = runner.execute_table(QUERY)
        assert len(rows) == 2  # Ann-Ben and Ben-Ann

    def test_cross_label_value_join(self, people_graph):
        """Person.city = Tag.name — value joins work across labels."""
        query = (
            "MATCH (p:Person), (t:Tag) WHERE p.city = t.name "
            "RETURN p.name, t.name"
        )
        rows = CypherRunner(people_graph).execute_table(query)
        assert sorted(row["p.name"] for row in rows) == ["Ann", "Ben"]

    def test_inequality_still_uses_cartesian(self, people_graph):
        query = "MATCH (a:Person), (b:Person) WHERE a.city <> b.city RETURN *"
        runner = CypherRunner(people_graph)
        assert "Cartesian" in runner.explain(query)
        embeddings, meta = runner.execute_embeddings(query)
        assert sorted(canonical_rows_from_embeddings(embeddings, meta)) == sorted(
            NaiveMatcher(people_graph).match(query)
        )

    def test_numeric_cross_type_join(self, env):
        vertices = [
            Vertex(GradoopId(1), "A", {"v": 2}),
            Vertex(GradoopId(2), "B", {"v": 2.0}),
            Vertex(GradoopId(3), "B", {"v": 3}),
        ]
        graph = LogicalGraph.from_collections(env, vertices, [])
        rows = CypherRunner(graph).execute_table(
            "MATCH (a:A), (b:B) WHERE a.v = b.v RETURN b"
        )
        assert [row["b"] for row in rows] == [2]  # int 2 joins float 2.0

    def test_shuffle_cheaper_than_cartesian(self, people_graph):
        """The whole point: no full replication of one side."""
        env = people_graph.environment
        # shuffles are the simulated cluster's: the reference path's
        runner = CypherRunner(people_graph, mode="reference")

        env.reset_metrics("value-join")
        runner.execute_embeddings(QUERY)
        value_join_bytes = env.metrics.total_shuffled_bytes

        query = "MATCH (a:Person), (b:Person) WHERE a.city <> b.city RETURN *"
        env.reset_metrics("cartesian")
        runner.execute_embeddings(query)
        cartesian_bytes = env.metrics.total_shuffled_bytes

        assert value_join_bytes < cartesian_bytes
