"""Tests for graph data partitioning strategies."""

import pytest

from repro.dataflow import ExecutionEnvironment, partition_index
from repro.engine import CypherRunner, canonical_rows_from_embeddings
from repro.epgm import GraphPartitioning, LogicalGraph
from tests.conftest import build_figure1_elements


def _graph(env, partitioning):
    head, vertices, edges = build_figure1_elements()
    return LogicalGraph.from_collections(
        env, vertices, edges, graph_head=head, partitioning=partitioning
    )


def _placed(dataset):
    """Where ``dataset``'s elements sit on the simulated cluster, which
    only the reference path partitions."""
    return dataset.collect_partitions(mode="reference")


class TestPlacement:
    def test_hash_places_vertices_by_id(self):
        env = ExecutionEnvironment(parallelism=4)
        graph = _graph(env, GraphPartitioning.HASH)
        for worker, partition in enumerate(_placed(graph.vertices)):
            for vertex in partition:
                assert partition_index(vertex.id, 4) == worker

    def test_hash_places_edges_by_source(self):
        env = ExecutionEnvironment(parallelism=4)
        graph = _graph(env, GraphPartitioning.HASH)
        for worker, partition in enumerate(_placed(graph.edges)):
            for edge in partition:
                assert partition_index(edge.source_id, 4) == worker

    def test_round_robin_is_balanced(self):
        env = ExecutionEnvironment(parallelism=4)
        graph = _graph(env, GraphPartitioning.ROUND_ROBIN)
        sizes = [len(p) for p in _placed(graph.edges)]
        assert max(sizes) - min(sizes) <= 1

    def test_default_is_round_robin(self):
        env = ExecutionEnvironment(parallelism=4)
        graph = _graph(env, None)
        sizes = [len(p) for p in _placed(graph.vertices)]
        assert max(sizes) - min(sizes) <= 1


class TestQueryEquivalence:
    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *",
            "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN *",
            "MATCH (a:Person)-[e:knows*1..3]->(b:Person) RETURN *",
        ],
    )
    def test_same_results_under_both_placements(self, query):
        rows = {}
        for partitioning in (GraphPartitioning.ROUND_ROBIN, GraphPartitioning.HASH):
            env = ExecutionEnvironment(parallelism=4)
            graph = _graph(env, partitioning)
            embeddings, meta = CypherRunner(graph).execute_embeddings(query)
            rows[partitioning] = sorted(
                canonical_rows_from_embeddings(embeddings, meta)
            )
        assert rows[GraphPartitioning.ROUND_ROBIN] == rows[GraphPartitioning.HASH]


class TestShuffleSavings:
    def test_co_partitioned_join_shuffles_less(self):
        """Edges placed by source id stay put when joined on that id."""
        volumes = {}
        for partitioning in (GraphPartitioning.ROUND_ROBIN, GraphPartitioning.HASH):
            env = ExecutionEnvironment(parallelism=4)
            graph = _graph(env, partitioning)
            env.reset_metrics("q")
            CypherRunner(graph).execute_embeddings(
                "MATCH (a:Person {name: 'Eve'})-[e:knows]->(b:Person) RETURN *"
            )
            volumes[partitioning] = env.metrics.total_shuffled_records
        assert volumes[GraphPartitioning.HASH] <= (
            volumes[GraphPartitioning.ROUND_ROBIN]
        )
