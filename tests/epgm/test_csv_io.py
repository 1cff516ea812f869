"""Round-trip tests for the Gradoop-style CSV source/sink."""

import numpy as np
import pytest

from repro.epgm import GraphCollection, IndexedLogicalGraph, LogicalGraph
from repro.epgm.io import CSVDataSink, CSVDataSource


@pytest.fixture
def graph_dir(tmp_path, figure1_graph):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    return path


class TestRoundTrip:
    def test_counts_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert restored.vertex_count() == 5
        assert restored.edge_count() == 8

    def test_labels_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        labels = sorted({v.label for v in restored.collect_vertices()})
        assert labels == ["City", "Person", "University"]

    def test_properties_preserved_with_types(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        eve = [
            v
            for v in restored.collect_vertices()
            if v.get_property("name").raw() == "Eve"
        ][0]
        assert eve.get_property("yob").raw() == 1984  # int, not "1984"
        assert eve.get_property("gender").raw() == "female"

    def test_edge_endpoints_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        knows = [e for e in restored.collect_edges() if e.label == "knows"]
        pairs = {(e.source_id.value, e.target_id.value) for e in knows}
        assert pairs == {(10, 20), (20, 10), (20, 30), (30, 20)}

    def test_graph_membership_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        head_id = restored.graph_head.id
        assert all(v.in_graph(head_id) for v in restored.collect_vertices())

    def test_graph_head_properties_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert restored.graph_head.get_property("area").raw() == "Leipzig"

    def test_missing_property_stays_null(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        alice = [
            v
            for v in restored.collect_vertices()
            if v.get_property("name").raw() == "Alice"
        ][0]
        assert alice.get_property("yob").is_null


class TestLoadsIndexed:
    """A loaded graph is the §3.4 indexed graph: per-label datasets and
    the resident adjacency, over exactly the elements the sink was given."""

    def test_round_trip_returns_the_same_graph_indexed(
        self, env, graph_dir, figure1_graph
    ):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert isinstance(restored, IndexedLogicalGraph)
        assert restored.graph_head == figure1_graph.graph_head
        for collect in ("collect_vertices", "collect_edges"):
            def signature(graph):
                return sorted(
                    (e.id.value, e.label, sorted(e.properties.to_dict().items()))
                    for e in getattr(graph, collect)()
                )
            assert signature(restored) == signature(figure1_graph)
        assert restored.edge_labels == ["isLocatedIn", "knows", "studyAt"]
        assert restored.edges_by_label("knows").count() == 4
        assert restored.edges_by_label("absent").collect() == []
        assert restored.vertices_by_label("absent").collect() == []

    def test_adjacency_agrees_with_the_edge_list(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        edges = restored.collect_edges()
        space = restored.ordinal_space()
        for label in restored.edge_labels + ["absent"]:
            for reverse in (False, True):
                expected = {}
                for edge in restored.edges_by_label(label).collect():
                    ends = (edge.source_id.value, edge.target_id.value)
                    expected.setdefault(ends[reverse], []).append(
                        (edge.id.value, ends[not reverse])
                    )
                adjacency, listed = restored.adjacency([label], reverse)
                # every element: the sources have neighbours, no other does
                first, counts = adjacency.neighbours(
                    np.arange(len(space.ids), dtype=np.uint64)
                )
                assert space.ids[counts > 0].tolist() == sorted(expected)
                for start, count, source in zip(
                    first.tolist(), counts.tolist(), space.ids.tolist()
                ):
                    span = slice(start, start + count)
                    edge_ids = space.ids_of(adjacency.edge_ids[span]).tolist()
                    if not count:
                        continue
                    # neighbours in edge-insertion order
                    assert list(zip(
                        edge_ids, space.ids_of(adjacency.targets[span]).tolist(),
                    )) == expected[source]
                    assert [
                        listed[row].id.value
                        for row in adjacency.edge_rows[span].tolist()
                    ] == edge_ids
                assert counts.sum() == len(adjacency.targets)
        restored.drop_resident()  # the empty adjacencies of "absent"
        # every label, both directions, a self-loop once
        merged, listed = restored.adjacency([], undirected=True)
        assert len(listed) == len(edges)
        assert len(merged.targets) == 2 * len(edges)
        # ... built once, kept with the graph and counted beside the
        # per-label ones and the ordinal space until the elements change
        assert restored.adjacency([], undirected=True)[0] is merged
        per_label = sum(
            restored.adjacency([label], reverse)[0].nbytes
            for label in restored.edge_labels
            for reverse in (False, True)
        )
        assert restored.adjacency_stats() == {
            "labels": 3, "edges": len(edges),
            "bytes": space.nbytes + per_label + merged.nbytes,
            "pair_indexes": 0, "hop_joins": 0, "pair_joins": 0,
            "lookup_joins": 0, "lookup_passthroughs": 0,
        }
        restored.drop_resident()
        assert restored.adjacency_stats()["bytes"] == space.nbytes + per_label


class TestEdgeCases:
    def test_values_with_separators_escape(self, env, tmp_path):
        from repro.epgm import GradoopId, Vertex

        vertex = Vertex(
            GradoopId(1), label="Note", properties={"text": "a;b|c\\d\ne"}
        )
        graph = LogicalGraph.from_collections(env, [vertex], [])
        path = str(tmp_path / "escaped")
        CSVDataSink(path).write_logical_graph(graph)
        restored = CSVDataSource(path).get_logical_graph(env)
        assert restored.collect_vertices()[0].get_property("text").raw() == "a;b|c\\d\ne"

    def test_collection_roundtrip(self, env, tmp_path, figure1_graph):
        collection = GraphCollection.from_graph(figure1_graph)
        path = str(tmp_path / "collection")
        CSVDataSink(path).write_graph_collection(collection)
        restored = CSVDataSource(path).get_graph_collection(env)
        assert restored.graph_count() == 1
        assert restored.vertices.count() == 5

    def test_multiple_heads_rejected_for_logical_graph(self, env, tmp_path):
        from repro.epgm import GradoopId, GraphHead

        collection = GraphCollection.from_collections(
            env, [GraphHead(GradoopId(1)), GraphHead(GradoopId(2))], [], []
        )
        path = str(tmp_path / "two-heads")
        CSVDataSink(path).write_graph_collection(collection)
        with pytest.raises(ValueError):
            CSVDataSource(path).get_logical_graph(env)

    def test_empty_graph_roundtrip(self, env, tmp_path):
        graph = LogicalGraph.from_collections(env, [], [])
        path = str(tmp_path / "empty")
        CSVDataSink(path).write_logical_graph(graph)
        restored = CSVDataSource(path).get_logical_graph(env)
        assert restored.vertex_count() == 0
        assert restored.edge_count() == 0
