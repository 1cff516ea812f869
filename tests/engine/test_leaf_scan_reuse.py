"""Tests for shared leaf scans (recurring-subquery reuse, paper §5) and
for what outlives a plan: the leaf tables, shared adjacencies and pair
indexes a graph keeps.

Leaf reuse is a property of the dataflow plan, so its scans are counted
on the reference path: a columnar run joins an edge leaf as a hop over
the graph's adjacency and never scans it."""

import threading
import time

import pytest

from repro.cypher import QueryHandler
from repro.engine import (
    CypherRunner,
    GraphStatistics,
    GreedyPlanner,
    canonical_rows_from_embeddings,
)
from repro.engine.columnar import (
    ColumnarAdjacencyJoin,
    ColumnarExpandSpec,
    ColumnarLeaf,
)
from repro.engine.operators.leaves import LoweredOperator
from repro.epgm import IndexedLogicalGraph, indexed
from repro.epgm.logical_graph import _RESIDENT_CAPACITY
from repro.server import GraphRegistry

TRIANGLE = (
    "MATCH (p1:Person)-[:knows]->(p2:Person),"
    " (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3) RETURN *"
)


class _NoReusePlanner(GreedyPlanner):
    def __init__(self, *args, **kwargs):
        kwargs["reuse_leaf_scans"] = False
        super().__init__(*args, **kwargs)


def _run(figure1_graph, planner_cls):
    env = figure1_graph.environment
    runner = CypherRunner(
        figure1_graph, planner_cls=planner_cls, mode="reference"
    )
    env.reset_metrics("triangle")
    embeddings, meta = runner.execute_embeddings(TRIANGLE)
    scans = [
        run
        for run in env.metrics.runs
        if run.name.startswith("SelectAndProjectEdges")
    ]
    return embeddings, meta, scans


def test_triangle_scans_knows_once_with_reuse(figure1_graph):
    _, _, scans = _run(figure1_graph, GreedyPlanner)
    assert len(scans) == 1  # three query edges, one shared scan


def test_triangle_scans_three_times_without_reuse(figure1_graph):
    _, _, scans = _run(figure1_graph, _NoReusePlanner)
    assert len(scans) == 3


def test_reuse_does_not_change_results(figure1_graph):
    shared, shared_meta, _ = _run(figure1_graph, GreedyPlanner)
    separate, separate_meta, _ = _run(figure1_graph, _NoReusePlanner)
    assert sorted(canonical_rows_from_embeddings(shared, shared_meta)) == sorted(
        canonical_rows_from_embeddings(separate, separate_meta)
    )


def test_different_predicates_not_shared(figure1_graph):
    """Edges with different pushed-down predicates keep separate scans."""
    query = (
        "MATCH (a:Person)-[s1:studyAt]->(u), (b:Person)-[s2:studyAt]->(u) "
        "WHERE s1.classYear > 2014 RETURN *"
    )
    env = figure1_graph.environment
    runner = CypherRunner(figure1_graph, mode="reference")
    env.reset_metrics("q")
    runner.execute_embeddings(query)
    scans = [
        run
        for run in env.metrics.runs
        if run.name.startswith("SelectAndProjectEdges")
    ]
    assert len(scans) == 2


def test_vertex_leaves_shared(figure1_graph):
    """Two identically-predicated Person leaves share one scan."""
    query = (
        "MATCH (a:Person), (b:Person) WHERE a.gender <> b.gender RETURN *"
    )
    env = figure1_graph.environment
    runner = CypherRunner(figure1_graph)
    env.reset_metrics("q")
    rows = runner.execute_table(query)
    scans = [
        run
        for run in env.metrics.runs
        if run.name.startswith("SelectAndProjectVertices")
    ]
    assert len(scans) == 1
    assert len(rows) == 4  # (Alice,Bob), (Eve,Bob) and the two reverses


def test_signature_distinguishes_property_keys(figure1_graph):
    """Same labels but different projected keys -> separate datasets."""
    handler = QueryHandler(
        "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.name, b.gender"
    )
    stats = GraphStatistics.from_graph(figure1_graph)
    planner = GreedyPlanner(figure1_graph, handler, stats)
    planner.plan()
    signatures = list(planner._leaf_dataset_cache)
    vertex_signatures = [s for s in signatures if s[0] == "v"]
    assert len(vertex_signatures) == 2


# --- resident leaf tables: what a graph keeps, and for how long --------------


@pytest.fixture
def indexed_graph(figure1_graph):
    return IndexedLogicalGraph.from_logical_graph(figure1_graph)


NAMED = "MATCH (p:Person) WHERE p.name = $name RETURN p.name, p.gender"


def test_second_execution_builds_no_table(indexed_graph):
    statement = CypherRunner(indexed_graph).prepare(NAMED)
    statement.run({"name": "Alice"})
    first = indexed_graph.leaf_stats()
    assert (first["tables"], first["indexes"], first["probes"]) == (1, 1, 1)
    assert first["bytes"] > 0
    statement.run({"name": "Eve"})
    # ... nor does a second plan over the same leaf: the tables are the
    # graph's, not the plan's
    CypherRunner(indexed_graph).execute_embeddings(
        "MATCH (q:Person) WHERE q.gender = 'male' RETURN q.name, q.gender"
    )
    later = indexed_graph.leaf_stats()
    assert (later["tables"], later["bytes"]) == (first["tables"], first["bytes"])
    assert (later["indexes"], later["probes"]) == (2, 3)


def test_adhoc_literals_leave_the_tables_alone(indexed_graph):
    runner = CypherRunner(indexed_graph)
    sizes = set()
    for number in range(1000):
        embeddings, _ = runner.execute_embeddings(
            "MATCH (p:Person) WHERE p.name = 'nobody-%d' RETURN p.name" % number
        )
        assert not embeddings
        stats = indexed_graph.leaf_stats()
        sizes.add((stats["tables"], stats["bytes"], stats["indexes"]))
    assert len(sizes) == 1 and stats["probes"] == 1000


def test_key_subsets_are_bounded(indexed_graph):
    # every subset of projected keys is its own table; the graph keeps a
    # fixed number of them, least recently used first out
    runner = CypherRunner(indexed_graph)
    keys = ["name", "gender", "yob", "a", "b", "c", "d"]
    for mask in range(1, 2 ** len(keys)):
        chosen = [key for bit, key in enumerate(keys) if mask >> bit & 1]
        runner.execute_embeddings(
            "MATCH (p:Person) RETURN %s" % ", ".join("p." + k for k in chosen)
        )
    assert indexed_graph.leaf_stats()["tables"] == _RESIDENT_CAPACITY
    assert len(runner.execute_table("MATCH (p:Person) RETURN p.name")) == 3


def _racing(statements, parameters=None):
    """Run ``statements`` at once, one thread each; returns their rows."""
    barrier = threading.Barrier(len(statements))
    results = []

    def first_use(statement):
        barrier.wait(timeout=30)
        results.append(statement.run(parameters)[0])

    threads = [
        threading.Thread(target=first_use, args=(statement,))
        for statement in statements
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    return results


def test_racing_first_uses_build_one_table(indexed_graph, monkeypatch):
    encoded = []
    encode = ColumnarLeaf.encode

    def slow_encode(self, elements):
        encoded.append(len(elements))
        time.sleep(0.01)  # hold the build open for the other thread
        return encode(self, elements)

    monkeypatch.setattr(ColumnarLeaf, "encode", slow_encode)
    results = _racing(
        [CypherRunner(indexed_graph).prepare(NAMED) for _ in range(2)],
        {"name": "Bob"},
    )
    assert len(results) == 2 and results[0] == results[1]
    assert indexed_graph.leaf_stats()["tables"] == 1
    # one table, encoded once: a columnar run is one partition
    assert len(encoded) == 1


# --- shared adjacencies and pair indexes: the graph's, not the plan's --------


def test_second_execution_builds_no_pair_index(indexed_graph):
    statement = CypherRunner(indexed_graph).prepare(TRIANGLE)
    rows = statement.run()[0]
    first = indexed_graph.adjacency_stats()
    assert (first["hop_joins"], first["pair_joins"]) == (2, 1)
    assert first["pair_indexes"] == 1
    assert statement.run()[0] == rows
    # ... nor does a second plan closing over the same label
    CypherRunner(indexed_graph).execute_embeddings(
        "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(a) RETURN *"
    )
    later = indexed_graph.adjacency_stats()
    assert (later["pair_indexes"], later["bytes"]) == (1, first["bytes"])
    assert later["pair_joins"] == 3


def test_racing_first_closing_joins_build_one_pair_index(
    indexed_graph, monkeypatch
):
    built = []
    init = indexed.PairIndex.__init__

    def slow_init(self, adjacency):
        built.append(adjacency)
        time.sleep(0.01)  # hold the build open for the other thread
        init(self, adjacency)

    monkeypatch.setattr(indexed.PairIndex, "__init__", slow_init)
    results = _racing(
        [CypherRunner(indexed_graph).prepare(TRIANGLE) for _ in range(2)]
    )
    assert len(results) == 2 and sorted(results[0]) == sorted(results[1])
    assert len(built) == 1
    assert indexed_graph.adjacency_stats()["pair_indexes"] == 1


def test_plans_share_a_merged_adjacency_until_the_graph_changes(indexed_graph):
    # an alternation's (or an undirected edge's) adjacency is built from
    # the labels' edge lists: once per graph, not once per compiled plan
    def kernels(text):
        # what each lowered node compiles on its first run
        _, root = CypherRunner(indexed_graph).compile(text)
        nodes = [operator.evaluate().operator for operator in root.postorder()]
        compiled = [
            bound()[0]
            for node in nodes if isinstance(node, LoweredOperator)
            for bound in node.run_kernel.args if callable(bound)
        ]
        assert all(
            isinstance(kernel, (ColumnarExpandSpec, ColumnarAdjacencyJoin))
            for kernel in compiled
        )
        return [kernel.adjacency for kernel in compiled]

    (first,) = kernels("MATCH (a:Person)-[e:knows|studyAt]-(b) RETURN *")
    (second,) = kernels(
        "MATCH (p:Person)-[e:knows|studyAt*1..2]-(q) WHERE p.name = 'Eve' "
        "RETURN q.name"
    )
    assert first is second
    shared = indexed_graph.adjacency_stats()["bytes"]
    GraphRegistry().register("fig1", indexed_graph).touch()
    assert indexed_graph.adjacency_stats()["bytes"] == shared - first.nbytes
    (third,) = kernels("MATCH (a:Person)-[e:knows|studyAt]-(b) RETURN b.name")
    assert third is not first
    assert third.targets.tolist() == first.targets.tolist()
