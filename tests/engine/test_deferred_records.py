"""Records through the kernels: row indexes in, records at the end.

A columnar chunk carries its property records as *segments* — row
indexes into the record matrices of resident leaf tables — so hops, pair
probes, lookups, hash joins and the expansion move ints, and a record is
gathered once, by its first reader (the RETURN decode, a global WHERE,
the per-record boundary, a pool frame).  A vertex lookup whose every
input row is known to hit passes its input through and adds a segment
indexed by vertex id.  This module pins that every kernel still
produces the reference's rows and bytes, that on Q5 no record matrix is
built before the RETURN decode, that a served Q1 hops from its Person
and passes its messages through, and that the pass-through follows the
graph it answers for.
"""

from collections import Counter

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.dataflow.workers import shipping
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.engine.columnar import EmbeddingChunk, Segment
from repro.epgm import Edge, GradoopId, IndexedLogicalGraph, LogicalGraph, Vertex
from repro.harness.queries import QUERY_1, QUERY_4, QUERY_5, QUERY_6
from repro.ldbc import LDBCGenerator
from repro.server import GraphRegistry, QueryService

#: (what it pins, query, the run names it must show, counter growth); the
#: value join has no chunk kernel: its records cross the per-record
#: boundary, and the stages after it run per record
KERNEL_QUERIES = [
    ("hop and pass-through",
     "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.firstName, q.lastName",
     ("[adjacency]", "[lookup]"), {"hop_joins": 1, "lookup_passthroughs": 1}),
    ("expansion and searched lookup",
     "MATCH (p:Person)-[:knows*1..2]->(q:Person) RETURN p.firstName, q.lastName",
     ("ExpandEmbeddings:hop", "[lookup]"),
     {"lookup_joins": 1, "lookup_passthroughs": 0}),
    ("WHERE after a join, then ProjectEmbeddings",
     "MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName < q.firstName "
     "RETURN p.lastName, q.lastName",
     ("SelectEmbeddings((p.firstName < q.firstName))", "ProjectEmbeddings"),
     {"lookup_passthroughs": 1}),
    ("value join",
     "MATCH (a:Person), (b:Person) WHERE a.firstName = b.firstName "
     "RETURN a.lastName, b.lastName",
     ("JoinEmbeddingsOnProperty(a.firstName=b.firstName)[repartition-hash]",),
     {}),
    ("pair probe", QUERY_5, ("JoinEmbeddings(p1,p3)[adjacency]",),
     {"pair_joins": 1, "lookup_passthroughs": 2}),
    ("hash join with records on both sides", QUERY_6,
     ("JoinEmbeddings(p2)[repartition-hash]",),
     {"pair_joins": 1, "lookup_passthroughs": 2}),
    ("hash join under three pass-throughs", QUERY_4,
     ("JoinEmbeddings(person)[repartition-hash]",),
     {"lookup_passthroughs": 3}),
]

@pytest.fixture(scope="module")
def dataset():
    return LDBCGenerator(scale_factor=0.03, seed=11).generate()


@pytest.fixture(scope="module")
def ldbc(dataset):
    graph = dataset.to_logical_graph(ExecutionEnvironment(parallelism=4), indexed=True)
    return graph, GraphStatistics.from_graph(graph)


def _runners(graph, statistics=None, strategy=MatchStrategy.ISOMORPHISM):
    options = dict(
        statistics=statistics,
        vertex_strategy=MatchStrategy.HOMOMORPHISM,
        edge_strategy=strategy,
    )
    return (
        CypherRunner(graph, mode="columnar", **options),
        CypherRunner(graph, mode="reference", **options),
    )


def _canon(embeddings):
    return Counter((e.id_data, e.path_data, e.prop_data) for e in embeddings)


def _rows(table):
    return Counter(tuple(sorted(row.items())) for row in table)


def _assert_sizes(batches):
    """Each chunk sizes itself as the §3.3 rows it decodes to (a batch of
    a per-record stage is a list of embeddings)."""
    for chunk in batches:
        if not isinstance(chunk, EmbeddingChunk):
            continue
        sizes = [row.serialized_size() for row in chunk.to_embeddings()]
        assert chunk.row_sizes().tolist() == sizes
        assert chunk.byte_size() == sum(sizes)


@pytest.mark.parametrize(
    "name, query, runs, grown", KERNEL_QUERIES, ids=[q[0] for q in KERNEL_QUERIES]
)
def test_records_cross_every_kernel_as_the_reference_writes_them(
    ldbc, name, query, runs, grown
):
    graph, statistics = ldbc
    columnar, reference = _runners(graph, statistics)
    before = graph.adjacency_stats()
    with graph.environment.job(name) as metrics:
        embeddings, _ = columnar.execute_embeddings(query)
    after = graph.adjacency_stats()
    names = {run.name for run in metrics.runs}
    for expected in runs:
        assert any(run.endswith(expected) for run in names), (expected, names)
    for counter, growth in grown.items():
        assert after[counter] - before[counter] == growth, counter
    assert any(metrics.chunk_fallbacks.values()) == (name == "value join")
    assert _canon(embeddings) == _canon(reference.execute_embeddings(query)[0])
    assert _rows(columnar.execute_table(query)) == _rows(reference.execute_table(query))
    _, root = columnar.compile(query)
    _assert_sizes(root.evaluate().batches())


def _resident_matrices(graph):
    """``id()`` of every record matrix the resident leaf tables hold."""
    tables = [found for key, found in graph._resident.items() if key[0] == "table"]
    chunks = [chunk for table in tables for chunk, _ in table.parts] + [
        table.located.chunk for table in tables if table.located is not None
    ]
    return {id(segment.props) for chunk in chunks for segment in chunk.segments}


def test_q5_moves_row_indexes_until_the_return_decode(ldbc, monkeypatch):
    graph, statistics = ldbc
    columnar, reference = _runners(graph, statistics)
    columnar.execute_table(QUERY_5)  # the leaf tables exist
    handler, root = columnar.compile(QUERY_5)
    made = []
    init = EmbeddingChunk.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def refused(*args):
        raise AssertionError("a record was gathered before the RETURN decode")

    monkeypatch.setattr(EmbeddingChunk, "__init__", recording)
    for method in ("gathered", "column"):
        monkeypatch.setattr(Segment, method, refused)
    before = graph.adjacency_stats()
    batches = list(root.evaluate().batches())
    after = graph.adjacency_stats()
    monkeypatch.undo()

    assert after["lookup_passthroughs"] - before["lookup_passthroughs"] == 2
    assert after["lookup_joins"] - before["lookup_joins"] == 2
    resident = _resident_matrices(graph)
    segments = [segment for chunk in made for segment in chunk.segments]
    assert segments and all(id(segment.props) in resident for segment in segments)
    # p2's and p3's records are located by id; p1's rows index its table
    final = [chunk for chunk in batches if chunk.count]
    assert final and all(
        [segment.locator is not None for segment in chunk.segments]
        == [False, True, True]
        for chunk in final
    )
    table = columnar.build_table(handler, batches, root.meta)
    assert _rows(table.rows()) == _rows(reference.execute_table(QUERY_5))


def test_served_q1_hops_from_the_person_and_passes_the_messages_through(ldbc):
    """Q1's hasCreator edge starts at the filtered Person; the message
    leaf, unfiltered and holding every creator's message, is looked up
    last and passes the hop's rows through."""
    graph, statistics = ldbc
    _, reference = _runners(graph, statistics)
    query = QUERY_1.replace("'{firstName}'", "$firstName")
    registry = GraphRegistry()
    registry.register("g", graph, statistics)
    with QueryService(registry) as service:
        for name in ("Jan", "Chen", "Jan"):
            before = graph.adjacency_stats()
            result = service.execute("g", query, {"firstName": name})
            after = graph.adjacency_stats()
            assert {
                counter: after[counter] - before[counter]
                for counter in ("hop_joins", "lookup_joins", "lookup_passthroughs")
            } == {"hop_joins": 1, "lookup_joins": 1, "lookup_passthroughs": 1}
            expected = reference.execute_table(query, {"firstName": name})
            assert expected and _rows(result.rows) == _rows(expected)


def _people(graph_cls, knows):
    """Four Persons and a Tag; ``knows`` edges between their ids."""
    environment = ExecutionEnvironment(parallelism=1)
    vertices = [
        Vertex(GradoopId(n), "Person", {"name": "p%d" % n}) for n in range(1, 5)
    ] + [Vertex(GradoopId(5), "Tag", {"name": "t5"})]
    edges = [
        Edge(GradoopId(100 + n), "knows", GradoopId(source), GradoopId(target))
        for n, (source, target) in enumerate(knows)
    ]
    return graph_cls.from_collections(environment, vertices, edges), vertices


KNOWS = "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name, q.name"


def _lookups(graph, runner, query=KNOWS):
    """``(rows, (lookups, pass-throughs))`` of one columnar execution."""
    before = graph.adjacency_stats()
    rows = runner.execute_table(query)
    after = graph.adjacency_stats()
    return rows, tuple(
        after[name] - before[name] for name in ("lookup_joins", "lookup_passthroughs")
    )


def test_a_knows_edge_into_a_tag_makes_the_lookup_search():
    graph, _ = _people(IndexedLogicalGraph, [(1, 2), (2, 3), (3, 5), (4, 1)])
    columnar, reference = _runners(graph)
    rows, counts = _lookups(graph, columnar)
    assert counts == (1, 0)
    assert _rows(rows) == _rows(reference.execute_table(KNOWS))
    assert {(row["p.name"], row["q.name"]) for row in rows} == {
        ("p1", "p2"), ("p2", "p3"), ("p4", "p1")
    }
    # knows edges that all end at a Person: the lookup passes through
    graph, _ = _people(IndexedLogicalGraph, [(1, 2), (2, 3), (3, 4), (4, 1)])
    columnar, reference = _runners(graph)
    rows, counts = _lookups(graph, columnar)
    assert counts == (1, 1) and len(rows) == 4
    assert _rows(rows) == _rows(reference.execute_table(KNOWS))


def test_the_pass_through_follows_the_graph_after_touch():
    # a plain graph reads its label datasets per request: relabelling a
    # Person in place (and saying so) changes what the Person leaf holds,
    # so the flag built over the old table must not answer for the new
    graph, vertices = _people(LogicalGraph, [(1, 2), (2, 3), (3, 4), (4, 1)])
    columnar, reference = _runners(graph)
    rows, counts = _lookups(graph, columnar)
    assert counts == (1, 1) and len(rows) == 4
    vertices[3].label = "Tag"
    GraphRegistry().register("people", graph).touch()
    rows, counts = _lookups(graph, columnar)
    assert counts == (1, 0)
    assert _rows(rows) == _rows(reference.execute_table(KNOWS))
    assert {(row["p.name"], row["q.name"]) for row in rows} == {
        ("p1", "p2"), ("p2", "p3")
    }


@pytest.mark.parametrize("strategy", list(MatchStrategy), ids=lambda s: s.value)
def test_self_loops_under_every_morphism_setting(strategy):
    # the lookup re-checks no id: a loop's far end is its near end, which
    # the input row already holds.  Under vertex isomorphism the edge leaf
    # drops its loops and stays a hash join: no hop beneath, so the
    # lookups search
    graph, _ = _people(IndexedLogicalGraph, [(1, 1), (1, 2), (2, 2), (2, 1)])
    for vertex_strategy in MatchStrategy:
        homomorphism = vertex_strategy is MatchStrategy.HOMOMORPHISM
        options = dict(vertex_strategy=vertex_strategy, edge_strategy=strategy)
        columnar = CypherRunner(graph, mode="columnar", **options)
        reference = CypherRunner(graph, mode="reference", **options)
        for query in (KNOWS, "MATCH (p:Person)-[:knows]->(q:Person)-[:knows]->(r:Person) "
                             "RETURN p.name, q.name, r.name"):
            rows, (lookups, passed) = _lookups(graph, columnar, query)
            assert lookups and passed == (lookups if homomorphism else 0)
            assert _rows(rows) == _rows(reference.execute_table(query))


def test_pool_frames_carry_the_gathered_records(dataset, monkeypatch):
    environment = ExecutionEnvironment(parallelism=4, workers=2)
    try:
        graph = dataset.to_logical_graph(environment, indexed=True)
        statistics = GraphStatistics.from_graph(graph)
        single = dataset.to_logical_graph(ExecutionEnvironment(parallelism=4))
        framed = []
        encode = shipping._encode_chunks

        def counting(partition):
            framed.extend(chunk for chunk in partition.chunks if chunk.segments)
            return encode(partition)

        monkeypatch.setattr(shipping, "_encode_chunks", counting)
        for query in (QUERY_4, QUERY_5, QUERY_6):
            pooled = CypherRunner(graph, statistics=statistics, mode="columnar")
            reference = CypherRunner(single, mode="reference")
            assert _canon(pooled.execute_embeddings(query)[0]) == _canon(
                reference.execute_embeddings(query)[0]
            )
            assert _rows(pooled.execute_table(query)) == _rows(
                reference.execute_table(query)
            )
        assert framed
    finally:
        environment.shutdown_workers()
