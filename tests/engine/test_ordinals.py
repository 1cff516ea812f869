"""The ordinal boundary: ids become ordinals at load and come back exactly.

A loaded graph numbers its elements by id (an
:class:`~repro.epgm.indexed.OrdinalSpace`) and the columnar kernels carry
those ordinals; ids return only where a result or an embedding leaves.
The graph here is built to catch a boundary that forgets to map back or
maps back wrong: sparse ids, labels whose id ranges interleave (label
order is not id order), derived ids at or above 2**40 and one id at
2**64 - 1 (twenty digits: the digit table's widest row).  On it, every
body the default engine serves must equal, byte for byte, what the
per-record reference path's ``json.dumps(result.to_dict())`` writes.
"""

import json
import re

import numpy as np
import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.engine.columnar import ID_MATRIX_ROWS, chunk_from_embeddings
from repro.epgm import Edge, GradoopId, LogicalGraph, Vertex
from repro.epgm.identifiers import DERIVED_ID_BASE, GradoopIdFactory
from repro.epgm.indexed import IndexedLogicalGraph
from repro.server import GraphRegistry, QueryService

PERSONS = 20
#: each person knows the persons this far ahead of it (mod PERSONS)
KNOWS = (1, 2, 3, 5, 7, 11, 13, 17)


#: ids from a derived block, drawn once: every graph here shares them
_DERIVED = [
    gid.value for gid in map(
        lambda factory: factory.next_id(),
        [GradoopIdFactory.derived()] * (PERSONS + PERSONS * len(KNOWS)),
    )
]


def _elements():
    """``(vertices, edges)``, fresh objects: persons in the middle of the id
    range and at its very top, cities below and above them, ``livesIn``
    edges below every person, ``knows`` edges sparse and partly derived."""
    derived = iter(_DERIVED)
    person_ids = (
        [2**64 - 1]
        + [10**6 + 7 * n for n in range(PERSONS // 2)]
        + [next(derived) for _ in range(PERSONS // 2 - 1)]
    )
    vertices = [
        Vertex(GradoopId(vid), "Person", {"name": "p%d" % n, "age": 20 + n % 7})
        for n, vid in enumerate(person_ids)
    ] + [
        Vertex(GradoopId(vid), "City", {"name": "c%d" % n})
        for n, vid in enumerate([3, 2**63 + 5, 10**6 + 4])
    ]
    edges = [
        Edge(GradoopId(40 + 2 * n), "livesIn",
             GradoopId(person_ids[n]), vertices[PERSONS + n % 3].id)
        for n in range(PERSONS)
    ]
    for n in range(PERSONS):
        for step in KNOWS:
            number = len(edges)
            eid = next(derived) if number % 5 == 0 else 5000 + 13 * number
            edges.append(Edge(
                GradoopId(eid), "knows", GradoopId(person_ids[n]),
                GradoopId(person_ids[(n + step) % PERSONS]),
                {"since": 2000 + number % 9},
            ))
    return vertices, edges


def test_the_graph_is_what_the_boundary_needs():
    vertices, edges = _elements()
    ids = [element.id.value for element in vertices + edges]
    assert max(ids) == 2**64 - 1 and len(set(ids)) == len(ids)
    assert sum(value >= DERIVED_ID_BASE for value in ids) > PERSONS
    # label order is not id order: the City ids bracket the Person ids
    by_label = {}
    for vertex in vertices:
        by_label.setdefault(vertex.label, []).append(vertex.id.value)
    assert min(by_label["City"]) < min(by_label["Person"])
    assert max(by_label["City"]) > sorted(by_label["Person"])[-2]
    assert PERSONS * len(KNOWS) >= ID_MATRIX_ROWS > PERSONS


def _graph(mode, kind):
    vertices, edges = _elements()
    environment = ExecutionEnvironment(parallelism=1, mode=mode)
    if kind == "indexed":
        return IndexedLogicalGraph.from_collections(environment, vertices, edges)
    return LogicalGraph.from_collections(environment, vertices, edges)


@pytest.fixture(scope="module", params=["indexed", "plain"])
def services(request):
    """A default-engine and a reference-path service over the graph."""
    out = {}
    for mode in ("columnar", "reference"):
        registry = GraphRegistry()
        registry.register("g", _graph(mode, request.param))
        out[mode] = QueryService(registry, lint=False)
    yield out
    for service in out.values():
        service.close()


def _served(service, text):
    """The result of ``text`` with its timing fields zeroed."""
    result = service.execute("g", text)
    result.elapsed_seconds = result.queue_seconds = 0.0
    result.simulated_seconds = 0.0
    return result


ROW_QUERIES = {
    # id-only RETURN *: the id-matrix writer (>= ID_MATRIX_ROWS rows) ...
    "ids-large": "MATCH (a:Person)-[k:knows]->(b:Person) RETURN *",
    # ... and the interleaved writer (fewer)
    "ids-small": "MATCH (p:Person)-[l:livesIn]->(c:City) RETURN *",
    # an expansion emits its paths in its own order: sorted by the path,
    # the rows' order is the reference path's
    "path-large": (
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) "
        "WHERE a.name = 'p0' RETURN a, e, b ORDER BY e"
    ),
    "path-small": (
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) "
        "WHERE a.name = 'p0' AND b.name = 'p4' RETURN a, e, b ORDER BY e"
    ),
    "properties": (
        "MATCH (p:Person)-[l:livesIn]->(c:City) "
        "RETURN p.name, c.name, p, l, c"
    ),
    "knows-properties": (
        "MATCH (a:Person)-[k:knows]->(b:Person) WHERE a.age > 22 "
        "RETURN a.name, k.since, b, k"
    ),
    "distinct": "MATCH (a:Person)-[:knows]->(b:Person) RETURN DISTINCT b",
    "order-by": (
        "MATCH (a:Person)-[k:knows]->(b:Person) RETURN a, k, b ORDER BY b, k DESC"
    ),
    "distinct-order-by": (
        "MATCH (p:Person)-[:livesIn]->(c:City) RETURN DISTINCT c ORDER BY c DESC"
    ),
    "grouped": (
        "MATCH (a:Person)-[:knows]->(b:Person) RETURN b, count(a), collect(a)"
    ),
}


@pytest.mark.parametrize("name", sorted(ROW_QUERIES))
def test_bodies_equal_the_reference_paths(services, name):
    text = ROW_QUERIES[name]
    served = _served(services["columnar"], text)
    reference = _served(services["reference"], text)
    assert served.row_count == reference.row_count > 0
    expected = json.dumps(reference.to_dict(), default=str).encode()
    assert b"".join(served.encode()) == expected
    if name.endswith("large"):
        assert served.row_count >= ID_MATRIX_ROWS
    if name.endswith("small"):
        assert served.row_count < ID_MATRIX_ROWS


def test_an_unordered_path_answer_holds_the_reference_paths_rows(services):
    text = (
        "MATCH (a:Person)-[e:knows*1..3]->(b:Person) "
        "WHERE a.name = 'p0' RETURN *"
    )
    served = _served(services["columnar"], text)
    body = b"".join(served.encode())
    assert body == json.dumps(served.to_dict(), default=str).encode()
    rows = json.loads(body)["rows"]
    assert len(rows) >= ID_MATRIX_ROWS
    expected = _served(services["reference"], text).rows
    assert sorted(map(json.dumps, rows)) == sorted(map(json.dumps, expected))


def test_id_columns_leave_as_the_elements_ids(services):
    rows = _served(services["columnar"], ROW_QUERIES["properties"]).rows
    vertices, edges = _elements()
    by_id = {element.id.value: element for element in vertices + edges}
    for row in rows:
        assert by_id[row["p"]].get_property("name").raw() == row["p.name"]
        assert by_id[row["c"]].get_property("name").raw() == row["c.name"]
        assert (by_id[row["l"]].source_id.value, by_id[row["l"]].target_id.value) == (
            row["p"], row["c"]
        )


@pytest.mark.parametrize("kind", ["indexed", "plain"])
def test_embeddings_round_trip_through_the_space(kind):
    graph = _graph("columnar", kind)
    reference = CypherRunner(_graph("reference", kind), mode="reference")
    space = graph.ordinal_space()
    for text in (ROW_QUERIES["ids-large"], ROW_QUERIES["path-large"],
                 ROW_QUERIES["knows-properties"], ROW_QUERIES["ids-small"]):
        runner = CypherRunner(graph)
        statement = runner.prepare(text)
        with statement.bound(None) as root:
            chunks = list(root.evaluate().batches())
        assert chunks and all(chunk.space is space for chunk in chunks)
        embeddings = [row for chunk in chunks for row in chunk.to_embeddings()]
        canon = sorted((r.id_data, r.path_data, r.prop_data) for r in embeddings)
        expected, _ = reference.execute_embeddings(text)
        assert canon == sorted(
            (r.id_data, r.path_data, r.prop_data) for r in expected
        )
        # ids in, ordinals out, ids back: the same bytes
        for chunk in chunks:
            rows = chunk.to_embeddings()
            again = chunk_from_embeddings(rows, space)
            assert np.array_equal(again.values, chunk.values)
            assert [(r.id_data, r.path_data, r.prop_data) for r in again.to_embeddings()] == [
                (r.id_data, r.path_data, r.prop_data) for r in rows
            ]
            assert again.id_buf() == b"".join(r.id_data for r in rows)


@pytest.mark.parametrize("name", ["ids-large", "path-large", "knows-properties"])
def test_explain_analyze_counts_what_the_reference_path_counts(name):
    text = ROW_QUERIES[name]

    def actuals(mode):
        runner = CypherRunner(_graph(mode, "indexed"), mode=mode)
        return [
            int(count) for count in re.findall(
                r"actual=(\d+)", runner.explain_analyze(text)
            )
        ]

    assert actuals("columnar") == actuals("reference")


def test_an_id_outside_the_space_is_refused():
    graph = _graph("columnar", "indexed")
    space = graph.ordinal_space()
    with pytest.raises(ValueError):
        space.ordinals(np.array([7], dtype=np.uint64))
    assert space.ids_of(space.ordinals(space.ids)).tolist() == space.ids.tolist()


def test_a_shuffle_places_ordinal_rows_where_their_ids_go():
    # a join may shuffle a columnar side and a per-record side: both must
    # route a key by its id, or equal keys meet on different workers
    from repro.dataflow.operators import split_partition
    from repro.engine.columnar import ColumnarPartition

    graph = _graph("columnar", "indexed")
    with CypherRunner(graph).prepare(ROW_QUERIES["ids-large"]).bound(None) as root:
        partition = ColumnarPartition(list(root.evaluate().batches()))
    rows = partition.rows()

    def key(row):
        return row.raw_id_at(2)

    by_chunks, chunk_stats = split_partition(partition, 0, 4, key, (2,))
    by_rows, row_stats = split_partition(rows, 0, 4, key)
    assert [
        [row.id_data for chunk in split for row in chunk.to_embeddings()]
        for split in by_chunks
    ] == [[row.id_data for row in split] for split in by_rows]
    assert (chunk_stats.records, chunk_stats.bytes) == (row_stats.records, row_stats.bytes)
