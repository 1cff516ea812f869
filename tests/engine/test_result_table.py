"""Results leave as columns: the table and its JSON against the oracle.

Two contracts, checked together by :func:`assert_agrees`:

* the rows of :func:`repro.engine.result.build_table` equal the rows of
  the retired row-at-a-time evaluator (``return_oracle``), values *and*
  value types;
* ``b"".join(QueryResult.encode())`` is byte for byte
  ``json.dumps(result.to_dict(), default=_json_default)``.
"""

import json

import pytest

from repro.cypher.errors import CypherSemanticError
from repro.cypher.query_graph import QueryHandler
from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    Embedding,
    EmbeddingMetaData,
    ExhaustivePlanner,
    GraphStatistics,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.engine.columnar import EmbeddingChunk, chunk_from_embeddings
from repro.engine.result import build_table
from repro.epgm import Edge, GradoopId, LogicalGraph, Vertex
from repro.harness.queries import ALL_QUERIES, TABLE3_PATTERNS, instantiate
from repro.ldbc import LDBCGenerator
from repro.server.protocol import _json_default
from repro.server.service import QueryResult

from .return_oracle import oracle_rows


def dumps(value):
    return json.dumps(value, default=_json_default)


def assert_agrees(returns, embeddings, meta, batches=None):
    """Table rows == oracle rows, served bytes == ``json.dumps`` of them."""
    expected = oracle_rows(returns, embeddings, meta)
    table = build_table(
        returns, [list(embeddings)] if batches is None else batches, meta
    )
    rows = table.rows()
    assert len(table) == len(expected)
    # through JSON, so that 1, 1.0 and True do not compare equal
    assert dumps(rows) == dumps(expected)
    result = QueryResult(
        "g\"%s", "q", None, table, 0.25, 1e-05, 1.5, True, False, False
    )
    assert result.row_count == len(expected)
    assert result.rows is result.rows
    body = b"".join(result.encode())
    assert body == dumps(result.to_dict()).encode()
    assert json.loads(body)["rows"] == json.loads(dumps(expected))
    return table


# --- the query matrix --------------------------------------------------------

PLANNERS = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)
MODES = {
    "columnar": {},
    "no-columnar": {"mode": "reference"},
    "sanitized": {"sanitize": "collect"},
}
QUERIES = dict(ALL_QUERIES)
QUERIES.update(
    ("T3-%d" % index, text)
    for index, text in enumerate(TABLE3_PATTERNS.values())
)
QUERIES["knows-1-3"] = (
    "MATCH (p:Person)-[:knows*1..3]->(q:Person) "
    "WHERE p.firstName = '{firstName}' RETURN *"
)


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment(parallelism=4))
    return dataset, graph, GraphStatistics.from_graph(graph)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("planner_cls", PLANNERS, ids=lambda p: p.__name__)
def test_every_shape_agrees_with_the_oracle(ldbc, planner_cls, mode):
    dataset, graph, statistics = ldbc
    runner = CypherRunner(
        graph, statistics=statistics, planner_cls=planner_cls, **MODES[mode]
    )
    for name, template in sorted(QUERIES.items()):
        text = instantiate(template, dataset.first_name("medium"))
        handler, root = runner.compile(text)
        embeddings, meta = runner.execute_embeddings(text)
        assert embeddings, name
        batches = list(root.evaluate().batches(mode=runner.execution_mode()))
        table = assert_agrees(handler.ast.returns, embeddings, meta, batches)
        if mode != "columnar":
            assert table.reencoded == table.chunks > 0, name
        elif name not in ("Q2", "Q3", "knows-1-3"):
            # the default engine hands over chunks wherever every stage
            # has a kernel; only the expand shapes arrive per record
            assert table.reencoded == 0 < table.chunks, name


def test_default_engine_hands_over_chunks(ldbc):
    dataset, graph, statistics = ldbc
    runner = CypherRunner(graph, statistics=statistics)
    text = instantiate(ALL_QUERIES["Q5"], dataset.first_name("medium"))
    handler, root = runner.compile(text)
    batches = list(root.evaluate().batches())
    assert batches and all(isinstance(b, EmbeddingChunk) for b in batches)
    table = runner.build_table(handler, batches, root.meta)
    assert (table.chunks, table.reencoded) == (len(batches), 0)
    assert table.rows() == runner.execute_table(text)


# --- values -------------------------------------------------------------------

AWKWARD = 'Zoë "Q" \\ back\nslash\t\x01\x7f ☃ \U0001d11e %s %d'
BIG = (1 << 63) + 5


@pytest.fixture(scope="module")
def awkward_graph():
    def person(identifier, **properties):
        return Vertex(GradoopId(identifier), label="Person", properties=properties)

    vertices = [
        person(1, name=AWKWARD, v=1, tags=["a", "b"]),
        person(2, name=AWKWARD, v=1.0, tags=["b"], nest=[1, [2.5, "x"], None]),
        person(3, name="plain", v=True, tags=[]),
        person(4, v=None, ref=GradoopId(BIG)),
        person(BIG, name="", v=-(1 << 63), tags=["a", "b"]),
    ]
    edges = [
        Edge(GradoopId(BIG + index), label="knows",
             source_id=GradoopId(source), target_id=GradoopId(target),
             properties={"since": since} if since else {})
        for index, (source, target, since) in enumerate(
            [(1, 2, 2001), (2, 3, None), (3, 4, 2003), (4, BIG, 2001),
             (BIG, 1, None), (1, 3, 2003)]
        )
    ]
    return LogicalGraph.from_collections(
        ExecutionEnvironment(parallelism=2), vertices, edges
    )


VALUE_QUERIES = [
    # strings with non-ASCII, quotes, backslashes, control characters and
    # % directives; an absent property (NULL); a list-valued property
    "MATCH (p:Person) RETURN p.name, p.tags, p.nest, p.missing, p.ref",
    # 1, 1.0 and true in one column
    "MATCH (p:Person) RETURN p.v, p",
    "MATCH (p:Person) RETURN DISTINCT p.v",
    # ids >= 2**63, bare and inside a path
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN *",
    "MATCH (p:Person)-[e:knows*1..2]->(q:Person) RETURN p, e, q",
    # a zero-hop path
    "MATCH (p:Person)-[e:knows*0..10]->(q:Person) RETURN *",
    # an alias that is a format string and needs escaping
    'MATCH (p:Person) RETURN p.name AS `50% "of" %s\\`, p AS `%d`',
    # the same name twice: one key, as in a dict
    "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name AS n, q.name AS n",
    # an empty result
    "MATCH (p:Person) WHERE p.name = 'nobody' RETURN p.name, p",
    "MATCH (p:Person) WHERE p.name = 'nobody' RETURN count(*)",
    # aggregates, group keys that are lists, NULL-skipping
    "MATCH (p:Person) RETURN count(*)",
    "MATCH (p:Person) RETURN p.tags, count(*), count(p.name), collect(p.v)",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN min(e.since), max(e.since), sum(e.since), avg(e.since), p.name",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN collect(e.since) AS years",
    # DISTINCT, ORDER BY both ways with NULLs, SKIP, LIMIT
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN DISTINCT e.since",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN e.since, q ORDER BY e.since",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN e.since, q ORDER BY e.since DESC, q",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN e.since, q.name ORDER BY q.name DESC SKIP 1 LIMIT 3",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN * SKIP 2",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN * LIMIT 4",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN * SKIP 7 LIMIT 4",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN DISTINCT e.since ORDER BY e.since DESC SKIP 1",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN e.since, count(*) ORDER BY e.since LIMIT 2",
]


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("text", VALUE_QUERIES)
def test_awkward_values_agree_with_the_oracle(awkward_graph, text, mode):
    runner = CypherRunner(awkward_graph, lint=False, **MODES[mode])
    handler, root = runner.compile(text)
    embeddings, meta = runner.execute_embeddings(text)
    batches = root.evaluate().batches(mode=runner.execution_mode())
    assert_agrees(handler.ast.returns, embeddings, meta, batches)
    assert runner.execute_table(text) == oracle_rows(
        handler.ast.returns, embeddings, meta
    )


def test_a_list_value_is_never_shared_between_rows(awkward_graph):
    runner = CypherRunner(awkward_graph)
    rows = runner.execute_table("MATCH (p:Person) RETURN p.tags, p ORDER BY p")
    first, last = rows[0], rows[-1]
    assert first["p.tags"] == last["p.tags"] == ["a", "b"]
    first["p.tags"].append("mine")
    assert last["p.tags"] == ["a", "b"]


def test_order_by_a_column_not_returned_is_an_error(awkward_graph):
    runner = CypherRunner(awkward_graph)
    with pytest.raises(CypherSemanticError, match="not among the returned"):
        runner.execute_table("MATCH (p:Person) RETURN p.name ORDER BY p.v")


def test_build_rows_takes_embeddings_and_returns_dicts(awkward_graph):
    # the contract bench/trace.py and the differential suites rely on
    runner = CypherRunner(awkward_graph)
    text = "MATCH (p:Person)-[e:knows]->(q:Person) RETURN p.name, q"
    handler, root = runner.compile(text)
    embeddings, meta = runner.execute_embeddings(text)
    rows = runner.build_rows(handler, embeddings, meta)
    assert rows == oracle_rows(handler.ast.returns, embeddings, meta)
    assert rows == runner.build_rows(handler, iter(embeddings), meta)
    assert runner.build_rows(handler, [], meta) == []


# --- chunk sizes ----------------------------------------------------------------


def _synthetic(count):
    """``count`` embeddings: an id, a path, an id, two properties."""
    meta = (
        EmbeddingMetaData()
        .with_entry("a", "v").with_entry("via", "p").with_entry("b", "v")
        .with_property("a", "name").with_property("b", "score")
    )
    embeddings = [
        Embedding.of_ids(GradoopId(index))
        .append_path(list(range(index % 4)))
        .append_id(GradoopId((1 << 64) - 1 - index))
        .append_properties(
            ["name-%d" % (index % 97), None if index % 5 == 0 else index / 4]
        )
        for index in range(count)
    ]
    return embeddings, meta


@pytest.mark.parametrize("count", [1, 34_000])
def test_one_row_and_34000_row_chunks(count):
    embeddings, meta = _synthetic(count)
    chunk = chunk_from_embeddings(embeddings)
    assert chunk.count == count
    returns = QueryHandler(
        "MATCH (a)-[via*0..3]->(b) RETURN a.name, via, b, b.score, a.nothing"
    ).ast.returns
    table = assert_agrees(returns, embeddings, meta, [chunk])
    assert (table.chunks, table.reencoded) == (1, 0)
    star = assert_agrees(None, embeddings, meta, [chunk])
    assert star.names == ("a", "via", "b")


def test_batches_of_both_kinds_and_empty_ones_make_one_table():
    embeddings, meta = _synthetic(50)
    batches = [
        [],
        chunk_from_embeddings(embeddings[:1]),
        embeddings[1:20],
        chunk_from_embeddings(embeddings[:20]).gather([]),
        chunk_from_embeddings(embeddings[20:]),
    ]
    table = assert_agrees(None, embeddings, meta, batches)
    assert (table.chunks, table.reencoded) == (3, 1)
    with pytest.raises(ValueError, match="not a uniform"):
        build_table(None, [[embeddings[0], Embedding.of_ids(GradoopId(1))]], meta)
