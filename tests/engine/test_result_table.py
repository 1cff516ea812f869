"""Results leave as columns: the table and its JSON against the oracle.

Two contracts, checked together by :func:`assert_agrees`:

* the rows of :func:`repro.engine.result.build_table` equal the rows of
  the retired row-at-a-time evaluator (``return_oracle``), values *and*
  value types;
* ``b"".join(QueryResult.encode())`` is byte for byte
  ``json.dumps(result.to_dict(), default=_json_default)``.

Both writers of ``encode()`` are pinned: the id-matrix writer of large
batches whose columns are all ids or paths, and the interleaved writer
of every other batch, whose property records are written through a
:class:`~repro.engine.columnar.RecordTexts` memo (see "the writer" and
"record columns" below).
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher.ast import FunctionCall
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
from repro.engine.columnar import (
    ID_MATRIX_ROWS,
    EmbeddingChunk,
    RecordTexts,
    chunk_from_embeddings,
    id_rows_json,
    rows_json,
)
from repro.engine import result as result_module
from repro.engine.result import (
    KIND_ID, KIND_PATH, KIND_RECORD, KIND_VALUE, ResultTable, build_table,
)
from repro.epgm import Edge, GradoopId, LogicalGraph, Vertex
from repro.epgm.indexed import IndexedLogicalGraph
from repro.harness.queries import ALL_QUERIES, TABLE3_PATTERNS, instantiate
from repro.ldbc import LDBCGenerator
from repro.server.protocol import _json_default
from repro.server import GraphRegistry, QueryService
from repro.server.service import QueryResult

from .return_oracle import oracle_rows


def dumps(value):
    return json.dumps(value, default=_json_default)


def assert_encodes(table):
    """The served bytes are ``json.dumps`` of the rows; ids are ``int``.

    Returns the result and its body.
    """
    result = QueryResult(
        "g\"%s", "q", None, table, 0.25, 1e-05, 1.5, True, False, False
    )
    assert result.row_count == len(table) == len(result.rows)
    assert result.rows is result.rows
    body = b"".join(result.encode())
    assert body == dumps(result.to_dict()).encode()
    ids = [name for name, kind in zip(table.names, table.kinds) if kind == KIND_ID]
    paths = [name for name, kind in zip(table.names, table.kinds) if kind == KIND_PATH]
    for row in result.rows:
        assert all(type(row[name]) is int for name in ids)
        assert all(type(value) is int for name in paths for value in row[name])
    return result, body


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
    _, body = assert_encodes(table)
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


def _awkward(environment, cls=LogicalGraph):
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
    return cls.from_collections(environment, vertices, edges)


@pytest.fixture(scope="module")
def awkward_graph():
    return _awkward(ExecutionEnvironment(parallelism=2))


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
    # post-processing over tables of ids and paths only
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN DISTINCT p, q",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN p, q ORDER BY q DESC, p",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN e, p ORDER BY p LIMIT 3",
    "MATCH (p:Person)-[e:knows*1..2]->(q:Person) RETURN * SKIP 1 LIMIT 5",
    "MATCH (p:Person)-[e:knows*0..2]->(q:Person) RETURN DISTINCT e",
    "MATCH (p:Person)-[e:knows*0..2]->(q:Person) RETURN q, e ORDER BY q DESC SKIP 2",
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


# --- the writer ------------------------------------------------------------------
#
# ``encode()`` picks a writer per batch: a batch of ids and paths only and
# of at least ``ID_MATRIX_ROWS`` rows is written from its arrays by one
# byte matrix, any other by interleaving ready texts.  Both must be
# ``json.dumps`` exactly.

#: every width of a decimal id up to 2**64 - 1, and its edges
EDGE_IDS = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 1 << 63, (1 << 64) - 1]
ids = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, (1 << 64) - 1))
#: names that need JSON escapes: a quote, a backslash, a format
#: directive, non-ASCII and a control character
names = st.text(
    st.sampled_from('ab"\\%sdé☃\x01\n\U0001d11e'), min_size=1, max_size=6
)


@st.composite
def id_tables(draw):
    """A table of id and path columns (and at times one value column)."""
    kinds = draw(st.lists(
        st.sampled_from([KIND_ID, KIND_ID, KIND_PATH]), min_size=1, max_size=4
    ))
    if draw(st.booleans()) and draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), KIND_VALUE)
    columns_names = draw(st.lists(
        names, min_size=len(kinds), max_size=len(kinds), unique=True
    ))
    batches = []
    for count in draw(st.lists(st.integers(1, 6), max_size=3)):
        batch = []
        for kind in kinds:
            if kind == KIND_ID:
                batch.append(np.array(
                    draw(st.lists(ids, min_size=count, max_size=count)),
                    dtype=np.uint64,
                ))
            elif kind == KIND_PATH:
                width = draw(st.integers(0, 3))
                lens = np.array(draw(st.lists(
                    st.integers(0, width), min_size=count, max_size=count
                )), dtype=np.int64)
                # the padding past a path's length is never read
                matrix = np.array(draw(st.lists(
                    ids, min_size=count * width, max_size=count * width
                )), dtype=np.uint64).reshape(count, width)
                batch.append((matrix, lens))
            else:
                batch.append(draw(st.lists(
                    st.one_of(st.none(), st.integers(), names),
                    min_size=count, max_size=count,
                )))
        batches.append(tuple(batch))
    return ResultTable(columns_names, kinds, batches, len(batches))


@settings(max_examples=150, deadline=None)
@given(table=id_tables())
def test_the_writer_is_json_dumps_byte_for_byte(table):
    result, _ = assert_encodes(table)
    expected = []
    for batch in table.batches:
        columns = []
        for kind, column in zip(table.kinds, batch):
            if kind == KIND_ID:
                columns.append([int(value) for value in column])
            elif kind == KIND_PATH:
                matrix, lens = column
                columns.append([
                    [int(value) for value in row[:length]]
                    for row, length in zip(matrix, lens)
                ])
            else:
                columns.append(column)
        expected += [dict(zip(table.names, row)) for row in zip(*columns)]
    assert result.rows == expected


def test_edge_ids_in_one_batch_and_one_row():
    column = np.array(EDGE_IDS, dtype=np.uint64)
    paths = (np.tile(column, (len(EDGE_IDS), 1)), np.arange(len(EDGE_IDS)))
    for count in (1, len(EDGE_IDS)):
        table = ResultTable(
            ["a", "zero-hop first"], [KIND_ID, KIND_PATH],
            [(column[:count], (paths[0][:count], paths[1][:count]))], 1,
        )
        rows = assert_encodes(table)[0].rows
        assert rows[0] == {"a": 0, "zero-hop first": []}
        assert [row["a"] for row in rows] == EDGE_IDS[:count]
    assert rows[-1]["zero-hop first"] == EDGE_IDS[:-1]
    empty = ResultTable(["a"], [KIND_ID], [], 0)
    assert assert_encodes(empty)[1].startswith(
        b'{"graph": "g\\"%s", "rows": [], "row_count": 0'
    )


def test_take_keeps_arrays_across_batches_of_unequal_path_widths():
    table = ResultTable(
        ["a", "e"], [KIND_ID, KIND_PATH],
        [
            (np.array([5, 6], dtype=np.uint64),
             (np.array([[1], [2]], dtype=np.uint64), np.array([1, 0]))),
            (np.array([7], dtype=np.uint64),
             (np.array([[3, 4, 10**12]], dtype=np.uint64), np.array([3]))),
        ],
        2,
    )
    taken = table.take([2, 0, 2])
    (ids, (matrix, lens)), = taken.batches
    assert isinstance(ids, np.ndarray) and isinstance(matrix, np.ndarray)
    assert taken.rows() == [
        {"a": 7, "e": [3, 4, 10**12]}, {"a": 5, "e": [1]}, {"a": 7, "e": [3, 4, 10**12]},
    ]
    assert_encodes(taken)
    assert table.take([]).batches == []


@pytest.mark.parametrize("text", [
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN * SKIP 2",
    # the expansion arrives as chunks: the graph's own adjacency, walked
    "MATCH (p:Person)-[e:knows*0..2]->(q:Person) RETURN * SKIP 1",
])
def test_a_result_cache_hit_encodes_the_same_bytes(awkward_graph, text):
    registry = GraphRegistry()
    registry.register("g", awkward_graph)
    with QueryService(registry, result_cache_size=4) as service:
        cold = service.execute("g", text)
        warm = service.execute("g", text)
    assert (cold.result_cache_hit, warm.result_cache_hit) == (False, True)
    assert warm.table is cold.table
    assert cold.table.reencoded == 0 < cold.table.chunks
    bodies = []
    for result in (cold, warm):
        bodies.append(b"".join(result.encode()))
        assert bodies[-1] == dumps(result.to_dict()).encode()
    assert json.loads(bodies[0])["rows"] == json.loads(bodies[1])["rows"] != []


@pytest.mark.parametrize("columns", [1, 3, 5])
def test_both_writers_agree_on_each_side_of_the_crossover(columns, monkeypatch):
    keys = [json.dumps(name) for name in ["a", '"%s"', "é", "d", "e"][:columns]]
    rng = np.random.default_rng(columns)
    for rows in (1, ID_MATRIX_ROWS - 1, ID_MATRIX_ROWS, ID_MATRIX_ROWS + 1):
        batch = [
            rng.integers(0, 1 << 64, rows, dtype=np.uint64, endpoint=False)
            for _ in range(columns - 1)
        ]
        batch.append((rng.integers(0, 10**6, (rows, 3), dtype=np.uint64),
                       rng.integers(0, 4, rows)))
        body = id_rows_json(keys, batch)
        assert body == rows_json(keys, batch, RecordTexts())
        table = ResultTable(
            [json.loads(key) for key in keys],
            [KIND_ID] * (columns - 1) + [KIND_PATH], [tuple(batch)], 1,
        )
        assert list(table.json_rows()) == [body]
        assert_encodes(table)
    # the matrix writes a batch from the crossover up
    calls = []
    monkeypatch.setattr(
        result_module, "id_rows_json", lambda *args: calls.append(args) or id_rows_json(*args)
    )
    for rows in (ID_MATRIX_ROWS - 1, ID_MATRIX_ROWS):
        table = ResultTable(["a"], [KIND_ID], [(np.arange(rows, dtype=np.uint64),)], 1)
        assert_encodes(table)
    assert [len(args[1][0]) for args in calls] == [ID_MATRIX_ROWS]


# --- record columns ---------------------------------------------------------------
#
# A property column is the chunk's slice of shared record objects; its
# JSON comes from a ``RecordTexts`` memo, its rows from a fresh decode.

#: strings that need JSON escapes or are not ASCII
awkward_text = st.text(st.one_of(
    st.sampled_from('"\\%é☃\x00\x01\x1f\x7f\u2028\U0001d11e'),
    st.characters(blacklist_categories=("Cs",)),
), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, -1, (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63)]),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.sampled_from([0.1, 1e16, -0.0, 1e-7, 1.5e300]),
    st.floats(),
    awkward_text,
    st.builds(GradoopId, st.integers(0, (1 << 64) - 1)),
)
property_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6
)
#: never an unaliased item's name (``b``, ``via``): a later item of one
#: name replaces the earlier one (pinned by ``test_a_later_item_shadows``)
aliases = st.text(
    st.sampled_from('ab"\\%sdé☃\U0001d11e'), min_size=1, max_size=5
).filter(lambda name: name not in ("b", "via"))
gradoop_ids = st.integers(0, (1 << 64) - 1)


@st.composite
def record_tables(draw):
    """``(returns, embeddings, meta, batches)``: ids, a path and records of
    every property type, each column's values drawn from a small pool so
    that records repeat."""
    keys = draw(st.integers(1, 4))
    pools = [draw(st.lists(property_values, min_size=1, max_size=3)) for _ in range(keys)]
    embeddings = [
        Embedding.of_ids(GradoopId(draw(gradoop_ids)))
        .append_path(draw(st.lists(gradoop_ids, max_size=3)))
        .append_id(GradoopId(draw(gradoop_ids)))
        .append_properties([draw(st.sampled_from(pool)) for pool in pools])
        for _ in range(draw(st.integers(1, 8)))
    ]
    meta = EmbeddingMetaData().with_entry("a", "v").with_entry("via", "p").with_entry("b", "v")
    items = []
    for index in range(keys):
        variable = "ab"[index % 2]
        meta = meta.with_property(variable, "k%d" % index)
        items.append("%s.k%d" % (variable, index))
    names = draw(st.lists(aliases, min_size=keys + 1, max_size=keys + 1, unique=True))
    items = ["%s AS `%s`" % (item, name) for item, name in zip(items + ["a"], names)]
    items = draw(st.permutations(items + ["via", "b"]))
    returns = QueryHandler(
        "MATCH (a)-[via*0..3]->(b) RETURN " + ", ".join(items)
    ).ast.returns
    cut = draw(st.integers(0, len(embeddings)))
    batches = [chunk_from_embeddings(part) for part in (embeddings[:cut], embeddings[cut:]) if part]
    return returns, embeddings, meta, batches


@settings(max_examples=100, deadline=None)
@given(case=record_tables())
def test_record_columns_write_json_dumps_and_decode_the_oracle_rows(case):
    returns, embeddings, meta, batches = case
    expected = oracle_rows(returns, embeddings, meta)
    texts = RecordTexts()
    table = build_table(returns, batches, meta, texts=texts)
    assert table.texts is texts and KIND_RECORD in table.kinds
    for batch in table.batches:
        for kind, column in zip(table.kinds, batch):
            assert (kind == KIND_RECORD) == (
                isinstance(column, np.ndarray) and column.dtype == object
            )
    # through JSON, so that 1, 1.0 and True do not compare equal
    assert dumps(table.rows()) == dumps(expected)
    _, body = assert_encodes(table)
    assert texts
    # a warm memo writes the same bytes, for this table and a new one
    assert assert_encodes(table)[1] == body
    again = build_table(returns, batches, meta, texts=texts)
    assert assert_encodes(again)[1] == body
    # a list value belongs to its row alone
    rows = table.rows()
    lists = [
        (index, name) for index, row in enumerate(rows)
        for name, value in row.items() if isinstance(value, list)
    ]
    if lists:
        index, name = lists[0]
        rows[index][name].append("mine")
        others = [row for position, row in enumerate(rows) if position != index]
        assert dumps(others) == dumps(expected[:index] + expected[index + 1:])
        assert dumps(table.rows()) == dumps(expected)


def test_a_later_item_shadows():
    # of two items with one name the later one's value lands in the
    # earlier one's place: the record column is gone, the id is there
    meta = (
        EmbeddingMetaData().with_entry("a", "v").with_entry("b", "v")
        .with_property("a", "k0")
    )
    embeddings = [
        Embedding.of_ids(GradoopId(1)).append_id(GradoopId(2))
        .append_properties(["x"]),
        Embedding.of_ids(GradoopId(3)).append_id(GradoopId(4))
        .append_properties([[1, "y"]]),
    ]
    returns = QueryHandler("MATCH (a)-[e]->(b) RETURN a.k0 AS b, b").ast.returns
    table = assert_agrees(returns, embeddings, meta)
    assert (table.names, table.kinds) == (("b",), (KIND_ID,))
    assert table.rows() == [{"b": 2}, {"b": 4}]


@pytest.mark.parametrize("text", [
    "MATCH (p:Person) RETURN p.tags, count(*), count(p.name), collect(p.v), min(p.name)",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN p, e.since, count(*), collect(q.name)",
    "MATCH (p:Person)-[e:knows*0..2]->(q:Person) RETURN e, count(*)",
])
@pytest.mark.parametrize("mode", ["columnar", "reference"])
def test_group_keys_keep_their_kinds(text, mode):
    # a group column is its source column taken at each group's first
    # member: records are written through the memo, ids and paths as
    # themselves; an aggregate is a value
    graph = _awkward(ExecutionEnvironment(mode=mode), IndexedLogicalGraph)
    runner = CypherRunner(graph, lint=False)
    handler, root = runner.compile(text)
    table = runner.build_table(handler, root.evaluate().batches(), root.meta)
    calls = [
        isinstance(item.expression, FunctionCall) for item in handler.ast.returns.items
    ]
    assert [kind == KIND_VALUE for kind in table.kinds] == calls
    assert_encodes(table)
    embeddings, meta = runner.execute_embeddings(text)
    assert dumps(table.rows()) == dumps(
        oracle_rows(handler.ast.returns, embeddings, meta)
    ) != "[]"
    filled = graph.leaf_stats()["texts"] > 0
    assert filled == (mode == "columnar" and KIND_RECORD in table.kinds)


@pytest.mark.parametrize("text", [
    "MATCH (p:Person) RETURN p.name, p.tags, p.nest, p.missing, p.ref",
    "MATCH (p:Person) RETURN DISTINCT p.v",
    "MATCH (p:Person) RETURN p.tags, count(*), count(p.name), collect(p.v), min(p.name)",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN DISTINCT e.since ORDER BY e.since DESC SKIP 1",
    "MATCH (p:Person)-[e:knows]->(q:Person) "
    "RETURN e.since, q.name ORDER BY q.name DESC SKIP 1 LIMIT 3",
    "MATCH (p:Person)-[e:knows]->(q:Person) RETURN e.since, q ORDER BY e.since",
    "MATCH (p:Person)-[e:knows*0..2]->(q:Person) RETURN p.name, e, q.nothing",
])
@pytest.mark.parametrize("mode", ["columnar", "reference"])
def test_served_record_columns_encode_from_the_resident_memo(text, mode):
    graph = _awkward(ExecutionEnvironment(mode=mode), IndexedLogicalGraph)
    registry = GraphRegistry()
    registry.register("g", graph)
    runner = CypherRunner(graph, lint=False)
    handler, root = runner.compile(text)
    embeddings, meta = runner.execute_embeddings(text)
    expected = oracle_rows(handler.ast.returns, embeddings, meta)
    resident = runner.record_texts()
    # the columnar path writes through the graph's memo, the reference
    # path keeps nothing resident
    assert (resident is runner.record_texts()) == (mode == "columnar")
    with QueryService(registry, result_cache_size=4, lint=False) as service:
        bodies = []
        for _ in range(3):  # a cold memo, a warm one, a result cache hit
            result = service.execute("g", text)
            bodies.append(b"".join(result.encode()))
            assert bodies[-1] == dumps(result.to_dict()).encode()
            assert dumps(result.rows) == dumps(expected)
        assert result.result_cache_hit
    assert (result.table.texts is resident) == (mode == "columnar")
    filled = graph.leaf_stats()["texts"] > 0
    assert filled == (mode == "columnar" and KIND_RECORD in result.table.kinds)
    if mode == "reference":
        assert result.table.reencoded == result.table.chunks
    assert len({body[:body.index(b'"row_count"')] for body in bodies}) == 1


def test_a_touched_graph_serves_the_new_value():
    graph = _awkward(ExecutionEnvironment(), IndexedLogicalGraph)
    registry = GraphRegistry()
    entry = registry.register("g", graph)
    text = "MATCH (p:Person) WHERE p.name = 'plain' RETURN p.name, p.tags"
    with QueryService(registry, result_cache_size=4) as service:
        before = service.execute("g", text)
        assert b"".join(before.encode()) == dumps(before.to_dict()).encode()
        assert graph.leaf_stats()["texts"] > 0
        assert [row["p.tags"] for row in before.rows] == [[]]
        (person,) = [
            vertex for vertex in graph.collect_vertices() if vertex.id == GradoopId(3)
        ]
        person.set_property("tags", ["c", AWKWARD])
        entry.touch()
        assert graph.leaf_stats()["texts"] == 0
        after = service.execute("g", text)
        assert not after.result_cache_hit
        assert b"".join(after.encode()) == dumps(after.to_dict()).encode()
        assert [row["p.tags"] for row in after.rows] == [["c", AWKWARD]]


def test_threads_share_one_record_memo():
    # every request thread fills the graph's one memo without a lock; a
    # torn or lost fill would change a body, and sizing the memo while
    # it grows must not fail
    graph = _awkward(ExecutionEnvironment(), IndexedLogicalGraph)
    runner = CypherRunner(graph, lint=False)
    texts = runner.record_texts()
    tables = []
    for text in VALUE_QUERIES[:8]:
        handler, root = runner.compile(text)
        tables.append(runner.build_table(handler, root.evaluate().batches(), root.meta))
    assert all(table.texts is texts for table in tables)
    expected = [
        b"".join(QueryResult("g", "q", None, table, 0, 0, 0, True, False, False).encode())
        for table in tables
    ]
    failures = []

    def work():
        try:
            for _ in range(40):
                texts.clear()
                graph.leaf_stats()
                for table, body in zip(tables, expected):
                    result = QueryResult("g", "q", None, table, 0, 0, 0, True, False, False)
                    if b"".join(result.encode()) != body:
                        failures.append(body)
        except Exception as error:  # reported below, with the others
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
