"""Columnar embedding chunks: codec exactness, kernels, shuffle, joins.

The columnar layer (``repro.engine.columnar``) re-encodes batches of
same-shape §3.3 embeddings as contiguous column arrays plus offset
tables.  Everything downstream leans on one invariant: the chunk codec
is an *exact* bijection with the per-record layout — decoding always
reproduces the original ``(id_data, path_data, prop_data)`` bytes, in
order.  Property-based tests pin that invariant (variable-length paths,
empty property maps, null values); model-based tests pin shuffle
placement and byte accounting against the per-record
``stable_hash`` loop; a differential suite pins end-to-end columnar
execution against the per-record interpreter for every paper query ×
planner × morphism strategy, including sanitized runs and the pooled
multi-process path.  Memory tests pin what made columnar the default:
no module-level cache keyed by chunk length, no lazy ``numpy.ma`` import
inside a request, and a peak below the reference path's.
"""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dataflow import DEFAULT_BATCH_SIZE, ExecutionEnvironment, partition_index
from repro.dataflow.metrics import JobMetrics
from repro.dataflow.operators import ExecutionContext
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.engine import columnar as columnar_module
from repro.engine.columnar import (
    EDGE_ID,
    FAR_END,
    ColumnarAdjacencyJoin,
    ColumnarExpandSpec,
    ColumnarJoinSpec,
    ColumnarPartition,
    ColumnarVertexLookup,
    EmbeddingChunk,
    chunk_from_embeddings,
    project_kernel,
    shuffle_split,
)
from repro.engine.embedding import Embedding, compile_property_projector
from repro.cypher import QueryHandler
from repro.engine.operators import (
    ExpandEmbeddings,
    JoinEmbeddings,
    ProjectEmbeddings,
    SelectAndProjectEdges,
    SelectAndProjectVertices,
    SelectEmbeddings,
)
from repro.engine.operators.leaves import LoweredOperator
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.epgm import Edge, GradoopId, LogicalGraph, PropertyValue, Vertex
from repro.epgm.indexed import Adjacency, IndexedLogicalGraph, PairIndex
from repro.harness.queries import ALL_QUERIES, TABLE3_PATTERNS, instantiate
from repro.ldbc import LDBCGenerator

_ids = st.integers(min_value=0, max_value=2**40)
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.text(max_size=8),
)
_paths = st.lists(_ids, max_size=5)
_shapes = st.lists(st.sampled_from(["id", "path"]), min_size=1, max_size=4)


@st.composite
def uniform_batches(draw, shapes=_shapes, ids=_ids,
                    records=st.integers(min_value=0, max_value=3)):
    """A non-empty list of embeddings sharing one column shape.

    Rows differ in everything the shape does not fix: path lengths vary
    per row (including empty) and so do the property values (nulls
    included).  How many property records a row holds is part of the
    shape — one count per batch (0 included), as for every batch a plan
    produces.
    """
    shape = draw(shapes)
    count = draw(st.integers(min_value=1, max_value=12))
    records = draw(records)
    rows = []
    for _ in range(count):
        embedding = Embedding()
        for kind in shape:
            if kind == "id":
                embedding = embedding.append_id(GradoopId(draw(ids)))
            else:
                embedding = embedding.append_path(
                    [GradoopId(v) for v in draw(_paths)]
                )
        props = draw(st.lists(_values, min_size=records, max_size=records))
        if props:
            embedding = embedding.append_properties(
                [PropertyValue(v) for v in props]
            )
        rows.append(embedding)
    return rows


def _canon(records):
    return [(r.id_data, r.path_data, r.prop_data) for r in records]


def _multiset(records):
    """``_canon`` in sorted order: a columnar run is one partition, so its
    rows come in their own order beside a reference run over several."""
    return sorted(_canon(records))


# --- codec exactness ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rows=uniform_batches())
def test_roundtrip_reproduces_exact_bytes(rows):
    chunk = chunk_from_embeddings(rows)
    assert chunk is not None
    assert chunk.count == len(rows)
    assert _canon(chunk.to_embeddings()) == _canon(rows)
    assert chunk.id_buf() == b"".join(r.id_data for r in rows)
    # total size is conserved: columnar is a re-arrangement, not a recode
    assert chunk.byte_size() == sum(r.serialized_size() for r in rows)


@settings(max_examples=100, deadline=None)
@given(rows=uniform_batches())
def test_partition_quacks_like_the_record_list(rows):
    partition = ColumnarPartition([chunk_from_embeddings(rows)])
    assert len(partition) == len(rows)
    assert _canon(list(partition)) == _canon(rows)
    assert partition[0] == rows[0]
    assert partition[-1] == rows[-1]


@settings(max_examples=100, deadline=None)
@given(rows=uniform_batches(), data=st.data())
def test_gather_matches_row_selection(rows, data):
    chunk = chunk_from_embeddings(rows)
    picks = data.draw(
        st.lists(
            st.integers(0, len(rows) - 1), max_size=2 * len(rows)
        )
    )
    gathered = chunk.gather(picks)
    assert _canon(gathered.to_embeddings()) == _canon(
        [rows[i] for i in picks]
    )


@settings(max_examples=50, deadline=None)
@given(shape=_shapes, records=st.integers(0, 2), data=st.data())
def test_paths_of_different_widths_concat_and_gather_exactly(
    shape, records, data
):
    # every chunk pads its paths to its own widest: concatenation re-pads
    batches = [
        data.draw(uniform_batches(st.just(shape), records=st.just(records)))
        for _ in range(data.draw(st.integers(2, 4)))
    ]
    rows = [row for batch in batches for row in batch]
    chunk = columnar_module.concat_chunks(
        [chunk_from_embeddings(batch) for batch in batches]
    )
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    gathered = (chunk.gather(picks), [rows[i] for i in picks])
    for got, expected in ((chunk, rows), gathered):
        _assert_chunks_are([got], expected)
        for column, kind in enumerate(shape):
            if kind == "path":
                assert columnar_module.path_column(got, column) == [
                    row.raw_path_at(column) for row in expected
                ]


def test_non_uniform_batches_fall_back():
    one = Embedding().append_id(GradoopId(1))
    two = one.append_id(GradoopId(2))
    assert chunk_from_embeddings([]) is None
    assert chunk_from_embeddings([one, two]) is None  # mixed widths
    assert chunk_from_embeddings([("frontier", 1)]) is None
    assert chunk_from_embeddings([one, ("frontier", 1)]) is None


def test_ragged_or_malformed_paths_are_not_uniform_and_stay_per_record():
    # an id matrix per PATH entry needs the same entries in every row and
    # path_data that is made of them: a count field, then its ids
    base = Embedding.of_ids(GradoopId(1))
    one = base.append_path([7, 8])
    # same columns, a second (unreferenced) entry
    two = Embedding(one.id_data, one.path_data + bytes([0, 0, 0, 1] + [0] * 7 + [9]))
    assert chunk_from_embeddings([one, two]) is None
    for junk in (b"\x00\x00", b"\x00\x00\x00\x02" + bytes(12), b"\x07" * 12):
        # a truncated count field, too few ids, 0x07070707 announced ids
        assert chunk_from_embeddings([one, Embedding(one.id_data, junk)]) is None
        assert columnar_module.paths_from_bytes(
            junk, np.array([0, len(junk)])
        ) is None
    assert chunk_from_embeddings([one, base.append_path([])]) is not None

    ragged = [one, two, one]
    project = compile_property_projector([])
    kernel = project_kernel([])
    environment = ExecutionEnvironment(parallelism=1)
    dataset = (
        environment.from_collection(ragged)
        .map(project, kernel=kernel)
        .map(project, kernel=kernel)
    )
    with environment.job("ragged") as metrics:
        columnar = dataset.collect(mode="columnar")
    assert metrics.chunk_fallbacks["non_uniform_batch"] > 0
    assert _canon(columnar) == _canon(dataset.collect(mode="reference")) == _canon(
        ragged
    )


def test_ragged_property_counts_are_not_uniform_and_stay_per_record():
    # same id width, 1 / 2 / 1 / 0 property records: the record matrix has
    # one width per chunk, so this is no chunk — a kernel-capable chain
    # fed it runs per record and says so
    base = Embedding.of_ids(GradoopId(1))
    ragged = [
        base.append_properties([PropertyValue("x")]),
        base.append_properties([PropertyValue(None), PropertyValue(2)]),
        base.append_properties([PropertyValue([1, 2])]),
    ]
    assert chunk_from_embeddings(ragged) is None
    assert chunk_from_embeddings(ragged[:1] + [base]) is None
    assert chunk_from_embeddings(ragged[::2]) is not None

    project = compile_property_projector([0])
    kernel = project_kernel([0])
    environment = ExecutionEnvironment(parallelism=1)
    dataset = (
        environment.from_collection(ragged)
        .map(project, kernel=kernel)
        .map(project, kernel=kernel)
    )
    with environment.job("ragged") as metrics:
        columnar = dataset.collect(mode="columnar")
    assert metrics.chunk_fallbacks["non_uniform_batch"] > 0
    assert _canon(columnar) == _canon(dataset.collect(mode="reference")) == _canon(
        [row.project_properties([0]) for row in ragged]
    )


@pytest.mark.parametrize("with_payload", [False, True])
@pytest.mark.parametrize(
    "count",
    # one row, a tail batch either side of the batch size, >= 100 000 entries
    [1, DEFAULT_BATCH_SIZE - 1, DEFAULT_BATCH_SIZE + 1, 34_000],
)
def test_roundtrip_is_exact_at_every_size(count, with_payload):
    rows = _make_rows(count, columns=3, with_payload=with_payload)
    chunk = chunk_from_embeddings(rows)
    assert chunk.count == count
    assert chunk.id_buf() == b"".join(r.id_data for r in rows)
    assert _canon(chunk.to_embeddings()) == _canon(rows)
    # the PATH entry is one zero-padded id matrix beside its id counts, a
    # shape without one has no paths, and only a chunk with a non-id entry
    # (the PATH column) carries flags
    if with_payload:
        ((ids, lens),) = chunk.paths
        assert lens.tolist() == [len(row.raw_path_at(3)) for row in rows]
        assert ids.dtype == np.uint64 and ids.shape == (count, lens.max())
        assert [
            path[:length] for path, length in zip(ids.tolist(), lens.tolist())
        ] == [row.raw_path_at(3) for row in rows]
    else:
        assert chunk.paths == ()
    assert (chunk.props is None) == (chunk.prop_lens is None) == (not with_payload)
    assert (chunk.flags is None) == (not with_payload)


def _module_containers():
    return {
        name: len(value)
        for name, value in vars(columnar_module).items()
        if isinstance(value, (dict, list, set))
    }


def test_no_module_state_grows_with_chunk_lengths():
    # the tuple-backed codec compiled (and kept) one struct format per
    # distinct entry count
    rows = _make_rows(300, columns=2, with_payload=True)
    before = _module_containers()
    for length in range(1, 301):
        batch = rows[:length]
        assert _canon(chunk_from_embeddings(batch).to_embeddings()) == _canon(
            batch
        )
    assert _module_containers() == before


# --- shuffle placement and byte accounting ----------------------------------


def _make_rows(count, columns, with_payload):
    """Uniform-shape rows; with payload, a path column plus one property.

    Path lengths and property values vary per row (some empty, some
    NULL) without changing the shape, so the batch stays chunkable.
    """
    rows = []
    for index in range(count):
        embedding = Embedding()
        for column in range(columns):
            embedding = embedding.append_id(
                GradoopId(index * 31 + column * 7 + 1)
            )
        if with_payload:
            hops = index % 3
            embedding = embedding.append_path(
                [GradoopId(index + 2 + hop) for hop in range(hops)]
            )
            embedding = embedding.append_properties(
                [PropertyValue("p" * (index % 4) if index % 2 else None)]
            )
        rows.append(embedding)
    return rows


@pytest.mark.parametrize("count", [8, 64])  # pure-Python and numpy paths
@pytest.mark.parametrize("key_columns", [(0,), (0, 2)])
@pytest.mark.parametrize("with_payload", [False, True])
def test_shuffle_split_matches_per_record_model(
    count, key_columns, with_payload
):
    parallelism = 4
    source = 1
    rows = _make_rows(count, columns=3, with_payload=with_payload)
    chunk = chunk_from_embeddings(rows)

    # the per-record model: stable_hash of the raw id key (tuple for
    # multi-column keys), cross-worker moves counted by serialized size
    expected = [[] for _ in range(parallelism)]
    moved_records = 0
    moved_bytes = 0
    bytes_in = [0] * parallelism
    for row in rows:
        raw = tuple(row.raw_id_at(c) for c in key_columns)
        key = raw[0] if len(raw) == 1 else raw
        target = partition_index(key, parallelism)
        expected[target].append(row)
        if target != source:
            moved_records += 1
            moved_bytes += row.serialized_size()
            bytes_in[target] += row.serialized_size()

    splits, got_records, got_bytes, got_in = shuffle_split(
        [chunk], key_columns, parallelism, source
    )
    assert got_records == moved_records
    assert got_bytes == moved_bytes
    assert list(got_in) == bytes_in
    for target in range(parallelism):
        decoded = [
            row
            for piece in splits[target]
            for row in piece.to_embeddings()
        ]
        assert _canon(decoded) == _canon(expected[target])


def test_shuffle_split_keeps_whole_chunk_without_slicing():
    # all rows share one key ⇒ one target gets the original chunk object
    rows = [
        Embedding().append_id(GradoopId(42)).append_id(GradoopId(i))
        for i in range(40)
    ]
    chunk = chunk_from_embeddings(rows)
    splits, _, _, _ = shuffle_split([chunk], (0,), 4, 0)
    placed = [chunks for chunks in splits if chunks]
    assert len(placed) == 1
    assert placed[0][0] is chunk


# --- hash join ---------------------------------------------------------------


def _assert_join_matches_model(keys, build_is_left, with_props,
                               path_side=None):
    """``hash_join`` against the per-record nested loop and ``merge``.

    ``path_side`` (``"left"`` / ``"right"``) gives that side a fourth,
    PATH column of varying length — the one-sided PATH join.
    """
    left_keys, right_keys = keys

    def side(count, salt, with_path):
        draw = random.Random(salt)
        rows = []
        for index in range(count):
            embedding = Embedding()
            for _ in range(3):
                # few distinct values: many matches, some repeated ids
                embedding = embedding.append_id(GradoopId(draw.randrange(5)))
            if with_path:
                embedding = embedding.append_path(
                    [GradoopId(100 + hop) for hop in range(index % 4)]
                )
            if with_props:
                # two records a row on the left, one on the right
                embedding = embedding.append_properties(
                    [PropertyValue("%d-%d" % (salt, index) if index % 3 else None)]
                    * (1 + salt % 2)
                )
            rows.append(embedding)
        return rows

    left = side(45, 3, path_side == "left")
    right = side(70, 4, path_side == "right")
    left_count = left[0].column_count
    keep = tuple(
        c for c in range(right[0].column_count) if c not in right_keys
    )
    distinct = (0, 1, left_count)  # watched id columns of the merged row
    spec = ColumnarJoinSpec(
        left_count, left_keys, right_keys, keep, distinct, ()
    )

    def matches(l, r, merged):
        return [l.raw_id_at(c) for c in left_keys] == [
            r.raw_id_at(c) for c in right_keys
        ] and len({merged.raw_id_at(c) for c in distinct}) == len(distinct)

    # probe order x build-insertion order, like the per-record loop
    build, probe = (left, right) if build_is_left else (right, left)
    expected = [
        merged
        for p in probe
        for b in build
        for l, r in [(b, p) if build_is_left else (p, b)]
        for merged in [l.merge(r, frozenset(right_keys))]
        if matches(l, r, merged)
    ]
    assert expected  # the model exercises the kernel

    def chunks(rows, size):
        return [
            chunk_from_embeddings(rows[start:start + size])
            for start in range(0, len(rows), size)
        ]

    _assert_chunks_are(
        spec.hash_join(chunks(build, 16), chunks(probe, 32), build_is_left),
        expected,
    )


@pytest.mark.parametrize("build_is_left", [True, False])
@pytest.mark.parametrize("keys", [((0,), (1,)), ((0, 2), (1, 0))])
@pytest.mark.parametrize("with_props", [False, True])
def test_hash_join_matches_nested_loop_model(keys, build_is_left, with_props):
    _assert_join_matches_model(keys, build_is_left, with_props)


@pytest.mark.parametrize("build_is_left", [True, False])
@pytest.mark.parametrize("path_side", ["left", "right"])
@pytest.mark.parametrize("keys", [((0,), (1,)), ((0, 2), (1, 0))])
def test_hash_join_carries_a_path_on_one_side(keys, path_side, build_is_left):
    # on the build or on the probe side, left or right
    _assert_join_matches_model(keys, build_is_left, True, path_side)


@pytest.mark.parametrize("probe_rows, output_rows", [(1, 7), (40, 1), (40, 50)])
def test_hash_join_is_exact_for_any_run_and_piece_size(
    monkeypatch, probe_rows, output_rows
):
    # probe chunks merge into runs, matches leave in bounded pieces:
    # neither boundary may show in the output
    monkeypatch.setattr(columnar_module, "_PROBE_ROWS", probe_rows)
    monkeypatch.setattr(columnar_module, "_OUTPUT_ROWS", output_rows)
    for build_is_left in (True, False):
        _assert_join_matches_model(((0,), (1,)), build_is_left, True)


def test_multi_column_join_drops_hash_collisions(monkeypatch):
    # every key hashes alike: only the key-column comparison keeps it exact
    monkeypatch.setattr(
        columnar_module,
        "_hash_keys",
        lambda values, key_columns: np.zeros(len(values), dtype=np.uint64),
    )
    _assert_join_matches_model(((0, 2), (1, 0)), True, True)


def test_join_spec_takes_a_path_on_one_side_only():
    from repro.engine.columnar import columnar_join_spec
    from repro.engine.embedding import EmbeddingMetaData

    def meta(*entries):
        built = EmbeddingMetaData()
        for variable, kind in entries:
            built = built.with_entry(variable, kind)
        return built

    homo, iso = MatchStrategy.HOMOMORPHISM, MatchStrategy.ISOMORPHISM
    path_side = meta(("a", "v"), ("p", "p"), ("b", "v"))

    def spec(other, vertex_strategy, edge_strategy, path_left=True):
        left, right = (path_side, other) if path_left else (other, path_side)
        merged, drop = EmbeddingMetaData.combine(left, right, ["b"])
        return columnar_join_spec(
            left, right, ["b"], drop, merged, vertex_strategy, edge_strategy
        )

    bare = meta(("b", "v"))  # its only column is the dropped join column
    edge = meta(("b", "v"), ("e", "e"), ("c", "v"))
    for path_left in (True, False):
        assert spec(bare, iso, iso, path_left) is not None
        # under homomorphism no strategy watches anything
        assert spec(edge, homo, homo, path_left) is not None
    # the other side keeps a watched kind: the paths would meet new ids
    for path_left in (True, False):
        assert spec(edge, homo, iso, path_left) is None
        assert spec(edge, iso, homo, path_left) is None
    # a PATH on both sides would need its offsets rewritten
    other_path = meta(("b", "v"), ("q", "p"))
    assert spec(other_path, homo, homo) is None


# --- the record matrix: sizes and sharing --------------------------------------


def _assert_chunks_are(chunks, expected, ordered=True):
    """``chunks`` decode to ``expected`` and size themselves as its rows do."""
    decoded = [row for chunk in chunks for row in chunk.to_embeddings()]
    if ordered:
        assert _canon(decoded) == _canon(expected)
    else:
        assert Counter(decoded) == Counter(expected)
    for chunk in chunks:
        sizes = [row.serialized_size() for row in chunk.to_embeddings()]
        assert chunk.row_sizes().tolist() == sizes
        assert chunk.byte_size() == sum(sizes)
        assert (chunk.props is None) == (chunk.prop_lens is None)


_id_rows = dict(
    shapes=st.lists(st.just("id"), min_size=1, max_size=3),
    ids=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=60, deadline=None)
@given(
    # column 0 is an id every kernel keys on; PATH entries ride behind it
    left=uniform_batches(
        shapes=st.lists(st.sampled_from(["id", "path"]), max_size=2).map(
            lambda shape: ["id"] + shape
        ),
        ids=_id_rows["ids"],
    ),
    right=uniform_batches(**_id_rows),
    data=st.data(),
)
def test_sizes_equal_the_per_record_sizes_after_every_kernel(left, right, data):
    # shuffled_bytes and every bytes_out are read off these two methods
    chunk, other = chunk_from_embeddings(left), chunk_from_embeddings(right)
    picks = data.draw(st.lists(st.integers(0, len(left) - 1), max_size=20))
    picked = [left[i] for i in picks]
    gathered = chunk.gather(picks)
    _assert_chunks_are([gathered], picked)
    _assert_chunks_are(
        [columnar_module.concat_chunks([chunk, gathered, chunk])],
        left + picked + left,
    )

    keep = data.draw(st.permutations(range(left[0].property_count)))
    keep = keep[:data.draw(st.integers(0, len(keep)))]
    _assert_chunks_are(
        [project_kernel(keep)(chunk)],
        [compile_property_projector(keep)(row) for row in left],
    )

    # the hash join's merge: left rows x right rows on their first column
    width = left[0].column_count
    spec = ColumnarJoinSpec(
        width, (0,), (0,), tuple(range(1, right[0].column_count)), (), ()
    )
    _assert_chunks_are(
        spec.hash_join([chunk], [other], True),
        [
            l.merge(r, frozenset([0]))
            for r in right for l in left if l.raw_id_at(0) == r.raw_id_at(0)
        ],
    )

    # the adjacency join's merge and the expand's emit, one hop from column 0
    edges = [
        Edge(GradoopId(100 + number), "x", GradoopId(source), GradoopId(target))
        for number, (source, target) in enumerate(
            data.draw(st.lists(st.tuples(_id_rows["ids"], _id_rows["ids"]), max_size=8))
        )
    ]
    adjacency = Adjacency(edges)
    hops = [
        (row, edge) for row in left for edge in edges
        if edge.source_id.value == row.raw_id_at(0)
    ]
    join = ColumnarAdjacencyJoin(
        adjacency, 0, None, list(range(width)) + [EDGE_ID, FAR_END], spec
    )
    _assert_chunks_are(
        join.run([chunk], None, None, None),
        [row.append_id(edge.id).append_id(edge.target_id) for row, edge in hops],
        ordered=False,
    )
    # the expand's emit: zero hops, one, two; the walked path is the rows'
    # new last PATH entry, read back to front under ``reverse``
    walks = [(row, [], row.raw_id_at(0)) for row in left] + [
        (row, [edge.id.value], edge.target_id.value) for row, edge in hops
    ] + [
        (row, [edge.id.value, edge.target_id.value, then.id.value],
         then.target_id.value)
        for row, edge in hops for then in edges
        if then.source_id == edge.target_id
    ]
    for reverse in (False, True):
        expand = ColumnarExpandSpec(adjacency, 0, None, None, None, 0, 2, reverse)
        emitted = []
        frontier = expand.start([chunk], emitted)
        for _ in range(2):
            frontier = [
                reached for piece in frontier
                for reached in expand.hop(piece, True, None, None, emitted)
            ]
        _assert_chunks_are(
            emitted,
            [
                row.append_path(path[::-1] if reverse else path).append_id(
                    GradoopId(end)
                )
                for row, path, end in walks
            ],
            ordered=False,
        )


def _resident_records(graph):
    """``id()`` of every record object a resident leaf table holds."""
    return {
        id(record)
        for key, table in graph._resident.items() if key[0] == "table"
        for chunk, _ in table.parts if chunk.props is not None
        for record in chunk.props.ravel().tolist()
    }


def test_a_plan_moves_pointers_to_the_resident_records():
    # leaf -> adjacency join -> vertex lookup -> project: no kernel builds
    # a property record, every output cell *is* a leaf's
    graph = _leaf_graph(4)
    handler = QueryHandler("MATCH (a:A)-[e:x]->(b:A) RETURN *")
    strategies = (STRATEGIES[0], STRATEGIES[0])
    hop = JoinEmbeddings(
        SelectAndProjectVertices(graph, handler.vertices["a"], ["n", "s"]),
        SelectAndProjectEdges(graph, handler.edges["e"], []),
        ["a"], *strategies,
    )
    joined = JoinEmbeddings(
        hop, SelectAndProjectVertices(graph, handler.vertices["b"], ["k", "n"]),
        ["b"], *strategies,
    )
    root = ProjectEmbeddings(joined, [("b", "k"), ("a", "s"), ("b", "n")])
    with graph.environment.job("pointers") as metrics:
        chunks = list(root.evaluate().batches())
    assert len(_lowered_runs(metrics)) == 1
    assert len(_lowered_runs(metrics, "[lookup]")) == 1
    assert not any(run.shuffled_records for run in metrics.runs)
    assert not any(metrics.chunk_fallbacks.values())
    resident = _resident_records(graph)
    cells = [
        cell for chunk in chunks for cell in chunk.props.ravel().tolist()
    ]
    assert len(cells) == 3 * 9 and all(id(cell) in resident for cell in cells)
    _assert_chunks_are(chunks, root.evaluate().collect(mode="reference"), ordered=False)


def test_leaf_table_counts_each_record_once_and_is_read_only():
    graph = _leaf_graph(1)
    runner, _ = _leaf_runners(graph, STRATEGIES[0])
    # an undirected edge emits two rows, which share its record object
    rows, _ = runner.execute_embeddings("MATCH (a)-[e:x]-(b) RETURN e.w")
    (table,) = [
        table for key, table in graph._resident.items() if key[0] == "table"
    ]
    (chunk, first), = table.parts
    records = {id(r): r for r in chunk.props.ravel().tolist()}
    assert len(rows) == chunk.count == 16 and len(records) == 9
    arrays = (chunk.values, chunk.props, chunk.prop_lens, first)
    assert not any(array.flags.writeable for array in arrays)
    assert graph.leaf_stats()["bytes"] == table.nbytes == sum(
        array.nbytes for array in arrays
    ) + sum(sys.getsizeof(record) for record in records.values())


def test_select_kernel_compares_two_property_records(leaf_graphs):
    # a predicate over two variables runs above the join, on chunk rows
    graph = leaf_graphs[4]
    query = "MATCH (a:A)-[e:x]->(b:A) WHERE a.n < b.n OR a.s = b.s RETURN a.n, b.n"
    columnar, per_record = _leaf_runners(graph, STRATEGIES[0])
    _, root = columnar.compile(query)
    assert any(isinstance(op, SelectEmbeddings) for op in root.postorder())
    with graph.environment.job("select") as metrics:
        columnar_embeddings, _ = columnar.execute_embeddings(query)
    per_record_embeddings, _ = per_record.execute_embeddings(query)
    assert not any(metrics.chunk_fallbacks.values())
    assert Counter(columnar_embeddings) == Counter(per_record_embeddings)
    assert 0 < len(columnar_embeddings) < 9


# --- end-to-end differential -------------------------------------------------

PLANNERS = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)
STRATEGIES = (
    MatchStrategy.HOMOMORPHISM,
    MatchStrategy.ISOMORPHISM,
)


@pytest.fixture(scope="module")
def graphs():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    columnar_env = ExecutionEnvironment(parallelism=4)
    plain_env = ExecutionEnvironment(parallelism=4)
    # label-indexed, as a loaded graph is: Q2/Q3 expand over the
    # resident adjacency on the columnar side
    columnar_graph = dataset.to_logical_graph(columnar_env, indexed=True)
    plain_graph = dataset.to_logical_graph(plain_env, indexed=True)
    return (
        dataset,
        (columnar_graph, GraphStatistics.from_graph(columnar_graph)),
        (plain_graph, GraphStatistics.from_graph(plain_graph)),
    )


def _columnar_attributes(root):
    """The ``columnar_*`` attributes set on a callable anywhere in the
    dataflow DAG under operator ``root``, as ``(operator, attribute)``."""
    found, stack, seen = [], [root], set()
    while stack:
        operator = stack.pop()
        if operator.id in seen:
            continue
        seen.add(operator.id)
        stack.extend(operator.parents)
        stack.extend(operator.subplans)
        held = list(vars(operator).values())
        spec = getattr(operator, "spec", None)
        if spec is not None:
            held += [getattr(spec, slot) for slot in spec.__slots__]
        found += [
            (operator.name, attribute)
            for value in held if callable(value)
            for attribute in getattr(value, "__dict__", ())
            if attribute.startswith("columnar_")
        ]
    return found


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("planner_cls", PLANNERS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_columnar_equals_per_record(graphs, name, planner_cls, strategy):
    dataset, (columnar_graph, columnar_stats), (plain_graph, plain_stats) = (
        graphs
    )
    query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
    columnar = CypherRunner(
        columnar_graph,
        statistics=columnar_stats,
        planner_cls=planner_cls,
        vertex_strategy=strategy,
        edge_strategy=strategy,
        mode="columnar",
    )
    per_record = CypherRunner(
        plain_graph,
        statistics=plain_stats,
        planner_cls=planner_cls,
        vertex_strategy=strategy,
        edge_strategy=strategy,
        mode="reference",
    )
    with columnar_graph.environment.job("columnar") as metrics:
        columnar_embeddings, _ = columnar.execute_embeddings(query)
    per_record_embeddings, _ = per_record.execute_embeddings(query)
    # every expand ran the kernel; a planner may still order a join so
    # that a PATH meets new watched ids (the counted ``path_join``)
    assert not any(
        count for reason, count in metrics.chunk_fallbacks.items()
        if reason.startswith(("expand", "join")) or reason == "no_kernel"
    )
    # ... and so did every join the plan lowered onto the adjacency or a
    # vertex lookup
    _, root = columnar.compile(query)
    # kernels are declared on the stages, never attached to a closure
    assert _columnar_attributes(root.evaluate().operator) == []
    lowered = [
        operator for operator in root.postorder()
        if isinstance(operator, JoinEmbeddings)
        and isinstance(operator.evaluate().operator, LoweredOperator)
    ]
    assert len(lowered) == len(
        [run for run in metrics.runs
         if run.name.endswith(("[adjacency]", "[lookup]"))]
    )
    if "*" in query or lowered:
        # the expand and the lowered joins walk adjacency lists or keep
        # their input's rows where the reference probes a shuffled hash
        # table: same rows, their own order
        assert Counter(columnar_embeddings) == Counter(per_record_embeddings)
    else:
        # byte-exact, same order: the kernels are drop-in replacements
        assert _canon(columnar_embeddings) == _canon(per_record_embeddings)


#: what a vertex lookup joins with: expansions, edge-leaf joins, two
#: intermediates, an alternation (Table 3), a PATH-bearing side
LOOKUP_QUERIES = {
    **ALL_QUERIES,
    **TABLE3_PATTERNS,
    "knows*1..3": "MATCH (p:Person)-[e:knows*1..3]->(q:Person) "
                  "WHERE p.firstName = '{firstName}' RETURN *",
}


@pytest.mark.parametrize("edge_strategy", STRATEGIES, ids=lambda s: "e-" + s.value)
@pytest.mark.parametrize("vertex_strategy", STRATEGIES, ids=lambda s: "v-" + s.value)
@pytest.mark.parametrize("name", sorted(LOOKUP_QUERIES))
def test_every_vertex_leaf_join_is_a_lookup(
    graphs, name, vertex_strategy, edge_strategy
):
    dataset, (columnar_graph, columnar_stats), (plain_graph, plain_stats) = (
        graphs
    )
    query = instantiate(LOOKUP_QUERIES[name], dataset.first_name("medium"))
    options = dict(vertex_strategy=vertex_strategy, edge_strategy=edge_strategy)
    columnar = CypherRunner(
        columnar_graph, statistics=columnar_stats, mode="columnar", **options
    )
    per_record = CypherRunner(
        plain_graph, statistics=plain_stats, mode="reference", **options
    )
    with columnar_graph.environment.job("columnar") as metrics:
        columnar_embeddings, _ = columnar.execute_embeddings(query)
    with plain_graph.environment.job("per-record") as plain_metrics:
        per_record_embeddings, _ = per_record.execute_embeddings(query)
    assert Counter(columnar_embeddings) == Counter(per_record_embeddings)
    assert not any(
        count for reason, count in metrics.chunk_fallbacks.items()
        if reason != "path_join"
    )
    # every join with a vertex leaf is lowered (onto the adjacency where
    # the other input is an edge leaf), and a lookup moves nothing
    _, root = columnar.compile(query)
    with_vertex_leaf = [
        operator for operator in root.postorder()
        if isinstance(operator, JoinEmbeddings) and any(
            isinstance(child, SelectAndProjectVertices)
            for child in operator.children
        )
    ]
    assert all(
        isinstance(operator.evaluate().operator, LoweredOperator)
        for operator in with_vertex_leaf
    )
    lookups = _lowered_runs(metrics, "[lookup]")
    assert not any(run.shuffled_bytes for run in lookups)

    def joined(runs):
        return Counter(
            (run.name.split("[")[0], run.records_out) for run in runs
            if run.name.startswith("JoinEmbeddings") and run.iteration is None
        )

    # each lookup emits the rows of one of the reference's joins
    assert not joined(lookups) - joined(plain_metrics.runs)


# The resident leaf (select, then gather from the table encoded once) is
# pinned against the per-record flat-map on a graph made of its corner
# cases: a key some elements lack, 1 / 1.0 / true and lists under one key,
# self-loops, an unlabelled vertex, ids >= 2**63, partitions longer than
# the batch size.

_BIG = 2**63 + 5


def _leaf_graph(parallelism, graph_cls=IndexedLogicalGraph):
    environment = ExecutionEnvironment(parallelism=parallelism, batch_size=2)
    ks = [1.0, 1, True, "x", [1, 2], None, 2, "x", 1.0, [1, 2], 7, False]
    vertices = []
    for n, k in enumerate(ks):
        properties = {"n": n, "s": ("ab" if n % 3 == 0 else "cd") + str(n)}
        if k is not None:
            properties["k"] = k
        vertices.append(Vertex(GradoopId(n + 1), "A", properties))
    vertices.append(Vertex(GradoopId(_BIG), "A", {"n": 100, "k": "x"}))
    vertices += [Vertex(GradoopId(50 + n), "B", {"n": n}) for n in range(3)]
    vertices.append(Vertex(GradoopId(90), "", {"n": 5}))

    def edge(edge_id, label, source, target, **properties):
        return Edge(
            GradoopId(edge_id), label, GradoopId(source), GradoopId(target),
            properties or None,
        )

    edges = [
        edge(200, "x", 1, 2, w=1), edge(201, "x", 2, 2, w=2),
        edge(202, "x", 3, 1), edge(203, "x", _BIG, 4, w=2),
        edge(204, "x", 5, 5), edge(205, "x", 4, _BIG, w=2.0),
        edge(206, "y", 1, 50, w=2), edge(207, "y", 51, 51),
        edge(2**63 + 9, "x", 6, 7, w=3),
        # parallel edges over one pair, a y edge over it, a triangle 3-1-2
        edge(208, "x", 1, 2, w=3), edge(209, "y", 1, 2), edge(210, "x", 3, 2),
    ]
    return graph_cls.from_collections(environment, vertices, edges)


@pytest.fixture(scope="module")
def leaf_graphs():
    return {parallelism: _leaf_graph(parallelism) for parallelism in (1, 4)}


LEAF_QUERIES = [
    # what is projected: zero, one, several keys; a key some lack
    "MATCH (v:A) RETURN *",
    "MATCH (v:A) RETURN v.k",
    "MATCH (v:A) RETURN v.k, v.n, v.s",
    # what is scanned: an alternation, an absent label, no label
    "MATCH (v:A|B) RETURN v.n",
    "MATCH (v:Nope) RETURN v.n",
    "MATCH (v) RETURN v.n",
    # probes: the index holds 1 / 1.0 / true and lists under one key
    "MATCH (v:A) WHERE v.k = 1 RETURN v.k",
    "MATCH (v:A) WHERE v.k = true RETURN v.k",
    "MATCH (v:A) WHERE v.k = 'x' RETURN v.n",
    "MATCH (v:A) WHERE v.k = [1, 2] RETURN v.k",
    "MATCH (v:A {k: 'x'}) WHERE v.n > 3 RETURN v.n",
    "MATCH (v:A|B) WHERE v.n = 1 RETURN v.n",
    "MATCH (v) WHERE v.n = 5 RETURN v.n",
    # scans: everything that is not one `key = value` clause
    "MATCH (v:A) WHERE v.n <> 3 RETURN v.n",
    "MATCH (v:A) WHERE v.n > 2 AND v.n <= 7 RETURN v.s",
    "MATCH (v:A) WHERE v.n = 1 OR v.s = 'ab3' RETURN v.s",
    "MATCH (v:A) WHERE v.n IN [1, 2, 99] RETURN v.n",
    "MATCH (v:A) WHERE v.s STARTS WITH 'ab' RETURN v.s",
    # edge leaves: directed (distinct endpoints under isomorphism),
    # undirected over a self-loop, a loop edge, alternation, no type
    "MATCH (a)-[e:x]->(b) RETURN *",
    "MATCH (a)-[e:x]-(b) RETURN e.w",
    "MATCH (a)-[e:x]->(a) RETURN e.w",
    "MATCH (a)-[e:x|y]->(b) WHERE e.w = 2 RETURN e.w",
    "MATCH (a)-[e:x|y]-(b) WHERE e.w = 2 RETURN e.w",
    "MATCH (a)-[e]->(b) RETURN *",
    "MATCH (a)-[e:nope]->(b) RETURN *",
]


def _leaf_runners(graph, strategy):
    options = dict(vertex_strategy=strategy, edge_strategy=strategy)
    return (
        CypherRunner(graph, mode="columnar", **options),
        CypherRunner(graph, mode="reference", **options),
    )


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("query", LEAF_QUERIES)
def test_resident_leaf_equals_per_record(
    leaf_graphs, query, parallelism, strategy
):
    graph = leaf_graphs[parallelism]
    columnar, per_record = _leaf_runners(graph, strategy)
    with graph.environment.job("columnar") as metrics:
        columnar_embeddings, _ = columnar.execute_embeddings(query)
    per_record_embeddings, _ = per_record.execute_embeddings(query)
    assert not any(metrics.chunk_fallbacks.values())
    assert _multiset(columnar_embeddings) == _multiset(per_record_embeddings)


def test_leaf_without_tables_scans_and_encodes():
    # a graph built in code keeps no tables: same two functions, per
    # request, and the run says so (one partition: the reference's order)
    graph = _leaf_graph(1, LogicalGraph)
    columnar, per_record = _leaf_runners(graph, MatchStrategy.ISOMORPHISM)
    for query in LEAF_QUERIES:
        with graph.environment.job("columnar") as metrics:
            columnar_embeddings, _ = columnar.execute_embeddings(query)
        per_record_embeddings, _ = per_record.execute_embeddings(query)
        assert _canon(columnar_embeddings) == _canon(per_record_embeddings)
        assert {k for k, v in metrics.chunk_fallbacks.items() if v} == {
            "leaf_no_table"
        }, query


# The adjacency join (a hop over the resident CSR, or a probe of its pair
# index, in place of the hash join with an edge leaf) is pinned against
# the per-record reference on plans built by hand, so that the edge leaf
# sits on either side and is joined on its source, its target or both.
# A plan is nested pairs of variables; a pair joins on what both bind.

JOIN_PLANS = [
    # (pattern, plan, joins lowered, rows under homomorphism)
    # one endpoint: on the source, on the target; leaf right, leaf left
    ("(a:A)-[e:x]->(b:A)", (("a", "e"), "b"), 1, 9),
    ("(a:A)-[e:x]->(b:A)", (("e", "a"), "b"), 1, 9),
    ("(a:A)-[e:x]->(b:A)", (("b", "e"), "a"), 1, 9),
    ("(a:A)-[e:x]->(b:A)", ("a", ("e", "b")), 1, 9),
    # two edge leaves with each other: on one endpoint, on both
    ("(a)-[e:x]->(b)-[f:x]->(c)", ("e", "f"), 1, 9),
    ("(a)-[e:x]->(b)-[f:x]->(c)", ("f", "e"), 1, 9),
    ("(a)-[e:x]->(b), (a)-[f:y]->(b)", ("e", "f"), 1, 2),
    # closing: the parallel x edges over the y pair both come out
    ("(a:A)-[e:y]->(b), (a)-[f:x]->(b)", (("a", "e"), "f"), 2, 2),
    ("(a:A)-[e:y]->(b), (a)-[f:x]->(b)", ("f", ("a", "e")), 2, 2),
    ("(a)-[e:x]->(b)-[f:x]->(c), (a)-[g:x]->(c)", (("e", "f"), "g"), 2, 9),
    ("(a)-[e:x]->(b)-[f:x]->(c), (a)-[g:x]->(c)", ("g", ("f", "e")), 2, 9),
    # undirected over the self-loops: hop from either end, and closing
    ("(a:A)-[e:x]-(b)", ("a", "e"), 1, 16),
    ("(b:A)-[e:x]-(a)", ("e", "b"), 1, 16),
    ("(a)-[e:x]->(b), (a)-[f:x]-(b)", ("e", "f"), 1, 13),
    # alternation, no label, an absent label (an empty adjacency)
    ("(a:A)-[e:x|y]->(b)", ("a", "e"), 1, 11),
    ("(a:A)-[e:x|y]-(b)", ("e", "a"), 1, 19),
    ("(a:A)-[e]->(b)", ("a", "e"), 1, 11),
    ("(a:A)-[e:nope]->(b)", ("a", "e"), 1, 0),
    ("(a:A)-[e:x]->(b), (a)-[f:nope]->(b)", (("a", "e"), "f"), 2, 0),
    # the edge predicate beyond the label: a mask over the edge list
    ("(a:A)-[e:x {w: 2}]->(b)", ("a", "e"), 1, 3),
    ("(a:A)-[e:x]->(b), (a)-[f:x|y]->(b) WHERE f.w > 2", (("a", "e"), "f"), 2, 3),
    # what is never lowered: a loop edge; a join of two intermediates
    ("(a:A)-[e:x]->(a)", ("a", "e"), 0, 2),
    ("(a:A)-[e:x]->(b)-[f:x]->(c)", (("a", "e"), ("b", "f")), 2, 9),
]


def _hand_plan(graph, handler, plan, strategies):
    if isinstance(plan, str):
        if plan in handler.vertices:
            return SelectAndProjectVertices(graph, handler.vertices[plan], [])
        return SelectAndProjectEdges(graph, handler.edges[plan], [])
    left, right = (_hand_plan(graph, handler, side, strategies) for side in plan)
    shared = [v for v in left.meta.variables if right.meta.has_variable(v)]
    return JoinEmbeddings(left, right, shared, *strategies)


def _lowered_runs(metrics, kind="[adjacency]"):
    return [run for run in metrics.runs if run.name.endswith(kind)]


def _both_ways(root):
    """``(columnar rows, their job metrics, per-record rows)``."""
    dataset = root.evaluate()
    with dataset.environment.job("columnar") as metrics:
        columnar = dataset.collect(mode="columnar")
    return columnar, metrics, dataset.collect(mode="reference")


@pytest.mark.parametrize("sizes", [(4096, 4096), (2, 3)], ids=["whole", "sliced"])
@pytest.mark.parametrize("edge_strategy", STRATEGIES, ids=lambda s: "e-" + s.value)
@pytest.mark.parametrize("vertex_strategy", STRATEGIES, ids=lambda s: "v-" + s.value)
@pytest.mark.parametrize("parallelism", [1, 4])
def test_adjacency_join_equals_per_record(
    leaf_graphs, monkeypatch, parallelism, vertex_strategy, edge_strategy, sizes
):
    # "sliced": every input partition is longer than a probe run and every
    # fan-out longer than a slice, so runs, slices and flushes all repeat
    monkeypatch.setattr(columnar_module, "_PROBE_ROWS", sizes[0])
    monkeypatch.setattr(columnar_module, "_OUTPUT_ROWS", sizes[1])
    graph = leaf_graphs[parallelism]
    homomorphism = vertex_strategy is edge_strategy is STRATEGIES[0]
    for pattern, plan, lowered, rows in JOIN_PLANS:
        root = _hand_plan(
            graph, QueryHandler("MATCH %s RETURN *" % pattern), plan,
            (vertex_strategy, edge_strategy),
        )
        columnar, metrics, per_record = _both_ways(root)
        case = (pattern, plan)
        assert Counter(columnar) == Counter(per_record), case
        assert not any(metrics.chunk_fallbacks.values()), case
        runs = _lowered_runs(metrics)
        assert len(runs) == lowered, case
        assert not any(run.shuffled_records for run in runs), case
        if homomorphism:
            assert len(columnar) == rows, case


def test_selective_closing_join_emits_dense_chunks():
    # 50 000 candidate pairs of which an edge predicate keeps 1 %: the
    # survivors of a slice (or a probe run) are a sliver, and every chunk
    # costs its consumers a fixed amount — they leave merged
    sources, fan, parallelism = 500, 100, 4
    edges = [
        Edge(GradoopId(10**6 + number), "x",
             GradoopId(1 + number // fan), GradoopId(10**4 + number % fan))
        for number in range(sources * fan)
    ]
    adjacency = Adjacency(edges)
    kernel = ColumnarAdjacencyJoin(
        adjacency, 0, 1, [0, 1, EDGE_ID],
        ColumnarJoinSpec(2, (0, 1), (0, 2), (1,), (), ()),
    )
    pairs = np.array(
        [(edge.source_id.value, edge.target_id.value) for edge in edges],
        dtype=np.uint64,
    )
    mask = np.arange(len(edges)) % 100 == 0
    out = [
        kernel.run(
            [EmbeddingChunk(rows) for rows in np.array_split(part, 4)],
            PairIndex(adjacency), mask, None,
        )
        for part in np.array_split(pairs, parallelism)
    ]
    chunks = [chunk for part in out for chunk in part]
    assert sum(chunk.count for chunk in chunks) == mask.sum() == 500
    assert len(chunks) <= -(-500 // columnar_module._OUTPUT_ROWS) + parallelism
    assert np.concatenate([chunk.values[:, 2] for chunk in chunks]).tolist() == [
        edge.id.value for edge, kept in zip(edges, mask) if kept
    ]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_adjacency_join_carries_a_path_column(leaf_graphs, strategy):
    # (a)-[p:x*1..2]->(b) joined with the leaf of (b)-[e:x]->(c): under
    # homomorphism the hop carries the PATH column; under isomorphism the
    # path would meet new watched ids, and that shape stays the
    # per-record hash join it was (``columnar_join_spec`` is ``None``)
    graph = leaf_graphs[4]
    handler = QueryHandler("MATCH (a:A)-[p:x*1..2]->(b), (b)-[e:x]->(c) RETURN *")
    expand = ExpandEmbeddings(
        SelectAndProjectVertices(graph, handler.vertices["a"], []), graph,
        handler.edges["p"], strategy, strategy, closing=False,
    )
    for left_to_right in (True, False):
        sides = [expand, SelectAndProjectEdges(graph, handler.edges["e"], [])]
        root = JoinEmbeddings(
            *(sides if left_to_right else sides[::-1]), ["b"], strategy, strategy
        )
        columnar, metrics, per_record = _both_ways(root)
        assert Counter(columnar) == Counter(per_record) and columnar
        if strategy is STRATEGIES[0]:
            assert len(_lowered_runs(metrics)) == 1
            assert not any(metrics.chunk_fallbacks.values())
        else:
            assert not _lowered_runs(metrics)
            assert metrics.chunk_fallbacks["path_join"] == 1


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_join_of_two_paths_declares_its_fallback(leaf_graphs, strategy):
    # (a)-[p:x*1..2]->(b) joined with (b)-[q:x*1..2]->(c) on b: a PATH on
    # each side has no chunk kernel, so the join declares ``path_join``
    # and every columnar execution counts it once
    graph = leaf_graphs[4]
    handler = QueryHandler("MATCH (a:A)-[p:x*1..2]->(b)-[q:x*1..2]->(c) RETURN *")
    sides = [
        ExpandEmbeddings(
            SelectAndProjectVertices(graph, handler.vertices[start], []),
            graph, handler.edges[path], strategy, strategy, closing=False,
        )
        for start, path in (("a", "p"), ("b", "q"))
    ]
    dataset = JoinEmbeddings(*sides, ["b"], strategy, strategy).evaluate()
    join = dataset.operator
    assert (join.kernel, join.fallback) == (None, "path_join")
    reference = Counter(dataset.collect(mode="reference"))
    assert reference
    for _ in range(2):
        with dataset.environment.job("columnar") as metrics:
            columnar = dataset.collect(mode="columnar")
        assert Counter(columnar) == reference
        assert metrics.chunk_fallbacks["path_join"] == 1


@pytest.mark.parametrize("parallelism", [1, 4])
def test_rebound_edge_parameter_masks_one_plan(leaf_graphs, parallelism):
    graph = leaf_graphs[parallelism]
    # the leaf evaluates e.w itself and projects no key: a hop join
    options = dict(vertex_strategy=STRATEGIES[0], edge_strategy=STRATEGIES[1])
    text = "MATCH (a:A)-[e:x]->(b:A) WHERE e.w = $p RETURN a.n, b.n"
    statement = CypherRunner(graph, mode="columnar", **options).prepare(text)
    reference = CypherRunner(graph, mode="reference", **options).prepare(text)
    before = graph.adjacency_stats()
    sizes = []
    for value in (2, 3, 99, 2):
        embeddings = statement.run({"p": value})[0]
        assert Counter(embeddings) == Counter(reference.run({"p": value})[0])
        sizes.append(len(embeddings))
    assert sizes == [3, 2, 0, 3]
    after = graph.adjacency_stats()
    assert after["hop_joins"] - before["hop_joins"] == 4
    assert after["bytes"] == before["bytes"]


def test_join_without_adjacency_is_the_hash_join_and_says_so():
    # a graph built in code keeps no adjacency: the same plans, the chunk
    # hash join in the reference's own order over one partition, and the
    # run says so
    graph = _leaf_graph(1, LogicalGraph)
    strategies = (STRATEGIES[0], STRATEGIES[1])
    for pattern, plan, lowered, _ in JOIN_PLANS:
        root = _hand_plan(
            graph, QueryHandler("MATCH %s RETURN *" % pattern), plan, strategies
        )
        columnar, metrics, per_record = _both_ways(root)
        assert _canon(columnar) == _canon(per_record), (pattern, plan)
        assert not _lowered_runs(metrics)
        assert metrics.chunk_fallbacks["join_no_adjacency"] == lowered


# The vertex lookup (the leaf's rows found by id where the other input's
# rows sit, in place of the hash join with a vertex leaf) is pinned against
# the per-record reference on plans built by hand: the leaf on either side,
# with and without records, an alternation, probed leaves, an absent label,
# a PATH-bearing other side.

LOOKUP_PLANS = [
    # (pattern, keys the leaf b projects, rows under homomorphism)
    ("(a:A)-[e:x]->(b:A)", (), 9),
    ("(a:A)-[e:x]->(b:A)", ("k", "n"), 9),
    ("(a:A)-[e:x|y]->(b:A|B)", ("n",), 11),
    ("(a:A)-[e:x]->(b:A {k: 'x'})", ("s",), 2),
    ("(a:A)-[e:x]->(b:A {k: 'nothing'})", (), 0),
    ("(a:A)-[e:x]->(b:Nope)", (), 0),
    ("(a:A)-[e:x*1..2]->(b:A)", ("n",), 18),
]


def _lookup_plan(graph, pattern, keys, leaf_left, strategies):
    handler = QueryHandler("MATCH %s RETURN *" % pattern)
    start = SelectAndProjectVertices(graph, handler.vertices["a"], [])
    edge = handler.edges["e"]
    if edge.is_variable_length:
        other = ExpandEmbeddings(start, graph, edge, *strategies, closing=False)
    else:
        other = JoinEmbeddings(
            start, SelectAndProjectEdges(graph, edge, []), ["a"], *strategies
        )
    leaf = SelectAndProjectVertices(graph, handler.vertices["b"], keys)
    sides = (leaf, other) if leaf_left else (other, leaf)
    return JoinEmbeddings(*sides, ["b"], *strategies)


@pytest.mark.parametrize("probe_rows", [4096, 2], ids=["whole", "sliced"])
@pytest.mark.parametrize("edge_strategy", STRATEGIES, ids=lambda s: "e-" + s.value)
@pytest.mark.parametrize("vertex_strategy", STRATEGIES, ids=lambda s: "v-" + s.value)
@pytest.mark.parametrize("parallelism", [1, 4])
def test_vertex_lookup_equals_per_record(
    leaf_graphs, monkeypatch, parallelism, vertex_strategy, edge_strategy,
    probe_rows,
):
    # "sliced": every input partition is several probe runs
    monkeypatch.setattr(columnar_module, "_PROBE_ROWS", probe_rows)
    graph = leaf_graphs[parallelism]
    homomorphism = vertex_strategy is edge_strategy is STRATEGIES[0]
    for pattern, keys, rows in LOOKUP_PLANS:
        for leaf_left in (False, True):
            case = (pattern, keys, leaf_left)
            before = graph.adjacency_stats()["lookup_joins"]
            root = _lookup_plan(
                graph, pattern, keys, leaf_left, (vertex_strategy, edge_strategy)
            )
            columnar, metrics, per_record = _both_ways(root)
            assert Counter(columnar) == Counter(per_record), case
            assert not any(metrics.chunk_fallbacks.values()), case
            (run,) = _lowered_runs(metrics, "[lookup]")
            assert not run.shuffled_records and run.records_out == len(columnar)
            assert graph.adjacency_stats()["lookup_joins"] == before + 1
            if homomorphism:
                assert len(columnar) == rows, case


def test_vertex_lookup_carries_rows_it_adds_nothing_to():
    # a pure label check: every hit is the probe row itself, a full hit the
    # probe chunk; a leaf that adds a record or a watched id merges
    values = np.array([[1, 7], [2, 8], [3, 9]], dtype=np.uint64)
    probe = EmbeddingChunk(values)
    leaf = EmbeddingChunk(np.array([[9], [8], [7]], dtype=np.uint64))
    carried = ColumnarJoinSpec(2, (1,), (0,), (), (), ())
    ((chunk,),) = ColumnarVertexLookup(1, False, carried).run(
        [leaf], [[probe]], None
    )
    assert chunk is probe
    ((chunk,),) = ColumnarVertexLookup(1, False, carried).run(
        [leaf.gather([0, 2])], [[probe]], None
    )
    assert chunk.values.tolist() == [[1, 7], [3, 9]]
    # the leaf on the left: its column first, the probe's key dropped
    merged = ColumnarJoinSpec(1, (0,), (1,), (0,), (), ())
    ((chunk,),) = ColumnarVertexLookup(1, True, merged).run(
        [leaf], [[probe]], None
    )
    assert chunk.values.tolist() == [[7, 1], [8, 2], [9, 3]]
    # a watched pair that collides drops its row
    watched = ColumnarJoinSpec(2, (1,), (0,), (), (0, 1), ())
    ((chunk,),) = ColumnarVertexLookup(1, False, watched).run(
        [leaf], [[EmbeddingChunk(np.array([[7, 7], [2, 8]], dtype=np.uint64))]],
        None,
    )
    assert chunk.values.tolist() == [[2, 8]]


@pytest.mark.parametrize("parallelism", [1, 4])
def test_exact_probe_hits_are_not_rechecked(
    leaf_graphs, monkeypatch, parallelism
):
    # the probed `key = value` clause is the whole CNF: the index's hits
    # are the rows, and no element is bound to re-check them; 1 meets the
    # stored 1.0s, a string its equals, NULL nothing
    graph = leaf_graphs[parallelism]
    columnar, per_record = _leaf_runners(graph, MatchStrategy.HOMOMORPHISM)
    text = "MATCH (v:A) WHERE v.k = $p RETURN v.k, v.n"
    statement, reference = columnar.prepare(text), per_record.prepare(text)
    expected = [
        reference.run({"p": value})[0] for value in (1, 1.0, "x", None)
    ]

    def unbound(*args):
        raise AssertionError("a probe hit was re-checked")

    monkeypatch.setattr(columnar_module, "ElementBindings", unbound)
    got = [statement.run({"p": value})[0] for value in (1, 1.0, "x", None)]
    assert [_multiset(rows) for rows in got] == [
        _multiset(rows) for rows in expected
    ]
    assert [len(rows) for rows in got] == [3, 3, 3, 0]
    # a clause beside the probed one is still checked on every hit
    other = columnar.prepare("MATCH (v:A) WHERE v.k = $p AND v.n > 3 RETURN v.n")
    with pytest.raises(Exception, match="re-checked"):
        other.run({"p": "x"})


@pytest.mark.parametrize("parallelism", [1, 4])
def test_rebound_parameter_probes_one_plan(leaf_graphs, parallelism):
    graph = leaf_graphs[parallelism]
    columnar, per_record = _leaf_runners(graph, MatchStrategy.HOMOMORPHISM)
    text = "MATCH (v:A) WHERE v.k = $p RETURN v.k, v.n"
    statement, reference = columnar.prepare(text), per_record.prepare(text)
    before = graph.leaf_stats()
    # 1 meets the stored 1.0s (and not true), true not the stored 1s,
    # NULL equals nothing, a list is a value like any other
    sizes = []
    for value in (1, "x", "nothing", None, True, [1, 2], 1.0):
        embeddings = statement.run({"p": value})[0]
        assert _multiset(embeddings) == _multiset(
            reference.run({"p": value})[0]
        )
        sizes.append(len(embeddings))
    assert sizes == [3, 3, 0, 0, 1, 2, 3]
    after = graph.leaf_stats()
    assert after["probes"] - before["probes"] == 7
    assert after["scans"] == before["scans"]
    # one table and one index, whatever was bound
    assert after["tables"] - before["tables"] <= 1
    assert after["indexes"] - before["indexes"] <= 1


def test_a_leaf_table_serves_only_its_own_partition_count():
    # an in-process columnar run is one partition, a pooled one has the
    # cluster's: each reads a table and an index of its own count
    graph = _leaf_graph(4)
    environment = graph.environment
    _, root = CypherRunner(graph).compile("MATCH (v:A) WHERE v.k = 'x' RETURN v.n")
    expected = _multiset(root.evaluate().collect(mode="reference"))
    operator = root.evaluate().operator
    for parallelism in (1, 4, 1):
        ctx = ExecutionContext(
            environment, JobMetrics(), columnar=True, parallelism=parallelism
        )
        partitions = environment._evaluate(operator, {}, ctx)
        assert len(partitions) == parallelism
        rows = [row for partition in partitions for row in partition]
        assert _multiset(rows) == expected
    stats = graph.leaf_stats()
    assert (stats["tables"], stats["indexes"], stats["probes"]) == (2, 2, 3)


def test_sanitized_run_equals_columnar(graphs):
    dataset, (columnar_graph, columnar_stats), _ = graphs
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
    plain = CypherRunner(columnar_graph, statistics=columnar_stats)
    sanitized = CypherRunner(
        columnar_graph, statistics=columnar_stats, sanitize="collect"
    )
    plain_embeddings, _ = plain.execute_embeddings(query)
    sanitized_embeddings, _ = sanitized.execute_embeddings(query)
    assert Counter(plain_embeddings) == Counter(sanitized_embeddings)


def test_pooled_columnar_equals_per_record():
    dataset = LDBCGenerator(scale_factor=0.02, seed=7).generate()
    pooled_env = ExecutionEnvironment(parallelism=4, workers=2)
    plain_env = ExecutionEnvironment(parallelism=4)
    try:
        pooled_graph = dataset.to_logical_graph(pooled_env)
        plain_graph = dataset.to_logical_graph(plain_env)
        pooled = CypherRunner(
            pooled_graph,
            statistics=GraphStatistics.from_graph(pooled_graph),
            mode="columnar",
        )
        per_record = CypherRunner(
            plain_graph,
            statistics=GraphStatistics.from_graph(plain_graph),
            mode="reference",
        )
        for name in ("Q1", "Q5"):
            query = instantiate(
                ALL_QUERIES[name], dataset.first_name("medium")
            )
            pooled_embeddings, _ = pooled.execute_embeddings(query)
            per_record_embeddings, _ = per_record.execute_embeddings(query)
            assert Counter(pooled_embeddings) == Counter(
                per_record_embeddings
            ), name
        assert pooled_env.worker_pool()._started
    finally:
        pooled_env.shutdown_workers()


# --- memory ------------------------------------------------------------------

_KNOWS_CREATOR = (
    "MATCH (p:Person)-[:knows]->(q:Person)<-[:hasCreator]-(c:Comment) RETURN *"
)


def test_join_request_does_not_import_numpy_ma():
    # np.isin / np.unique pull in numpy.ma lazily — 10 ms and a megabyte,
    # inside whichever request joins first; no kernel may call them
    script = """
import sys
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.ldbc import LDBCGenerator
graph = LDBCGenerator(scale_factor=0.2, seed=11).generate().to_logical_graph(
    ExecutionEnvironment(parallelism=4))
assert len(CypherRunner(graph).execute_embeddings(%r)[0]) > 1000
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
""" % _KNOWS_CREATOR
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_collect_releases_the_chunks_it_decodes(monkeypatch):
    environment = ExecutionEnvironment(parallelism=2)
    rows = _make_rows(8, columns=2, with_payload=True)
    partitions = [
        ColumnarPartition([chunk_from_embeddings(rows[:3])]),
        ColumnarPartition(
            [chunk_from_embeddings(rows[3:5]), chunk_from_embeddings(rows[5:])]
        ),
    ]
    # stand in for a plan whose root operator produced these partitions
    monkeypatch.setattr(environment, "run", lambda *args, **flags: partitions)
    assert _canon(environment.from_collection([]).collect()) == _canon(rows)
    # ``chunks`` is still the recognition handle, now drained
    assert [partition.chunks for partition in partitions] == [[], []]


def _traced_collect(dataset, **flags):
    """``(peak, retained)`` bytes of one ``collect`` of a warm plan."""
    dataset.collect(**flags)  # warm: memoized payloads
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = dataset.collect(**flags)
        _, peak = tracemalloc.get_traced_memory()
        del result
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, retained - base


def test_columnar_peak_is_below_batched_and_nothing_is_retained():
    dataset = LDBCGenerator(scale_factor=0.5, seed=42).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment(parallelism=4))
    runner = CypherRunner(graph, statistics=GraphStatistics.from_graph(graph))
    _, root = runner.compile(_KNOWS_CREATOR)
    plan = root.evaluate()
    columnar_peak, retained = _traced_collect(plan, mode="columnar")
    reference_peak, _ = _traced_collect(plan, mode="reference")
    assert columnar_peak <= reference_peak
    assert retained <= 1_000_000
