"""Columnar embedding chunks: batch execution over the §3.3 layout.

A :class:`EmbeddingChunk` stores a batch of embeddings column-wise instead
of row-wise: the fixed-width id entries of all rows live in one
``uint64`` ``(count, columns)`` array (plus a ``uint8`` flag array only
when some entry is not a plain id), the paths of ``path_data`` are *id
matrices* — one ``uint64`` ``(count, width)`` matrix per PATH entry,
zero-padded, beside the per-row id count — and ``prop_data`` is a tuple
of *record segments*: each a shared, read-only record matrix (an
``object`` array whose cells are the immutable ``bytes`` of §3.3
property records, length field included, beside an ``int32`` matrix of
their lengths — a resident leaf table's) plus one int row index per
chunk row.  Because every §3.3 id entry is exactly ``ENTRY_WIDTH``
bytes, the whole id block decodes and encodes through **one**
structured-dtype view (:data:`_ENTRY`) and a column projects as an array
slice (``values[:, c]``) — no per-record dispatch, no per-record
``Embedding`` allocation, no boxed integers.  Neither paths nor property
records are sliced or re-joined on the way through a plan: a leaf builds
each record object once, the expansion emits the path matrix it walked,
and every kernel after them moves ids and row indexes (a gather indexes
each segment's rows, a join lays two sides' segments side by side, a
projection narrows them).  A record is gathered by its first reader —
the RETURN decode, a global WHERE, the per-record boundary, a pool frame
— over the rows that survived to it (late materialization); a vertex
lookup the schema already answers passes its input through and adds a
segment indexed by vertex id, resolved by that reader alone.

The codec is exact and bidirectional: ``chunk_from_embeddings``
followed by ``to_embeddings`` reproduces every record byte-for-byte.
PATH entry values stay *row-relative* (offsets into the row's own
``path_data``), so gathering, concatenating and merging rows never
rewrites them.  ``path_data`` and ``prop_data`` as §3.3 bytes exist only
behind four boundary functions — :func:`paths_from_bytes`,
:func:`paths_to_bytes`, :func:`props_from_bytes` and
:func:`props_to_bytes` — which that codec and the worker chunk frame use.

Operators gain *columnar kernels* built here, which the engine declares
on the dataflow stage beside its per-record closure
(``DataSet.map(..., kernel=)`` / ``filter(..., kernel=)`` /
``join(..., kernel=, fallback=)``; a join's kernel also names the key
columns its shuffle splits chunks by).  The dataflow layer never imports
this module at module scope and runs the per-record closure whenever a
stage declares no kernel or its input is not columnar; a sanitized stage
declares none (sanitized runs are per-record by construction, so the
sanitizer always validates the decoded view).
Leaves, expansions and joins with a leaf are dataflow nodes of their
own that pick between a kernel compiled here (:class:`ColumnarLeaf`,
:class:`ColumnarExpandSpec`, :class:`ColumnarAdjacencyJoin`,
:class:`ColumnarVertexLookup`) and their per-record reference sub-plan.

At the result boundary the same layout is read column-wise
(:mod:`repro.engine.result` builds the result table): an id column stays
the ``values[:, c]`` slice, :func:`path_column` locates a PATH entry's
id matrix and a property column is gathered from its segment
(:meth:`EmbeddingChunk.record_column`): shared record objects.  Two
writers turn a batch of them into JSON text: :func:`id_rows_json` writes
a large batch of id and path columns straight from those arrays,
:func:`rows_json` every other batch by interleaving ready texts — a
record's from :class:`RecordTexts`, which makes each distinct record's
text once per loaded graph.
"""

import json
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.epgm import GradoopId, PropertyValue
from repro.epgm.indexed import OrdinalSpace, key_runs, match_runs
from repro.epgm.property_value import NULL_VALUE

from .embedding import (
    ENTRY_WIDTH,
    FLAG_ID,
    FLAG_PATH,
    PATH_COUNT_WIDTH,
    PATH_ID_WIDTH,
    PROP_LEN_WIDTH,
    ElementBindings,
    Embedding,
    _PROP_LEN,
)
from .morphism import MatchStrategy

#: one §3.3 id entry — flag byte, big-endian u64, packed: the single view
#: through which id blocks are decoded and encoded
_ENTRY = np.dtype([("flag", "u1"), ("value", ">u8")])


def decode_entries(buffer, count: int, columns: int, offset: int = 0):
    """``(values, flags)`` of the §3.3 id block at ``buffer[offset:]``.

    ``flags`` is ``None`` when every entry is a plain id.
    """
    entries = np.frombuffer(
        buffer, dtype=_ENTRY, count=count * columns, offset=offset
    )
    values = entries["value"].astype(np.uint64).reshape(count, columns)
    flags = entries["flag"]
    if (flags != FLAG_ID).any():
        return values, flags.reshape(count, columns).copy()
    return values, None


def _offsets(lengths) -> Optional[np.ndarray]:
    """The offset array of per-row ``lengths``; ``None`` when all are 0."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets if offsets[-1] else None


def _concat(parts: Sequence[bytes]) -> Tuple[bytes, Optional[np.ndarray]]:
    """One part per row → ``(buffer, offsets)``."""
    buf = b"".join(parts)
    if not buf:
        return b"", None
    return buf, _offsets(np.fromiter(map(len, parts), np.int64, len(parts)))


def _row_slices(buf: bytes, offsets, count: int) -> List[bytes]:
    """Each row's slice of a payload buffer."""
    if offsets is None:
        return [b""] * count
    bounds = offsets.tolist()
    return [buf[start:end] for start, end in zip(bounds, bounds[1:])]


# The property boundary: ``prop_data`` as §3.3 bytes <-> the record matrix.
# Only the per-record codec and the worker chunk frame cross it.


def props_from_bytes(
    buf: bytes, offsets: Optional[np.ndarray]
) -> Optional[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]:
    """``(props, prop_lens)`` of rows whose ``prop_data`` is
    ``buf[offsets[r]:offsets[r + 1]]``; ``None`` when the rows hold
    different numbers of records.

    Round ``i`` reads the length field of every row's ``i``-th record in
    one step; each record is then cut out of ``buf`` once.
    """
    if offsets is None:
        return None, None
    raw = np.frombuffer(buf, dtype=np.uint8)
    cursor, ends = offsets[:-1], offsets[1:]
    bounds = []
    while True:
        more = cursor < ends
        if not more.all():
            if more.any():
                return None
            break
        bounds.append(cursor)
        # the big-endian u16 length field (_PROP_LEN)
        length = raw[cursor].astype(np.int64) << 8 | raw[cursor + 1]
        cursor = cursor + PROP_LEN_WIDTH + length
    if (cursor != ends).any():
        raise ValueError("a property record overruns its row's prop_data")
    bounds.append(ends)
    spans = np.stack(bounds, axis=1)
    cells = [
        buf[begin:end]
        for begin, end in zip(
            spans[:, :-1].ravel().tolist(), spans[:, 1:].ravel().tolist()
        )
    ]
    return (
        np.array(cells, dtype=object).reshape(len(ends), -1),
        np.diff(spans, axis=1).astype(np.int32),
    )


def props_to_bytes(
    props: Optional[np.ndarray], prop_lens: Optional[np.ndarray]
) -> Tuple[bytes, Optional[np.ndarray]]:
    """``(buf, offsets)`` — every row's ``prop_data``, concatenated."""
    if props is None or prop_lens is None:
        return b"", None
    return b"".join(props.ravel().tolist()), _offsets(prop_lens.sum(axis=1))


# The path boundary: ``path_data`` as §3.3 bytes <-> one id matrix per PATH
# entry.  Only the per-record codec and the worker chunk frame cross it.

#: one PATH entry of every row: ``(ids, lens)``, row ``r``'s path
#: ``ids[r, :lens[r]]``
PathMatrix = Tuple[np.ndarray, np.ndarray]
#: a chunk's paths: one pair per PATH entry, in the order of the rows'
#: ``path_data``
Paths = Tuple[PathMatrix, ...]


def _path_sizes(paths: Paths, count: int) -> np.ndarray:
    """Per-row byte length of ``path_data``."""
    sizes = np.zeros(count, dtype=np.int64)
    for _, lens in paths:
        sizes += PATH_COUNT_WIDTH + PATH_ID_WIDTH * lens
    return sizes


def paths_from_bytes(buf: bytes, offsets: Optional[np.ndarray]) -> Optional[Paths]:
    """The paths of rows whose ``path_data`` is
    ``buf[offsets[r]:offsets[r + 1]]``; ``None`` when a row's bytes are no
    sequence of PATH entries or the rows hold different numbers of them.

    Round ``i`` reads the count field of every row's ``i``-th entry in
    one step and checks that the ids it announces fit the row before
    anything sized by it is allocated.
    """
    if offsets is None:
        return ()
    raw = np.frombuffer(buf, dtype=np.uint8)
    cursor, ends = offsets[:-1], offsets[1:]
    paths: List[Tuple[np.ndarray, np.ndarray]] = []
    while True:
        more = cursor < ends
        if not more.all():
            return None if more.any() else tuple(paths)
        if (cursor + PATH_COUNT_WIDTH > ends).any():
            return None
        # the big-endian u32 count field (_PATH_LEN)
        field = raw.take(cursor[:, None] + np.arange(PATH_COUNT_WIDTH))
        lens = field.view(">u4")[:, 0].astype(np.int64)
        start = cursor + PATH_COUNT_WIDTH
        cursor = start + PATH_ID_WIDTH * lens
        if (cursor > ends).any():
            return None
        # each row's ids, then whatever follows them up to the widest: zeroed
        at = np.arange(PATH_ID_WIDTH * int(lens.max()))
        data = raw.take(start[:, None] + at, mode="clip")
        data[at >= PATH_ID_WIDTH * lens[:, None]] = 0
        paths.append((data.view(">u8").astype(np.uint64), lens))


def paths_to_bytes(paths: Paths, count: int) -> Tuple[bytes, Optional[np.ndarray]]:
    """``(buf, offsets)`` — every row's ``path_data``, concatenated."""
    if not paths:
        return b"", None
    blocks: List[np.ndarray] = []
    fits: List[np.ndarray] = []
    for ids, lens in paths:
        width = PATH_ID_WIDTH * ids.shape[1]
        ids = np.ascontiguousarray(ids, dtype=">u8")
        blocks += [
            lens.astype(">u4").view(np.uint8).reshape(count, PATH_COUNT_WIDTH),
            ids.view(np.uint8).reshape(count, width),
        ]
        fits += [
            np.ones((count, PATH_COUNT_WIDTH), dtype=bool),
            np.arange(width) < PATH_ID_WIDTH * lens[:, None],
        ]
    data = np.concatenate(blocks, axis=1)[np.concatenate(fits, axis=1)]
    return data.tobytes(), _offsets(_path_sizes(paths, count))


def _entries_as(values, flags, convert) -> np.ndarray:
    """``values`` with each id entry (not a PATH entry's offset) passed
    through ``convert``."""
    if flags is None:
        return convert(values)
    out = values.copy()
    ids = flags == FLAG_ID
    out[ids] = convert(values[ids])
    return out


def _paths_as(paths: Paths, convert) -> Paths:
    """``paths`` with each id a path holds passed through ``convert``; the
    padding stays 0."""
    out = []
    for ids, lens in paths:
        held = np.arange(ids.shape[1]) < lens[:, None]
        converted = np.zeros_like(ids)
        converted[held] = convert(ids[held])
        out.append((converted, lens))
    return tuple(out)


class Segment:
    """Some of a chunk's record columns: rows of a shared record matrix.

    ``props`` is a read-only record matrix — an ``object`` ``(n, k)``
    array of §3.3 property records, length field included — and ``lens``
    the ``int32`` matrix of their lengths: a resident leaf table's, or a
    decoded chunk's own.  The segment holds ``columns`` of it (``None``:
    all ``k``), and chunk row ``r`` reads matrix row ``index[r]``
    (``index`` ``None``: row ``r`` itself).  With a ``locator`` (a
    :class:`VertexLocator` over the matrix) ``index`` holds each row's
    vertex *ordinal* instead, found in the locator by the first reader.
    Kernels move ``index`` as they move ids; a record is gathered only
    when something reads it.  Immutable.
    """

    __slots__ = ("props", "lens", "columns", "index", "locator")

    def __init__(self, props, lens, columns=None, index=None, locator=None):
        self.props = props
        self.lens = lens
        self.columns = columns
        self.index = index
        self.locator = locator

    @property
    def width(self) -> int:
        """The number of record columns held."""
        return self.props.shape[1] if self.columns is None else len(self.columns)

    def rows(self) -> Optional[np.ndarray]:
        """Each chunk row's matrix row (``None``: row ``r`` is row ``r``)."""
        if self.locator is None:
            return self.index
        return self.locator.rows(self.index)

    def take(self, rows) -> "Segment":
        """The segment of chunk rows ``rows``."""
        index = rows if self.index is None else self.index[rows]
        return Segment(self.props, self.lens, self.columns, index, self.locator)

    def window(self, start: int, stop: int) -> "Segment":
        """The segment of chunk rows ``start`` to ``stop``."""
        return self.take(
            np.arange(start, stop) if self.index is None else slice(start, stop)
        )

    def gathered(self, matrix: np.ndarray) -> np.ndarray:
        """This segment's cells of ``matrix`` (its ``props`` or ``lens``),
        one row per chunk row."""
        rows = self.rows()
        if rows is not None:
            matrix = matrix.take(rows, axis=0)
        if self.columns is not None:
            matrix = matrix.take(self.columns, axis=1)
        return matrix

    def column(self, index: int) -> np.ndarray:
        """The records of held column ``index``, one per chunk row."""
        if self.columns is not None:
            index = self.columns[index]
        rows = self.rows()
        return self.props[:, index] if rows is None else self.props[rows, index]

    def like(self, other: "Segment") -> bool:
        """Whether ``other`` reads the same columns of the same matrix the
        same way, so the two concatenate by their indexes."""
        return (
            self.props is other.props
            and self.locator is other.locator
            and (self.columns is None) == (other.columns is None)
            and (self.columns is None or np.array_equal(self.columns, other.columns))
        )


def record_segments(
    props: Optional[np.ndarray], prop_lens: Optional[np.ndarray]
) -> Tuple[Segment, ...]:
    """The segments of a record matrix a chunk owns: one, identity rows
    (none when it holds no record)."""
    if props is None or prop_lens is None or not props.size:
        return ()
    return (Segment(props, prop_lens),)


class EmbeddingChunk:
    """A batch of same-shape embeddings in columnar form.

    ``values`` is a ``uint64`` ``(count, columns)`` array; ``flags`` a
    ``uint8`` array of the same shape, or ``None`` when every entry is an
    id.  ``paths`` holds one ``(ids, lens)`` pair per PATH entry, in the
    order of the rows' ``path_data`` (``()`` when the shape has none):
    row ``r``'s path is ``ids[r, :lens[r]]`` — ``ids`` a ``uint64``
    matrix zero-padded to at least the widest path, ``lens`` the
    ``int64`` id counts.  A PATH column's value stays its §3.3 offset in
    the row's ``path_data``, the sum of the earlier entries' sizes.
    An id entry or path id is an ordinal of ``space`` (an
    :class:`~repro.epgm.indexed.OrdinalSpace`: what every chunk a graph's
    kernels make holds) or, with ``space`` ``None``, the id itself (a
    free-standing chunk, a worker's); :meth:`id_values`, :meth:`id_paths`
    and every decode to embeddings give ids either way.
    ``segments`` hold the property records, their columns in record order
    (:class:`Segment`): int row indexes into shared record matrices, not
    the records.  :attr:`props` gathers them into the record matrix — an
    ``object`` ``(count, k)`` array, cell ``[r, i]`` the ``bytes`` of row
    ``r``'s ``i``-th property record with its u16 length field — and
    :attr:`prop_lens` into the ``int32`` matrix of ``len(props[r, i])``;
    both are ``None`` exactly when the chunk holds no record (``k == 0``
    or no row).  Every row of a chunk holds the same PATH entries and
    ``k`` records, as every row a plan produces does.  Instances are
    immutable once built and may be shared between partitions (broadcast)
    without copying; arrays and record objects are shared between chunks,
    never copied.
    """

    __slots__ = (
        "count",
        "columns",
        "flags",
        "values",
        "paths",
        "segments",
        "space",
    )

    def __init__(
        self,
        values: np.ndarray,
        flags: Optional[np.ndarray] = None,
        paths: Paths = (),
        segments: Tuple[Segment, ...] = (),
        space: Optional[OrdinalSpace] = None,
    ) -> None:
        self.count, self.columns = values.shape
        self.flags = flags
        self.values = values
        self.paths = paths
        self.segments = segments
        self.space = space

    def _gathered(self, lens: bool) -> Optional[np.ndarray]:
        if not (self.count and self.segments):
            return None
        parts = [
            segment.gathered(segment.lens if lens else segment.props)
            for segment in self.segments
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    @property
    def props(self) -> Optional[np.ndarray]:
        """The record matrix, gathered from the segments (a new array, or
        a shared read-only one)."""
        return self._gathered(lens=False)

    @property
    def prop_lens(self) -> Optional[np.ndarray]:
        """The record lengths, gathered from the segments."""
        return self._gathered(lens=True)

    def record_column(self, index: int) -> np.ndarray:
        """The records of record column ``index``: an ``object`` array."""
        for segment in self.segments:
            if index < segment.width:
                return segment.column(index)
            index -= segment.width
        raise IndexError("record column out of range")

    def id_values(self) -> np.ndarray:
        """``values`` with every id entry the id itself: one gather of an
        ordinal chunk's, a free-standing chunk's as they are."""
        if self.space is None:
            return self.values
        return _entries_as(self.values, self.flags, self.space.ids_of)

    def id_paths(self) -> Paths:
        """``paths`` holding ids, like :meth:`id_values`."""
        if self.space is None:
            return self.paths
        return _paths_as(self.paths, self.space.ids_of)

    def in_space(self, space: Optional[OrdinalSpace]) -> "EmbeddingChunk":
        """This chunk with its ids as ordinals of ``space`` (``None``: as
        ids) — one search per array when ids enter a space."""
        if space is self.space:
            return self
        values, paths = self.id_values(), self.id_paths()
        if space is not None:
            values = _entries_as(values, self.flags, space.ordinals)
            paths = _paths_as(paths, space.ordinals)
        return EmbeddingChunk(values, self.flags, paths, self.segments, space)

    def id_buf(self) -> bytes:
        """The canonical §3.3 id bytes of all rows, concatenated."""
        entries = np.empty(self.count * self.columns, dtype=_ENTRY)
        entries["flag"] = FLAG_ID if self.flags is None else self.flags.ravel()
        entries["value"] = self.id_values().ravel()
        return entries.tobytes()

    def byte_size(self) -> int:
        """Total serialized size — equals the sum of per-row sizes."""
        size = self.count * self.columns * ENTRY_WIDTH
        size += int(_path_sizes(self.paths, self.count).sum())
        prop_lens = self.prop_lens
        if prop_lens is not None:
            size += int(prop_lens.sum())
        return size

    def row_sizes(self) -> np.ndarray:
        """Per-row serialized sizes."""
        sizes = self.columns * ENTRY_WIDTH + _path_sizes(self.paths, self.count)
        prop_lens = self.prop_lens
        if prop_lens is not None:
            for lengths in prop_lens.T:  # k is small: no axis-1 reduce
                sizes += lengths
        return sizes

    def to_embeddings(self) -> List[Embedding]:
        """Decode every row back to the exact per-record §3.3 layout."""
        id_buf = self.id_buf()
        width = self.columns * ENTRY_WIDTH
        count = self.count
        return list(
            map(
                Embedding,
                [id_buf[row * width:(row + 1) * width] for row in range(count)],
                _row_slices(*paths_to_bytes(self.id_paths(), count), count),
                _row_slices(*props_to_bytes(self.props, self.prop_lens), count),
            )
        )

    def take_paths(self, rows) -> Paths:
        """The paths of ``rows``: ids move, no byte does."""
        return tuple(
            (ids.take(rows, axis=0), lens.take(rows)) for ids, lens in self.paths
        )

    def take_segments(self, rows) -> Tuple[Segment, ...]:
        """The segments of ``rows``: row indexes move, no record does."""
        return tuple(segment.take(rows) for segment in self.segments)

    def gather(self, rows) -> "EmbeddingChunk":
        """A new chunk holding ``rows`` (in the given order).

        Row-relative path offsets make this pure indexing — no entry is
        unpacked or rewritten.
        """
        rows = np.asarray(rows, dtype=np.intp)
        return EmbeddingChunk(
            self.values.take(rows, axis=0),
            None if self.flags is None else self.flags.take(rows, axis=0),
            self.take_paths(rows),
            self.take_segments(rows),
            self.space,
        )

    def window(self, start: int, stop: int) -> "EmbeddingChunk":
        """Rows ``start`` to ``stop`` as views: no id or record is copied."""
        rows = slice(start, stop)
        return EmbeddingChunk(
            self.values[rows],
            None if self.flags is None else self.flags[rows],
            tuple((ids[rows], lens[rows]) for ids, lens in self.paths),
            tuple(segment.window(start, stop) for segment in self.segments),
            self.space,
        )

    def __repr__(self) -> str:
        return "EmbeddingChunk(%d rows x %d columns)" % (self.count, self.columns)


def _padded(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of ``matrices``, stacked, each zero-padded to the widest."""
    out = np.zeros(
        (sum(map(len, matrices)), max(matrix.shape[1] for matrix in matrices)),
        dtype=np.uint64,
    )
    row = 0
    for matrix in matrices:
        out[row:row + len(matrix), :matrix.shape[1]] = matrix
        row += len(matrix)
    return out


def concat_paths(entry: Sequence[PathMatrix]) -> PathMatrix:
    """One PATH entry holding the rows of the ``entry`` pairs, in order."""
    return _padded([ids for ids, _ in entry]), np.concatenate([lens for _, lens in entry])


def _concat_segments(chunks: Sequence[EmbeddingChunk]) -> Tuple[Segment, ...]:
    """The segments of ``chunks``' rows, in order.

    Segments that read one matrix alike concatenate their indexes; any
    other position (chunks whose records sit in different matrices — a
    pool's decoded frames, the parts of a multi-partition table) is
    gathered into a matrix of its own.
    """
    shapes = {tuple(segment.width for segment in chunk.segments) for chunk in chunks}
    if len(shapes) > 1:
        return record_segments(
            np.concatenate([chunk.props for chunk in chunks]),
            np.concatenate([chunk.prop_lens for chunk in chunks]),
        )
    segments = []
    for position in zip(*[chunk.segments for chunk in chunks]):
        first = position[0]
        if all(first.like(segment) for segment in position[1:]):
            segments.append(Segment(
                first.props, first.lens, first.columns,
                np.concatenate([
                    np.arange(chunk.count) if segment.index is None
                    else segment.index
                    for chunk, segment in zip(chunks, position)
                ]),
                first.locator,
            ))
        else:
            segments.extend(record_segments(
                np.concatenate([segment.gathered(segment.props) for segment in position]),
                np.concatenate([segment.gathered(segment.lens) for segment in position]),
            ))
    return tuple(segments)


def concat_chunks(chunks: Sequence[EmbeddingChunk]) -> EmbeddingChunk:
    """One chunk holding the rows of same-shape ``chunks``, in order."""
    if len(chunks) > 1:
        # a chunk without rows may lack the paths and records of the rest
        chunks = [chunk for chunk in chunks if chunk.count] or chunks[:1]
    if len(chunks) == 1:
        return chunks[0]
    flags = None
    if any(chunk.flags is not None for chunk in chunks):
        flags = np.concatenate([
            np.zeros(chunk.values.shape, dtype=np.uint8)
            if chunk.flags is None else chunk.flags
            for chunk in chunks
        ])
    return EmbeddingChunk(
        np.concatenate([chunk.values for chunk in chunks]),
        flags,
        tuple(map(concat_paths, zip(*[chunk.paths for chunk in chunks]))),
        _concat_segments(chunks),
        chunks[0].space,
    )


def chunk_from_embeddings(
    records: Sequence[Any], space: Optional[OrdinalSpace] = None
) -> Optional[EmbeddingChunk]:
    """Encode a batch of embeddings; ``None`` if the batch is not uniform.

    The chunk holds its ids as ordinals of ``space`` (one search per
    array), or as they are without one.

    Uniform means: non-empty, every record an :class:`Embedding`, every
    record with the same column count, the same number of property
    records and the same number of PATH entries, each ``path_data`` a
    well-formed sequence of them.  Other batches (e.g. expansion frontier
    tuples) return ``None`` and the caller stays on the per-record path.
    """
    count = len(records)
    if count == 0:
        return None
    first = records[0]
    if type(first) is not Embedding:
        return None
    width = len(first.id_data)
    columns, remainder = divmod(width, ENTRY_WIDTH)
    if remainder:
        return None
    for record in records:
        if type(record) is not Embedding or len(record.id_data) != width:
            return None
    paths = paths_from_bytes(*_concat([record.path_data for record in records]))
    if paths is None:
        return None
    props = props_from_bytes(*_concat([record.prop_data for record in records]))
    if props is None:
        return None
    values, flags = decode_entries(
        b"".join([record.id_data for record in records]), count, columns
    )
    return EmbeddingChunk(
        values, flags, paths, record_segments(*props)
    ).in_space(space)


# Column decode ---------------------------------------------------------------
#
# The result boundary: one decode per RETURN item per chunk, straight to
# the Python values a result row holds.  No ``Embedding`` is built.


def path_column(chunk: EmbeddingChunk, column: int) -> PathMatrix:
    """The ``(ids, lens)`` pair of the PATH entries in ``column``.

    The column's value names the entry: its offset in the row's
    ``path_data``, the sum of the earlier entries' sizes.
    """
    offsets = chunk.values[:, column].astype(np.int64)
    start = np.zeros(chunk.count, dtype=np.int64)
    for ids, lens in chunk.paths:
        if (offsets == start).all():
            return ids, lens
        start += PATH_COUNT_WIDTH + PATH_ID_WIDTH * lens
    raise ValueError("column %d is not one PATH entry of every row" % column)


def path_lists(paths: PathMatrix) -> List[List[int]]:
    """Each row's path as a list of ids."""
    ids, lens = paths
    if (lens == ids.shape[1]).all():
        return ids.tolist()
    return [row[:n] for row, n in zip(ids.tolist(), lens.tolist())]


# JSON rows ---------------------------------------------------------------------
#
# A large result batch whose every column is an id or a path is written as
# JSON by one byte matrix: row ``r`` of a ``uint8`` ``(rows, width)``
# matrix is row ``r``'s object, every field at a fixed offset, and every
# byte a field does not fill is NUL.  Compacting the matrix (``R[R != 0]``)
# is the text: JSON from ``json.dumps`` is ASCII and holds no NUL.  The
# matrix costs a few dozen numpy calls per batch whatever its size, so a
# small batch, like any batch with a property or aggregate value (text of
# any length, which a matrix would pad), is written by :func:`rows_json`.


def _quad_words() -> np.ndarray:
    """``(2, 20000)`` ``uint32``: word ``q`` of a table is quad ``q``'s four
    ASCII digits as a leading quad (NUL-padded: 7 is three NULs, then
    ``7``), word ``10000 + q`` as an inner one (zero-padded: ``0007``).
    In table 0 a leading 0 is blank, as an id's higher quads are; in
    table 1, an id's last quad, it is ``0``."""
    numbers = np.arange(10_000)
    inner = np.stack(
        [numbers // 1000 % 10, numbers // 100 % 10, numbers // 10 % 10, numbers % 10],
        axis=1,
    ).astype(np.uint8) + ord("0")
    leading = inner.copy()
    leading[(np.cumsum(inner != ord("0"), axis=1) == 0) & (np.arange(4) < 3)] = 0
    last = np.concatenate([leading, inner]).view(np.uint32).ravel()
    higher = last.copy()
    higher[0] = 0
    return np.stack([higher, last])


_QUAD_WORDS = _quad_words()
_QUAD = np.uint64(10_000)


def _digits(values: np.ndarray) -> np.ndarray:
    """``(n, width)`` ASCII: each id's decimal digits, right-aligned in as
    many bytes as the largest id has digits, NUL-padded on the left —
    by arithmetic, a division per quad of digits."""
    width = len(str(int(values.max())))
    quads = -(-width // 4)
    words = np.empty((len(values), quads), dtype=np.uint32)
    prefix = values  # the digits from this quad up
    for position in range(quads - 1, -1, -1):
        higher = prefix // _QUAD
        index = prefix - higher * _QUAD + (higher != 0) * _QUAD
        words[:, position] = _QUAD_WORDS[int(position == quads - 1)][index.view(np.intp)]
        prefix = higher
    return words.view(np.uint8)[:, 4 * quads - width:]


def _digit_words(space: OrdinalSpace) -> np.ndarray:
    """The space's digit table, made by :func:`_digits` on first use:
    row ``v`` is the decimal digits of id ``v`` right-aligned in whole
    ``uint64`` words, NUL-padded on the left (one word while every id has
    at most eight digits: then the table is one-dimensional)."""
    words = space.digit_words
    if words is None:
        digits = _digits(space.ids)
        width = -(-digits.shape[1] // 8) * 8
        table = np.zeros((len(digits), width), dtype=np.uint8)
        table[:, width - digits.shape[1]:] = digits
        words = table.view(np.uint64)
        if words.shape[1] == 1:
            words = words.ravel()
        # threads may race to fill it: each stores an equal table
        space.digit_words = words
    return words


def _id_digits(values: np.ndarray, space: Optional[OrdinalSpace]) -> np.ndarray:
    """What :func:`_digits` makes of the ids ``values`` stand for: with a
    ``space`` (``values`` its ordinals) one gather of its digit table;
    the width is exact, as ordinals follow id order."""
    if space is None:
        return _digits(values)
    width = len(str(int(space.ids[int(values.max())])))
    words = _digit_words(space)[values.view(np.intp)]
    return words.view(np.uint8).reshape(len(values), -1)[:, -width:]


IdColumn = Union[np.ndarray, PathMatrix]


def column_ids(column: IdColumn, space: Optional[OrdinalSpace]) -> IdColumn:
    """An id or path column of ``space``'s ordinals as ids (one gather;
    ``None``: it holds ids)."""
    if space is None:
        return column
    if isinstance(column, tuple):
        ids, lens = column
        return space.ids_of(ids), lens
    return space.ids_of(column)

#: the fewest rows a batch of ids and paths is written by
#: :func:`id_rows_json` with; below it :func:`rows_json` is faster.  In
#: rows, not cells: the matrix's fixed cost grows with its columns as the
#: interleaved writer's cost per row does, so for one to five columns the
#: two cross at ≈ 32–48 rows (with the digits one gather of the digit
#: table; ≈ 100–130 when they were arithmetic per cell)
ID_MATRIX_ROWS = 48


def id_rows_json(
    keys: Sequence[str],
    columns: Sequence[IdColumn],
    space: Optional[OrdinalSpace] = None,
) -> bytes:
    """The rows of a batch as JSON objects joined by ``", "``.

    ``keys`` are the JSON texts of the column names; a column is a
    ``uint64`` id array or a path's ``(ids, lens)`` pair, of ``space``'s
    ordinals (``None``: of ids).  Byte for byte what ``json.dumps``
    writes for the rows' dicts.
    """
    first = columns[0]
    count = len(first[1] if isinstance(first, tuple) else first)
    template = bytearray(b"{")
    fields: List[Tuple[int, np.ndarray]] = []  # (offset, digits) of every column
    for index, (key, column) in enumerate(zip(keys, columns)):
        template += b"%s%s: " % (b", " if index else b"", key.encode("ascii"))
        if isinstance(column, tuple):
            template += b"["
            digits = _path_digits(*column, space)
        else:
            digits = _id_digits(column, space)
        fields.append((len(template), digits))
        template += bytes(digits.shape[1])
        if isinstance(column, tuple):
            template += b"]"
    template += b"}, "
    matrix = np.empty((count, len(template)), dtype=np.uint8)
    matrix[:] = np.frombuffer(template, dtype=np.uint8)
    for start, digits in fields:
        matrix[:, start:start + digits.shape[1]] = digits
    return matrix[matrix != 0][:-2].tobytes()


def _path_digits(
    ids: np.ndarray, lens: np.ndarray, space: Optional[OrdinalSpace]
) -> np.ndarray:
    """``(count, width * (2 + digits))``: each id of a path behind its
    ``", "`` (none before the first), NUL past the path's length."""
    count, width = ids.shape
    if not width:
        return np.empty((count, 0), dtype=np.uint8)
    digits = _id_digits(ids.reshape(-1), space)
    entries = np.empty((count, width, 2 + digits.shape[1]), dtype=np.uint8)
    entries[:, :, 0], entries[:, :, 1] = ord(","), ord(" ")
    entries[:, 0, :2] = 0
    entries[:, :, 2:] = digits.reshape(count, width, -1)
    entries[np.arange(width) >= lens[:, None]] = 0
    return entries.reshape(count, -1)


class PropertyMemo(Dict[bytes, Any]):
    """Property record (length field included) → its raw value.

    One per decode of a record column: a first name is decoded once and
    every row holding it shares the object — and rows gathered from one
    resident element hold the very same record object, whose hash is
    cached.  Only scalars are kept — a list is mutable, so each row gets
    its own.
    """

    def __missing__(self, record: bytes) -> Any:
        value = PropertyValue.from_bytes(record, PROP_LEN_WIDTH)[0].raw()
        if type(value) is not list:
            self[record] = value
        return value


#: ``json.dumps(value, default=str)`` — engine objects such as a
#: :class:`GradoopId` as their ``str`` — without building an encoder per
#: call (which ``json.dumps`` does whenever ``default`` is given)
_dumps = json.JSONEncoder(default=str).encode


#: the record of NULL, length field included
NULL_RECORD = _PROP_LEN.pack(len(NULL_VALUE.to_bytes())) + NULL_VALUE.to_bytes()


def null_records(count: int) -> np.ndarray:
    """The record column of a property the embedding does not carry:
    ``count`` cells of one shared :data:`NULL_RECORD`."""
    column = np.empty(count, dtype=object)
    # not np.full: it converts through a bytes dtype, which drops the
    # record's trailing NUL
    column.fill(NULL_RECORD)
    return column


class RecordTexts(Dict[bytes, str]):
    """Property record (length field included) → its value's JSON text.

    One per graph a columnar run reads (a derived structure, dropped
    with the others), else one per result table.  Filled on first
    sight and keyed by the record's bytes, which encode the value, so a
    text is never stale.  Threads may fill it at once without a lock:
    each stores the same text under the same key, one store at a time.
    """

    def __missing__(self, record: bytes) -> str:
        text = _dumps(PropertyValue.from_bytes(record, PROP_LEN_WIDTH)[0].raw())
        self[record] = text  # unsynchronized: idempotent fill, one dict store
        return text

    @property
    def nbytes(self) -> int:
        """The table's and the texts' bytes; the record keys are the leaf
        tables' own objects, counted there."""
        texts = self.copy()  # one snapshot: a fill may run beside it
        return sys.getsizeof(self) + sum(map(sys.getsizeof, texts.values()))


#: a result column of one batch: a ``uint64`` id array, a path's
#: ``(ids, lens)`` pair, an ``object`` array of property records or a
#: list of values
Column = Union[List[Any], np.ndarray, PathMatrix]


def column_height(column: Column) -> int:
    """The number of rows of ``column``."""
    return len(column[1] if isinstance(column, tuple) else column)


def column_texts(
    column: Column, texts: RecordTexts, space: Optional[OrdinalSpace] = None
) -> List[str]:
    """The JSON text of each cell of ``column``: an id's and a path's
    ``str`` (ordinals of ``space`` mapped back), a record's text from
    ``texts``, any other value's dump."""
    if isinstance(column, tuple):
        return list(map(str, path_lists(column_ids(column, space))))
    if isinstance(column, np.ndarray):
        if column.dtype == object:
            return list(map(texts.__getitem__, column.tolist()))
        return list(map(str, column_ids(column, space).tolist()))
    return list(map(_dumps, column))


def rows_json(
    keys: Sequence[str],
    columns: Sequence[Column],
    texts: RecordTexts,
    space: Optional[OrdinalSpace] = None,
) -> bytes:
    """The rows of a batch as JSON objects joined by ``", "``, written by
    interleaving ready texts.

    ``keys`` are the JSON texts of the column names.  One flat list holds
    every row's ``2k + 1`` strings — each column's key head, then its
    cell, then the row's closer: one list repetition lays down the heads
    and closers, one extended-slice assignment per column its cells, and
    one join writes the text.  Byte for byte what ``json.dumps`` writes
    for the rows' dicts.
    """
    row: List[str] = []
    for index, key in enumerate(keys):
        row += [(", %s: " if index else "{%s: ") % key, ""]
    row.append("}, ")
    stride = len(row)
    cells = row * column_height(columns[0])
    for index, column in enumerate(columns):
        cells[2 * index + 1::stride] = column_texts(column, texts, space)
    cells[-1] = "}"
    return "".join(cells).encode("ascii")


class ColumnarPartition:
    """A partition stored as a list of chunks, decoding lazily.

    Quacks like the list of embeddings it encodes: ``len``, iteration,
    indexing and slicing all work (decoding at most once, cached), so
    every operator without a columnar kernel reads it transparently.  The
    dataflow layer recognizes columnar partitions by their ``chunks``
    attribute; ``DataSet.batches`` drains that list chunk by chunk, so a
    result never exists in both forms.
    """

    __slots__ = ("chunks", "_rows")

    def __init__(self, chunks: Sequence[EmbeddingChunk]) -> None:
        self.chunks = list(chunks)
        self._rows: Optional[List[Embedding]] = None

    def rows(self) -> List[Embedding]:
        rows = self._rows
        if rows is None:
            rows = []
            for chunk in self.chunks:
                rows.extend(chunk.to_embeddings())
            self._rows = rows
        return rows

    def byte_size(self) -> int:
        return sum(chunk.byte_size() for chunk in self.chunks)

    def __len__(self) -> int:
        return sum(chunk.count for chunk in self.chunks)

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self.rows())

    def __getitem__(self, item: Any) -> Any:
        return self.rows()[item]

    def __repr__(self) -> str:
        return "ColumnarPartition(%d chunks, %d rows)" % (
            len(self.chunks),
            len(self),
        )


# Kernels ---------------------------------------------------------------------
#
# A *chunk kernel* is ``EmbeddingChunk -> EmbeddingChunk``; the *leaf kernel*
# is ``list[element] -> EmbeddingChunk``.  All kernels are semantically
# identical to the per-record closures they are declared beside — the
# decoded output of the kernel equals the per-record outputs byte-for-byte,
# in the same order — which the columnar-vs-per-record differential suite
# pins.


class ChunkRowBindings:
    """CNF bindings over one chunk row (no Embedding materialization).

    ``records`` is the row of the chunk's record matrix: a property read
    decodes ``records[index]`` in place, no length field is walked.
    """

    __slots__ = ("chunk", "row", "_prop_indexes", "_id_columns", "_records")

    def __init__(self, chunk, row, prop_indexes, id_columns, records):
        self.chunk = chunk
        self.row = row
        self._prop_indexes = prop_indexes
        self._id_columns = id_columns
        self._records = records

    def property_value(self, variable, key):
        index = self._prop_indexes.get((variable, key))
        if index is None:
            return NULL_VALUE
        return PropertyValue.from_bytes(self._records[index], PROP_LEN_WIDTH)[0]

    def label(self, variable):
        raise KeyError(
            "label of %r is not available after the leaf operators" % variable
        )

    def element_id(self, variable):
        column = self._id_columns.get(variable)
        if column is None:
            raise KeyError("variable %r not in embedding" % variable)
        chunk = self.chunk
        value = int(chunk.values[self.row, column])
        if chunk.space is not None:
            value = int(chunk.space.ids[value])
        return GradoopId(value)


def select_kernel(evaluate, meta):
    """Chunk kernel of ``SelectEmbeddings``: keep rows satisfying the CNF."""
    prop_indexes = {
        pair: index for index, pair in enumerate(meta.property_entries())
    }
    id_columns = {
        variable: meta.entry_column(variable)
        for variable in meta.variables
        if meta.entry_kind(variable) != "p"
    }

    def kernel(chunk):
        props = chunk.props
        rows = [()] * chunk.count if props is None else props.tolist()
        kept = [
            row
            for row, records in enumerate(rows)
            if evaluate(
                ChunkRowBindings(chunk, row, prop_indexes, id_columns, records)
            )
        ]
        if len(kept) == chunk.count:
            return chunk
        return chunk.gather(kept)

    return kernel


def project_kernel(keep_indices):
    """Chunk kernel of ``ProjectEmbeddings``: keep record columns — each
    kept run of one segment's columns stays that segment, narrowed."""
    keep = tuple(keep_indices)

    def kernel(chunk):
        if not chunk.segments:
            return chunk
        owners = [
            (segment, column)
            for segment in chunk.segments
            for column in (
                range(segment.width) if segment.columns is None
                else segment.columns.tolist()
            )
        ]
        runs: List[Tuple[Segment, List[int]]] = []
        for index in keep:
            segment, column = owners[index]
            if runs and runs[-1][0] is segment:
                runs[-1][1].append(column)
            else:
                runs.append((segment, [column]))
        return EmbeddingChunk(chunk.values, chunk.flags, chunk.paths, tuple(
            Segment(
                segment.props, segment.lens,
                None if columns == list(range(segment.props.shape[1]))
                else np.array(columns, dtype=np.intp),
                segment.index, segment.locator,
            )
            for segment, columns in runs
        ), chunk.space)

    return kernel


def _property_records(element, keys) -> List[bytes]:
    """``element``'s §3.3 property records for ``keys``, one object each."""
    records = []
    for key in keys:
        value = element.get_property(key)
        if not isinstance(value, PropertyValue):
            value = PropertyValue(value)
        payload = value.to_bytes()
        records.append(_PROP_LEN.pack(len(payload)) + payload)
    return records


#: the (immutable, hence shared) empty chunk of each leaf width
_EMPTY_LEAVES = {
    columns: EmbeddingChunk(np.empty((0, columns), dtype=np.uint64))
    for columns in (1, 2, 3)
}


#: a scanning select polls the deadline once per this many elements
_SCAN_ROWS = 4096


class VertexLocator:
    """A vertex leaf table's rows by vertex ordinal.

    ``chunk`` holds every row of the table — its one part, or its parts
    concatenated (records gathered into one matrix: only a pool's
    multi-partition tables) — its records in identity-row segments.
    ``row_of[v - low]`` is the row of vertex ordinal ``v``, -1 where the
    table holds none; it spans the rows' ordinals, padded by one -1 on
    either side, onto which every ordinal outside the span is clipped.
    A vertex lookup indexes it instead of sorting its leaf per execution,
    and an ordinal-indexed :class:`Segment` resolves through it.
    """

    __slots__ = ("chunk", "low", "row_of", "nbytes")

    def __init__(self, chunks):
        self.chunk = chunk = concat_chunks(chunks)
        ordinals = chunk.values[:, 0].view(np.intp)
        low = int(ordinals.min()) if chunk.count else 0
        self.low = low - 1
        self.row_of = np.full(
            int(ordinals.max()) - low + 3 if chunk.count else 2, -1, dtype=np.int32
        )
        self.row_of[ordinals - self.low] = np.arange(chunk.count)
        self.nbytes = self.row_of.nbytes
        if chunk not in chunks:
            # its own arrays; the record objects are the parts'
            self.nbytes += chunk.values.nbytes + sum(
                segment.props.nbytes + segment.lens.nbytes
                for segment in chunk.segments
            )
        for array in (self.row_of, chunk.values):
            array.setflags(write=False)

    def find(self, ordinals) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, hit)``: the row of each of ``ordinals`` (-1 where
        ``hit`` is false) and whether the table holds it."""
        rows = self.row_of[np.clip(
            ordinals.view(np.intp) - self.low, 0, len(self.row_of) - 1
        )]
        return rows, rows >= 0

    def rows(self, ordinals) -> np.ndarray:
        """The row of each of ``ordinals``, every one of which the table
        holds."""
        return self.row_of[ordinals.view(np.intp) - self.low]

    def holds(self, ordinals) -> bool:
        """Whether the table holds every one of ``ordinals``."""
        return bool(self.find(ordinals)[1].all())

    def by_id(self, ordinals) -> Tuple[Segment, ...]:
        """The table's record segments for rows whose vertex ordinals are
        ``ordinals``, resolved by their first reader."""
        return tuple(
            Segment(segment.props, segment.lens, segment.columns, ordinals, self)
            for segment in self.chunk.segments
        )


class LeafTable:
    """The resident, unfiltered rows of one leaf.

    One ``(chunk, first)`` per source partition, in the order the label
    dataset(s) deliver elements: ``chunk`` holds every row the leaf can
    emit — ids in column order under its orientation rules, the §3.3
    records of its property keys in one segment of identity rows — and
    element ``i`` owns rows ``first[i]`` to ``first[i + 1]`` (``first``
    is ``None`` when that is row ``i`` alone).  Nothing a request binds
    is in here.  The record objects built here are the ones every chunk
    of every request points at; ``nbytes`` counts the arrays and each
    distinct record once.  A vertex leaf's table (one row per vertex)
    also keeps its :class:`VertexLocator`, ``located``.
    """

    __slots__ = ("parts", "located", "nbytes")

    def __init__(self, parts, located=False):
        self.parts = parts
        self.nbytes = 0
        for chunk, first in parts:
            arrays = [chunk.values, first]
            for segment in chunk.segments:
                arrays += [segment.props, segment.lens]
                # the rows of one element share its record objects
                records = {
                    id(record): record
                    for record in segment.props.ravel().tolist()
                }
                self.nbytes += sum(map(sys.getsizeof, records.values()))
            for array in arrays:
                if array is not None:
                    array.setflags(write=False)
                    self.nbytes += array.nbytes
        self.located = None
        if located:
            self.located = VertexLocator([chunk for chunk, _ in parts])
            self.nbytes += self.located.nbytes


class LeafPartition(ColumnarPartition):
    """A leaf's output partition: its chunks, and the resident
    :class:`LeafTable` they were gathered from (``None`` in the
    partitions a shuffle re-splits them into)."""

    __slots__ = ("table",)

    def __init__(
        self, chunks: Sequence[EmbeddingChunk], table: Optional[LeafTable] = None
    ) -> None:
        super().__init__(chunks)
        self.table = table


def value_index(partitions, key, token=None):
    """Per partition: property value → the positions of the elements
    holding it under ``key``.  Keyed by :class:`PropertyValue`, whose
    ``==`` / ``hash`` are the ``=`` atom's own, so a lookup returns every
    element the atom accepts (never fewer); NULL equals nothing and is
    not indexed."""
    index = []
    for elements in partitions:
        if token is not None:
            token.poll()
        positions: Dict[PropertyValue, List[int]] = {}
        for position, element in enumerate(elements):
            value = element.get_property(key)
            if not value.is_null:
                positions.setdefault(value, []).append(position)
        index.append(positions)
    return index


class ColumnarLeaf:
    """Compiled columnar leaf: *select* elements, then *encode* them.

    ``select`` runs the compiled CNF ``keep`` (all of it, on every
    candidate; ``None``: no predicate) over one partition's elements and
    returns the survivors' positions; ``encode`` turns elements into the
    leaf's chunk.  The encode half runs once, over everything, into a
    :class:`LeafTable` the graph (``tables``) keeps, and a request gathers
    its survivors' rows from it; its candidates are all elements (no
    predicate: the resident chunk itself is the answer), the hits of a
    :func:`value_index` (``probe``, the CNF's ``key = value`` clause), or
    a scan.  ``exact``: that clause is the whole CNF, so the hits are the
    survivors and nothing is re-checked.
    ``orient(element)`` is the id tuples the element emits, in order.
    """

    __slots__ = ("tables", "key", "variable", "keep", "probe", "exact",
                 "outcome", "orient", "columns", "keys")

    def __init__(self, tables, key, variable, keep, probe, exact, orient,
                 columns, keys):
        self.tables = tables
        #: what the table is a function of, beside the graph
        self.key = key
        self.variable = variable
        self.keep = keep
        self.probe = probe
        self.exact = exact
        self.outcome = (
            "all_rows" if keep is None
            else "scans" if probe is None else "probes"
        )
        self.orient = orient
        self.columns = columns
        self.keys = tuple(keys)

    def encode(self, elements):
        """``(chunk, first)`` of ``elements`` (see :class:`LeafTable`),
        ids as they are."""
        orient, keys = self.orient, self.keys
        values: List[int] = []
        cells: List[bytes] = []
        first = [0]
        rows = 0
        for element in elements:
            records = _property_records(element, keys)
            for ids in orient(element):
                values.extend(ids)
                cells.extend(records)
                rows += 1
            first.append(rows)
        if not rows:
            # most partitions of a small or selectively scanned label
            chunk = _EMPTY_LEAVES[self.columns]
        else:
            chunk = EmbeddingChunk(
                np.array(values, dtype=np.uint64).reshape(rows, self.columns),
                segments=record_segments(
                    np.array(cells, dtype=object).reshape(rows, len(keys)),
                    np.fromiter(
                        map(len, cells), np.int32, len(cells)
                    ).reshape(rows, len(keys)),
                ),
            )
        offsets = np.array(first, dtype=np.int64)
        return chunk, None if (np.diff(offsets) == 1).all() else offsets

    def select(self, elements, candidates, token):
        """The positions among ``candidates`` (``None``: all) whose
        element satisfies the CNF, ascending."""
        keep, variable = self.keep, self.variable
        if candidates is not None:
            if self.exact:
                # the index's ``==`` / ``hash`` are the ``=`` atom's own
                return candidates
            return [
                position for position in candidates
                if keep(ElementBindings(variable, elements[position]))
            ]
        kept: List[int] = []
        for start in range(0, len(elements), _SCAN_ROWS):
            if token is not None:
                token.poll()
            kept.extend(
                position
                for position, element in enumerate(
                    elements[start:start + _SCAN_ROWS], start
                )
                if keep(ElementBindings(variable, element))
            )
        return kept

    def run(self, partitions, token):
        """One :class:`LeafPartition` per partition of elements."""
        tables = self.tables
        space = tables.ordinal_space()

        def build():
            parts = []
            for elements in partitions:
                chunk, first = self.encode(elements)
                # the table holds ordinals: one search per part, once
                parts.append((chunk.in_space(space), first))
                # a build that outlived the deadline is abandoned
                if token is not None:
                    token.poll()
            # a vertex leaf's rows are what vertex lookups search
            return LeafTable(parts, located=self.columns == 1)

        # one part per partition: a run of another count reads its own table
        count = (len(partitions),)
        table = tables.resident(("table",) + self.key + count, build, self.outcome)
        chunks = [chunk for chunk, _ in table.parts]
        if self.outcome != "all_rows":
            chunks = self._selected(table.parts, partitions, count, token)
        return [
            LeafPartition([chunk] if chunk.count else [], table)
            for chunk in chunks
        ]

    def _selected(self, parts, partitions, count, token):
        """Each part's rows whose element satisfies the CNF."""
        hits = [None] * len(partitions)
        if self.probe is not None:
            prop_key, value = self.probe
            value = value()
            if value.is_null:
                return [_EMPTY_LEAVES[self.columns]] * len(partitions)
            index = self.tables.resident(
                ("index",) + self.key[:2] + (prop_key,) + count,
                lambda: value_index(partitions, prop_key, token),
            )
            hits = [positions.get(value, ()) for positions in index]
        return [
            self._gather(chunk, first, len(elements), self.select(
                elements, candidates, token
            ))
            for (chunk, first), elements, candidates
            in zip(parts, partitions, hits)
        ]

    def _gather(self, chunk, first, count, positions):
        """The rows of ``chunk`` the elements at ``positions`` own."""
        if len(positions) == count:
            return chunk
        if not positions:
            return _EMPTY_LEAVES[self.columns]
        rows = np.array(positions, dtype=np.intp)
        if first is not None:
            starts = first[rows]
            counts = first[rows + 1] - starts
            ends = np.cumsum(counts)
            rows = np.arange(ends[-1]) + np.repeat(
                starts - (ends - counts), counts
            )
        return chunk.gather(rows)


# Shuffle ---------------------------------------------------------------------


def _splitmix64(z):
    """Vectorized splitmix64 finalizer over a uint64 array (wrapping)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_keys(values, key_columns):
    """Each row's :func:`repro.dataflow.partitioner.stable_hash` of its key.

    Vectorizes the exact arithmetic — int keys through the splitmix64
    finalizer, tuple keys through the chained accumulator.
    """
    if len(key_columns) == 1:
        return _splitmix64(values[:, key_columns[0]])
    hashed = np.full(len(values), 0x345678, dtype=np.uint64)
    for column in key_columns:
        hashed = _splitmix64(hashed ^ _splitmix64(values[:, column]))
    return hashed


def shuffle_split(chunks, key_columns, parallelism, source):
    """Split one partition's chunks by join-key hash, without decoding.

    Returns ``(splits, moved_records, moved_bytes, bytes_in)``:
    ``splits[target]`` is the list of chunks routed to ``target`` (rows
    in input order, gathered by indexing).  The key hash runs vectorized
    over the raw key column(s) (:func:`_hash_keys`), so placement matches
    the per-record shuffle bit for bit.  Byte accounting is identical too
    — per-row serialized sizes, cross-worker moves only.  The dataflow
    layer's ``split_partition`` calls it for a columnar partition, in
    process and in a worker alike.
    """
    key_columns = tuple(key_columns)
    out_chunks: List[List[EmbeddingChunk]] = [[] for _ in range(parallelism)]
    moved_records = 0
    moved_bytes = 0
    bytes_in = [0] * parallelism
    for chunk in chunks:
        # placed by id, as a per-record partition's rows are
        keys, columns = chunk.values, key_columns
        if chunk.space is not None:
            keys = chunk.space.ids_of(keys[:, key_columns])
            columns = tuple(range(len(key_columns)))
        targets = (
            _hash_keys(keys, columns) % np.uint64(parallelism)
        ).astype(np.intp)
        moved = targets != source
        moved_count = int(np.count_nonzero(moved))
        if moved_count:
            moved_records += moved_count
            # float weights are exact below 2**53
            received = np.bincount(
                targets[moved],
                weights=chunk.row_sizes()[moved],
                minlength=parallelism,
            )
            for target in range(parallelism):
                bytes_in[target] += int(received[target])
            moved_bytes += int(received.sum())
        for target in range(parallelism):
            rows = np.nonzero(targets == target)[0]
            if rows.size == chunk.count:
                out_chunks[target].append(chunk)
            elif rows.size:
                out_chunks[target].append(chunk.gather(rows))
    return out_chunks, moved_records, moved_bytes, bytes_in


# Hash join -------------------------------------------------------------------


#: probe chunks are merged into runs of at least this many rows, so a
#: kernel never probes slivers at a fixed numpy cost apiece, and larger
#: chunks are cut to it, so one that polls once a run polls this often
_PROBE_ROWS = 4096
#: ... and matches are merged about this many output rows at a time, which
#: bounds every array a high-fan-out join builds along the way
_OUTPUT_ROWS = 4096


def _probe_runs(chunks) -> Iterator[EmbeddingChunk]:
    run: List[EmbeddingChunk] = []
    rows = 0
    for chunk in chunks:
        for start in range(0, chunk.count, _PROBE_ROWS):
            cut = chunk.count > _PROBE_ROWS
            piece = chunk.window(start, start + _PROBE_ROWS) if cut else chunk
            run.append(piece)
            rows += piece.count
            if rows >= _PROBE_ROWS:
                yield concat_chunks(run)
                run, rows = [], 0
    if run:
        yield concat_chunks(run)


def _fan_out(base, counts, token=None):
    """The ``(row, position)`` pairs in which row ``i`` meets positions
    ``base[i]`` to ``base[i] + counts[i]``, in order, about ``_OUTPUT_ROWS``
    pairs a slice (whole rows) and one deadline poll each."""
    ends = np.cumsum(counts)
    start = done = 0
    while start < len(counts):
        if token is not None:
            token.poll()
        reach = np.searchsorted(ends, done + _OUTPUT_ROWS, "right")
        stop = max(start + 1, int(reach))
        total = int(ends[stop - 1]) - done
        if total:
            sliced = counts[start:stop]
            # a pair's position: its row's base plus its rank in the row
            first = ends[start:stop] - sliced - done
            yield (
                np.repeat(np.arange(start, stop), sliced),
                np.arange(total) + np.repeat(base[start:stop] - first, sliced),
            )
        start, done = stop, done + total


def _all_distinct(column, watches, kept=None):
    """``kept`` and: within every watch list the columns ``column(i)``
    yields differ pairwise, row by row (``None``: nothing to check)."""
    for watch in watches:
        for i, a in enumerate(watch):
            for b in watch[i + 1:]:
                distinct = column(a) != column(b)
                kept = distinct if kept is None else kept & distinct
    return kept


class ColumnarJoinSpec:
    """Compiled columnar hash-join: key columns, merge shape, morphism.

    Exists for path-free join shapes and for PATH columns on one side
    only (see :func:`columnar_join_spec`; other PATH-bearing shapes fall
    back to the per-record merge, which rewrites offsets).  ``vertex_columns``
    / ``edge_columns`` are the merged-layout columns each isomorphism
    strategy watches — empty when the check is vacuous, mirroring
    :func:`repro.engine.morphism.compile_morphism_check`.
    """

    __slots__ = (
        "left_count",
        "left_columns",
        "right_columns",
        "keep_columns",
        "vertex_columns",
        "edge_columns",
    )

    def __init__(
        self,
        left_count,
        left_columns,
        right_columns,
        keep_columns,
        vertex_columns,
        edge_columns,
    ):
        self.left_count = left_count
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.keep_columns = keep_columns
        self.vertex_columns = vertex_columns
        self.edge_columns = edge_columns

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def hash_join(self, build_chunks, probe_chunks, build_is_left, token=None):
        """Join two chunk lists; returns the output chunks.

        The build side is stable-sorted by key once and its runs of equal
        keys tabled (:func:`key_runs`); every run of probe chunks finds
        its match ranges with one search of the distinct keys and gathers
        both sides' rows by ``repeat``-expanded indexes
        (:func:`_fan_out`).  Output rows
        therefore appear in exactly the order of the per-record
        ``hash_join`` loop: probe rows in input order, each matched
        against build rows in build-insertion order.
        """
        build_chunks = [chunk for chunk in build_chunks if chunk.count]
        if not build_chunks:
            return []
        build = concat_chunks(build_chunks)
        build_columns = self.left_columns if build_is_left else self.right_columns
        probe_columns = self.right_columns if build_is_left else self.left_columns
        # one id column joins on the id itself; several join on the rows'
        # stable hash and drop the (astronomically rare) collisions after
        exact = len(build_columns) == 1
        if exact:
            build_keys = build.values[:, build_columns[0]]
        else:
            build_keys = _hash_keys(build.values, build_columns)
        order = np.argsort(build_keys, kind="stable")
        runs = key_runs(build_keys[order])
        out_chunks = []
        for probe in _probe_runs(probe_chunks):
            if exact:
                probe_keys = probe.values[:, probe_columns[0]]
            else:
                probe_keys = _hash_keys(probe.values, probe_columns)
            for probe_rows, position in _fan_out(*match_runs(runs, probe_keys), token):
                sides = [(build, order[position]), (probe, probe_rows)]
                if not build_is_left:
                    sides.reverse()
                chunk = self._merge(*sides, check_keys=not exact)
                if chunk is not None:
                    out_chunks.append(chunk)
        return out_chunks

    def _merge(self, left_side, right_side, check_keys):
        """The output chunk of matched ``(chunk, rows)`` sides."""
        left_chunk, left_rows = left_side
        right_chunk, right_rows = right_side
        left, right = left_chunk.values, right_chunk.values
        left_count = self.left_count
        keep = np.array(self.keep_columns, dtype=np.intp)

        def column(index):
            """Column ``index`` of the merged rows, unmaterialized."""
            if index < left_count:
                return left[left_rows, index]
            return right[right_rows, keep[index - left_count]]

        # the row mask: hash collisions of multi-column keys out, then
        # pairwise distinctness of the watched merged columns
        kept = None
        if check_keys:
            kept = (
                left.take(left_rows, axis=0)[:, self.left_columns]
                == right.take(right_rows, axis=0)[:, self.right_columns]
            ).all(axis=1)
        kept = _all_distinct(
            column, (self.vertex_columns, self.edge_columns), kept
        )
        if kept is not None and not kept.all():
            left_rows = left_rows[kept]
            right_rows = right_rows[kept]
            if not left_rows.size:
                return None
        # whole-row takes, then the kept columns: a row or a broadcast
        # (rows, keep) index into a matrix costs several times as much
        merged = np.empty(
            (left_rows.size, left_count + keep.size), dtype=np.uint64
        )
        merged[:, :left_count] = left.take(left_rows, axis=0)
        merged[:, left_count:] = right.take(right_rows, axis=0)[:, keep]
        flags = None
        if left_chunk.flags is not None or right_chunk.flags is not None:
            flags = np.zeros(merged.shape, dtype=np.uint8)
            if left_chunk.flags is not None:
                flags[:, :left_count] = left_chunk.flags.take(left_rows, axis=0)
            if right_chunk.flags is not None:
                flags[:, left_count:] = right_chunk.flags.take(right_rows, axis=0)[:, keep]
        # a PATH-bearing side — only ever one (columnar_join_spec), so its
        # entries' row-relative offsets hold in the merged rows
        paths = left_chunk.take_paths(left_rows) + right_chunk.take_paths(right_rows)
        # each output row's records: its left row's, then its right row's
        segments = (
            left_chunk.take_segments(left_rows) + right_chunk.take_segments(right_rows)
        )
        return EmbeddingChunk(merged, flags, paths, segments, left_chunk.space)


# Expand ----------------------------------------------------------------------


def _distinct(candidates, values, rows, columns, path_ids):
    """Per candidate: it differs from ``values[rows, c]`` for every watched
    column ``c`` and from every id in its row of ``path_ids``."""
    keep = np.ones(len(candidates), dtype=bool)
    for column in columns:
        keep &= values[rows, column] != candidates
    if path_ids.shape[1]:
        keep &= (path_ids != candidates[:, None]).all(axis=1)
    return keep


class ColumnarExpandSpec:
    """Compiled chunk kernel of ``ExpandEmbeddings`` over a resident
    :class:`~repro.epgm.indexed.Adjacency`.

    The supersteps of the reference dataflow — the same morphism checks
    on every extension, the same emission rule (closing / bound end /
    zero hop), the same frontier after every superstep — with a hop as an
    offsets lookup and a ``repeat`` fan-out instead of a shuffle
    of the edge relation.  A frontier *piece* is ``(chunk, origin, ends,
    path)``: row ``i`` left input row ``origin[i]`` of ``chunk``, walked
    ``path[i]`` (``e1, v1, e2, ..., ek``, equally long in every row) and
    stands at ``ends[i]``.  ``vertex_columns`` / ``edge_columns`` are the
    input's id columns an isomorphism strategy watches, ``None`` under
    homomorphism; an input PATH column is carried, never read.
    """

    def __init__(self, adjacency, start_column, end_column, vertex_columns,
                 edge_columns, lower, upper, reverse):
        self.adjacency = adjacency
        self.start_column = start_column
        #: the bound far endpoint of a closing expansion, else ``None``
        self.end_column = end_column
        self.vertex_columns = vertex_columns
        self.edge_columns = edge_columns
        self.lower = lower
        self.upper = upper
        self.reverse = reverse

    def start(self, chunks, emitted):
        """The zero-hop pieces of one partition's chunks (their emissions,
        when the lower bound is 0, are appended to ``emitted``)."""
        pieces = [
            (chunk, np.arange(chunk.count), chunk.values[:, self.start_column],
             np.empty((chunk.count, 0), dtype=np.uint64))
            for chunk in _probe_runs(chunks)
        ]
        if self.lower == 0:
            for piece in pieces:
                self._emit(piece, emitted)
        return pieces

    def hop(self, piece, emit, edge_mask, token, emitted):
        """The pieces one hop beyond ``piece``; with ``emit``, their result
        chunks are appended to ``emitted``."""
        chunk, origin, ends, path = piece
        if path.shape[1] and self.vertex_columns is not None:
            # the previous end becomes path-internal: it must be new
            fresh = _distinct(
                ends, chunk.values, origin, self.vertex_columns, path[:, 1::2]
            )
            origin, ends, path = origin[fresh], ends[fresh], path[fresh]
        pieces = []
        for rows, position in _fan_out(
            *self.adjacency.neighbours(ends), token
        ):
            extended = self._extend(
                chunk, origin, ends, path, rows, position, edge_mask
            )
            if len(extended[1]):
                pieces.append(extended)
                if emit:
                    self._emit(extended, emitted)
        return pieces

    def _extend(self, chunk, origin, ends, path, rows, position, edge_mask):
        """The admissible extensions among candidate ``position``s of the
        adjacency, each continuing frontier row ``rows[i]``."""
        adjacency = self.adjacency
        keep = None
        if edge_mask is not None:
            keep = edge_mask[adjacency.edge_rows[position]]
        if self.edge_columns is not None:
            distinct = _distinct(
                adjacency.edge_ids[position], chunk.values, origin[rows],
                self.edge_columns, path[rows, 0::2],
            )
            keep = distinct if keep is None else keep & distinct
        if keep is not None and not keep.all():
            rows, position = rows[keep], position[keep]
        length = path.shape[1]
        new_path = np.empty(
            (len(rows), length + 1 + bool(length)), dtype=np.uint64
        )
        if length:
            new_path[:, :length] = path.take(rows, axis=0)
            new_path[:, length] = ends[rows]
        new_path[:, -1] = adjacency.edge_ids[position]
        return chunk, origin[rows], adjacency.targets[position], new_path

    def _emit(self, piece, emitted):
        """Append the result chunk of ``piece``'s admissible paths."""
        chunk, origin, ends, path = piece
        closing = self.end_column is not None
        keep = None
        if closing:
            keep = ends == chunk.values[origin, self.end_column]
        elif self.vertex_columns is not None:
            keep = _distinct(
                ends, chunk.values, origin, self.vertex_columns, path[:, 1::2]
            )
        if keep is not None and not keep.all():
            origin, ends, path = origin[keep], ends[keep], path[keep]
        count, hops = path.shape
        if not count:
            return
        paths = chunk.take_paths(origin)
        columns = chunk.columns
        values = np.zeros((count, columns + 2 - closing), dtype=np.uint64)
        values[:, :columns] = chunk.values.take(origin, axis=0)
        # the walked path becomes the rows' last PATH entry: its value is
        # the length of the path_data before it
        values[:, columns] = _path_sizes(paths, count)
        flags = np.zeros(values.shape, dtype=np.uint8)
        if chunk.flags is not None:
            flags[:, :columns] = chunk.flags.take(origin, axis=0)
        flags[:, columns] = FLAG_PATH
        if not closing:
            values[:, -1] = ends
        walked = (path[:, ::-1] if self.reverse else path,
                  np.full(count, hops, dtype=np.int64))
        emitted.append(EmbeddingChunk(
            values, flags, paths + (walked,), chunk.take_segments(origin),
            chunk.space,
        ))


# Adjacency join --------------------------------------------------------------

#: output columns of an adjacency join that no input column feeds
EDGE_ID, FAR_END = -1, -2


class ColumnarAdjacencyJoin:
    """Compiled chunk kernel of ``JoinEmbeddings(x, SelectAndProjectEdges)``
    over a resident :class:`~repro.epgm.indexed.Adjacency`: the rows the
    hash join of ``x`` with the edge leaf produces, without the leaf.

    A join on one endpoint *hops* from input column ``near``; one on both
    *probes* a :class:`~repro.epgm.indexed.PairIndex` with ``(near, far)``.
    ``columns`` feeds each output column: an input column, :data:`EDGE_ID`
    or :data:`FAR_END`; ``spec`` (the hash join's) names the watched ones.
    """

    __slots__ = ("adjacency", "near", "far", "take", "fresh",
                 "edge_position", "far_position", "watches")

    def __init__(self, adjacency, near, far, columns, spec):
        self.adjacency = adjacency
        self.near = near
        #: the bound far endpoint of a closing join, else ``None``
        self.far = far
        self.take = np.maximum(columns, 0).astype(np.intp)
        self.fresh = [at for at, feed in enumerate(columns) if feed < 0]
        self.edge_position = columns.index(EDGE_ID)
        self.far_position = columns.index(FAR_END) if far is None else None
        self.watches = (spec.vertex_columns, spec.edge_columns)

    def run(self, chunks, pairs, edge_mask, token):
        """One partition's output chunks; ``pairs``: a closing join's."""
        out = []
        for probe in _probe_runs(chunks):
            near = probe.values[:, self.near]
            if pairs is None:
                found = self.adjacency.neighbours(near)
            else:
                found = pairs.matches(near, probe.values[:, self.far])
            kept, size = [], 0
            for rows, position in _fan_out(*found, token):
                if pairs is not None:
                    position = pairs.order[position]
                keep = self._admissible(probe.values, rows, position, edge_mask)
                if keep is not None and not keep.all():
                    rows, position = rows[keep], position[keep]
                kept.append((rows, position))
                size += len(rows)
                if size >= _OUTPUT_ROWS:
                    out.append(self._merge(probe, kept))
                    kept, size = [], 0
            if size:
                out.append(self._merge(probe, kept))
        # merged across slices and runs: a selective join would emit
        # slivers, and every chunk costs its consumers a fixed amount
        return list(_probe_runs(out))

    def _admissible(self, values, rows, position, edge_mask):
        """Per candidate: edge mask and morphism check pass (``None``: all)."""
        adjacency, take = self.adjacency, self.take

        def column(index):
            if index == self.edge_position:
                return adjacency.edge_ids[position]
            if index == self.far_position:
                return adjacency.targets[position]
            return values[rows, take[index]]

        keep = None
        if edge_mask is not None:
            keep = edge_mask[adjacency.edge_rows[position]]
        return _all_distinct(column, self.watches, keep)

    def _merge(self, probe, kept):
        """The output chunk of ``(rows, position)`` survivor slices."""
        rows, position = (np.concatenate(side) for side in zip(*kept))
        # the input's PATH entries are row-relative: they move as they are
        carried = probe.gather(rows)
        values = carried.values.take(self.take, axis=1)
        values[:, self.edge_position] = self.adjacency.edge_ids[position]
        if self.far_position is not None:
            values[:, self.far_position] = self.adjacency.targets[position]
        flags = carried.flags
        if flags is not None:
            flags = flags.take(self.take, axis=1)
            flags[:, self.fresh] = FLAG_ID
        return EmbeddingChunk(
            values, flags, carried.paths, carried.segments, carried.space
        )


# Vertex lookup ---------------------------------------------------------------


class ColumnarVertexLookup:
    """Compiled chunk kernel of ``JoinEmbeddings(x, SelectAndProjectVertices)``:
    the rows the hash join of ``x`` with the vertex leaf produces, found
    where ``x``'s rows already sit, in their order.

    A vertex leaf emits one row per vertex, so the key in input column
    ``key`` meets at most one leaf row: a probe run is one search of the
    leaf table's :class:`VertexLocator` and one mask, no fan-out.
    ``leaf_left``: the leaf is the join's left input; ``spec`` (the hash
    join's, watching no column) lays the matched rows side by side.  The
    lookup checks no morphism: the leaf's one id column is the key, which
    the merged row holds once, so its ids are the input row's, already
    checked by the operator that made it.  ``beneath`` compiles the hop
    join below whose far end the key is (``None``: the input is no such
    join's), what :meth:`pass_through` needs.
    """

    __slots__ = ("key", "leaf_left", "spec", "beneath")

    def __init__(self, key, leaf_left, spec, beneath=None):
        self.key = key
        self.leaf_left = leaf_left
        self.spec = spec
        self.beneath = beneath

    def run(self, leaf, partitions, token):
        """The output chunks of each chunk list in ``partitions``;
        ``leaf``: the leaf's :class:`LeafPartition` of every partition."""
        located = leaf[0].table.located
        leaf_rows = sum(map(len, leaf))
        if not leaf_rows:
            return [[] for _ in partitions]
        selected = None
        if leaf_rows < located.chunk.count:
            # a leaf with a predicate: the table rows it kept
            selected = np.zeros(located.chunk.count, dtype=bool)
            for partition in leaf:
                for chunk in partition.chunks:
                    selected[located.rows(chunk.values[:, 0])] = True
        # the leaf adds no column or record: a hit is its row
        carry = not (self.leaf_left or located.chunk.segments)
        out = []
        for chunks in partitions:
            found = []
            for probe in _probe_runs(chunks):
                if token is not None:
                    token.poll()
                at, hit = located.find(probe.values[:, self.key])
                if selected is not None:
                    hit &= selected[at]
                rows = None if hit.all() else np.flatnonzero(hit)
                if carry:
                    found.append(probe if rows is None else probe.gather(rows))
                    continue
                if rows is None:
                    rows = np.arange(probe.count)
                sides = [(located.chunk, at[rows]), (probe, rows)]
                found.append(self.spec._merge(
                    *sides[::1 if self.leaf_left else -1], check_keys=False
                ))
            # merged across runs: a selective lookup would emit slivers
            out.append(list(_probe_runs(found)))
        return out

    def pass_through(self, located, partitions):
        """The output chunks when every input row is known to hit (the
        leaf is the right input, kept every row, and holds every vertex
        the key column can name): each input chunk as it is, beside the
        leaf's records indexed by the key's ids."""
        if not located.chunk.segments:
            return [list(chunks) for chunks in partitions]
        return [
            [
                EmbeddingChunk(
                    chunk.values, chunk.flags, chunk.paths,
                    chunk.segments + located.by_id(chunk.values[:, self.key]),
                    chunk.space,
                )
                for chunk in chunks
            ]
            for chunks in partitions
        ]


def columnar_join_spec(
    left_meta,
    right_meta,
    join_variables,
    drop_columns,
    merged_meta,
    vertex_strategy,
    edge_strategy,
):
    """The :class:`ColumnarJoinSpec` of a join shape, or ``None``.

    PATH columns may sit on one side only, and only when the other side
    contributes no column of a kind an active isomorphism strategy
    watches: the merge then rewrites no offset, and the path contents —
    already distinct from every id of their own side, which the operator
    that bound the path checked — meet no new id, so comparing the watched
    id columns pairwise is the whole morphism check.  Any other PATH shape
    is unsupported (``None``) and stays on the per-record fallback.
    """
    drop = frozenset(drop_columns)
    keep_columns = tuple(
        column
        for column in range(right_meta.column_count)
        if column not in drop
    )
    vertex_iso = vertex_strategy is MatchStrategy.ISOMORPHISM
    edge_iso = edge_strategy is MatchStrategy.ISOMORPHISM
    watched_kinds = "v" * vertex_iso + "e" * edge_iso
    # what each side adds to the other: its columns bar the join columns
    kinds = [
        [
            meta.entry_kind(variable)
            for variable in meta.variables
            if variable not in join_variables
        ]
        for meta in (left_meta, right_meta)
    ]
    for side, other in (kinds, reversed(kinds)):
        if "p" in side and any(
            kind == "p" or kind in watched_kinds for kind in other
        ):
            return None
    vertex_columns: Tuple[int, ...] = ()
    edge_columns: Tuple[int, ...] = ()
    if vertex_iso:
        watched = tuple(
            merged_meta.entry_column(variable)
            for variable in merged_meta.variables
            if merged_meta.entry_kind(variable) == "v"
        )
        if len(watched) > 1:
            vertex_columns = watched
    if edge_iso:
        watched = tuple(
            merged_meta.entry_column(variable)
            for variable in merged_meta.variables
            if merged_meta.entry_kind(variable) == "e"
        )
        if len(watched) > 1:
            edge_columns = watched
    return ColumnarJoinSpec(
        left_meta.column_count,
        tuple(left_meta.entry_column(v) for v in join_variables),
        tuple(right_meta.entry_column(v) for v in join_variables),
        keep_columns,
        vertex_columns,
        edge_columns,
    )
