"""Function and record shipping across the process boundary.

Two serialization problems stand between a fused chain and a worker
process, and this module solves both:

* **Functions.**  The chain stages hold compiled closures (predicate
  specializations, merge/morphism accessors) that standard ``pickle``
  refuses to serialize — it ships functions *by reference* and a closure
  has no importable name.  :func:`dump_functions` therefore ships
  unshippable-by-reference functions *by value*, the way cloudpickle
  does: the code object travels via :mod:`marshal`, captured cells and
  defaults are pickled recursively through the same pickler, and the
  rebuilt function re-binds to its defining module's globals (falling
  back to shipped globals when the module is not importable, e.g.
  ``__main__``).  This is exactly the serialization model the ``P4xx``
  shippability analyzer (:mod:`repro.analysis.udfcheck`) certifies
  against.

* **Records.**  Embedding batches are three flat byte arrays per record
  (§3.3), so :func:`encode_records` packs a homogeneous Embedding batch
  as one length-prefixed byte buffer — a codec that moves through a
  shared-memory ring without touching ``pickle`` on the hot path — and
  falls back to pickling for any other record type (EPGM elements at
  scan leaves, tuples, ...).  Columnar partitions
  (:class:`repro.engine.columnar.ColumnarPartition`) ship as *chunk
  frames*: each chunk's raw column buffers — id entries, offset tables,
  path/prop payloads — are concatenated behind a fixed header, so a
  chunk crosses the ring as a single frame with no per-record object,
  no per-record length walk, and no pickle byte on either side.  A
  frame holds ids: a chunk whose ids are a graph's ordinals is mapped to
  ids as it is encoded, and the parent maps a worker's answer back into
  the ordinal space of the inputs it shipped (:func:`ordinal_space_of`).

The three record-batch formats (``FORMAT_EMBEDDINGS`` /
``FORMAT_CHUNK`` / ``FORMAT_PICKLE``) are declared in
:data:`repro.dataflow.workers.messages.FRAMES`; the wire checker
(``W509``) keeps the constants here in lockstep with that declaration.

Both directions assume the *same interpreter version* on both ends,
which holds by construction: workers are spawned from this process.
"""

import importlib
import io
import marshal
import pickle
import struct
import types

import numpy as np

from ..fusion import ChainSpec

__all__ = [
    "ChainSpec",
    "SPEC_CACHE_LIMIT",
    "dump_functions",
    "load_functions",
    "encode_records",
    "decode_records",
    "ordinal_space_of",
]

#: default cap on a worker's decoded-spec cache.  Part of the wire
#: contract: the worker evicts least-recently-used specs at this bound
#: and the pool mirrors every eviction in the handle's ``shipped`` map,
#: so both sides always agree on which specs are resident — a desync
#: would make the pool skip re-shipping a spec the worker no longer has.
SPEC_CACHE_LIMIT = 128

#: record-batch formats (declared in ``messages.FRAMES``): flat §3.3
#: embedding buffer, columnar chunk frame, or pickled list
FORMAT_EMBEDDINGS = b"E"
FORMAT_CHUNK = b"C"
FORMAT_PICKLE = b"P"

_LENGTHS = struct.Struct("<III")
_CHUNK_COUNT = struct.Struct("<I")
_CHUNK_HEADER = struct.Struct("<IIII")
#: one entry of a chunk frame's packed offset tables
_OFFSET = np.dtype("<u4")


# --- function shipping ------------------------------------------------------


def _rebuild_function(code_bytes, module, qualname, defaults, kwdefaults,
                      closure_values, shipped_globals):
    """Reverse of the ``reducer_override`` below (runs in the worker)."""
    code = marshal.loads(code_bytes)
    if shipped_globals is None:
        try:
            namespace = importlib.import_module(module).__dict__
        except Exception:  # pragma: no cover - defensive: module vanished
            namespace = {"__builtins__": __builtins__}
    else:
        namespace = dict(shipped_globals)
        namespace.setdefault("__builtins__", __builtins__)
    closure = None
    if closure_values is not None:
        closure = tuple(types.CellType(value) for value in closure_values)
    fn = types.FunctionType(
        code, namespace, code.co_name, tuple(defaults) if defaults else None,
        closure,
    )
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    fn.__qualname__ = qualname
    fn.__module__ = module
    return fn


def _ships_by_reference(fn):
    """True when standard pickle can find ``fn`` under its dotted name."""
    if fn.__module__ is None or fn.__module__ == "__main__":
        return False
    try:
        module = importlib.import_module(fn.__module__)
        found = module
        for part in fn.__qualname__.split("."):
            found = getattr(found, part)
    except Exception:
        return False
    return found is fn


def _module_importable(module):
    if not module or module == "__main__":
        return False
    try:
        importlib.import_module(module)
    except Exception:
        return False
    return True


class _FunctionPickler(pickle.Pickler):
    """Pickler shipping closures/lambdas by value, everything else as usual."""

    def reducer_override(self, obj):
        if isinstance(obj, struct.Struct):
            # compiled embedding accessors close over Struct instances,
            # which pickle refuses; the format string rebuilds them
            return (struct.Struct, (obj.format,))
        if not isinstance(obj, types.FunctionType):
            return NotImplemented
        if _ships_by_reference(obj):
            return NotImplemented
        code = obj.__code__
        closure_values = None
        if obj.__closure__ is not None:
            closure_values = tuple(
                cell.cell_contents for cell in obj.__closure__
            )
        shipped_globals = None
        if not _module_importable(obj.__module__):
            # the defining module will not exist in the worker: ship the
            # globals the code object actually names (recursively, through
            # this same pickler, so nested local functions travel too)
            shipped_globals = {}
            fn_globals = obj.__globals__
            for name in code.co_names:
                if name in fn_globals:
                    shipped_globals[name] = fn_globals[name]
        return (
            _rebuild_function,
            (
                marshal.dumps(code),
                obj.__module__ or "__main__",
                obj.__qualname__,
                obj.__defaults__,
                obj.__kwdefaults__,
                closure_values,
                shipped_globals,
            ),
        )


def dump_functions(obj):
    """Pickle ``obj`` (any structure containing functions) by value."""
    buffer = io.BytesIO()
    _FunctionPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def load_functions(payload):
    """Reverse of :func:`dump_functions` (plain unpickle)."""
    return pickle.loads(payload)


# --- record batch codec -----------------------------------------------------


def _encode_chunks(partition):
    """Pack a columnar partition as one contiguous chunk frame.

    ``<u32 nchunks>`` then per chunk ``<u32 count><u32 columns><u32
    path_len><u32 prop_len>`` followed by the chunk's raw column buffers
    in order: the §3.3 id entry block (``count * columns *
    ENTRY_WIDTH`` bytes), the packed path offset table (``count + 1``
    little-endian u32), the path buffer, the packed prop offset table,
    the prop buffer.  No per-record object is touched — the path buffer
    is written from the chunk's id matrices (``paths_to_bytes``), the
    prop buffer is one join of its record matrix, gathered from its
    segments (``props_to_bytes``); an
    absent offset array, i.e. an empty buffer, ships as the all-zero
    table.
    """
    from repro.engine.columnar import (  # lazy: layering
        paths_to_bytes,
        props_to_bytes,
    )

    chunks = partition.chunks
    pieces = [_CHUNK_COUNT.pack(len(chunks))]
    append = pieces.append
    for chunk in chunks:
        paths = paths_to_bytes(chunk.id_paths(), chunk.count)
        props = props_to_bytes(chunk.props, chunk.prop_lens)
        append(_CHUNK_HEADER.pack(
            chunk.count, chunk.columns, len(paths[0]), len(props[0])
        ))
        append(chunk.id_buf())
        for buf, offsets in (paths, props):
            if offsets is None:
                append(bytes(_OFFSET.itemsize * (chunk.count + 1)))
            else:
                append(offsets.astype(_OFFSET).tobytes())
            append(buf)
    return b"".join(pieces)


def _decode_chunks(payload, space=None):
    """Reverse of :func:`_encode_chunks`; returns a ColumnarPartition,
    its ids as ordinals of ``space`` (``None``: as they are).

    Column arrays are read straight off the frame with ``frombuffer``
    and copied into native arrays, the path buffer is read into its id
    matrices (``paths_from_bytes``) and the prop buffer cut into its
    record matrix (``props_from_bytes``) — one segment of the chunk's
    own — so the chunks do not pin the frame.
    """
    from repro.engine.columnar import (  # lazy: layering
        ColumnarPartition,
        EmbeddingChunk,
        decode_entries,
        paths_from_bytes,
        props_from_bytes,
        record_segments,
    )
    from repro.engine.embedding import ENTRY_WIDTH  # lazy: layering

    view = memoryview(payload)
    (nchunks,) = _CHUNK_COUNT.unpack_from(view, 0)
    cursor = _CHUNK_COUNT.size
    header = _CHUNK_HEADER.unpack_from
    header_width = _CHUNK_HEADER.size
    chunks = []
    for _ in range(nchunks):
        count, columns, path_len, prop_len = header(view, cursor)
        cursor += header_width
        values, flags = decode_entries(view, count, columns, cursor)
        cursor += count * columns * ENTRY_WIDTH
        payloads = []
        for length in (path_len, prop_len):
            offsets = None
            if length:
                offsets = np.frombuffer(
                    view, dtype=_OFFSET, count=count + 1, offset=cursor
                ).astype(np.int64)
            cursor += _OFFSET.itemsize * (count + 1)
            payloads.append((bytes(view[cursor:cursor + length]), offsets))
            cursor += length
        path, prop = payloads
        paths, props = paths_from_bytes(*path), props_from_bytes(*prop)
        if paths is None or props is None:
            raise ValueError(
                "chunk frame rows hold malformed or ragged paths or records"
            )
        chunks.append(EmbeddingChunk(
            values, flags, paths, record_segments(*props)
        ).in_space(space))
    return ColumnarPartition(chunks)


def encode_records(records):
    """Encode one partition/batch of records; returns ``(fmt, payload)``.

    A columnar partition (recognized, like everywhere in the dataflow
    layer, by its ``chunks`` attribute) ships as a chunk frame — raw
    column buffers behind fixed headers, no decode.  A batch that is
    entirely §3.3 embeddings uses the flat buffer format: ``<u32
    count>`` then per record ``<u32 id_len><u32 path_len><u32
    prop_len>`` followed by the three byte arrays.  Anything else —
    EPGM elements at scan leaves, tuples, mixed batches — pickles.
    """
    from repro.engine.embedding import Embedding  # lazy: layering

    if getattr(records, "chunks", None) is not None:
        return FORMAT_CHUNK, _encode_chunks(records)
    if records and all(type(r) is Embedding for r in records):
        pieces = [struct.pack("<I", len(records))]
        pack = _LENGTHS.pack
        append = pieces.append
        for record in records:
            id_data = record.id_data
            path_data = record.path_data
            prop_data = record.prop_data
            append(pack(len(id_data), len(path_data), len(prop_data)))
            append(id_data)
            append(path_data)
            append(prop_data)
        return FORMAT_EMBEDDINGS, b"".join(pieces)
    return FORMAT_PICKLE, pickle.dumps(
        list(records), protocol=pickle.HIGHEST_PROTOCOL
    )


def ordinal_space_of(partitions):
    """The ordinal space the chunks of ``partitions`` hold ids in, if any:
    what a worker's answer to them is decoded into."""
    for partition in partitions:
        for chunk in getattr(partition, "chunks", ()):
            if chunk.space is not None:
                return chunk.space
    return None


def decode_records(fmt, payload, space=None):
    """Reverse of :func:`encode_records`; a chunk frame's ids become
    ordinals of ``space`` (``None``: they stay ids)."""
    if fmt == FORMAT_PICKLE:
        return pickle.loads(payload)
    if fmt == FORMAT_CHUNK:
        return _decode_chunks(payload, space)
    from repro.engine.embedding import Embedding  # lazy: layering

    view = memoryview(payload)
    (count,) = struct.unpack_from("<I", view, 0)
    cursor = 4
    unpack = _LENGTHS.unpack_from
    lengths_width = _LENGTHS.size
    records = []
    append = records.append
    for _ in range(count):
        id_len, path_len, prop_len = unpack(view, cursor)
        cursor += lengths_width
        id_end = cursor + id_len
        path_end = id_end + path_len
        prop_end = path_end + prop_len
        append(
            Embedding(
                bytes(view[cursor:id_end]),
                bytes(view[id_end:path_end]),
                bytes(view[path_end:prop_end]),
            )
        )
        cursor = prop_end
    return records
