"""The result boundary: embedding chunks in, a column-wise table out.

:func:`build_table` is the one evaluator of the RETURN clause.  Every
RETURN item is read once per result chunk into a column
(:mod:`repro.engine.columnar` reads ids, paths and property records at
their offsets, §3.3): an id column stays the chunk's ``uint64`` slice of
ordinals of the graph's :class:`~repro.epgm.indexed.OrdinalSpace`, a
path column its ``(ids, lens)`` matrix of them, and a property column
the chunk's ``object`` slice of shared record ``bytes``; an ordinal
becomes its id where a value or a text is read off the table.  Aggregates,
DISTINCT, ORDER BY, SKIP and LIMIT then run on those columns, decoded
to plain Python values.  A row — a dict per embedding, ids as plain
``int`` — exists only if a caller asks for :meth:`ResultTable.rows`;
:meth:`ResultTable.json_rows` writes the served JSON from the columns
themselves, a record through the graph's :class:`RecordTexts` memo.

Result partitions that arrive per record (sanitized or reference-mode
runs, stages without a chunk kernel) are re-encoded with the exact
:func:`~repro.engine.columnar.chunk_from_embeddings` first, their ids
mapped into the table's space if an earlier chunk set one, so there is
no second evaluator to keep in step.
"""

import json
from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, cast,
)

import numpy as np

from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef
from repro.cypher.errors import CypherSemanticError
from repro.epgm.indexed import OrdinalSpace

from .columnar import (
    ID_MATRIX_ROWS,
    Column,
    EmbeddingChunk,
    IdColumn,
    PathMatrix,
    PropertyMemo,
    RecordTexts,
    chunk_from_embeddings,
    column_height,
    column_ids,
    concat_paths,
    id_rows_json,
    null_records,
    path_column,
    path_lists,
    rows_json,
)

#: one output column: name, kind, ``chunk -> column`` and, for an
#: aggregate (whose reader yields its *inputs*), the call
Item = Tuple[str, str, Callable[[EmbeddingChunk], Column], Optional[FunctionCall]]

#: column kinds: every value an id (a ``uint64`` array) / every value a
#: path of ids (an ``(ids, lens)`` pair) / every value a property record
#: (an ``object`` array of record ``bytes``; an absent property's are
#: NULL's) / any value an aggregate can take (a list)
KIND_ID, KIND_PATH, KIND_RECORD, KIND_VALUE = "i", "p", "r", "o"


def column_values(column: Column, space: Optional[OrdinalSpace] = None) -> List[Any]:
    """``column`` as plain Python values: ids (``space``'s ordinals mapped
    back) as ``int``, paths as lists, records decoded (a list value fresh
    for every row)."""
    if isinstance(column, np.ndarray):
        if column.dtype == object:
            return list(map(PropertyMemo().__getitem__, column.tolist()))
        return column_ids(column, space).tolist()
    if isinstance(column, tuple):
        return path_lists(column_ids(column, space))
    return column


def _merged(parts: Sequence[Column]) -> Column:
    """One column from the batches' ``parts`` of it (at least one)."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, tuple):
        return concat_paths(cast(Sequence[PathMatrix], parts))
    return list(chain.from_iterable(parts))


def _taken(column: Column, positions: np.ndarray) -> Column:
    """The rows of ``column`` at ``positions``, in that order."""
    if isinstance(column, np.ndarray):
        return column[positions]
    if isinstance(column, tuple):
        ids, lens = column
        return ids[positions], lens[positions]
    return [column[position] for position in positions.tolist()]


class ResultTable:
    """Column names plus, per result batch, one :data:`Column` each.

    ``batches`` keeps the result's chunk boundaries (one tuple of
    columns per non-empty chunk) until post-processing has to see all
    rows at once.  A table is not mutated after it is built, so the
    result cache may hand the same one to every caller.  ``chunks`` and
    ``reencoded`` say how the result arrived: in how many batches, and
    how many of those were per-record partitions.  ``texts`` is the
    :class:`RecordTexts` memo its record columns are written through —
    the graph's, or one of its own.  Its id and path columns hold
    ordinals of ``space`` (``None``: ids).
    """

    __slots__ = (
        "names", "kinds", "batches", "chunks", "reencoded", "texts", "space",
    )

    def __init__(
        self,
        names: Sequence[str],
        kinds: Sequence[str],
        batches: List[Tuple[Column, ...]],
        chunks: int = 0,
        reencoded: int = 0,
        texts: Optional[RecordTexts] = None,
        space: Optional[OrdinalSpace] = None,
    ) -> None:
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.batches = batches
        self.chunks = chunks
        self.reencoded = reencoded
        self.texts = RecordTexts() if texts is None else texts
        self.space = space

    def __len__(self) -> int:
        return sum(column_height(batch[0]) for batch in self.batches)

    def columns(self) -> Tuple[List[Any], ...]:
        """Each column over all batches, as plain Python values."""
        space = self.space
        if len(self.batches) == 1:
            return tuple(column_values(part, space) for part in self.batches[0])
        merged: Tuple[List[Any], ...] = tuple([] for _ in self.names)
        for batch in self.batches:
            for column, part in zip(merged, batch):
                column.extend(column_values(part, space))
        return merged

    def with_columns(
        self, columns: Sequence[Column], kinds: Optional[Sequence[str]] = None
    ) -> "ResultTable":
        """These names over other ``columns``, as one batch."""
        return ResultTable(
            self.names,
            self.kinds if kinds is None else kinds,
            [tuple(columns)] if column_height(columns[0]) else [],
            self.chunks, self.reencoded, self.texts, self.space,
        )

    def take(self, indices: Sequence[int]) -> "ResultTable":
        """The rows at ``indices``, in that order, in this table's columns."""
        positions = np.asarray(indices, dtype=np.intp)
        if not len(positions):
            return ResultTable(
                self.names, self.kinds, [], self.chunks, self.reencoded,
                self.texts, self.space,
            )
        return self.with_columns([
            _taken(_merged(parts), positions) for parts in zip(*self.batches)
        ])

    def rows(self) -> List[Dict[str, Any]]:
        """A fresh list of dicts, one per row."""
        names, space = self.names, self.space
        return [
            dict(zip(names, row))
            for batch in self.batches
            for row in zip(*[column_values(part, space) for part in batch])
        ]

    def json_rows(self) -> Iterator[bytes]:
        """Each batch's rows as JSON objects joined by ``", "``.

        Byte for byte what ``json.dumps`` writes for the rows' dicts.  A
        batch of ids and paths only, and of at least
        :data:`~repro.engine.columnar.ID_MATRIX_ROWS` rows, is written by
        the byte matrix of :func:`~repro.engine.columnar.id_rows_json`;
        every other batch — any with a record or value column, and small
        ones — by the interleaved texts of
        :func:`~repro.engine.columnar.rows_json`.
        """
        keys = [json.dumps(name) for name in self.names]
        ids_only = KIND_RECORD not in self.kinds and KIND_VALUE not in self.kinds
        for batch in self.batches:
            if ids_only and column_height(batch[0]) >= ID_MATRIX_ROWS:
                yield id_rows_json(keys, cast(Sequence[IdColumn], batch), self.space)
            else:
                yield rows_json(keys, batch, self.texts, self.space)


def _return_items(returns: Any, meta: Any) -> List[Item]:
    """The output columns of a RETURN clause over ``meta``'s layout.

    ``RETURN *`` (or no RETURN) yields one column per variable.  With
    aggregates the group items come first, as the implicit grouping
    emits them.  Built through a dict, as a row is: of two items with one
    name the later one's value lands in the earlier one's place.
    """

    def expression(node: Any) -> Tuple[str, Callable[[EmbeddingChunk], Column]]:
        if isinstance(node, VariableRef):
            column = meta.entry_column(node.name)
            if meta.entry_kind(node.name) == "p":
                return KIND_PATH, lambda chunk: path_column(chunk, column)
            return KIND_ID, lambda chunk: chunk.values[:, column]
        if isinstance(node, PropertyAccess):
            if not meta.has_property(node.variable, node.key):
                return KIND_RECORD, lambda chunk: null_records(chunk.count)
            index = meta.property_index(node.variable, node.key)
            return KIND_RECORD, lambda chunk: chunk.record_column(index)
        raise ValueError("unsupported RETURN expression %r" % (node,))

    items: Dict[str, Item] = {}
    if returns is None or returns.star:
        for name in meta.variables:
            items[name] = (name, *expression(VariableRef(name)), None)
        return list(items.values())
    calls = []
    for item in returns.items:
        name = item.alias or str(item.expression)
        if isinstance(item.expression, FunctionCall):
            calls.append((name, item.expression))
        else:
            items[name] = (name, *expression(item.expression), None)
    for name, call in calls:
        if call.argument is None:  # count(*)
            items[name] = (name, KIND_VALUE, lambda chunk: [1] * chunk.count, call)
        else:
            items[name] = (name, *expression(call.argument), call)
    return list(items.values())


def build_table(
    returns: Any,
    batches: Iterable[Any],
    meta: Any,
    token: Optional[Any] = None,
    texts: Optional[RecordTexts] = None,
) -> ResultTable:
    """The table of a RETURN clause over result ``batches``.

    A batch is an :class:`EmbeddingChunk` or a list of embeddings (a
    per-record partition; re-encoded here).  ``token`` is polled once per
    batch, so a deadline that passes while the result is being built
    still ends the query.  ``texts`` is the memo the table's records are
    written through (none: a fresh one).  The first batch with rows sets
    the space the table's id columns hold: a chunk's own, a per-record
    batch's none (ids), so a per-record result never maps its ids in;
    every later batch is brought into it.
    """
    items = _return_items(returns, meta)
    parts: List[Tuple[Column, ...]] = []
    reencoded = 0
    space: Optional[OrdinalSpace] = None
    for batch in batches:
        if token is not None:
            token.poll()
        if not isinstance(batch, EmbeddingChunk):
            if not batch:
                continue
            batch = chunk_from_embeddings(batch, space)
            if batch is None:
                raise ValueError("result partition is not a uniform embedding batch")
            reencoded += 1
        if batch.count:
            if not parts:
                space = batch.space
            batch = batch.in_space(space)
            parts.append(tuple(read(batch) for _, _, read, _ in items))
    table = ResultTable(
        [name for name, _, _, _ in items],
        [kind for _, kind, _, _ in items],
        parts, len(parts), reencoded, texts, space,
    )
    if returns is None:
        return table
    if returns.has_aggregates:
        table = _grouped(items, table)
    indices: Sequence[int] = range(len(table))
    if returns.distinct:
        seen = set()
        unique = []
        for index, key in enumerate(_keys(table.columns())):
            if key not in seen:
                seen.add(key)
                unique.append(index)
        indices = unique
    if returns.order_by:
        indices = _ordered(returns.order_by, table, indices)
    if returns.skip is not None:
        indices = indices[returns.skip:]
    if returns.limit is not None:
        indices = indices[:returns.limit]
    if indices != range(len(table)):
        table = table.take(indices)
    return table


def _keys(columns: Sequence[Column]) -> List[Tuple[Any, ...]]:
    """Each row as a hashable tuple (a list value becomes a tuple)."""
    return list(zip(*[
        [tuple(value) if isinstance(value, list) else value for value in column]
        for column in columns
    ]))


def _grouped(items: Sequence[Item], source: ResultTable) -> ResultTable:
    """Implicit grouping: the non-aggregate items are the group key.

    ``source`` holds the group columns and, under each aggregate's name,
    that aggregate's inputs.  Groups come out in first-seen order, a group
    column in its own kind (taken at each group's first member), an
    aggregate as values.
    """
    columns = source.columns()
    grouped = [
        column for column, item in zip(columns, items) if item[3] is None
    ]
    keys = _keys(grouped) if grouped else [()] * len(source)
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index, key in enumerate(keys):
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
        else:
            members.append(index)
    firsts = np.array([members[0] for members in groups.values()], dtype=np.intp)
    out: List[Column] = []
    for index, (column, (_, _, _, call)) in enumerate(zip(columns, items)):
        if call is not None:
            out.append([
                _aggregate(call.name, call.argument, [column[i] for i in members])
                for members in groups.values()
            ])
        elif groups:
            out.append(_taken(
                _merged([batch[index] for batch in source.batches]), firsts
            ))
        else:
            out.append([])
    kinds = [
        kind if item[3] is None else KIND_VALUE
        for kind, item in zip(source.kinds, items)
    ]
    return source.with_columns(out, kinds)


def _aggregate(name: str, argument: Any, values: Sequence[Any]) -> Any:
    """Cypher aggregate semantics: NULL inputs are skipped."""
    if name == "count":
        if argument is None:
            return len(values)
        return sum(1 for value in values if value is not None)
    present = [value for value in values if value is not None]
    if name == "collect":
        return present
    if name == "sum":
        return sum(present) if present else 0
    if not present:
        return None
    if name == "min":
        return min(present)
    if name == "max":
        return max(present)
    if name == "avg":
        return sum(present) / len(present)
    raise CypherSemanticError("unknown aggregate %r" % name)


class _Descending:
    """Sort-order inverter usable with non-numeric values."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.value == other.value


def _ordered(
    order_by: Sequence[Any], table: ResultTable, indices: Sequence[int]
) -> List[int]:
    """``indices`` stably sorted by the ORDER BY items; NULLs go last."""
    columns = dict(zip(table.names, table.columns()))
    keys = []
    for order in order_by:
        name = str(order.expression)
        if name not in columns:
            raise CypherSemanticError(
                "ORDER BY expression %r is not among the returned columns" % name,
                span=getattr(order.expression, "span", None),
            )
        wrap = _Descending if order.descending else (lambda value: value)
        keys.append([(value is None, wrap(value)) for value in columns[name]])
    return sorted(indices, key=list(zip(*keys)).__getitem__)
