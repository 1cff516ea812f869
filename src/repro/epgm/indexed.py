"""Label-indexed logical graphs (paper §3.4).

Gradoop's ``IndexedLogicalGraph`` partitions vertices and edges by type
label and manages a separate dataset per label.  When a query vertex or
edge carries a label predicate, the planner loads only that label's
dataset instead of scanning (and filtering) the union of all elements.

The index numbers every element by id at load (:class:`OrdinalSpace`)
and builds its edge relation's :class:`Adjacency` (compressed sparse
rows over those ordinals) per edge label and direction, with the
per-label datasets.  A variable-length expansion walks it instead of re-shuffling
the edge bag every superstep, and a fixed-length edge join hops over it;
a plain :class:`LogicalGraph` builds the same rows on first use.
"""

from operator import attrgetter

import numpy as np

from .logical_graph import LogicalGraph


def _find(haystack, ids):
    """``(slot, found)``: where each id sits in sorted ``haystack``."""
    if not len(haystack):
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    slot = np.minimum(np.searchsorted(haystack, ids), len(haystack) - 1)
    return slot, haystack[slot] == ids


class OrdinalSpace:
    """Every element of one graph numbered by id: ordinal ``i`` is the
    ``i``-th smallest id (paper §3.3: fixed-width ids, constant-time
    indexable).

    Ordinals compare, sort and repeat exactly as their ids do, so the
    columnar kernels carry them in place of ids, and a step from an
    element to what the graph keeps for it is an array index.  Ids come
    back, one ``ids[ordinal]`` gather, only where a result or an
    embedding leaves the engine.  ``digit_words`` is the JSON writer's
    table of every id's decimal digits, made on first use.  Built once
    per graph with its adjacency; immutable but for that one fill.
    """

    __slots__ = ("ids", "digit_words")

    def __init__(self, ids):
        # not np.unique: it imports numpy.ma, a megabyte, on first use
        self.ids = key_runs(np.sort(np.asarray(ids, dtype=np.uint64)))[0]
        self.ids.setflags(write=False)
        self.digit_words = None

    @classmethod
    def of(cls, vertices, edges):
        """The space of ``vertices`` and ``edges``, whose endpoints count
        as elements even where ``vertices`` lacks them."""
        return cls(np.concatenate([
            np.fromiter(
                (vertex.id.value for vertex in vertices), np.uint64, len(vertices)
            ),
            np.fromiter(
                (
                    gid.value for edge in edges
                    for gid in (edge.id, edge.source_id, edge.target_id)
                ),
                np.uint64, 3 * len(edges),
            ),
        ]))

    @property
    def nbytes(self):
        """The ids' bytes and, once filled, the digit table's."""
        words = self.digit_words
        return self.ids.nbytes + (0 if words is None else words.nbytes)

    def ordinals(self, ids):
        """The ordinal of each of ``ids`` (a ``uint64`` array): one search,
        at load or where ids enter (a per-record batch, a worker frame)."""
        flat = np.asarray(ids).ravel()
        slot, found = _find(self.ids, flat)
        if not found.all():
            raise ValueError("id %d is no element of the graph" % int(flat[~found][0]))
        return slot.astype(np.uint64).reshape(np.shape(ids))

    def ids_of(self, ordinals):
        """The id of each of ``ordinals`` (a ``uint64`` array)."""
        return self.ids[ordinals.view(np.intp)]


def key_runs(keys):
    """``(distinct, starts, counts)`` of ascending ``keys``: each distinct
    key, where its run of equal keys starts and how long the run is."""
    if not len(keys):
        empty = np.empty(0, dtype=np.int64)
        return keys, empty, empty
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], starts, np.diff(np.append(starts, len(keys)))


def match_runs(runs, keys):
    """``(first, counts)``: ``keys[i]`` equals the sorted entries
    ``first[i]`` to ``first[i] + counts[i]`` tabled in :func:`key_runs`'
    ``runs`` — one search of the distinct keys per key; ``first`` is
    unread where the count is 0."""
    distinct, starts, counts = runs
    if not len(distinct):
        zeros = np.zeros(len(keys), dtype=np.int64)
        return zeros, zeros
    slot, hit = _find(distinct, keys)
    return starts[slot], np.where(hit, counts[slot], 0)


def _span(ordinals):
    """``(low, count)``: the range of ``ordinals`` (``(0, 0)``: none)."""
    if not len(ordinals):
        return 0, 0
    low = int(ordinals.min())
    return low, int(ordinals.max()) - low + 1


def _in_span(ordinals, low, count):
    """``(offset, inside)``: each ordinal's offset in a span starting at
    ``low`` and whether it lies within its ``count`` places."""
    offset = ordinals.view(np.intp) - low
    # a negative offset wraps to a huge unsigned one: one compare for both
    return offset, offset.view(np.uint64) < count


class Adjacency:
    """The edges of an edge list as compressed sparse rows over ordinals.

    Sources, ``targets`` and ``edge_ids`` are ordinals of the graph's
    :class:`OrdinalSpace`.  The neighbours of source ordinal ``v`` sit at
    ``offsets[v - low]`` to ``offsets[v - low + 1]`` of ``targets`` /
    ``edge_ids`` / ``edge_rows``, in edge-list order (so a walk's output
    order is deterministic): ``offsets`` spans the sources' ordinals, one
    empty row padded on either side, which every ordinal outside the span
    is clipped onto.  ``edge_rows`` is each entry's position in ``edges``
    — the row an edge predicate's mask is indexed by.  ``reverse`` walks
    edges target to source; ``undirected`` both ways, a self-loop once.
    """

    __slots__ = ("low", "offsets", "targets", "edge_ids", "edge_rows")

    def __init__(self, edges, space, reverse=False, undirected=False):
        froms, ids, tos = (
            space.ordinals(np.fromiter(
                (get(edge).value for edge in edges), np.uint64, len(edges)
            ))
            for get in map(attrgetter, ("source_id", "id", "target_id"))
        )
        rows = np.arange(len(edges), dtype=np.int64)
        if reverse:
            froms, tos = tos, froms
        if undirected:
            back = froms != tos
            froms, tos, ids, rows = (
                np.concatenate([there, back_again[back]])
                for there, back_again in (
                    (froms, tos), (tos, froms), (ids, ids), (rows, rows)
                )
            )
        order = np.argsort(froms, kind="stable")
        low, count = _span(froms)
        degrees = np.bincount(froms.view(np.intp) - low, minlength=count)
        self.low = low - 1
        self.offsets = np.concatenate(
            ([0, 0], np.cumsum(degrees), [len(order)])
        ).astype(np.int64)
        self.targets = tos[order]
        self.edge_ids = ids[order]
        self.edge_rows = rows[order]

    @property
    def nbytes(self):
        return sum(getattr(self, name).nbytes for name in self.__slots__[1:])

    def neighbours(self, ordinals):
        """``(first, counts)``: the neighbours of ``ordinals[i]`` sit at
        ``first[i]`` to ``first[i] + counts[i]``."""
        offsets = self.offsets
        at = np.clip(ordinals.view(np.intp) - self.low, 0, len(offsets) - 2)
        first = offsets[at]
        return first, offsets[at + 1] - first


def label_adjacency(edges, space):
    """``{label: (edge list, forward Adjacency, reverse Adjacency)}``."""
    by_label = {}
    for edge in edges:
        by_label.setdefault(edge.label, []).append(edge)
    return {
        label: (
            elements, Adjacency(elements, space), Adjacency(elements, space, True)
        )
        for label, elements in by_label.items()
    }


class PairIndex:
    """Every ``(source, target)`` pair of an :class:`Adjacency`, sorted:
    what a join on both endpoints probes instead of fanning a skewed
    degree out and filtering.  An entry's key is its source's place in
    the sources' ordinal span times the targets' span, plus its target's
    place in that (exact: no collision to re-check); ``order`` lists the
    entries by key, ``runs`` tables the keys' runs (:func:`key_runs`:
    parallel edges share one)."""

    __slots__ = ("sources", "targets", "runs", "order")

    def __init__(self, adjacency):
        #: ``(low, count)`` of the sources' and the targets' ordinals
        self.sources = (adjacency.low + 1, len(adjacency.offsets) - 3)
        self.targets = _span(adjacency.targets)
        source = np.repeat(
            np.arange(self.sources[1]), np.diff(adjacency.offsets[1:-1])
        )
        keys = source * self.targets[1] + (
            adjacency.targets.view(np.intp) - self.targets[0]
        )
        self.order = np.argsort(keys, kind="stable")
        self.runs = key_runs(keys[self.order])

    @property
    def nbytes(self):
        return self.order.nbytes + sum(array.nbytes for array in self.runs)

    def matches(self, froms, tos):
        """``(first, counts)``: the edges from ``froms[i]`` to ``tos[i]``
        are adjacency entries ``order[first[i]:first[i] + counts[i]]``."""
        source, inside = _in_span(froms, *self.sources)
        target, also = _in_span(tos, *self.targets)
        key = np.where(inside & also, source * self.targets[1] + target, -1)
        return match_runs(self.runs, key)


class IndexedLogicalGraph(LogicalGraph):
    """A logical graph with one dataset per vertex/edge label."""

    def __init__(self, environment, graph_head, vertices, edges, id_factory=None):
        super().__init__(environment, graph_head, vertices, edges, id_factory)
        self._vertex_index = {}
        self._edge_index = {}

    @classmethod
    def from_logical_graph(cls, graph):
        """Index an existing logical graph by materializing its elements."""
        indexed = cls(
            graph.environment,
            graph.graph_head,
            graph.vertices,
            graph.edges,
            id_factory=graph.id_factory,
        )
        indexed._build_index(graph.collect_vertices(), graph.collect_edges())
        return indexed

    @classmethod
    def from_collections(
        cls, environment, vertices, edges, graph_head=None, id_factory=None
    ):
        base = LogicalGraph.from_collections(
            environment, vertices, edges, graph_head, id_factory
        )
        indexed = cls(
            environment,
            base.graph_head,
            base.vertices,
            base.edges,
            id_factory=base.id_factory,
        )
        indexed._build_index(vertices, edges)
        return indexed

    @classmethod
    def from_elements(cls, environment, graph_head, vertices, edges):
        """Index element lists as they are (a loader's output): graph
        membership is not restamped and placement is round-robin."""
        indexed = cls(
            environment,
            graph_head,
            environment.from_collection(vertices, name="vertices"),
            environment.from_collection(edges, name="edges"),
        )
        indexed._build_index(vertices, edges)
        return indexed

    def _build_index(self, vertices, edges):
        by_vertex_label = {}
        for vertex in vertices:
            by_vertex_label.setdefault(vertex.label, []).append(vertex)
        space = OrdinalSpace.of(vertices, edges)
        adjacency = label_adjacency(edges, space)
        self._vertex_index = {
            label: self.environment.from_collection(
                elements, name="vertices[:%s]" % label
            )
            for label, elements in by_vertex_label.items()
        }
        self._edge_index = {
            label: self.environment.from_collection(
                entry[0], name="edges[:%s]" % label
            )
            for label, entry in adjacency.items()
        }
        with self._resident_lock:
            self._space = space
            self._adjacency = adjacency

    @property
    def vertex_labels(self):
        return sorted(self._vertex_index.keys())

    @property
    def edge_labels(self):
        return sorted(self._edge_index.keys())

    def vertices_by_label(self, label):
        """Only the requested label's dataset — no scan over other labels."""
        if label in self._vertex_index:
            return self._vertex_index[label]
        return self.environment.from_collection([], name="vertices[:%s]" % label)

    def edges_by_label(self, label):
        if label in self._edge_index:
            return self._edge_index[label]
        return self.environment.from_collection([], name="edges[:%s]" % label)
