"""Label-indexed logical graphs (paper §3.4).

Gradoop's ``IndexedLogicalGraph`` partitions vertices and edges by type
label and manages a separate dataset per label.  When a query vertex or
edge carries a label predicate, the planner loads only that label's
dataset instead of scanning (and filtering) the union of all elements.

The index builds its edge relation's :class:`Adjacency` (compressed
sparse rows) per edge label and direction at load, with the per-label
datasets.  A variable-length expansion walks it instead of re-shuffling
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


class Adjacency:
    """The edges of an edge list as compressed sparse rows.

    ``sources`` holds the distinct "from" ids in ascending order; the
    neighbours of ``sources[i]`` sit at ``offsets[i]`` to ``offsets[i + 1]``
    of ``targets`` / ``edge_ids`` / ``edge_rows``, in edge-list order (so a
    walk's output order is deterministic).  ``edge_rows`` is each entry's
    position in ``edges`` — the row an edge predicate's mask is indexed by.
    ``reverse`` walks edges target to source; ``undirected`` both ways, a
    self-loop once.
    """

    __slots__ = ("sources", "offsets", "targets", "edge_ids", "edge_rows")

    def __init__(self, edges, reverse=False, undirected=False):
        froms, ids, tos = (
            np.fromiter((get(edge).value for edge in edges), np.uint64, len(edges))
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
        self.sources, starts = np.unique(froms[order], return_index=True)
        self.offsets = np.append(starts, len(order)).astype(np.int64)
        self.targets = tos[order]
        self.edge_ids = ids[order]
        self.edge_rows = rows[order]

    @property
    def nbytes(self):
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def neighbours(self, ids):
        """``(first, counts)``: the neighbours of ``ids[i]`` sit at
        ``first[i]`` to ``first[i] + counts[i]``."""
        slot, found = _find(self.sources, ids)
        first = self.offsets[slot]
        return first, self.offsets[slot + found] - first


def label_adjacency(edges):
    """``{label: (edge list, forward Adjacency, reverse Adjacency)}``."""
    by_label = {}
    for edge in edges:
        by_label.setdefault(edge.label, []).append(edge)
    return {
        label: (elements, Adjacency(elements), Adjacency(elements, True))
        for label, elements in by_label.items()
    }


class PairIndex:
    """Every ``(source, target)`` pair of an :class:`Adjacency`, sorted:
    what a join on both endpoints probes instead of fanning a skewed
    degree out and filtering.  An entry's key is ``source slot *
    len(targets) + target rank`` (exact: no collision to re-check);
    ``order`` lists the entries by key, ``runs`` tables the keys' runs
    (:func:`key_runs`: parallel edges share one)."""

    __slots__ = ("sources", "targets", "runs", "order")

    def __init__(self, adjacency):
        self.sources = adjacency.sources  # shared, not counted in nbytes
        self.targets, rank = np.unique(adjacency.targets, return_inverse=True)
        slot = np.repeat(np.arange(len(self.sources)), np.diff(adjacency.offsets))
        keys = slot * len(self.targets) + rank
        self.order = np.argsort(keys, kind="stable")
        self.runs = key_runs(keys[self.order])

    @property
    def nbytes(self):
        return self.targets.nbytes + self.order.nbytes + sum(
            array.nbytes for array in self.runs
        )

    def matches(self, froms, tos):
        """``(first, counts)``: the edges from ``froms[i]`` to ``tos[i]``
        are adjacency entries ``order[first[i]:first[i] + counts[i]]``."""
        slot, found = _find(self.sources, froms)
        rank, also = _find(self.targets, tos)
        key = np.where(found & also, slot * len(self.targets) + rank, -1)
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
        adjacency = label_adjacency(edges)
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
