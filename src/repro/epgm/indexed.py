"""Label-indexed logical graphs (paper §3.4).

Gradoop's ``IndexedLogicalGraph`` partitions vertices and edges by type
label and manages a separate dataset per label.  When a query vertex or
edge carries a label predicate, the planner loads only that label's
dataset instead of scanning (and filtering) the union of all elements.

The index also keeps the edge relation *resident*: one :class:`Adjacency`
(compressed sparse rows) per edge label and direction, built once, which a
variable-length expansion walks instead of re-shuffling the edge bag every
superstep and a fixed-length edge join hops over.  Beside it sits a bounded
memo of *derived* structures the engine builds on first use — a leaf's
encoded table, a property key's value index, the adjacency of an
alternation or an undirected edge, a :class:`PairIndex` — which are
functions of the elements alone and dropped as one when they change
(:meth:`drop_resident`).
"""

from collections import OrderedDict
from operator import attrgetter

import numpy as np

from repro.locks import named_lock

from .logical_graph import LogicalGraph

#: derived structures one graph keeps; the least recently used goes first.
#: A schema's (label, key-set) pairs stay far below it — the bound is for
#: traffic that enumerates key subsets
_RESIDENT_CAPACITY = 64
_LEAF_SELECTS = ("all_rows", "probes", "scans")
_JOIN_LOWERINGS = ("hop_joins", "pair_joins", "lookup_joins")


def _find(haystack, ids):
    """``(slot, found)``: where each id sits in sorted ``haystack``."""
    if not len(haystack):
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    slot = np.minimum(np.searchsorted(haystack, ids), len(haystack) - 1)
    return slot, haystack[slot] == ids


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


class PairIndex:
    """Every ``(source, target)`` pair of an :class:`Adjacency`, sorted:
    what a join on both endpoints probes instead of fanning a skewed
    degree out and filtering.  An entry's key is ``source slot *
    len(targets) + target rank`` (exact: no collision to re-check);
    ``keys`` holds them ascending, ``order`` the entry each came from."""

    __slots__ = ("sources", "targets", "keys", "order")

    def __init__(self, adjacency):
        self.sources = adjacency.sources  # shared, not counted in nbytes
        self.targets, rank = np.unique(adjacency.targets, return_inverse=True)
        slot = np.repeat(np.arange(len(self.sources)), np.diff(adjacency.offsets))
        keys = slot * len(self.targets) + rank
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    @property
    def nbytes(self):
        return self.targets.nbytes + self.keys.nbytes + self.order.nbytes

    def matches(self, froms, tos):
        """``(first, counts)``: the edges from ``froms[i]`` to ``tos[i]``
        are adjacency entries ``order[first[i]:first[i] + counts[i]]``."""
        slot, found = _find(self.sources, froms)
        rank, also = _find(self.targets, tos)
        key = np.where(found & also, slot * len(self.targets) + rank, -1)
        first = np.searchsorted(self.keys, key, "left")
        return first, np.searchsorted(self.keys, key, "right") - first


class IndexedLogicalGraph(LogicalGraph):
    """A logical graph with one dataset per vertex/edge label."""

    def __init__(self, environment, graph_head, vertices, edges, id_factory=None):
        super().__init__(environment, graph_head, vertices, edges, id_factory)
        self._vertex_index = {}
        self._edge_index = {}
        #: label -> (edge list, forward Adjacency, reverse Adjacency)
        self._adjacency = {}
        self._resident_lock = named_lock("graph.resident")
        #: ``(family, ...)`` -> derived structure, least recently used first
        self._resident = OrderedDict()  # guarded-by: _resident_lock
        #: kernel executions on this graph: how its columnar leaves picked
        #: their rows, which lowering its adjacency joins took
        self._counts = dict.fromkeys(  # guarded-by: _resident_lock
            _LEAF_SELECTS + _JOIN_LOWERINGS, 0
        )

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
        by_edge_label = {}
        for edge in edges:
            by_edge_label.setdefault(edge.label, []).append(edge)
        self._vertex_index = {
            label: self.environment.from_collection(
                elements, name="vertices[:%s]" % label
            )
            for label, elements in by_vertex_label.items()
        }
        self._edge_index = {
            label: self.environment.from_collection(
                elements, name="edges[:%s]" % label
            )
            for label, elements in by_edge_label.items()
        }
        self._adjacency = {
            label: (elements, Adjacency(elements), Adjacency(elements, True))
            for label, elements in by_edge_label.items()
        }

    def adjacency(self, labels, reverse=False, undirected=False):
        """``(Adjacency, edges)`` of an expansion along ``labels`` (none:
        every label), ``edges`` being the list its ``edge_rows`` index.

        One directed label is the resident adjacency itself; anything
        else is built from the labels' edge lists on first use and shared
        through :meth:`resident` by every plan that walks it.
        """
        labels = tuple(
            label for label in (labels or self.edge_labels)
            if label in self._adjacency
        )
        if len(labels) == 1 and not undirected:
            edges, forward, backward = self._adjacency[labels[0]]
            return (backward if reverse else forward), edges

        def build():
            edges = [e for label in labels for e in self._adjacency[label][0]]
            return Adjacency(edges, reverse, undirected), edges

        return self.resident(
            ("adjacency", labels, reverse and not undirected, undirected), build
        )

    def _kept(self, family):  # requires-lock: _resident_lock
        return [
            found for key, found in self._resident.items() if key[0] == family
        ]

    def adjacency_stats(self):
        """``{labels, edges, bytes, pair_indexes}`` kept now (``bytes``
        counts the memo's), ``{hop_joins, pair_joins, lookup_joins}``
        executed so far."""
        with self._resident_lock:
            pairs = self._kept("pairs")
            shared = [found[0] for found in self._kept("adjacency")]
            return dict(
                {name: self._counts[name] for name in _JOIN_LOWERINGS},
                labels=len(self._adjacency),
                edges=sum(len(entry[0]) for entry in self._adjacency.values()),
                bytes=sum(found.nbytes for found in pairs + shared) + sum(
                    entry[1].nbytes + entry[2].nbytes
                    for entry in self._adjacency.values()
                ),
                pair_indexes=len(pairs),
            )

    def count(self, execution):
        """Count one kernel execution (see :meth:`resident`)."""
        with self._resident_lock:
            self._counts[execution] += 1

    def resident(self, key, build, count=None):
        """The derived structure ``key`` names, ``build()`` on first use.

        ``key[0]`` is its family (``"table"`` / ``"index"`` /
        ``"adjacency"`` / ``"pairs"`` / ``"texts"``).  The build
        runs under the lock, so threads racing for a first use build one
        structure, not two; a build that raises (a deadline) leaves
        nothing behind.  ``count`` names the kernel execution asking.
        """
        with self._resident_lock:
            if count is not None:
                self._counts[count] += 1
            found = self._resident.get(key)
            if found is None:
                found = self._resident[key] = build()
                if len(self._resident) > _RESIDENT_CAPACITY:
                    self._resident.popitem(last=False)
            else:
                self._resident.move_to_end(key)
            return found

    def drop_resident(self):
        """Forget every derived structure: the elements changed in place."""
        with self._resident_lock:
            self._resident.clear()

    def leaf_stats(self):
        """``{tables, bytes, indexes, texts}`` resident now, ``{all_rows,
        probes, scans}`` leaf executions so far; ``bytes`` is the tables'
        and the record texts' memo's, ``texts`` the memo's entries."""
        with self._resident_lock:
            tables = self._kept("table")
            texts = self._kept("texts")
            return dict(
                {name: self._counts[name] for name in _LEAF_SELECTS},
                tables=len(tables),
                bytes=sum(found.nbytes for found in tables + texts),
                indexes=len(self._kept("index")),
                texts=sum(map(len, texts)),
            )

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
