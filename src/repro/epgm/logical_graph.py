"""The :class:`LogicalGraph` abstraction (paper §2.4).

A logical graph is a graph head plus vertex and edge datasets.  All EPGM
operators — including the Cypher pattern-matching operator this project
reproduces — consume and produce logical graphs or graph collections.

Every logical graph also keeps what the columnar kernels derive from its
elements: every element's ordinal, the rank of its id, and the edges as
compressed sparse rows over those ordinals per label (built on first
use; an indexed graph builds them at load), and a bounded memo of the
rest — a leaf's encoded table, a property key's value index, the
adjacency of an alternation or an undirected edge, a pair index, the
record texts — dropped as one when the elements change
(:meth:`LogicalGraph.drop_resident`).
"""

from collections import OrderedDict

from repro.dataflow.metrics import JobMetrics
from repro.locks import named_lock

from .elements import GraphHead
from .identifiers import GradoopIdFactory

#: derived structures one graph keeps; the least recently used goes first.
#: A schema's (label, key-set) pairs stay far below it — the bound is for
#: traffic that enumerates key subsets
_RESIDENT_CAPACITY = 64
_LEAF_SELECTS = ("all_rows", "probes", "scans")
_JOIN_LOWERINGS = (
    "hop_joins", "pair_joins", "lookup_joins", "lookup_passthroughs",
)


class LogicalGraph:
    """A single property graph distributed over the simulated cluster."""

    def __init__(self, environment, graph_head, vertices, edges, id_factory=None):
        """Wrap existing datasets; prefer :meth:`from_collections`.

        Args:
            environment: The owning dataflow environment.
            graph_head: :class:`GraphHead` describing this graph.
            vertices: DataSet of :class:`Vertex`.
            edges: DataSet of :class:`Edge`.
            id_factory: Source of fresh ids for derived graphs.
        """
        self.environment = environment
        self.graph_head = graph_head
        self._vertices = vertices
        self._edges = edges
        self.id_factory = (
            id_factory if id_factory is not None else GradoopIdFactory.derived()
        )
        self._resident_lock = named_lock("graph.resident")
        #: every element's ordinal (:class:`~repro.epgm.indexed.OrdinalSpace`)
        self._space = None  # guarded-by: _resident_lock
        #: label -> (edge list, forward Adjacency, reverse Adjacency)
        self._adjacency = None  # guarded-by: _resident_lock
        #: ``(family, ...)`` -> derived structure, least recently used first
        self._resident = OrderedDict()  # guarded-by: _resident_lock
        #: kernel executions on this graph: how its columnar leaves picked
        #: their rows, which lowering its adjacency joins took
        self._counts = dict.fromkeys(  # guarded-by: _resident_lock
            _LEAF_SELECTS + _JOIN_LOWERINGS, 0
        )

    @classmethod
    def from_collections(
        cls,
        environment,
        vertices,
        edges,
        graph_head=None,
        id_factory=None,
        partitioning=None,
    ):
        """Build a logical graph from in-memory element lists.

        Every element is stamped with the graph head's id so Definition 2.1's
        containment mapping ``l`` holds.  ``partitioning`` selects the data
        placement (:class:`~repro.epgm.partitioning.GraphPartitioning`);
        the default is Flink-style balanced round-robin blocks.
        """
        from .partitioning import GraphPartitioning, edge_dataset, vertex_dataset

        factory = (
            id_factory if id_factory is not None else GradoopIdFactory.derived()
        )
        if graph_head is None:
            graph_head = GraphHead(factory.next_id(), label="")
        for element in list(vertices) + list(edges):
            element.add_graph_id(graph_head.id)
        if partitioning is None:
            partitioning = GraphPartitioning.ROUND_ROBIN
        return cls(
            environment,
            graph_head,
            vertex_dataset(environment, vertices, partitioning),
            edge_dataset(environment, edges, partitioning),
            id_factory=factory,
        )

    # Accessors ----------------------------------------------------------------

    @property
    def vertices(self):
        """DataSet of this graph's vertices."""
        return self._vertices

    @property
    def edges(self):
        """DataSet of this graph's edges."""
        return self._edges

    def vertices_by_label(self, label):
        """Vertices with the given label.

        On a plain logical graph this is a filter over the full vertex
        dataset; :class:`~repro.epgm.indexed.IndexedLogicalGraph` overrides
        it to read only the per-label dataset (paper §3.4).
        """
        return self._vertices.filter(
            lambda v, _label=label: v.label == _label,
            name="vertices[:%s]" % label,
        )

    def edges_by_label(self, label):
        """Edges with the given label (see :meth:`vertices_by_label`)."""
        return self._edges.filter(
            lambda e, _label=label: e.label == _label,
            name="edges[:%s]" % label,
        )

    def vertex_count(self):
        return self._vertices.count()

    def edge_count(self):
        return self._edges.count()

    def collect_vertices(self):
        return self._vertices.collect()

    def collect_edges(self):
        return self._edges.collect()

    # Derived structures ---------------------------------------------------------

    def _collected(self, dataset):
        """Every element of ``dataset``: a structure of the graph, not work
        of the job that asked."""
        return [
            element
            for partition in self.environment.run(
                dataset.operator, metrics=JobMetrics(), mode="reference"
            )
            for element in partition
        ]

    def _ordinal_space(self):  # requires-lock: _resident_lock
        if self._space is None:
            from .indexed import OrdinalSpace

            self._space = OrdinalSpace.of(
                self._collected(self._vertices), self._collected(self._edges)
            )
        return self._space

    def _label_adjacency(self):  # requires-lock: _resident_lock
        """label -> ``(edges, forward, reverse)``, grouped on first use,
        numbered in the graph's ordinal space."""
        if self._adjacency is None:
            from .indexed import label_adjacency

            self._adjacency = label_adjacency(
                self._collected(self._edges), self._ordinal_space()
            )
        return self._adjacency

    def ordinal_space(self):
        """The :class:`~repro.epgm.indexed.OrdinalSpace` the columnar
        kernels number this graph's elements in: built once from the ids
        alone (no adjacency), and kept when the resident memo is dropped
        (ids do not change in place)."""
        with self._resident_lock:
            return self._ordinal_space()

    def adjacency(self, labels, reverse=False, undirected=False):
        """``(Adjacency, edges)`` of an expansion along ``labels`` (none:
        every label), ``edges`` being the list its ``edge_rows`` index.

        One directed label is the label's own adjacency; anything else is
        built from the labels' edge lists on first use and shared through
        :meth:`resident` by every plan that walks it.
        """
        with self._resident_lock:
            by_label = self._label_adjacency()
            space = self._ordinal_space()
        labels = tuple(
            label for label in (labels or sorted(by_label)) if label in by_label
        )
        if len(labels) == 1 and not undirected:
            edges, forward, backward = by_label[labels[0]]
            return (backward if reverse else forward), edges

        def build():
            from .indexed import Adjacency

            edges = [e for label in labels for e in by_label[label][0]]
            return Adjacency(edges, space, reverse, undirected), edges

        return self.resident(
            ("adjacency", labels, reverse and not undirected, undirected), build
        )

    def _kept(self, family):  # requires-lock: _resident_lock
        return [
            found for key, found in self._resident.items() if key[0] == family
        ]

    def adjacency_stats(self):
        """``{labels, edges, bytes, pair_indexes}`` kept now (``bytes``
        counts the ordinal space's, the per-label CSRs' and the memo's),
        ``{hop_joins, pair_joins, lookup_joins}`` executed so far, and
        ``lookup_passthroughs``, the lookups among them that passed their
        input through unsearched."""
        with self._resident_lock:
            pairs = self._kept("pairs")
            shared = [found[0] for found in self._kept("adjacency")]
            by_label = self._adjacency or {}
            space = 0 if self._space is None else self._space.nbytes
            return dict(
                {name: self._counts[name] for name in _JOIN_LOWERINGS},
                labels=len(by_label),
                edges=sum(len(entry[0]) for entry in by_label.values()),
                bytes=space + sum(found.nbytes for found in pairs + shared)
                + sum(
                    entry[1].nbytes + entry[2].nbytes
                    for entry in by_label.values()
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
        """Forget every derived structure: the elements changed in place.

        The ordinal space and the per-label adjacency stay: they read
        only ids and labels."""
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

    # Cypher -------------------------------------------------------------------

    def cypher(
        self,
        query,
        vertex_strategy=None,
        edge_strategy=None,
        statistics=None,
        attach_bindings=True,
        parameters=None,
    ):
        """Evaluate a Cypher pattern-matching query (Definition 2.4).

        Args:
            query: Cypher query string (MATCH/WHERE/RETURN subset).
            vertex_strategy: :class:`~repro.engine.morphism.MatchStrategy`
                for vertices (default HOMOMORPHISM, like Neo4j).
            edge_strategy: Match strategy for edges (default ISOMORPHISM).
            statistics: Pre-computed
                :class:`~repro.engine.statistics.GraphStatistics`; computed
                on the fly when omitted.
            attach_bindings: Store variable bindings as properties on the
                result graph heads (paper §2.3).

        Returns:
            A :class:`~repro.epgm.graph_collection.GraphCollection` with one
            logical graph per embedding.
        """
        from repro.engine import CypherRunner

        runner = CypherRunner(
            self,
            vertex_strategy=vertex_strategy,
            edge_strategy=edge_strategy,
            statistics=statistics,
        )
        return runner.execute(
            query, attach_bindings=attach_bindings, parameters=parameters
        )

    # EPGM operators -------------------------------------------------------------

    def subgraph(self, vertex_predicate=None, edge_predicate=None):
        """Extract the subgraph of elements satisfying both predicates."""
        from .operators.subgraph import subgraph

        return subgraph(self, vertex_predicate, edge_predicate)

    def vertex_induced_subgraph(self, vertex_predicate):
        """Subgraph induced by the vertices satisfying the predicate."""
        from .operators.subgraph import vertex_induced_subgraph

        return vertex_induced_subgraph(self, vertex_predicate)

    def edge_induced_subgraph(self, edge_predicate):
        """Subgraph induced by the edges satisfying the predicate."""
        from .operators.subgraph import edge_induced_subgraph

        return edge_induced_subgraph(self, edge_predicate)

    def transform_vertices(self, fn):
        """Apply ``fn(vertex) -> vertex`` to every vertex."""
        from .operators.transformation import transform_vertices

        return transform_vertices(self, fn)

    def transform_edges(self, fn):
        """Apply ``fn(edge) -> edge`` to every edge."""
        from .operators.transformation import transform_edges

        return transform_edges(self, fn)

    def aggregate(self, property_key, aggregate_fn):
        """Attach an aggregate over the graph to the graph head."""
        from .operators.aggregation import aggregate

        return aggregate(self, property_key, aggregate_fn)

    def combine(self, other):
        """Union of two logical graphs (vertices and edges, deduplicated)."""
        from .operators.set_operators import combine

        return combine(self, other)

    def overlap(self, other):
        """Intersection of two logical graphs."""
        from .operators.set_operators import overlap

        return overlap(self, other)

    def exclude(self, other):
        """Elements of this graph that are not in ``other``."""
        from .operators.set_operators import exclude

        return exclude(self, other)

    def group_by(self, vertex_keys=None, edge_keys=None):
        """Structural grouping (summary graph) by label and property keys."""
        from .operators.grouping import group_by

        return group_by(self, vertex_keys, edge_keys)

    def sample_vertices(self, fraction, seed=0):
        """Random vertex sample with induced edges (deterministic per seed)."""
        from .operators.sampling import random_vertex_sample

        return random_vertex_sample(self, fraction, seed)

    def sample_edges(self, fraction, seed=0):
        """Random edge sample with endpoint vertices (deterministic per seed)."""
        from .operators.sampling import random_edge_sample

        return random_edge_sample(self, fraction, seed)

    # Helpers --------------------------------------------------------------------

    def _derive(self, vertices, edges, label=None, properties=None):
        """A new logical graph over derived datasets with a fresh head.

        Elements are stamped with the new head's id on materialization —
        Definition 2.1's containment mapping must include every graph an
        operator produces.
        """
        head = GraphHead(
            self.id_factory.next_id(),
            label=label if label is not None else self.graph_head.label,
            properties=properties,
        )

        def stamp(element, _head_id=head.id):
            element.add_graph_id(_head_id)
            return element

        return LogicalGraph(
            self.environment,
            head,
            vertices.map(stamp, name="stamp-membership"),
            edges.map(stamp, name="stamp-membership"),
            id_factory=self.id_factory,
        )

    def __repr__(self):
        return "LogicalGraph(head=%s)" % (self.graph_head,)


def consistent_edges(environment, vertices, edges):
    """Keep only edges whose endpoints are both present in ``vertices``.

    Implemented as two dataflow joins against the surviving vertex ids so
    the filtering shows up in shuffle metrics like any other operation.
    """
    vertex_ids = vertices.map(lambda v: v.id, name="vertex-ids")
    with_source = edges.join(
        vertex_ids,
        lambda e: e.source_id,
        lambda vid: vid,
        join_fn=lambda e, vid: [e],
        name="edges-with-source",
    )
    return with_source.join(
        vertex_ids,
        lambda e: e.target_id,
        lambda vid: vid,
        join_fn=lambda e, vid: [e],
        name="edges-with-target",
    )
