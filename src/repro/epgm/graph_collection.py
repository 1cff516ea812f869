"""Graph collections: sets of possibly overlapping logical graphs."""

from .logical_graph import LogicalGraph


class GraphCollection:
    """Graph heads, vertices and edges as three datasets (paper §2.4).

    Vertices and edges carry graph membership in ``graph_ids``; a collection
    can therefore share elements between its logical graphs without copying.
    """

    def __init__(self, environment, graph_heads, vertices, edges):
        self.environment = environment
        self._graph_heads = graph_heads
        self._vertices = vertices
        self._edges = edges

    @classmethod
    def from_collections(cls, environment, graph_heads, vertices, edges):
        return cls(
            environment,
            environment.from_collection(list(graph_heads), name="graph-heads"),
            environment.from_collection(list(vertices), name="vertices"),
            environment.from_collection(list(edges), name="edges"),
        )

    @classmethod
    def empty(cls, environment):
        return cls.from_collections(environment, [], [], [])

    @classmethod
    def from_graph(cls, graph):
        """A singleton collection containing one logical graph."""
        return cls(
            graph.environment,
            graph.environment.from_collection([graph.graph_head], name="graph-heads"),
            graph.vertices,
            graph.edges,
        )

    # Accessors ----------------------------------------------------------------

    @property
    def graph_heads(self):
        return self._graph_heads

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return self._edges

    def graph_count(self):
        return self._graph_heads.count()

    def graph_ids(self):
        return [head.id for head in self._graph_heads.collect()]

    def collect_graph_heads(self):
        return self._graph_heads.collect()

    def get_graph(self, graph_id):
        """Materialize one logical graph of the collection by id."""
        heads = [h for h in self._graph_heads.collect() if h.id == graph_id]
        if not heads:
            raise KeyError("no graph with id %s in collection" % graph_id)
        head = heads[0]
        vertices = self._vertices.filter(
            lambda v, gid=graph_id: v.in_graph(gid), name="graph-vertices"
        )
        edges = self._edges.filter(
            lambda e, gid=graph_id: e.in_graph(gid), name="graph-edges"
        )
        return LogicalGraph(self.environment, head, vertices, edges)

    def graphs(self):
        """Materialize every logical graph in the collection."""
        return [self.get_graph(head.id) for head in self._graph_heads.collect()]

    # Operators -------------------------------------------------------------------

    def cypher(self, query, **kwargs):
        """Run the pattern-matching operator on every member graph.

        Returns one collection holding the union of all matches; each
        match head additionally records which member graph it came from
        (``__sourceGraph``).  Keyword arguments are forwarded to
        :meth:`LogicalGraph.cypher`.
        """
        from .property_value import PropertyValue

        results = None
        for graph in self.graphs():
            matches = graph.cypher(query, **kwargs)
            for head in matches.collect_graph_heads():
                head.set_property(
                    "__sourceGraph", PropertyValue(graph.graph_head.id.value)
                )
            results = matches if results is None else results.union(matches)
        if results is None:
            return GraphCollection.empty(self.environment)
        return results

    def apply(self, operator_fn):
        """Apply a unary logical-graph operator to every member graph.

        Mirrors Gradoop's *apply* operators (ApplyAggregation,
        ApplyTransformation, ...): ``operator_fn(graph) -> graph`` runs per
        member and the results form a new collection.

        .. code-block:: python

            matches.apply(lambda g: g.aggregate("n", Count("vertices")))
        """
        transformed = [operator_fn(graph) for graph in self.graphs()]
        heads = []
        vertices = {}
        edges = {}
        for graph in transformed:
            heads.append(graph.graph_head)
            for vertex in graph.collect_vertices():
                vertex.add_graph_id(graph.graph_head.id)
                vertices[(vertex.id, id(vertex))] = vertex
            for edge in graph.collect_edges():
                edge.add_graph_id(graph.graph_head.id)
                edges[(edge.id, id(edge))] = edge
        return GraphCollection.from_collections(
            self.environment, heads, list(vertices.values()), list(edges.values())
        )

    def reduce(self, combine_fn):
        """Fold the member graphs into one logical graph.

        ``combine_fn(left, right) -> graph`` is applied pairwise, like
        Gradoop's ReduceCombination; raises on an empty collection.
        """
        graphs = self.graphs()
        if not graphs:
            raise ValueError("cannot reduce an empty collection")
        result = graphs[0]
        for graph in graphs[1:]:
            result = combine_fn(result, graph)
        return result

    def select(self, predicate):
        """Keep graphs whose head satisfies ``predicate`` (EPGM selection)."""
        kept_heads = self._graph_heads.filter(predicate, name="select-graphs")
        kept_ids = set(h.id for h in kept_heads.collect())
        return GraphCollection(
            self.environment,
            kept_heads,
            self._vertices.filter(
                lambda v, ids=kept_ids: bool(v.graph_ids & ids), name="select-vertices"
            ),
            self._edges.filter(
                lambda e, ids=kept_ids: bool(e.graph_ids & ids), name="select-edges"
            ),
        )

    def union(self, other):
        """All graphs of both collections (by graph id, deduplicated)."""
        heads = (
            self._graph_heads.union(other._graph_heads).distinct(key=lambda h: h.id)
        )
        vertices = self._vertices.union(other._vertices).distinct(key=lambda v: v.id)
        edges = self._edges.union(other._edges).distinct(key=lambda e: e.id)
        return GraphCollection(self.environment, heads, vertices, edges)

    def intersection(self, other):
        """Graphs contained in both collections (by graph id)."""
        other_ids = set(other.graph_ids())
        return self.select(lambda head, ids=other_ids: head.id in ids)

    def difference(self, other):
        """Graphs of this collection that are not in ``other``."""
        other_ids = set(other.graph_ids())
        return self.select(lambda head, ids=other_ids: head.id not in ids)

    def __repr__(self):
        return "GraphCollection(env=%r)" % (self.environment,)
