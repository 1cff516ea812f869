"""Leaf operators: SelectAndProjectVertices / SelectAndProjectEdges.

Each combines Select → Project → Transform in a single FlatMap (paper
§3.1): filter by the element's pushed-down CNF, keep only the property
keys later operators need, and emit an embedding.

That flat-map is the *reference*.  A columnar run selects the surviving
elements and gathers their rows from a table encoded once per graph
(:class:`~repro.engine.columnar.ColumnarLeaf`): one dataflow node,
:class:`LoweredOperator`, picks between the two.
"""

from functools import partial

import numpy as np

from repro.cypher.predicates import (
    compile_cnf,
    equality_probe,
    without_label_clause,
)
from repro.dataflow import DataSet
from repro.dataflow.operators import Operator
from repro.epgm.indexed import IndexedLogicalGraph

from ..columnar import ColumnarLeaf
from ..embedding import Embedding, ElementBindings, EmbeddingMetaData
from .base import EmbeddingLayout, PhysicalOperator


def _label_scoped(graph, labels):
    """Whether :func:`_label_scoped_dataset` holds ``labels`` alone."""
    return bool(labels) and (
        isinstance(graph, IndexedLogicalGraph) or len(labels) == 1
    )


def _label_scoped_dataset(graph, labels, kind):
    """The smallest element dataset covering a label alternation.

    Indexed graphs read one dataset per label (paper §3.4); plain graphs
    scan everything once — per-label filtering there would multiply scans.
    """
    by_label = graph.vertices_by_label if kind == "v" else graph.edges_by_label
    full = graph.vertices if kind == "v" else graph.edges
    if _label_scoped(graph, labels):
        dataset = by_label(labels[0])
        for label in labels[1:]:
            dataset = dataset.union(by_label(label))
        return dataset
    return full


def edge_mask(query_edge, edges):
    """What ``query_edge``'s predicate says beyond its label (an adjacency
    is per label already) as a function evaluating it over ``edges``, the
    list the adjacency's ``edge_rows`` index; ``None``: nothing left."""
    variable = query_edge.variable
    residual = without_label_clause(
        query_edge.predicates, variable, query_edge.types
    )
    if residual.is_trivial:
        return None
    keep = compile_cnf(residual)
    return lambda: np.fromiter(
        (keep(ElementBindings(variable, edge)) for edge in edges),
        bool, len(edges),
    )


class LoweredOperator(Operator):
    """A dataflow node that is a chunk kernel or its reference sub-plan.

    ``reference`` is the root of the per-record dataflow built over this
    node's own ``parents``.  It runs whenever ``run_kernel(ctx,
    *partition_sets)`` (one partition list per parent) does not: a run
    that is not columnar (the reference mode, sanitized, shared-cache),
    and the counted fallbacks of a columnar run — no kernel (``fallback``
    names why) or, unless the kernel reads elements (a leaf's: not
    ``chunked``), an input that is not chunks.
    """

    def __init__(self, environment, parents, reference, run_kernel,
                 fallback=None, name=None, chunked=True):
        super().__init__(environment, parents, name or reference.name)
        #: the one sub-plan this node evaluates itself: the reference
        self.subplans = (reference,)
        self.run_kernel = run_kernel
        self.fallback = fallback
        self.chunked = chunked

    def execute(self, ctx, parent_partition_sets):
        if ctx.columnar:
            reason = self.fallback
            if reason is None and self.chunked and any(
                getattr(partition, "chunks", None) is None
                for partitions in parent_partition_sets
                for partition in partitions
            ):
                reason = "non_uniform_batch"
            if reason is None:
                return self._call(self.run_kernel, ctx, *parent_partition_sets)
            ctx.count_fallback(reason)
            ctx = ctx.derived(columnar=False)
        (reference,) = self.subplans
        for parent, partitions in zip(self.parents, parent_partition_sets):
            ctx.subplans[parent.id] = partitions
        return ctx.evaluate(reference, ctx.subplans)


def _run_kernel(kernel, name, ctx, partitions):
    """A columnar leaf run over the parent's element partitions (in the
    serving process, pool or not: its cost is its output), recorded as the
    flat-map's: elements in, rows out.  Partition ``p`` of ``n`` is the same
    element list in every run, which lets the kernel keep its encoded rows."""
    out = kernel.run(partitions, ctx.cancellation)
    ctx.record_stage_run(
        name,
        [len(partition) for partition in partitions],
        [len(partition) for partition in out],
    )
    return out


class _ElementLeaf(PhysicalOperator):
    """What the two leaves share: one pattern element scanned off the
    graph, its id columns, and the property keys projected from it."""

    def __init__(self, graph, property_keys):
        super().__init__()
        self.graph = graph
        self.property_keys = sorted(property_keys)

    def _element(self):
        """The pattern element (query vertex or edge) this leaf scans."""
        raise NotImplementedError

    def _entries(self):
        """The ``(variable, kind)`` id columns, in column order."""
        raise NotImplementedError

    def _morphism_ok(self, vertex_iso):
        return True  # one vertex column is trivially injective

    def _leaf_dataset(self, kind, labels, transform, orient, *orientation):
        """The leaf's dataset: ``transform`` is the per-record flat-map
        function, ``orient(element)`` the id tuples the element emits
        (what ``orientation``, the flags it closes over, decides)."""
        graph = self.graph
        element = self._element()
        variable = element.variable
        source = _label_scoped_dataset(graph, labels, kind)
        reference = source.flat_map(
            transform, name="%s(%s)" % (self.display, variable)
        )
        residual = element.predicates
        if _label_scoped(graph, labels):
            # the dataset is the label check; the kernel does not repeat it
            residual = without_label_clause(residual, variable, labels)
        kernel = ColumnarLeaf(
            graph,
            (kind, tuple(labels), tuple(self.property_keys)) + orientation,
            variable,
            None if residual.is_trivial else compile_cnf(residual),
            equality_probe(residual, variable),
            len(residual.clauses) == 1,
            orient,
            len(self._entries()),
            self.property_keys,
        )
        return DataSet(graph.environment, LoweredOperator(
            graph.environment, (source.operator,), reference.operator,
            partial(_run_kernel, kernel, reference.operator.name),
            chunked=False,
        ))

    def derive_layout(self, child_layouts, vertex_iso, flag):
        variable = self._element().variable
        return EmbeddingLayout(
            entries=self._entries(),
            properties=tuple((variable, key) for key in self.property_keys),
            morphism_ok=self._morphism_ok(vertex_iso),
        )

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        for variable, _kind in self._entries():
            if variable not in demand.variables:
                flag("S401", "id column %r is never read downstream" % variable)
        # S402 at the introduction site.  Element-local predicates
        # evaluate on the *element* inside the leaf's flat-map, before
        # projection — so a key loaded only for them is dead weight in
        # every embedding above the leaf.
        variable = self._element().variable
        for key in self.property_keys:
            if (variable, key) not in demand.properties:
                flag(
                    "S402",
                    "property record %s.%s is loaded into embeddings but "
                    "never read downstream" % (variable, key),
                )
        return []

    def check_structure(self, flag):
        if self.meta is None:
            return
        # a mis-kinded or unprojected binding is refuted by the layout
        # comparison (S302, S304)
        for variable, _kind in self._entries():
            if not self.meta.has_variable(variable):
                flag(
                    "leaf-unbound",
                    "leaf does not bind its own variable %r" % variable,
                )

    def span(self):
        return self._element().span


class SelectAndProjectVertices(_ElementLeaf):
    """Vertices satisfying a query vertex's predicates, as embeddings."""

    display = "SelectAndProjectVertices"

    def __init__(self, graph, query_vertex, property_keys):
        super().__init__(graph, property_keys)
        self.query_vertex = query_vertex
        meta = EmbeddingMetaData().with_entry(query_vertex.variable, "v")
        for key in self.property_keys:
            meta = meta.with_property(query_vertex.variable, key)
        self.meta = meta

    def _element(self):
        return self.query_vertex

    def _entries(self):
        return [(self.query_vertex.variable, "v")]

    def _build(self):
        variable = self.query_vertex.variable
        keep = compile_cnf(self.query_vertex.predicates)
        keys = self.property_keys

        def select_project_transform(vertex):
            if not keep(ElementBindings(variable, vertex)):
                return []
            embedding = Embedding.of_ids(vertex.id)
            if keys:
                embedding = embedding.append_properties(
                    [vertex.get_property(key) for key in keys]
                )
            return [embedding]

        return self._leaf_dataset(
            "v", self.query_vertex.labels, select_project_transform,
            lambda vertex: ((vertex.id.value,),),
        )

    def describe(self):
        label = ":" + "|".join(self.query_vertex.labels) if self.query_vertex.labels else ""
        return "SelectAndProjectVertices(%s%s)" % (self.query_vertex.variable, label)


class SelectAndProjectEdges(_ElementLeaf):
    """Edges satisfying a query edge's predicates, as embeddings.

    The output embedding has columns ``[source, edge, target]`` (``[source,
    edge]`` for loop edges where the query source and target coincide).
    An undirected query edge emits both orientations of each data edge.
    """

    display = "SelectAndProjectEdges"

    def __init__(self, graph, query_edge, property_keys, distinct_endpoints=False):
        """``distinct_endpoints``: drop self-loop data edges.  Set by the
        planner under vertex isomorphism when the query edge's endpoints
        are different variables — a leaf-only plan has no downstream join
        to enforce the injectivity of the two endpoint bindings."""
        super().__init__(graph, property_keys)
        if query_edge.is_variable_length:
            raise ValueError(
                "variable-length edge %r needs ExpandEmbeddings" % query_edge.variable
            )
        self.query_edge = query_edge
        self.is_loop = query_edge.source == query_edge.target
        self.distinct_endpoints = distinct_endpoints and not self.is_loop
        meta = EmbeddingMetaData().with_entry(query_edge.source, "v")
        meta = meta.with_entry(query_edge.variable, "e")
        if not self.is_loop:
            meta = meta.with_entry(query_edge.target, "v")
        for key in self.property_keys:
            meta = meta.with_property(query_edge.variable, key)
        self.meta = meta

    def _element(self):
        return self.query_edge

    def _entries(self):
        edge = self.query_edge
        entries = [(edge.source, "v"), (edge.variable, "e")]
        if not self.is_loop:
            entries.append((edge.target, "v"))
        return entries

    def _morphism_ok(self, vertex_iso):
        # Under vertex isomorphism a data self-loop binds one vertex to
        # both endpoint columns; only ``distinct_endpoints`` (or a loop
        # edge, which has a single endpoint column) rules that out.
        return not vertex_iso or self.is_loop or self.distinct_endpoints

    def _build(self):
        variable = self.query_edge.variable
        keep = compile_cnf(self.query_edge.predicates)
        keys = self.property_keys
        is_loop = self.is_loop
        undirected = self.query_edge.undirected
        distinct_endpoints = self.distinct_endpoints

        def select_project_transform(edge):
            if not keep(ElementBindings(variable, edge)):
                return []
            if distinct_endpoints and edge.source_id == edge.target_id:
                return []
            if is_loop:
                if edge.source_id != edge.target_id:
                    return []
                orientations = [(edge.source_id, edge.id)]
            else:
                orientations = [(edge.source_id, edge.id, edge.target_id)]
                if undirected and edge.source_id != edge.target_id:
                    orientations.append((edge.target_id, edge.id, edge.source_id))
            results = []
            for ids in orientations:
                embedding = Embedding.of_ids(*ids)
                if keys:
                    embedding = embedding.append_properties(
                        [edge.get_property(key) for key in keys]
                    )
                results.append(embedding)
            return results

        def orient(edge):
            source, target = edge.source_id.value, edge.target_id.value
            if source == target:
                if distinct_endpoints:
                    return ()
                return ((source, edge.id.value) if is_loop
                        else (source, edge.id.value, target),)
            if is_loop:
                return ()
            if undirected:
                return ((source, edge.id.value, target),
                        (target, edge.id.value, source))
            return ((source, edge.id.value, target),)

        return self._leaf_dataset(
            "e", self.query_edge.types, select_project_transform, orient,
            is_loop, undirected, distinct_endpoints,
        )

    def describe(self):
        types = ":" + "|".join(self.query_edge.types) if self.query_edge.types else ""
        arrow = "-" if self.query_edge.undirected else "->"
        return "SelectAndProjectEdges((%s)-[%s%s]%s(%s))" % (
            self.query_edge.source,
            self.query_edge.variable,
            types,
            arrow,
            self.query_edge.target,
        )
