"""ExpandEmbeddings: variable-length path expressions (paper §3.1).

A ``-[e:knows*l..u]->`` edge is evaluated as an iterated 1-hop join inside
the dataflow's bulk iteration: each superstep joins the current frontier
of partial paths with the (pre-filtered) edge relation, keeps only paths
satisfying the morphism semantics, and emits paths whose length has
reached the lower bound.  The result embedding gains a PATH column with
the ``via`` identifiers (Table 2b) and — unless the target vertex was
already bound ("closing" an existing binding) — an ID column for the path
end.

That dataflow is the *reference*.  A columnar run takes the same
supersteps as a chunk kernel over the graph's adjacency instead
(:class:`~repro.engine.columnar.ColumnarExpandSpec`): one dataflow node, a
:class:`~.leaves.LoweredOperator`, picks between the two.
"""

from functools import cache, partial

from repro.cypher.predicates import compile_cnf
from repro.dataflow import DataSet
from repro.epgm import GradoopId

from ..columnar import ColumnarExpandSpec, ColumnarPartition
from ..embedding import ElementBindings
from ..morphism import MatchStrategy
from .base import EmbeddingLayout, PhysicalOperator
from .leaves import LoweredOperator, _label_scoped_dataset, edge_mask


def _run_kernel(compiled, ctx, partitions):
    """The supersteps of the kernel ``compiled()`` returns, with its edge
    mask, over chunk ``partitions``: one ``ExpandEmbeddings:hop`` run
    each, the frontier in and out, no shuffle."""
    kernel, edge_mask = compiled()
    token = ctx.cancellation
    # once per execution: re-bound $parameters keep one plan
    edge_mask = edge_mask and edge_mask()
    out = [[] for _ in partitions]
    frontier = [
        kernel.start(partition.chunks, emitted)
        for partition, emitted in zip(partitions, out)
    ]

    def sizes():
        return [sum(len(piece[1]) for piece in pieces) for pieces in frontier]

    worker_out = sizes()
    for iteration in range(1, kernel.upper + 1):
        if not any(worker_out):
            break
        ctx.poll()
        frontier = [
            [
                reached
                for piece in pieces
                for reached in kernel.hop(
                    piece, iteration >= kernel.lower, edge_mask, token,
                    emitted,
                )
            ]
            for pieces, emitted in zip(frontier, out)
        ]
        worker_in, worker_out = worker_out, sizes()
        ctx.record_stage_run(
            "ExpandEmbeddings:hop", worker_in, worker_out,
            iteration=iteration,
        )
    return [ColumnarPartition(emitted) for emitted in out]


class ExpandEmbeddings(PhysicalOperator):
    """Expand a bound source vertex along a variable-length query edge."""

    display = "ExpandEmbeddings"

    def __init__(
        self,
        child,
        graph,
        query_edge,
        vertex_strategy,
        edge_strategy,
        closing,
        reverse=False,
    ):
        """
        Args:
            child: Input plan; must bind the expansion's start vertex.
            graph: The data graph supplying the edge relation.
            query_edge: A variable-length
                :class:`~repro.cypher.QueryEdge`.
            vertex_strategy / edge_strategy: Morphism semantics.
            closing: True when the far endpoint is already bound in the
                input — the expansion then filters on it instead of
                binding a new column.
            reverse: Expand from the edge's *target* side (the source is
                the unbound endpoint); edges are traversed backwards and
                the emitted ``via`` list is reversed into source→target
                order.
        """
        super().__init__([child])
        if not query_edge.is_variable_length:
            raise ValueError("ExpandEmbeddings requires a variable-length edge")
        self.graph = graph
        self.query_edge = query_edge
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self.closing = closing
        self.reverse = reverse
        self.start_variable = query_edge.target if reverse else query_edge.source
        self.end_variable = query_edge.source if reverse else query_edge.target
        if not child.meta.has_variable(self.start_variable):
            raise ValueError(
                "expansion start %r not bound in input" % self.start_variable
            )
        if closing and not child.meta.has_variable(self.end_variable):
            raise ValueError("closing expansion requires the end to be bound")
        meta = child.meta.with_entry(query_edge.variable, "p")
        if not closing:
            meta = meta.with_entry(self.end_variable, "v")
        self.meta = meta

    def sanitizer_context(self):
        """Declare the path column's hop bounds for sanitized execution."""
        return {
            "path_bounds": {
                self.query_edge.variable: (
                    self.query_edge.lower,
                    self.query_edge.upper,
                )
            }
        }

    def derive_layout(self, child_layouts, vertex_iso, flag):
        (child,) = child_layouts
        edge = self.query_edge
        start_kind = child.kind_of(self.start_variable)
        if start_kind != "v":
            flag(
                "S306",
                "expansion start %r is %s in the input"
                % (
                    self.start_variable,
                    "not bound" if start_kind is None
                    else "a %r column, not a vertex" % start_kind,
                ),
            )
        if self.closing and child.kind_of(self.end_variable) != "v":
            flag(
                "S306",
                "closing expansion end %r is not a vertex column of the "
                "input" % self.end_variable,
            )
        lower, upper = edge.lower, edge.upper
        if lower is None or upper is None or lower < 0 or upper < lower:
            flag(
                "S303",
                "path %r declares malformed hop bounds *%s..%s"
                % (edge.variable, lower, upper),
            )
            lower, upper = 0, 0  # keep interpreting with a harmless bound
        entries = list(child.entries)
        entries.append((edge.variable, "p"))
        if not self.closing:
            entries.append((self.end_variable, "v"))
        bounds = dict(child.path_bounds)
        bounds[edge.variable] = (lower, upper)
        return EmbeddingLayout(
            entries=entries,
            properties=child.properties,
            path_bounds=bounds,
            # the superstep join checks every new path element (and the
            # unbound end) against the input's vertex/edge id sets, so
            # the guarantee carries over from the input
            morphism_ok=child.morphism_ok,
        )

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        child_meta = self.children[0].meta
        if self.query_edge.variable not in demand.paths:
            flag(
                "S403",
                "path contents of %r are carried but never read — only "
                "the column slot is required downstream"
                % self.query_edge.variable,
            )
        if not self.closing and self.end_variable not in demand.variables:
            flag(
                "S401",
                "id column %r is never read downstream" % self.end_variable,
            )
        child = demand.restricted_to(child_meta)
        child.variables.add(self.start_variable)
        if self.closing:
            child.variables.add(self.end_variable)
        if (vertex_iso or edge_iso) and child_meta is not None:
            # the superstep seeds its seen-sets from every base vertex and
            # edge id column and the contents of every base path column
            for variable in child_meta.variables:
                if child_meta.entry_kind(variable) in ("v", "e"):
                    child.variables.add(variable)
                else:
                    child.paths.add(variable)
        return [child.restricted_to(child_meta)]

    def check_structure(self, flag):
        bound = set(self.children[0].meta.variables)
        edge_variable = self.query_edge.variable
        if edge_variable in bound:
            flag(
                "binding-duplicated",
                "path variable %r is already bound by the input" % edge_variable,
            )
        if self.closing:
            if self.end_variable not in bound:
                flag(
                    "expand-close-unbound",
                    "closing expand targets %r which the input does not bind"
                    % self.end_variable,
                )
        elif self.end_variable in bound:
            flag(
                "binding-duplicated",
                "non-closing expand would rebind %r" % self.end_variable,
            )

    def span(self):
        return self.query_edge.span

    # ------------------------------------------------------------------------

    def _edge_tuples(self):
        """The pre-filtered edge relation as ``(from, edge, to)`` int triples."""
        query_edge = self.query_edge
        keep = compile_cnf(query_edge.predicates)
        variable = query_edge.variable
        reverse = self.reverse
        undirected = query_edge.undirected

        def to_tuples(edge):
            if not keep(ElementBindings(variable, edge)):
                return []
            source, target = edge.source_id.value, edge.target_id.value
            if undirected:
                if source == target:
                    return [(source, edge.id.value, target)]
                return [
                    (source, edge.id.value, target),
                    (target, edge.id.value, source),
                ]
            if reverse:
                return [(target, edge.id.value, source)]
            return [(source, edge.id.value, target)]

        return _label_scoped_dataset(
            self.graph, query_edge.types, "e"
        ).flat_map(to_tuples, name="ExpandEmbeddings(%s):edges" % variable)

    def _build(self):
        child_meta = self.children[0].meta
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        lower = self.query_edge.lower
        upper = self.query_edge.upper
        closing = self.closing
        reverse = self.reverse
        environment = self.graph.environment
        input_ds = self.children[0].evaluate()
        edges = self._edge_tuples()

        start_reader = child_meta.id_reader(self.start_variable)
        end_reader = (
            child_meta.id_reader(self.end_variable) if self.closing else None
        )
        base_vertex_readers = tuple(
            child_meta.id_reader(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "v"
        )
        base_edge_readers = tuple(
            child_meta.id_reader(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "e"
        )
        base_path_columns = [
            child_meta.entry_column(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "p"
        ]

        def initial_item(embedding):
            """(embedding, path, end, seen-vertices, seen-edges)."""
            vertex_ids = set()
            edge_ids = set()
            if vertex_iso or edge_iso:
                for reader in base_vertex_readers:
                    vertex_ids.add(reader(embedding))
                for reader in base_edge_readers:
                    edge_ids.add(reader(embedding))
                for column in base_path_columns:
                    for index, value in enumerate(embedding.raw_path_at(column)):
                        (edge_ids if index % 2 == 0 else vertex_ids).add(value)
            start = start_reader(embedding)
            return (embedding, (), start, frozenset(vertex_ids), frozenset(edge_ids))

        def extend(item, edge_tuple):
            embedding, path, end, vertex_ids, edge_ids = item
            _, edge_id, new_end = edge_tuple
            if edge_iso and edge_id in edge_ids:
                return []
            if path:
                # the previous end becomes a path-internal vertex
                if vertex_iso and end in vertex_ids:
                    return []
                new_path = path + (end, edge_id)
                new_vertex_ids = (
                    frozenset(vertex_ids | {end}) if vertex_iso else vertex_ids
                )
            else:
                new_path = (edge_id,)
                new_vertex_ids = vertex_ids
            new_edge_ids = frozenset(edge_ids | {edge_id}) if edge_iso else edge_ids
            return [(embedding, new_path, new_end, new_vertex_ids, new_edge_ids)]

        def emit_result(item):
            """Attach the path (and end binding) to the input embedding."""
            embedding, path, end, vertex_ids, _ = item
            via = tuple(reversed(path)) if reverse else path
            if closing:
                if end != end_reader(embedding):
                    return []
                return [embedding.append_path(via)]
            if vertex_iso and end in vertex_ids:
                return []
            return [embedding.append_path(via).append_id(GradoopId(end))]

        def step(working, iteration):
            expanded = working.join(
                edges,
                lambda item: item[2],  # current path end
                lambda edge_tuple: edge_tuple[0],
                join_fn=extend,
                name="ExpandEmbeddings:hop",
            )
            if iteration >= lower:
                emitted = expanded.flat_map(
                    emit_result, name="ExpandEmbeddings:emit"
                )
            else:
                emitted = environment.from_collection([], name="ExpandEmbeddings:none")
            return expanded, emitted

        frontier = input_ds.map(initial_item, name="ExpandEmbeddings:init")
        # lazy: the supersteps re-run on every plan execution, so a cached
        # plan re-bound with new $parameters re-expands from the *current*
        # frontier instead of replaying the first execution's paths
        result = environment.iterate(
            frontier, step, max_iterations=upper,
            name="ExpandEmbeddings:iterate",
        )
        if lower == 0:
            zero_hop = frontier.flat_map(
                emit_result, name="ExpandEmbeddings:zero-hop"
            )
            result = result.union(zero_hop)
        # the kernel needs an input whose PATH columns no active
        # isomorphism strategy has to read
        fallback = (
            "expand_base_path"
            if base_path_columns and (vertex_iso or edge_iso) else None
        )
        # on the first run: a plan that only runs its reference walks none
        compiled = cache(partial(
            self._compile_kernel, child_meta, vertex_iso, edge_iso
        ))
        return DataSet(environment, LoweredOperator(
            environment, (input_ds.operator,), result.operator,
            partial(_run_kernel, compiled), fallback, "ExpandEmbeddings",
        ))

    def _compile_kernel(self, child_meta, vertex_iso, edge_iso):
        """``(kernel, edge mask)`` of the columnar path: the kernel walks
        the graph's adjacency; ``edge mask`` is :func:`~.leaves.edge_mask`
        of the query edge.
        """
        query_edge = self.query_edge
        adjacency, edges = self.graph.adjacency(
            query_edge.types, self.reverse, query_edge.undirected
        )

        def watched(kind):
            return tuple(
                child_meta.entry_column(v) for v in child_meta.variables
                if child_meta.entry_kind(v) == kind
            )

        kernel = ColumnarExpandSpec(
            adjacency,
            child_meta.entry_column(self.start_variable),
            child_meta.entry_column(self.end_variable)
            if self.closing else None,
            watched("v") if vertex_iso else None,
            watched("e") if edge_iso else None,
            query_edge.lower,
            query_edge.upper,
            self.reverse,
        )
        return kernel, edge_mask(query_edge, edges)

    def describe(self):
        types = (
            ":" + "|".join(self.query_edge.types) if self.query_edge.types else ""
        )
        return "ExpandEmbeddings((%s)-[%s%s*%d..%d]->(%s)%s%s)" % (
            self.query_edge.source,
            self.query_edge.variable,
            types,
            self.query_edge.lower,
            self.query_edge.upper,
            self.query_edge.target,
            ", closing" if self.closing else "",
            ", reverse" if self.reverse else "",
        )

