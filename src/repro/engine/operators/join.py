"""JoinEmbeddings: combine two sub-query results on shared variables.

Implemented with the dataflow FlatJoin so embeddings violating the
configured morphism semantics are dropped inside the join, never
materialized (paper §3.1).

That join is the *reference*, and what joins two intermediates.  Where one
input is a leaf, a columnar run lowers the join instead, and a
:class:`~.leaves.LoweredOperator` picks: an edge leaf joined on its
endpoints is a walk of the graph's adjacency
(:class:`~repro.engine.columnar.ColumnarAdjacencyJoin`, over the *other*
input alone); a vertex leaf is a lookup of its rows
(:class:`~repro.engine.columnar.ColumnarVertexLookup`, over both).
"""

from functools import cache, partial

from ..columnar import (
    EDGE_ID,
    FAR_END,
    ColumnarAdjacencyJoin,
    ColumnarJoinSpec,
    ColumnarPartition,
    ColumnarVertexLookup,
    columnar_join_spec,
)
from ..embedding import EmbeddingMetaData, compile_merge
from ..morphism import compile_morphism_check
from .base import EmbeddingLayout, PhysicalOperator
from .leaves import (
    LoweredOperator,
    SelectAndProjectEdges,
    SelectAndProjectVertices,
    edge_mask,
)

from repro.dataflow import DataSet, JoinStrategy
from repro.epgm.indexed import PairIndex


def _run_kernel(graph, compiled, name, ctx, partitions):
    """The kernel ``compiled()`` returns, with its edge mask, over chunk
    ``partitions`` (in the serving process, pool or not): one
    ``<name>[adjacency]`` run, rows in and out, no shuffle."""
    kernel, edge_mask = compiled()
    pairs = None
    if kernel.far is None:
        graph.count("hop_joins")
    else:
        pairs = graph.resident(
            ("pairs", kernel.adjacency), lambda: PairIndex(kernel.adjacency),
            "pair_joins",
        )
    # once per execution: re-bound $parameters keep one plan
    edge_mask = edge_mask and edge_mask()
    out = [
        kernel.run(partition.chunks, pairs, edge_mask, ctx.cancellation)
        for partition in partitions
    ]
    ctx.record_stage_run(
        "%s[adjacency]" % name,
        [len(partition) for partition in partitions],
        [sum(chunk.count for chunk in chunks) for chunks in out],
    )
    return [ColumnarPartition(chunks) for chunks in out]


def _run_lookup(graph, kernel, name, ctx, partitions, leaf):
    """``kernel`` over chunk ``partitions`` and the vertex ``leaf``'s: one
    ``<name>[lookup]`` run, both inputs in, no shuffle.

    When the key is the far end of a hop join beneath (``kernel.beneath``),
    the leaf kept all its rows and it holds every far end of that hop's
    adjacency — a flag kept per (adjacency, table) — every input row hits:
    the lookup passes its input through, searching nothing."""
    graph.count("lookup_joins")
    located = leaf[0].table.located
    beneath = kernel.beneath
    passes = beneath is not None and sum(map(len, leaf)) == located.chunk.count
    if passes:
        adjacency = beneath()[0].adjacency
        passes = graph.resident(
            ("holds", adjacency, located),
            lambda: located.holds(adjacency.targets),
        )
    chunks = [partition.chunks for partition in partitions]
    if passes:
        graph.count("lookup_passthroughs")
        out = kernel.pass_through(located, chunks)
    else:
        out = kernel.run(leaf, chunks, ctx.cancellation)
    ctx.record_stage_run(
        "%s[lookup]" % name,
        [len(mine) + len(its) for mine, its in zip(partitions, leaf)],
        [sum(chunk.count for chunk in chunks) for chunks in out],
    )
    return [ColumnarPartition(chunks) for chunks in out]


class TwoInputOperator(PhysicalOperator):
    """What the three two-input operators share: the merged layout, the
    morphism check on the merged embedding, and the ``|L| · |R|`` bound.

    Subclasses state their join key through :meth:`_check_keys` /
    :meth:`_demand_keys`.
    """

    def __init__(self, left, right, vertex_strategy, edge_strategy,
                 join_variables=()):
        super().__init__([left, right])
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self.meta, self._drop_columns = EmbeddingMetaData.combine(
            left.meta, right.meta, join_variables
        )

    def _check_keys(self, left, right, flag):
        """Check the join key against the input layouts (``S306``);
        returns the right-side columns the merge drops."""
        return set()

    def _demand_keys(self, left, right):
        """Add what the join itself reads of its inputs."""

    def derive_layout(self, child_layouts, vertex_iso, flag):
        """The static mirror of :meth:`EmbeddingMetaData.combine`."""
        left, right = child_layouts
        drop_columns = self._check_keys(left, right, flag)
        entries = list(left.entries)
        bound = {variable for variable, _kind in entries}
        for column, (variable, kind) in enumerate(right.entries):
            if column in drop_columns:
                continue
            if variable in bound:
                flag(
                    "S302",
                    "variable %r is bound on both inputs but not joined — "
                    "the merged embedding would carry it twice" % variable,
                )
                continue
            bound.add(variable)
            entries.append((variable, kind))
        bounds = dict(left.path_bounds)
        bounds.update(right.path_bounds)
        return EmbeddingLayout(
            entries=entries,
            # prop_data is appended wholesale: the physical sequence is
            # the concatenation, duplicates and all (§3.3 append-only)
            properties=left.properties + right.properties,
            path_bounds=bounds,
            # the join's compiled morphism check (or its vacuous-truth
            # condition) guarantees the configured strategies on output
            morphism_ok=True,
        )

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        metas = [child.meta for child in self.children]
        sides = [demand.restricted_to(meta) for meta in metas]
        self._demand_keys(*sides)
        self._demand_morphism(sides, vertex_iso, edge_iso)
        return [side.restricted_to(meta) for side, meta in zip(sides, metas)]

    def _demand_morphism(self, sides, vertex_iso, edge_iso):
        """What the merge's compiled morphism check reads of its output.

        Mirrors :func:`~repro.engine.morphism.compile_morphism_check`
        exactly, including its vacuous-truth conditions: no isomorphism
        strategy → nothing; a path-bearing shape falls back to the full
        check (every watched id column plus every path's contents);
        otherwise a kind is only inspected when it has two or more
        columns to compare.
        """
        meta = self.meta
        if meta is None or not (vertex_iso or edge_iso):
            return
        vertex_vars, edge_vars, path_vars = [], [], []
        for variable in meta.variables:
            kind = meta.entry_kind(variable)
            if kind == "v" and vertex_iso:
                vertex_vars.append(variable)
            elif kind == "e" and edge_iso:
                edge_vars.append(variable)
            elif kind == "p":
                path_vars.append(variable)
        if path_vars:
            watched = set(vertex_vars) | set(edge_vars)
        else:
            watched = set()
            if len(vertex_vars) > 1:
                watched |= set(vertex_vars)
            if len(edge_vars) > 1:
                watched |= set(edge_vars)
        for side in sides:
            side.variables |= watched
            side.paths |= set(path_vars)

    def check_structure(self, flag):
        # an unbound key (S306), inputs overlapping outside it (S302) and
        # an output that drops a binding (S301) are all refuted by the
        # layout rules
        pass


class JoinEmbeddings(TwoInputOperator):
    """Equi-join of two embedding relations on one or more variables."""

    display = "JoinEmbeddings"

    def __init__(
        self,
        left,
        right,
        join_variables,
        vertex_strategy,
        edge_strategy,
        strategy=JoinStrategy.AUTO,
    ):
        if not join_variables:
            raise ValueError("JoinEmbeddings requires at least one join variable")
        self.join_variables = list(join_variables)
        self.strategy = strategy
        for variable in self.join_variables:
            if not left.meta.has_variable(variable):
                raise ValueError("join variable %r missing on left side" % variable)
            if not right.meta.has_variable(variable):
                raise ValueError("join variable %r missing on right side" % variable)
        super().__init__(
            left, right, vertex_strategy, edge_strategy, self.join_variables
        )
        #: ``(far variable, kernel compiler)`` of the build lowered to a hop
        self._hop = None
        self._left_columns = [left.meta.entry_column(v) for v in self.join_variables]
        self._right_columns = [right.meta.entry_column(v) for v in self.join_variables]

    def _build(self):
        self._hop = None
        left_columns = tuple(self._left_columns)
        right_columns = tuple(self._right_columns)
        left_meta = self.children[0].meta
        right_meta = self.children[1].meta

        # compiled key readers yield the bare id for single-column joins so
        # the shuffle hash matches the id-based data placement (tuple hashes
        # differ from int hashes), and tuples otherwise
        left_key = left_meta.join_key_reader(self.join_variables)
        right_key = right_meta.join_key_reader(self.join_variables)
        merge = compile_merge(left_meta, right_meta, frozenset(self._drop_columns))
        check = compile_morphism_check(
            self.meta, self.vertex_strategy, self.edge_strategy
        )

        if check is None:

            def flat_join(left_embedding, right_embedding):
                return [merge(left_embedding, right_embedding)]

        else:

            def flat_join(left_embedding, right_embedding):
                merged = merge(left_embedding, right_embedding)
                if check(merged):
                    return [merged]
                return []

        # the columnar join kernel (key columns, merge shape, morphism
        # watch set), or the reason a columnar run joins per record
        spec = columnar_join_spec(
            left_meta,
            right_meta,
            self.join_variables,
            self._drop_columns,
            self.meta,
            self.vertex_strategy,
            self.edge_strategy,
        )
        # a PATH merge must rewrite offsets: no chunk kernel for it
        kernel, fallback = spec, "path_join" if spec is None else None

        sanitizer = self._sanitizer
        if sanitizer is not None:
            # The join drops the right-side key columns during the merge,
            # so byte agreement must be checked here, before they vanish;
            # the wrapper must see every pair, so it declares no kernel.
            operator, plain_flat_join = self, flat_join
            kernel = None

            def flat_join(left_embedding, right_embedding):  # noqa: F811
                sanitizer.check_join_keys(
                    operator,
                    left_embedding,
                    right_embedding,
                    left_columns,
                    right_columns,
                )
                return plain_flat_join(left_embedding, right_embedding)

        reference = self.children[0].evaluate().join(
            self.children[1].evaluate(),
            left_key,
            right_key,
            join_fn=flat_join,
            strategy=self.strategy,
            name="JoinEmbeddings(%s)" % ",".join(self.join_variables),
            kernel=kernel,
            fallback=fallback,
        )
        if spec is None:
            return reference
        side = self._edge_leaf_side()
        if side is not None:
            return self._over_adjacency(side, spec, reference.operator)
        lookup = self._over_lookup(spec, reference.operator)
        return reference if lookup is None else lookup

    def _edge_leaf_side(self):
        """The child an adjacency walk can stand in for, if any: an edge
        leaf of id-only rows, one per edge, joined on its endpoints alone."""
        joined = set(self.join_variables)
        for side in (1, 0):
            leaf = self.children[side]
            if (
                isinstance(leaf, SelectAndProjectEdges)
                and not (leaf.is_loop or leaf.property_keys
                         or leaf.distinct_endpoints)
                and joined <= {leaf.query_edge.source, leaf.query_edge.target}
            ):
                return side
        return None

    def _over_lookup(self, spec, reference):
        """The node probing a vertex leaf's rows with the other child's,
        where those sit — if a child is a vertex leaf (one row per vertex,
        joined on its one column).  A right-hand leaf over a hop join
        whose far end is the key may pass the hop's rows through."""
        for side in (1, 0):
            leaf, other = self.children[side], self.children[1 - side]
            if isinstance(leaf, SelectAndProjectVertices):
                (variable,) = self.join_variables
                parents = (other.evaluate().operator, leaf.evaluate().operator)
                beneath = None
                if side == 1 and isinstance(other, JoinEmbeddings):
                    beneath = other._hops_to(variable)
                kernel = ColumnarVertexLookup(
                    other.meta.entry_column(variable), side == 0,
                    # no watched column: see ColumnarVertexLookup
                    ColumnarJoinSpec(spec.left_count, spec.left_columns,
                                     spec.right_columns, spec.keep_columns,
                                     (), ()),
                    beneath,
                )
                return DataSet(leaf.graph.environment, LoweredOperator(
                    leaf.graph.environment, parents, reference,
                    partial(_run_lookup, leaf.graph, kernel, reference.name),
                ))
        return None

    def _hops_to(self, variable):
        """The kernel compiler of this join if it was lowered to a hop
        over the adjacency reaching ``variable`` as its far end."""
        hop = self._hop
        if hop is not None and hop[0] == variable:
            return hop[1]
        return None

    def _over_adjacency(self, side, spec, reference):
        """The node joining child ``1 - side`` with the edge leaf ``side``:
        a hop from the one joined endpoint, a pair probe for two."""
        leaf, other = self.children[side], self.children[1 - side]
        graph, edge, meta = leaf.graph, leaf.query_edge, other.meta
        closing = len(self.join_variables) == 2
        reverse = not closing and edge.target in self.join_variables
        near, far = (edge.source, edge.target)[::-1 if reverse else 1]
        columns = [
            meta.entry_column(variable) if meta.has_variable(variable)
            else EDGE_ID if variable == edge.variable else FAR_END
            for variable in self.meta.variables
        ]

        # on the first run: a plan that only runs its reference walks none
        @cache
        def compiled():
            adjacency, edges = graph.adjacency(
                edge.types, reverse, edge.undirected
            )
            kernel = ColumnarAdjacencyJoin(
                adjacency,
                meta.entry_column(near),
                meta.entry_column(far) if closing else None,
                columns,
                spec,
            )
            return kernel, edge_mask(edge, edges)

        if not closing:
            self._hop = (far, compiled)
        return DataSet(graph.environment, LoweredOperator(
            graph.environment, (other.evaluate().operator,), reference,
            partial(_run_kernel, graph, compiled, reference.name),
        ))

    def describe(self):
        return "JoinEmbeddings(on %s)" % ", ".join(self.join_variables)

    def _check_keys(self, left, right, flag):
        drop_columns = set()
        for variable in self.join_variables:
            left_kind = left.kind_of(variable)
            right_kind = right.kind_of(variable)
            if left_kind is None or right_kind is None:
                flag(
                    "S306",
                    "join variable %r is not bound on the %s side"
                    % (variable, "left" if left_kind is None else "right"),
                )
            elif "p" in (left_kind, right_kind):
                flag(
                    "S306",
                    "join variable %r is a PATH column — its entry holds a "
                    "path_data offset, not a comparable identifier" % variable,
                )
            elif left_kind != right_kind:
                flag(
                    "S306",
                    "join variable %r has kind %r on the left but %r on the "
                    "right" % (variable, left_kind, right_kind),
                )
            else:
                drop_columns.add(right.column_of(variable))
        return drop_columns

    def _demand_keys(self, left, right):
        left.variables.update(self.join_variables)
        right.variables.update(self.join_variables)


class CartesianEmbeddings(TwoInputOperator):
    """Cross product of two disconnected sub-patterns.

    Needed when a MATCH clause contains disconnected components; still
    applies the morphism check on the combined embedding.
    """

    display = "CartesianEmbeddings"

    def _build(self):
        merge = compile_merge(
            self.children[0].meta, self.children[1].meta, frozenset()
        )
        check = compile_morphism_check(
            self.meta, self.vertex_strategy, self.edge_strategy
        )

        if check is None:

            def combine(pair):
                return [merge(pair[0], pair[1])]

        else:

            def combine(pair):
                merged = merge(pair[0], pair[1])
                if check(merged):
                    return [merged]
                return []

        crossed = self.children[0].evaluate().cross(
            self.children[1].evaluate(), name="CartesianEmbeddings"
        )
        return crossed.flat_map(combine, name="CartesianEmbeddings(check)")
