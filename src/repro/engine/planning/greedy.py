"""The greedy query planner (paper §3.2).

"Our reference implementation follows a greedy approach by decomposing the
query into sets of vertices and edges and constructing a bushy query plan
by iteratively joining embeddings and choosing the query plan that
minimizes the size of intermediate results.  Vertices and edges that are
covered by that plan are removed from the initial sets until there is only
one plan left."

Additional behaviours mirrored from Gradoop:

* a query vertex gets its own leaf operator only if it carries predicates
  or its properties are needed downstream — otherwise the binding comes
  for free from the adjacent edge's endpoint column;
* cross-element WHERE clauses are applied by ``SelectEmbeddings`` as soon
  as all their variables are bound;
* a partial plan carries only the property records read above it (by the
  result or a clause still to apply): a ``ProjectEmbeddings`` drops the
  rest where their last reader consumed them (§3.1);
* variable-length edges become ``ExpandEmbeddings``, closing when both
  endpoints are already bound, expanding in reverse when only the target
  side is.
"""

from dataclasses import dataclass

from repro.cypher.predicates import CNF, cnf_signature

from ..morphism import DEFAULT_EDGE_STRATEGY, DEFAULT_VERTEX_STRATEGY
from ..operators.expand import ExpandEmbeddings
from ..operators.filter_project import ProjectEmbeddings, SelectEmbeddings
from ..operators.join import CartesianEmbeddings, JoinEmbeddings
from ..operators.leaves import SelectAndProjectEdges, SelectAndProjectVertices
from .estimation import CardinalityEstimator


@dataclass
class _Entry:
    """A partial plan: operator, covered variables, estimated rows."""

    op: object
    variables: frozenset
    cardinality: float


class PlanningError(Exception):
    pass


def _is_vertex_leaf(entry):
    return entry is not None and isinstance(entry.op, SelectAndProjectVertices)


class GreedyPlanner:
    """Builds a bushy physical plan minimizing intermediate cardinality."""

    def __init__(
        self,
        graph,
        query_handler,
        statistics,
        vertex_strategy=None,
        edge_strategy=None,
        reuse_leaf_scans=True,
        join_strategy=None,
    ):
        """``reuse_leaf_scans``: share one dataset between leaf operators
        with identical selection/projection (e.g. the three ``:knows``
        scans of the triangle query) — the recurring-subquery reuse the
        paper lists as ongoing work (§5).

        ``join_strategy``: force one physical join strategy for every
        JoinEmbeddings (default: the AUTO size heuristic)."""
        self.graph = graph
        self.handler = query_handler
        self.statistics = statistics
        self.estimator = CardinalityEstimator(statistics)
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self.reuse_leaf_scans = reuse_leaf_scans
        from repro.dataflow import JoinStrategy

        self.join_strategy = join_strategy or JoinStrategy.AUTO
        self._leaf_dataset_cache = {}

    # Public API ----------------------------------------------------------------

    def plan(self):
        """The root physical operator of the chosen plan."""
        entries = self._initial_entries()
        pending = list(self.handler.edges.values())
        applied_clauses = set()

        while pending:
            best_edge, best_cardinality = None, None
            for edge in pending:
                entry, _ = self._edge_candidate(
                    edge, entries, applied_clauses, dry_run=True
                )
                if best_cardinality is None or entry.cardinality < best_cardinality:
                    best_edge, best_cardinality = edge, entry.cardinality
            # rebuild the winner, this time recording which global clauses
            # its SelectEmbeddings consumed
            best_entry, consumed = self._edge_candidate(
                best_edge, entries, applied_clauses, dry_run=False
            )
            pending.remove(best_edge)
            for entry in consumed:
                entries.remove(entry)
            entries.append(best_entry)

        return self._finish(entries, applied_clauses)

    def _finish(self, entries, applied_clauses):
        """Combine remaining entries, apply leftover predicates, project."""
        # disconnected components / isolated vertices: prefer a value join
        # on a cross-entry property equality (paper §3.1's extensibility
        # example: "join subqueries on property values"), falling back to
        # a Cartesian product
        entries.sort(key=lambda entry: entry.cardinality)
        while len(entries) > 1:
            value_join = self._find_property_join(entries, applied_clauses)
            if value_join is not None:
                left, right, clause, left_pair, right_pair = value_join
                from ..operators.value_join import JoinEmbeddingsOnProperty
                from .estimation import EQUALITY_SELECTIVITY

                op = JoinEmbeddingsOnProperty(
                    left.op,
                    right.op,
                    left_pair,
                    right_pair,
                    self.vertex_strategy,
                    self.edge_strategy,
                )
                cardinality = (
                    left.cardinality * right.cardinality * EQUALITY_SELECTIVITY
                )
                applied_clauses.add(id(clause))
                entries.remove(left)
                entries.remove(right)
            else:
                left, right = entries[0], entries[1]
                op = CartesianEmbeddings(
                    left.op, right.op, self.vertex_strategy, self.edge_strategy
                )
                cardinality = self.estimator.cartesian_cardinality(
                    left.cardinality, right.cardinality
                )
                entries = entries[2:]
            op.estimated_cardinality = cardinality
            merged = _Entry(op, left.variables | right.variables, cardinality)
            if value_join is not None:
                merged = self._narrowed(merged, applied_clauses)
            merged = self._apply_available_predicates(merged, applied_clauses)
            entries.append(merged)
            entries.sort(key=lambda entry: entry.cardinality)

        if not entries:
            raise PlanningError("query has no vertices")
        root_entry = entries[0]

        missing = [
            clause
            for clause in self.handler.global_predicates.clauses
            if id(clause) not in applied_clauses
        ]
        if missing:
            op = SelectEmbeddings(root_entry.op, CNF(missing))
            op.estimated_cardinality = self.estimator.selection_cardinality(
                root_entry.cardinality, CNF(missing)
            )
            root_entry = _Entry(op, root_entry.variables, op.estimated_cardinality)
            applied_clauses.update(id(clause) for clause in missing)

        return self._narrowed(root_entry, applied_clauses).op

    # Initial entries ----------------------------------------------------------------

    def _vertex_needs_leaf(self, variable):
        vertex = self.handler.vertices[variable]
        return (
            not vertex.predicates.is_trivial
            or bool(self.handler.property_keys(variable))
        )

    def _vertex_is_isolated(self, variable):
        return not any(
            variable in (edge.source, edge.target)
            for edge in self.handler.edges.values()
        )

    def _vertex_leaf(self, variable):
        vertex = self.handler.vertices[variable]
        keys = self.handler.property_keys(variable)
        op = SelectAndProjectVertices(self.graph, vertex, keys)
        self._share_leaf_dataset(
            op,
            (
                "v",
                tuple(sorted(vertex.labels)),
                cnf_signature(vertex.predicates),
                tuple(sorted(keys)),
            ),
        )
        op.estimated_cardinality = self.estimator.vertex_cardinality(vertex)
        return _Entry(op, frozenset([variable]), op.estimated_cardinality)

    def _share_leaf_dataset(self, op, signature):
        """Point ``op`` at an existing identical leaf's dataset, if any."""
        if not self.reuse_leaf_scans:
            return
        cached = self._leaf_dataset_cache.get(signature)
        if cached is not None:
            op._dataset = cached
        else:
            self._leaf_dataset_cache[signature] = op.evaluate()

    def _initial_entries(self):
        entries = []
        for variable in self.handler.vertices:
            if self._vertex_is_isolated(variable) or self._vertex_needs_leaf(variable):
                entries.append(self._vertex_leaf(variable))
        return entries

    # Candidate construction -------------------------------------------------------

    def _find_entry(self, entries, variable):
        for entry in entries:
            if variable in entry.variables:
                return entry
        return None

    def _find_property_join(self, entries, applied_clauses):
        """A cross-entry single-atom property equality usable as a join.

        Returns ``(left_entry, right_entry, clause, (var, key), (var, key))``
        or ``None``.
        """
        from repro.cypher.ast import PropertyAccess

        for clause in self.handler.global_predicates.clauses:
            if id(clause) in applied_clauses or len(clause.atoms) != 1:
                continue
            atom = clause.atoms[0]
            comparison = atom.comparison
            if atom.negated or comparison.operator != "=":
                continue
            left_side, right_side = comparison.left, comparison.right
            if not (
                isinstance(left_side, PropertyAccess)
                and isinstance(right_side, PropertyAccess)
            ):
                continue
            left_entry = self._find_entry(entries, left_side.variable)
            right_entry = self._find_entry(entries, right_side.variable)
            if left_entry is None or right_entry is None:
                continue
            if left_entry is right_entry:
                continue
            if not left_entry.op.meta.has_property(
                left_side.variable, left_side.key
            ) or not right_entry.op.meta.has_property(
                right_side.variable, right_side.key
            ):
                continue
            return (
                left_entry,
                right_entry,
                clause,
                (left_side.variable, left_side.key),
                (right_side.variable, right_side.key),
            )
        return None

    def _edge_candidate(self, edge, entries, applied_clauses, dry_run):
        """Best way to fold ``edge`` into the current entries.

        Returns ``(new_entry, consumed_entries)``; with ``dry_run`` no
        planner state is mutated.
        """
        source_entry = self._find_entry(entries, edge.source)
        target_entry = self._find_entry(entries, edge.target)
        if edge.is_variable_length:
            entry, consumed = self._expand_candidate(
                edge, entries, source_entry, target_entry
            )
        else:
            entry, consumed = self._join_candidate(
                edge, entries, source_entry, target_entry
            )
        entry = self._apply_available_predicates(
            entry, applied_clauses, dry_run=dry_run
        )
        return entry, consumed

    def _join_candidate(self, edge, entries, source_entry, target_entry):
        from ..morphism import MatchStrategy

        keys = self.handler.property_keys(edge.variable)
        distinct_endpoints = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        leaf = SelectAndProjectEdges(
            self.graph, edge, keys, distinct_endpoints=distinct_endpoints
        )
        self._share_leaf_dataset(
            leaf,
            (
                "e",
                tuple(sorted(edge.types)),
                cnf_signature(edge.predicates),
                tuple(sorted(keys)),
                edge.source == edge.target,
                edge.undirected,
                distinct_endpoints,
            ),
        )
        leaf.estimated_cardinality = self.estimator.edge_cardinality(edge)
        edge_vars = (
            frozenset([edge.variable, edge.source])
            if edge.source == edge.target
            else frozenset([edge.variable, edge.source, edge.target])
        )
        entry = _Entry(leaf, edge_vars, leaf.estimated_cardinality)

        if source_entry is not None and source_entry is target_entry:
            # cycle closing: both endpoints in one plan
            join_vars = [edge.source]
            if edge.source != edge.target:
                join_vars.append(edge.target)
            return self._join(source_entry, entry, join_vars, edge), [source_entry]

        consumed = [found for found in (source_entry, target_entry) if found is not None]
        source = self._endpoint(edge.source, source_entry)
        target = None
        if edge.source != edge.target:
            target = self._endpoint(edge.target, target_entry)

        if _is_vertex_leaf(source) and _is_vertex_leaf(target):
            # both ends are bare vertex leaves: the edge joins the end with
            # the smaller first join, the other leaf joins last, on the
            # right, where a columnar run looks its rows up
            by_source = self._join(source, entry, [edge.source], edge)
            by_target = self._join(target, entry, [edge.target], edge)
            if self._starts_at_target(by_source, by_target):
                return self._join(by_target, source, [edge.source], edge), consumed
            return self._join(by_source, target, [edge.target], edge), consumed

        # an end that is a partial plan is extended from its bound rows
        # first, whatever the other end's estimate: starting Q5's second
        # knows edge at the p3 leaf instead makes a bushy 5 139 x 5 139
        # hash join of two partial plans, a cost that per-operator engine
        # weights would see and a cardinality estimate does not
        if source is not None:
            entry = self._join(source, entry, [edge.source], edge)
        if target is not None:
            entry = self._join(entry, target, [edge.target], edge)
        return entry, consumed

    def _endpoint(self, variable, found):
        """What an edge endpoint joins: its entry if it has one, else a
        fresh vertex leaf if it needs one."""
        if found is None and self._vertex_needs_leaf(variable):
            return self._vertex_leaf(variable)
        return found

    def _starts_at_target(self, by_source, by_target):
        """Whether an edge between two vertex leaves joins its target first:
        on a strictly smaller first join only, a tie keeps source first."""
        return by_target.cardinality < by_source.cardinality

    def _expand_candidate(self, edge, entries, source_entry, target_entry):
        consumed = []
        if source_entry is not None:
            base, reverse = source_entry, False
            consumed.append(source_entry)
            far_entry = target_entry if target_entry is not source_entry else None
        elif target_entry is not None:
            base, reverse = target_entry, True
            consumed.append(target_entry)
            far_entry = None
        else:
            base, reverse = self._vertex_leaf(edge.source), False
            far_entry = None
        end_of_expansion = edge.source if reverse else edge.target
        closing = end_of_expansion in base.variables

        op = ExpandEmbeddings(
            base.op,
            self.graph,
            edge,
            self.vertex_strategy,
            self.edge_strategy,
            closing=closing,
            reverse=reverse,
        )
        op.estimated_cardinality = self.estimator.expand_cardinality(
            base.cardinality, edge, closing
        )
        entry = _Entry(
            op,
            base.variables | {edge.variable, edge.source, edge.target},
            op.estimated_cardinality,
        )

        end_variable = edge.source if reverse else edge.target
        if not closing:
            if far_entry is not None:
                entry = self._join(entry, far_entry, [end_variable], edge)
                consumed.append(far_entry)
            elif self._vertex_needs_leaf(end_variable):
                entry = self._join(
                    entry, self._vertex_leaf(end_variable), [end_variable], edge
                )
        return entry, consumed

    def _join(self, left, right, join_variables, edge):
        op = JoinEmbeddings(
            left.op,
            right.op,
            join_variables,
            self.vertex_strategy,
            self.edge_strategy,
            strategy=self.join_strategy,
        )
        left_distinct = self._distinct_estimate(left, join_variables, edge)
        right_distinct = self._distinct_estimate(right, join_variables, edge)
        cardinality = self.estimator.join_cardinality(
            left.cardinality, right.cardinality, left_distinct, right_distinct
        )
        op.estimated_cardinality = cardinality
        return _Entry(op, left.variables | right.variables, cardinality)

    def _distinct_estimate(self, entry, join_variables, edge):
        """Distinct join-key values a side can contribute."""
        estimate = 1.0
        for variable in join_variables:
            if isinstance(entry.op, SelectAndProjectEdges) and variable == edge.source:
                estimate *= self.estimator.edge_endpoint_distinct(edge, "source")
            elif isinstance(entry.op, SelectAndProjectEdges) and variable == edge.target:
                estimate *= self.estimator.edge_endpoint_distinct(edge, "target")
            else:
                labels = (
                    self.handler.vertices[variable].labels
                    if variable in self.handler.vertices
                    else []
                )
                estimate *= self.estimator.distinct_vertices(entry.cardinality, labels)
        return estimate

    # Predicates and projection -----------------------------------------------------

    def _apply_available_predicates(self, entry, applied_clauses, dry_run=False):
        available = []
        for clause in self.handler.global_predicates.clauses:
            if id(clause) in applied_clauses:
                continue
            if clause.variables() <= entry.variables:
                available.append(clause)
        if not available:
            return entry
        cnf = CNF(available)
        op = SelectEmbeddings(entry.op, cnf)
        op.estimated_cardinality = self.estimator.selection_cardinality(
            entry.cardinality, cnf
        )
        entry = _Entry(op, entry.variables, op.estimated_cardinality)
        if dry_run:
            return entry
        applied_clauses.update(id(clause) for clause in available)
        return self._narrowed(entry, applied_clauses)

    def _narrowed(self, entry, applied_clauses):
        """``entry`` projected to the property records read above it.

        A record is read above a partial plan when a RETURN item or
        ORDER BY key reads it, or a global clause not applied yet (a
        selection or a value join still to come).  Adds a projection only
        when ``entry`` carries a record outside that demand.
        """
        demand = self.handler.returned_properties()
        for clause in self.handler.global_predicates.clauses:
            if id(clause) not in applied_clauses:
                for variable, keys in sorted(clause.property_keys().items()):
                    demand += [(variable, key) for key in sorted(keys)]
        carried = set(entry.op.meta.property_entries())
        keep = list(dict.fromkeys(pair for pair in demand if pair in carried))
        if len(keep) == len(carried):
            return entry
        op = ProjectEmbeddings(entry.op, keep)
        op.estimated_cardinality = entry.cardinality
        return _Entry(op, entry.variables, entry.cardinality)
