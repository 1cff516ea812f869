"""Query graph construction (Definition 2.2).

Translates a parsed :class:`~repro.cypher.ast.Query` into query vertices
and query edges with attached predicate CNFs, splitting the WHERE clause
into element-local predicates (pushed to the leaf operators) and
cross-element predicates (evaluated once all variables are bound).
"""

from dataclasses import dataclass, field
from typing import List, Optional

from .ast import Direction, FunctionCall, PropertyAccess, Query, VariableRef
from .errors import CypherSemanticError
from .parser import parse
from .predicates import CNF, label_predicate, property_map_predicate, to_cnf
from .span import Span

#: Cap applied to variable-length paths declared without an upper bound
#: (``*`` or ``*2..``); Flink's bulk iteration needs a superstep limit.
DEFAULT_UPPER_BOUND = 10


@dataclass
class QueryVertex:
    """A vertex of the query graph and its pushed-down predicates."""

    variable: str
    labels: List[str] = field(default_factory=list)
    predicates: CNF = field(default_factory=CNF.true)
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def has_label_predicate(self):
        return bool(self.labels)

    def __repr__(self):
        label = ":" + "|".join(self.labels) if self.labels else ""
        return "QueryVertex(%s%s)" % (self.variable, label)


@dataclass
class QueryEdge:
    """An edge of the query graph (normalized to source -> target).

    For variable-length edges the per-hop predicates (types, properties)
    apply to every traversed edge; ``lower``/``upper`` bound the hop count.
    """

    variable: str
    source: str
    target: str
    types: List[str] = field(default_factory=list)
    predicates: CNF = field(default_factory=CNF.true)
    lower: Optional[int] = None
    upper: Optional[int] = None
    undirected: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def is_variable_length(self):
        return self.lower is not None

    @property
    def has_label_predicate(self):
        return bool(self.types)

    def __repr__(self):
        rel_type = ":" + "|".join(self.types) if self.types else ""
        span = "*%s..%s" % (self.lower, self.upper) if self.is_variable_length else ""
        return "QueryEdge(%s)-[%s%s%s]->(%s)" % (
            self.source,
            self.variable,
            rel_type,
            span,
            self.target,
        )


class QueryHandler:
    """The compiled form of a Cypher query handed to the planner."""

    def __init__(self, query, parameters=None):
        """Accepts a query string or a parsed :class:`Query`.

        ``parameters`` binds ``$name`` placeholders; a query still holding
        unbound parameters cannot be compiled.
        """
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query, Query):
            raise TypeError("expected query string or Query AST")
        from .parameters import bind_parameters, find_parameters

        if parameters:
            query = bind_parameters(query, parameters)
        unbound = find_parameters(query)
        if unbound:
            raise CypherSemanticError(
                "unbound query parameters: %s"
                % ", ".join("$" + name for name in sorted(unbound))
            )
        self._compile(query)

    @classmethod
    def _checked(cls, query):
        """The handler of a parsed ``query`` its caller has already walked
        for ``$names`` and found none unbound (a prepared statement's):
        compiled without a second walk."""
        handler = cls.__new__(cls)
        handler._compile(query)
        return handler

    def _compile(self, query):
        self.ast = query
        self.vertices = {}
        self.edges = {}
        self._anonymous_counter = 0
        self._build_pattern()
        self._attach_predicates()
        self._validate_return()

    # Construction ---------------------------------------------------------------

    def _fresh_variable(self, prefix):
        name = "__%s%d" % (prefix, self._anonymous_counter)
        self._anonymous_counter += 1
        return name

    def _build_pattern(self):
        for path in self.ast.patterns:
            node_vars = []
            for node in path.nodes:
                node_vars.append(self._add_node(node))
            for index, rel in enumerate(path.relationships):
                self._add_relationship(rel, node_vars[index], node_vars[index + 1])

    def _add_node(self, node):
        variable = node.variable or self._fresh_variable("v")
        if variable in self.edges:
            raise CypherSemanticError(
                "used for both a vertex and an edge",
                variable=variable,
                span=node.span,
            )
        existing = self.vertices.get(variable)
        if existing is None:
            existing = QueryVertex(variable, span=node.span)
            self.vertices[variable] = existing
        if node.labels:
            if not existing.labels:
                existing.labels = list(node.labels)
            # every occurrence contributes its own label clause
            existing.predicates = existing.predicates.and_(
                label_predicate(variable, node.labels)
            )
        if node.properties:
            existing.predicates = existing.predicates.and_(
                property_map_predicate(variable, node.properties)
            )
        return existing.variable

    def _add_relationship(self, rel, left_var, right_var):
        variable = rel.variable or self._fresh_variable("e")
        if variable in self.edges:
            raise CypherSemanticError(
                "edge variable bound more than once",
                variable=variable,
                span=rel.span,
            )
        if variable in self.vertices:
            raise CypherSemanticError(
                "used for both a vertex and an edge",
                variable=variable,
                span=rel.span,
            )
        if rel.direction is Direction.INCOMING:
            source, target = right_var, left_var
        else:
            source, target = left_var, right_var
        edge = QueryEdge(
            variable,
            source=source,
            target=target,
            types=list(rel.types),
            undirected=rel.direction is Direction.UNDIRECTED,
            span=rel.span,
        )
        if rel.is_variable_length:
            edge.lower = rel.lower
            edge.upper = rel.upper if rel.upper is not None else DEFAULT_UPPER_BOUND
        if rel.types:
            edge.predicates = edge.predicates.and_(
                label_predicate(variable, rel.types)
            )
        if rel.properties:
            edge.predicates = edge.predicates.and_(
                property_map_predicate(variable, rel.properties)
            )
        self.edges[variable] = edge

    def _attach_predicates(self):
        where_cnf = to_cnf(self.ast.where)
        unknown = where_cnf.variables() - set(self.vertices) - set(self.edges)
        if unknown:
            first = sorted(unknown)[0]
            raise CypherSemanticError(
                "WHERE references unbound variables: %s" % ", ".join(sorted(unknown)),
                variable=first,
                span=_variable_span(where_cnf, first),
            )
        remaining = []
        for clause in where_cnf.clauses:
            variables = clause.variables()
            if len(variables) == 1:
                (variable,) = variables
                if variable in self.vertices:
                    vertex = self.vertices[variable]
                    vertex.predicates = vertex.predicates.and_(CNF([clause]))
                    continue
                edge = self.edges[variable]
                # per-hop push-down is unsound for variable-length edges
                # only when the predicate references the path variable's
                # aggregate; simple property predicates apply to every hop.
                edge.predicates = edge.predicates.and_(CNF([clause]))
                continue
            remaining.append(clause)
        self.global_predicates = CNF(remaining)

    def _validate_return(self):
        known = set(self.vertices) | set(self.edges)
        for expression in self.return_reads():
            if isinstance(expression, PropertyAccess):
                variable = expression.variable
            elif isinstance(expression, VariableRef):
                variable = expression.name
            else:
                continue
            if variable not in known:
                raise CypherSemanticError(
                    "RETURN references unbound variable",
                    variable=variable,
                    span=getattr(expression, "span", None),
                )

    # Introspection -----------------------------------------------------------------

    @property
    def variables(self):
        return list(self.vertices) + list(self.edges)

    def return_reads(self):
        """The expressions result construction reads: the RETURN items
        (none under ``RETURN *``, which reads ids only) and the ORDER BY
        keys, with aggregate arguments unwrapped and ``count(*)`` left out.
        """
        returns = self.ast.returns
        if returns is None:
            return []
        expressions = [] if returns.star else [i.expression for i in returns.items]
        expressions += [order.expression for order in returns.order_by]
        reads = []
        for expression in expressions:
            if isinstance(expression, FunctionCall):
                expression = expression.argument
            if expression is not None:
                reads.append(expression)
        return reads

    def returned_properties(self):
        """``(variable, key)`` pairs the result reads, in RETURN order."""
        pairs = []
        for expression in self.return_reads():
            if isinstance(expression, PropertyAccess):
                pair = (expression.variable, expression.key)
                if pair not in pairs:
                    pairs.append(pair)
        return pairs

    def property_keys(self, variable):
        """Property keys of ``variable`` read after its leaf.

        Drives the projection step of SelectAndProjectVertices/-Edges
        (paper §3.1): only the keys a cross-element predicate or the
        result reads enter embeddings.  The element's own predicate is
        evaluated on the element inside the leaf, so its keys stay out.
        """
        keys = set(self.global_predicates.property_keys().get(variable, ()))
        keys.update(
            key for owner, key in self.returned_properties() if owner == variable
        )
        return keys

    def __repr__(self):
        return "QueryHandler(%d vertices, %d edges)" % (
            len(self.vertices),
            len(self.edges),
        )


def _variable_span(cnf, variable):
    """The span of the first predicate atom mentioning ``variable``."""
    for clause in cnf.clauses:
        for atom in clause.atoms:
            for side in (atom.comparison.left, atom.comparison.right):
                if getattr(side, "variable", None) == variable or getattr(
                    side, "name", None
                ) == variable:
                    return getattr(side, "span", None) or getattr(
                        atom.comparison, "span", None
                    )
    return None
