"""Query parameter binding (``$name`` placeholders).

Parameters keep query plans reusable and values out of the query text —
the paper's operational queries 1–3 are parameterized by ``firstName``
exactly for this purpose.  Two binding modes exist:

* **Deferred** (:func:`parameterize`): every ``$name`` is replaced by a
  :class:`ParameterSlot` that reads its value from a shared, mutable
  :class:`ParameterBinding` at *predicate-evaluation* time.  One compiled
  plan is re-executed with different bindings — the prepared statement
  of :mod:`repro.engine.prepared`, which is how the engine compiles and
  runs every query text.
* **Eager** (:func:`bind_parameters`): every ``$name`` is replaced by a
  :class:`~repro.cypher.ast.Literal`.  A new value means a new AST; the
  engine uses it only to re-lint a statement's text with the candidate
  values, and ``QueryHandler(query, parameters=...)`` uses it for the
  independent oracle (:mod:`repro.engine.naive`).

.. code-block:: python

    query = parse("MATCH (p:Person {firstName: $name}) RETURN *")
    bound = bind_parameters(query, {"name": "Jan"})        # eager

    binding = ParameterBinding({"name"})
    slotted = parameterize(query, binding)                  # deferred
    binding.assign({"name": "Jan"})                         # before each run
"""

from dataclasses import replace

from .ast import (
    And,
    Comparison,
    Literal,
    Not,
    Or,
    Parameter,
    PathPattern,
    Query,
    Xor,
)
from .errors import CypherSemanticError


class ParameterBinding:
    """The mutable value store shared by a prepared plan's slots.

    One instance backs every :class:`ParameterSlot` of one compiled plan;
    :meth:`assign` swaps the full value set between executions.  The
    ``generation`` counter increments on every assignment so caches can
    tell result sets of different bindings apart.
    """

    __slots__ = ("names", "generation", "_values")

    def __init__(self, names):
        #: the parameter names the query declares; assignment is validated
        #: against this set
        self.names = frozenset(names)
        self.generation = 0
        self._values = {}

    def assign(self, values):
        """Install a complete set of parameter values (see :meth:`check`)."""
        self._values = self.check(values)
        self.generation += 1
        return self

    def check(self, values):
        """``values`` as a dict, when they name exactly the declared names.

        Raises :class:`CypherSemanticError` for missing or undeclared
        names — prepared statements are strict, unlike the eager binder,
        because a typo here would otherwise silently reuse a stale value.
        """
        values = dict(values or {})
        missing = self.names - set(values)
        if missing:
            raise CypherSemanticError(
                "no value for query parameter(s): %s"
                % ", ".join("$" + name for name in sorted(missing))
            )
        unknown = set(values) - self.names
        if unknown:
            raise CypherSemanticError(
                "unknown query parameter(s): %s"
                % ", ".join("$" + name for name in sorted(unknown))
            )
        return values

    def value_of(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise CypherSemanticError(
                "parameter $%s read before any binding was assigned" % name
            ) from None

    @property
    def values(self):
        return dict(self._values)

    def __repr__(self):
        return "ParameterBinding(%s, generation=%d)" % (
            sorted(self.names), self.generation
        )


class ParameterSlot:
    """A ``$name`` expression resolved through a :class:`ParameterBinding`.

    Unlike :class:`~repro.cypher.ast.Parameter` (a parse-time placeholder
    that must be eliminated before compilation), a slot is a legal
    comparison side all the way through planning and execution: predicate
    evaluation looks the current value up on every call, so re-executing
    the plan after :meth:`ParameterBinding.assign` sees the new values.
    """

    __slots__ = ("name", "binding", "span")

    def __init__(self, name, binding, span=None):
        self.name = name
        self.binding = binding
        #: the ``$name``'s place in the query text
        self.span = span

    def current(self):
        return self.binding.value_of(self.name)

    def __str__(self):
        return "$%s" % self.name

    def __repr__(self):
        return "ParameterSlot($%s)" % self.name


def _transform_query(query, resolve):
    """A structural copy of ``query`` with ``resolve`` applied to every
    expression position that may hold a parameter; every clone keeps its
    node's source span, so plan diagnostics of a ``$parameter`` text
    point where those of its literal twin do."""

    def walk(node):
        resolved = resolve(node)
        if resolved is not node:
            return resolved
        if isinstance(node, (Comparison, And, Or, Xor)):
            return replace(node, left=walk(node.left), right=walk(node.right))
        if isinstance(node, Not):
            return replace(node, operand=walk(node.operand))
        return node

    def element(pattern, **lists):
        properties = [(key, walk(value)) for key, value in pattern.properties]
        return replace(pattern, properties=properties, **lists)

    patterns = [
        PathPattern(
            [element(node, labels=list(node.labels)) for node in path.nodes],
            [element(rel, types=list(rel.types)) for rel in path.relationships],
        )
        for path in query.patterns
    ]

    where = walk(query.where) if query.where is not None else None

    returns = query.returns
    if returns is not None:
        returns = replace(
            returns,
            items=[
                replace(item, expression=walk(item.expression))
                for item in returns.items
            ],
            order_by=[
                replace(order, expression=walk(order.expression))
                for order in returns.order_by
            ],
        )

    return Query(patterns=patterns, where=where, returns=returns)


def bind_parameters(query, parameters=None):
    """A copy of ``query`` with every ``$name`` replaced by its value.

    Raises :class:`CypherSemanticError` for unbound parameters; unused
    parameter values are ignored (like Neo4j).
    """
    parameters = parameters or {}

    def resolve(node):
        if isinstance(node, Parameter):
            if node.name not in parameters:
                raise CypherSemanticError(
                    "no value for query parameter $%s" % node.name
                )
            return Literal(parameters[node.name], span=node.span)
        return node

    return _transform_query(query, resolve)


def parameterize(query, binding):
    """A copy of ``query`` with every ``$name`` replaced by a slot reading
    from ``binding``; raises when the query declares a parameter the
    binding does not know about."""

    def resolve(node):
        if isinstance(node, Parameter):
            if node.name not in binding.names:
                raise CypherSemanticError(
                    "parameter $%s is not declared in the binding" % node.name
                )
            return ParameterSlot(node.name, binding, node.span)
        return node

    return _transform_query(query, resolve)


def find_parameters(query):
    """Names of all ``$parameters`` appearing in a parsed query."""
    names = set()

    def walk(node):
        if isinstance(node, Parameter):
            names.add(node.name)
        elif isinstance(node, Comparison):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (And, Or, Xor)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Not):
            walk(node.operand)

    for path in query.patterns:
        for element in list(path.nodes) + list(path.relationships):
            for _, value in element.properties:
                walk(value)
    if query.where is not None:
        walk(query.where)
    if query.returns is not None:
        for item in query.returns.items:
            walk(item.expression)
        for order in query.returns.order_by:
            walk(order.expression)
    return names
