"""Static query linter: well-formedness and satisfiability checks.

Walks the parsed AST (not the compiled ``QueryHandler``, so that broken
queries still produce diagnostics instead of exceptions) and emits
:class:`~repro.analysis.diagnostics.Diagnostic` findings:

* symbol errors — unbound, shadowed and kind-conflicting variables
  (formalised as the binding rules of Marton et al., *Formalising
  openCypher Graph Queries in Relational Algebra*);
* satisfiability errors — conjunctions no element can satisfy, detected
  with a per-property interval/equality solver over the CNF;
* statistics warnings — labels and edge types with zero instances in the
  target graph (a guaranteed-empty result at run time);
* plan-shape warnings — Cartesian products from disconnected pattern
  components and silently capped unbounded ``*``-paths.

The contract with the planner, property-tested in the suite: a query the
linter passes without **errors** compiles on every planner into a plan
whose :mod:`~repro.analysis.plan` analysis finds no structural fault.
"""

from repro.cypher.ast import (
    And,
    Comparison,
    FunctionCall,
    LabelRef,
    Literal,
    Not,
    Or,
    PropertyAccess,
    Query,
    VariableRef,
    Xor,
)
from repro.cypher.errors import CypherSemanticError
from repro.cypher.parser import parse
from repro.cypher.predicates import (
    label_predicate,
    property_map_predicate,
    to_cnf,
)
from repro.cypher.query_graph import DEFAULT_UPPER_BOUND
from repro.epgm.property_value import IncomparableError, PropertyValue

from .diagnostics import Diagnostic, sort_diagnostics

_RANGE_OPERATORS = {"<", "<=", ">", ">="}
_STRING_OPERATORS = {"STARTS WITH", "ENDS WITH", "CONTAINS"}


def lint_query(query, statistics=None):
    """All diagnostics for ``query`` (a string or parsed AST), sorted."""
    return QueryLinter(query, statistics=statistics).lint()


class QueryLinter:
    """One-shot analyzer; instantiate per query and call :meth:`lint`."""

    def __init__(self, query, statistics=None):
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query, Query):
            raise TypeError("expected query string or Query AST")
        self.ast = query
        self.statistics = statistics
        self._diagnostics = []
        # symbol tables populated by _collect_symbols
        self._vertex_occurrences = {}  # name -> [NodePattern]
        self._edge_occurrences = {}  # name -> [RelationshipPattern]

    # Public API ---------------------------------------------------------------

    def lint(self):
        self._collect_symbols()
        self._check_kind_conflicts()
        self._check_references()
        self._check_predicates()
        self._check_statistics()
        self._check_connectivity()
        self._check_path_bounds()
        return sort_diagnostics(self._diagnostics)

    # Infrastructure ------------------------------------------------------------

    def _emit(self, code, message, variable=None, span=None):
        self._diagnostics.append(
            Diagnostic.of(code, message, variable=variable, span=span)
        )

    @property
    def _known_variables(self):
        return set(self._vertex_occurrences) | set(self._edge_occurrences)

    # Symbol collection ----------------------------------------------------------

    def _collect_symbols(self):
        for path in self.ast.patterns:
            for node in path.nodes:
                if node.variable is not None:
                    self._vertex_occurrences.setdefault(node.variable, []).append(
                        node
                    )
            for rel in path.relationships:
                if rel.variable is not None:
                    self._edge_occurrences.setdefault(rel.variable, []).append(rel)

    def _check_kind_conflicts(self):
        for name in set(self._vertex_occurrences) & set(self._edge_occurrences):
            rel = self._edge_occurrences[name][0]
            self._emit(
                "E103",
                "variable %r is used for both a vertex and an edge" % name,
                variable=name,
                span=rel.span,
            )
        for name, occurrences in self._edge_occurrences.items():
            if len(occurrences) > 1:
                self._emit(
                    "E104",
                    "edge variable %r is bound by %d relationships; reusing "
                    "an edge variable is not allowed"
                    % (name, len(occurrences)),
                    variable=name,
                    span=occurrences[1].span,
                )

    # Reference checks ----------------------------------------------------------

    def _expression_references(self, expression, out):
        """Collect (variable, span) references from a WHERE expression."""
        if isinstance(expression, (And, Or, Xor)):
            self._expression_references(expression.left, out)
            self._expression_references(expression.right, out)
        elif isinstance(expression, Not):
            self._expression_references(expression.operand, out)
        elif isinstance(expression, Comparison):
            self._expression_references(expression.left, out)
            self._expression_references(expression.right, out)
        elif isinstance(expression, PropertyAccess):
            out.append((expression.variable, expression.span))
        elif isinstance(expression, VariableRef):
            out.append((expression.name, expression.span))
        elif isinstance(expression, LabelRef):
            out.append((expression.variable, expression.span))
        elif isinstance(expression, FunctionCall):
            if expression.argument is not None:
                self._expression_references(expression.argument, out)
        # Literals and Parameters bind nothing.

    def _check_references(self):
        known = self._known_variables
        if self.ast.where is not None:
            references = []
            self._expression_references(self.ast.where, references)
            reported = set()
            for name, span in references:
                if name not in known and name not in reported:
                    reported.add(name)
                    self._emit(
                        "E101",
                        "WHERE references variable %r which is not bound in "
                        "MATCH" % name,
                        variable=name,
                        span=span,
                    )
        returns = self.ast.returns
        if returns is None:
            self._check_unused(set())
            return
        referenced = []
        for item in returns.items:
            self._expression_references(item.expression, referenced)
        for order in returns.order_by:
            self._expression_references(order.expression, referenced)
        reported = set()
        for name, span in referenced:
            if name not in known and name not in reported:
                reported.add(name)
                self._emit(
                    "E102",
                    "RETURN references variable %r which is not bound in "
                    "MATCH" % name,
                    variable=name,
                    span=span,
                )
        for item in returns.items:
            if item.alias is None or item.alias not in known:
                continue
            if (
                isinstance(item.expression, VariableRef)
                and item.expression.name == item.alias
            ):
                continue
            self._emit(
                "W403",
                "RETURN alias %r shadows the pattern variable of the same "
                "name" % item.alias,
                variable=item.alias,
                span=item.span,
            )
        used = {name for name, _ in referenced}
        if self.ast.where is not None:
            where_refs = []
            self._expression_references(self.ast.where, where_refs)
            used |= {name for name, _ in where_refs}
        self._check_unused(used, star=returns.star)

    def _check_unused(self, used, star=False):
        if star:
            return
        for name, occurrences in self._vertex_occurrences.items():
            # a vertex variable appearing in several node patterns joins them
            if len(occurrences) > 1 or name in used:
                continue
            if occurrences[0].labels or occurrences[0].properties:
                continue  # the occurrence constrains the match even if unread
            self._emit(
                "W404",
                "vertex variable %r is never referenced; use an anonymous "
                "node ()" % name,
                variable=name,
                span=occurrences[0].span,
            )
        for name, occurrences in self._edge_occurrences.items():
            if len(occurrences) > 1 or name in used:
                continue
            rel = occurrences[0]
            if rel.types or rel.properties or rel.is_variable_length:
                continue
            self._emit(
                "W404",
                "edge variable %r is never referenced; use an anonymous "
                "relationship" % name,
                variable=name,
                span=rel.span,
            )

    # Predicate satisfiability ----------------------------------------------------

    def _element_cnf(self):
        """The full per-query CNF the compiler would build, or None."""
        try:
            cnf = to_cnf(self.ast.where)
        except CypherSemanticError as exc:
            self._emit("E105", str(exc), span=getattr(exc, "span", None))
            return None
        for name, occurrences in self._vertex_occurrences.items():
            for node in occurrences:
                if node.labels:
                    cnf = cnf.and_(label_predicate(name, node.labels))
                if node.properties:
                    cnf = cnf.and_(property_map_predicate(name, node.properties))
        for name, occurrences in self._edge_occurrences.items():
            for rel in occurrences:
                if rel.types:
                    cnf = cnf.and_(label_predicate(name, rel.types))
                if rel.properties:
                    cnf = cnf.and_(property_map_predicate(name, rel.properties))
        return cnf

    def _check_predicates(self):
        cnf = self._element_cnf()
        if cnf is None:
            return
        solver = _ConjunctionSolver()
        for clause in cnf.clauses:
            if len(clause.atoms) == 1 and not clause.atoms[0].negated:
                comparison = clause.atoms[0].comparison
                finding = solver.add(comparison)
                if finding is not None:
                    code, message, variable = finding
                    self._emit(
                        code, message, variable=variable,
                        span=_comparison_span(comparison),
                    )
            else:
                # disjunctions of label atoms still constrain one variable
                labels = _label_alternation(clause)
                if labels is not None:
                    variable, allowed = labels
                    finding = solver.add_label_set(variable, allowed)
                    if finding is not None:
                        code, message = finding
                        self._emit(code, message, variable=variable)
        for code, message, variable in solver.close():
            self._emit(code, message, variable=variable)

    # Statistics ---------------------------------------------------------------

    def _check_statistics(self):
        statistics = self.statistics
        if statistics is None:
            return
        seen_vertex_labels = set()
        for name, occurrences in self._vertex_occurrences.items():
            for node in occurrences:
                key = (name, tuple(node.labels))
                if not node.labels or key in seen_vertex_labels:
                    continue
                seen_vertex_labels.add(key)
                if statistics.vertices_with_labels(node.labels) == 0:
                    self._emit(
                        "W301",
                        "no vertices with label%s %s exist in the graph; "
                        "the result is empty"
                        % (
                            "s" if len(node.labels) > 1 else "",
                            "|".join(node.labels),
                        ),
                        variable=name,
                        span=node.span,
                    )
        for path in self.ast.patterns:
            for node in path.nodes:
                if node.variable is None and node.labels:
                    if statistics.vertices_with_labels(node.labels) == 0:
                        self._emit(
                            "W301",
                            "no vertices with label %s exist in the graph; "
                            "the result is empty" % "|".join(node.labels),
                            span=node.span,
                        )
            for rel in path.relationships:
                if rel.types and statistics.edges_with_labels(rel.types) == 0:
                    self._emit(
                        "W302",
                        "no edges with type %s exist in the graph; the "
                        "result is empty" % "|".join(rel.types),
                        variable=rel.variable,
                        span=rel.span,
                    )

    # Pattern shape --------------------------------------------------------------

    def _check_connectivity(self):
        parent = {}

        def find(item):
            root = item
            while parent[root] != root:
                root = parent[root]
            while parent[item] != root:
                parent[item], item = root, parent[item]
            return root

        def union(left, right):
            parent.setdefault(left, left)
            parent.setdefault(right, right)
            parent[find(left)] = find(right)

        anonymous = 0
        component_count = 0
        for path in self.ast.patterns:
            names = []
            for node in path.nodes:
                if node.variable is not None:
                    names.append(node.variable)
                else:
                    names.append("__anon%d" % anonymous)
                    anonymous += 1
            for name in names:
                parent.setdefault(name, name)
            for index in range(1, len(names)):
                union(names[index - 1], names[index])
        roots = {find(name) for name in parent}
        component_count = len(roots)
        if component_count > 1:
            self._emit(
                "W401",
                "the MATCH pattern has %d disconnected components; they "
                "combine as a Cartesian product whose size is the product "
                "of the component result sizes" % component_count,
            )

    def _check_path_bounds(self):
        for path in self.ast.patterns:
            for rel in path.relationships:
                if rel.is_variable_length and rel.upper is None:
                    self._emit(
                        "W402",
                        "variable-length path %s has no upper bound; "
                        "traversal is capped at %d hops"
                        % (
                            "*%d.." % rel.lower,
                            DEFAULT_UPPER_BOUND,
                        ),
                        variable=rel.variable,
                        span=rel.span,
                    )


# Satisfiability solver ---------------------------------------------------------


def _comparison_span(comparison):
    for side in (comparison.left, comparison.right):
        span = getattr(side, "span", None)
        if span is not None:
            return span
    return comparison.span


def _type_class(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    return "other"


class _PropertyState:
    """Accumulated definite constraints on one ``variable.key``."""

    __slots__ = (
        "eq", "lower", "lower_strict", "upper", "upper_strict",
        "not_equal", "is_null", "not_null", "types", "in_lists",
    )

    def __init__(self):
        self.eq = None  # PropertyValue
        self.lower = None  # (PropertyValue, strict)
        self.lower_strict = False
        self.upper = None
        self.upper_strict = False
        self.not_equal = []
        self.is_null = False
        self.not_null = False
        self.types = set()  # required type classes; >1 entries = conflict
        self.in_lists = []


class _ConjunctionSolver:
    """Detects unsatisfiable conjunctions of single-atom clauses.

    Feed it the comparisons of every one-atom CNF clause; it reports a
    contradiction the moment one becomes provable.  Sound but deliberately
    incomplete: disjunctions (other than label alternations) are ignored,
    so it never calls a satisfiable query unsatisfiable.
    """

    def __init__(self):
        self._properties = {}  # (variable, key) -> _PropertyState
        self._labels = {}  # variable -> allowed label set
        self._reported = set()

    # Label handling -------------------------------------------------------------

    def add_label_set(self, variable, labels):
        allowed = self._labels.get(variable)
        if allowed is None:
            self._labels[variable] = set(labels)
            return None
        merged = allowed & set(labels)
        self._labels[variable] = merged
        if not merged and ("label", variable) not in self._reported:
            self._reported.add(("label", variable))
            return (
                "E202",
                "variable %r would need labels from %s and %s at the same "
                "time; no element satisfies both"
                % (variable, "|".join(sorted(allowed)), "|".join(sorted(labels))),
            )
        return None

    # Comparison handling --------------------------------------------------------

    def add(self, comparison):
        """Returns ``(code, message, variable)`` on contradiction else None."""
        left, right, operator = comparison.left, comparison.right, comparison.operator

        if isinstance(left, LabelRef) and isinstance(right, Literal):
            if operator == "=":
                finding = self.add_label_set(left.variable, {right.value})
                if finding is not None:
                    return finding + (left.variable,)
            return None

        if isinstance(left, Literal) and isinstance(right, Literal):
            return self._constant_comparison(comparison)

        if isinstance(left, PropertyAccess):
            prop, other = left, right
        elif isinstance(right, PropertyAccess) and operator in ("=", "<>"):
            prop, other = right, left  # symmetric operators only
        elif isinstance(right, PropertyAccess) and operator in _RANGE_OPERATORS:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[operator]
            return self.add(Comparison(flipped, right, left, span=comparison.span))
        else:
            return None

        if operator == "IS NULL":
            return self._set_null(prop, True)
        if operator == "IS NOT NULL":
            return self._set_null(prop, False)
        if not isinstance(other, Literal):
            return None  # property-to-property: out of scope
        if other.value is None:
            return (
                "E201",
                "%s %s NULL is never true; use IS NULL" % (prop, operator),
                prop.variable,
            )
        if operator == "IN":
            return self._add_in(prop, other)
        if operator in _STRING_OPERATORS:
            return self._require_type(prop, "string", operator)
        if operator == "=":
            return self._add_equality(prop, other)
        if operator == "<>":
            return self._add_inequality(prop, other)
        if operator in _RANGE_OPERATORS:
            return self._add_range(prop, operator, other)
        return None

    def close(self):
        """Final interval checks once every conjunct has been added."""
        findings = []
        for (variable, key), state in self._properties.items():
            if state.lower is None or state.upper is None:
                continue
            if ("prop", variable, key) in self._reported:
                continue
            verdict = self._interval_empty(state)
            if verdict is not None:
                self._reported.add(("prop", variable, key))
                findings.append((verdict[0], verdict[1], variable))
        return findings

    # Internals ------------------------------------------------------------------

    def _state(self, prop):
        return self._properties.setdefault(
            (prop.variable, prop.key), _PropertyState()
        )

    def _constant_comparison(self, comparison):
        left_value = PropertyValue(comparison.left.value)
        right_value = PropertyValue(comparison.right.value)
        operator = comparison.operator
        if operator in ("=", "<>"):
            result = (left_value == right_value) == (operator == "=")
            if not result:
                return (
                    "E201",
                    "constant comparison %s is always false" % (comparison,),
                    None,
                )
            return None
        if operator in _RANGE_OPERATORS:
            try:
                outcome = left_value.compare(right_value)
            except IncomparableError:
                return (
                    "E105",
                    "constant comparison %s mixes incomparable types %s and "
                    "%s" % (comparison, left_value.type_name,
                            right_value.type_name),
                    None,
                )
            satisfied = {
                "<": outcome < 0,
                "<=": outcome <= 0,
                ">": outcome > 0,
                ">=": outcome >= 0,
            }[operator]
            if not satisfied:
                return (
                    "E201",
                    "constant comparison %s is always false" % (comparison,),
                    None,
                )
        return None

    def _set_null(self, prop, to_null):
        state = self._state(prop)
        if to_null:
            state.is_null = True
        else:
            state.not_null = True
        if state.is_null and (
            state.not_null
            or state.eq is not None
            or state.lower is not None
            or state.upper is not None
            or state.in_lists
            or state.types
        ):
            return self._conflict(
                prop,
                "%s is required to be NULL and non-NULL at once" % (prop,),
            )
        return None

    def _require_type(self, prop, type_class, operator):
        state = self._state(prop)
        state.types.add(type_class)
        if state.is_null:
            return self._conflict(
                prop, "%s is required to be NULL but %r needs a value"
                % (prop, operator),
            )
        if len(state.types) > 1:
            return (
                "E105",
                "%s is required to be %s at the same time; no value "
                "satisfies every comparison"
                % (prop, " and ".join(sorted(state.types))),
                prop.variable,
            )
        return None

    def _add_in(self, prop, literal):
        values = literal.value
        if not isinstance(values, list):
            return None
        if not values:
            return self._conflict(
                prop, "%s IN [] is never true" % (prop,)
            )
        state = self._state(prop)
        state.in_lists.append([PropertyValue(item) for item in values])
        if state.eq is not None and all(
            state.eq != item for item in state.in_lists[-1]
        ):
            return self._conflict(
                prop,
                "%s = %s contradicts %s IN %s"
                % (prop, state.eq.raw(), prop, values),
            )
        return None

    def _add_equality(self, prop, literal):
        state = self._state(prop)
        value = PropertyValue(literal.value)
        if state.is_null:
            return self._conflict(
                prop, "%s is required to be NULL and equal to %r at once"
                % (prop, literal.value),
            )
        type_finding = self._require_type(prop, _type_class(literal.value), "=")
        if type_finding is not None:
            return type_finding
        if state.eq is not None and state.eq != value:
            return self._conflict(
                prop,
                "%s cannot equal both %r and %r" % (
                    prop, state.eq.raw(), literal.value
                ),
            )
        state.eq = value
        for other in state.not_equal:
            if other == value:
                return self._conflict(
                    prop,
                    "%s = %r contradicts %s <> %r"
                    % (prop, literal.value, prop, literal.value),
                )
        for in_list in state.in_lists:
            if all(value != item for item in in_list):
                return self._conflict(
                    prop,
                    "%s = %r contradicts an earlier IN list" % (
                        prop, literal.value
                    ),
                )
        return self._check_equality_against_range(prop, state)

    def _add_inequality(self, prop, literal):
        state = self._state(prop)
        value = PropertyValue(literal.value)
        state.not_equal.append(value)
        if state.eq is not None and state.eq == value:
            return self._conflict(
                prop,
                "%s = %r contradicts %s <> %r"
                % (prop, state.eq.raw(), prop, literal.value),
            )
        return None

    def _add_range(self, prop, operator, literal):
        state = self._state(prop)
        value = PropertyValue(literal.value)
        type_finding = self._require_type(
            prop, _type_class(literal.value), operator
        )
        if type_finding is not None:
            return type_finding
        if operator in (">", ">="):
            replace = state.lower is None or self._tighter(
                value, state.lower, prefer_larger=True
            )
            if replace:
                state.lower = value
                state.lower_strict = operator == ">"
            elif state.lower == value and operator == ">":
                state.lower_strict = True
        else:
            replace = state.upper is None or self._tighter(
                value, state.upper, prefer_larger=False
            )
            if replace:
                state.upper = value
                state.upper_strict = operator == "<"
            elif state.upper == value and operator == "<":
                state.upper_strict = True
        interval = self._interval_empty(state)
        if interval is not None:
            return self._conflict(prop, interval[1], code=interval[0])
        return self._check_equality_against_range(prop, state)

    @staticmethod
    def _tighter(candidate, incumbent, prefer_larger):
        try:
            outcome = candidate.compare(incumbent)
        except IncomparableError:
            return False
        return outcome > 0 if prefer_larger else outcome < 0

    def _interval_empty(self, state):
        if state.lower is None or state.upper is None:
            return None
        try:
            outcome = state.lower.compare(state.upper)
        except IncomparableError:
            return (
                "E105",
                "range bounds %r and %r have incomparable types"
                % (state.lower.raw(), state.upper.raw()),
            )
        if outcome > 0 or (
            outcome == 0 and (state.lower_strict or state.upper_strict)
        ):
            return (
                "E201",
                "the required range (%s%r, %r%s) is empty"
                % (
                    "(" if state.lower_strict else "[",
                    state.lower.raw(),
                    state.upper.raw(),
                    ")" if state.upper_strict else "]",
                ),
            )
        return None

    def _check_equality_against_range(self, prop, state):
        if state.eq is None:
            return None
        for bound, strict, below in (
            (state.lower, state.lower_strict, True),
            (state.upper, state.upper_strict, False),
        ):
            if bound is None:
                continue
            try:
                outcome = state.eq.compare(bound)
            except IncomparableError:
                return (
                    "E105",
                    "%s = %r cannot be compared with the range bound %r"
                    % (prop, state.eq.raw(), bound.raw()),
                    prop.variable,
                )
            if below and (outcome < 0 or (outcome == 0 and strict)):
                return self._conflict(
                    prop,
                    "%s = %r lies below the required lower bound %r"
                    % (prop, state.eq.raw(), bound.raw()),
                )
            if not below and (outcome > 0 or (outcome == 0 and strict)):
                return self._conflict(
                    prop,
                    "%s = %r lies above the required upper bound %r"
                    % (prop, state.eq.raw(), bound.raw()),
                )
        return None

    def _conflict(self, prop, message, code="E201"):
        key = ("prop", prop.variable, prop.key)
        if key in self._reported:
            return None
        self._reported.add(key)
        return (code, message, prop.variable)


def _label_alternation(clause):
    """``(variable, labels)`` if the clause is a pure label alternation."""
    variable = None
    labels = set()
    for atom in clause.atoms:
        comparison = atom.comparison
        if atom.negated or comparison.operator != "=":
            return None
        if not isinstance(comparison.left, LabelRef) or not isinstance(
            comparison.right, Literal
        ):
            return None
        if variable is None:
            variable = comparison.left.variable
        elif variable != comparison.left.variable:
            return None
        labels.add(comparison.right.value)
    if variable is None:
        return None
    return variable, labels
