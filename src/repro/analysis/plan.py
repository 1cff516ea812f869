"""One static analysis of a physical plan: structure, layout, demand, bounds.

Paper §3.2–3.3 gives every physical operator one
:class:`~repro.engine.embedding.EmbeddingMetaData`, and every static
plan check is a fact about that metadata.  Each operator states its own
rule for each fact (the operator contract of
:class:`~repro.engine.operators.base.PhysicalOperator`); this module
composes the rules bottom-up in one place.  :func:`analyze_plan` makes

* one **postorder** pass (children first).  At each operator it runs the
  structural self-check (``check_structure``) plus the invariants every
  operator shares, derives the output :class:`EmbeddingLayout` from the
  children's (``derive_layout``) and compares it with the declared
  metadata and the configured morphism, and — given graph statistics —
  composes the worst-case cardinality bound (``cardinality_bound``),
  priced in bytes at the layout just derived;
* one **preorder** pass (parents first), propagating what the RETURN
  clause reads down the plan (``demand_on_children``) and flagging bytes
  an operator introduces that nothing downstream reads.

=====  =================================================================
code   finding
=====  =================================================================
S300   a structural invariant (the rule name leads the message)
S301   derived column count disagrees with the declared metadata
S302   derived entry kind or column order disagrees with the metadata
S303   a path column with malformed or missing hop bounds
S304   derived property-record sequence disagrees with the metadata
S305   the configured morphism is not guaranteed at an operator
S306   join or expansion keys are statically incompatible
S401   an id column no consumer reads
S402   a property record loaded but never read
S403   path contents carried but never read
=====  =================================================================

``S301``–``S306`` are the static mirrors of the sanitizer's ``S2xx``:
a plan whose analysis is :attr:`~PlanAnalysis.proven` cannot produce an
``S2xx`` finding under fully sanitized execution (the property suite
pins this).  The planner computes property demand itself, so an
``S402`` on a planned query is a planner defect; ``S401`` and ``S403``
stay, because ids and paths are structural.

The bounds compose into the :class:`CostCertificate` that the query
service's admission control compares with its ``max_cost_bound``
(``S405``).  A leaf emits at most its label count, a join at most
``|L| · |R|``, an expansion at most ``|input| · Σ d_max^h`` over its hop
range (``d_max`` the per-label worst-case fan-out of
:class:`~repro.engine.statistics.GraphStatistics`), and selections and
projections never grow their input.
"""

import math
from typing import List, Optional

from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef
from repro.engine.embedding import ENTRY_WIDTH, PATH_COUNT_WIDTH
from repro.engine.morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    MatchStrategy,
)
from repro.engine.operators.base import Demand, EmbeddingLayout

from .diagnostics import Diagnostic, sort_diagnostics

#: assumed worst-case serialized size of one property record (2-byte
#: length prefix + value).  Property values are statically unbounded, so
#: this is a pricing convention, not a proven cap — the cardinality
#: bounds, which drive admission, do not depend on it.
PROPERTY_RECORD_BOUND = 256

_VALID_KINDS = {"v", "e", "p"}

_DEAD_CODES = ("S401", "S402", "S403")


class OperatorBound:
    """The certified worst case of one operator's output."""

    __slots__ = ("operator", "cardinality_bound", "row_bytes_bound",
                 "bytes_bound")

    def __init__(self, operator, cardinality_bound, row_bytes_bound):
        #: ``describe()`` of the bounded operator
        self.operator = operator
        self.cardinality_bound = cardinality_bound
        self.row_bytes_bound = row_bytes_bound
        self.bytes_bound = (
            math.inf if cardinality_bound == math.inf
            else cardinality_bound * row_bytes_bound
        )

    def __repr__(self):
        return "OperatorBound(%s, card<=%s, bytes<=%s)" % (
            self.operator, self.cardinality_bound, self.bytes_bound
        )


class CostCertificate:
    """Statically proven cost bounds for one physical plan."""

    def __init__(self, records, statistics_version=0):
        self.records: List[OperatorBound] = list(records)
        #: the :attr:`GraphStatistics.version` the bounds were proven
        #: against — a version bump invalidates the certificate exactly
        #: like it invalidates cached plans
        self.statistics_version = statistics_version

    @property
    def max_cardinality_bound(self):
        return max(
            (r.cardinality_bound for r in self.records), default=0
        )

    @property
    def total_bytes_bound(self):
        return sum(r.bytes_bound for r in self.records)

    def worst(self) -> Optional[OperatorBound]:
        if not self.records:
            return None
        return max(self.records, key=lambda r: r.cardinality_bound)

    def admissible(self, max_cost_bound):
        """True when every operator's cardinality bound fits the budget."""
        if max_cost_bound is None:
            return True
        return self.max_cardinality_bound <= max_cost_bound

    def diagnostic(self, max_cost_bound):
        """The ``S405`` finding for an inadmissible plan (else ``None``)."""
        if self.admissible(max_cost_bound):
            return None
        worst = self.worst()
        return Diagnostic.of(
            "S405",
            "%s: certified output bound %s exceeds the admission "
            "threshold %s (certified bytes moved <= %s)"
            % (
                worst.operator,
                _format_bound(worst.cardinality_bound),
                _format_bound(max_cost_bound),
                _format_bound(self.total_bytes_bound),
            ),
        )

    def format_table(self):
        lines = ["%-60s %14s %16s" % ("operator", "card<=", "bytes<=")]
        for record in self.records:
            lines.append(
                "%-60s %14s %16s"
                % (
                    record.operator[:60],
                    _format_bound(record.cardinality_bound),
                    _format_bound(record.bytes_bound),
                )
            )
        return "\n".join(lines)

    def format_summary(self):
        return "max cardinality <= %s, bytes moved <= %s" % (
            _format_bound(self.max_cardinality_bound),
            _format_bound(self.total_bytes_bound),
        )


def _format_bound(value):
    if value == math.inf:
        return "unbounded"
    if value >= 1e6:
        return "%.3g" % value
    return "%d" % value


class PlanAnalysis:
    """Everything one :func:`analyze_plan` pass found out about a plan."""

    def __init__(self, diagnostics, layouts, demands, bounds, certificate):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: the composed bounds; ``None`` when no statistics were given
        self.certificate: Optional[CostCertificate] = certificate
        # each keyed by id(operator)
        self._layouts = layouts
        self._demands = demands
        self._bounds = bounds

    def layout_of(self, operator) -> Optional[EmbeddingLayout]:
        """The layout derived for ``operator``'s output."""
        return self._layouts.get(id(operator))

    def demand_of(self, operator) -> Optional[Demand]:
        """What downstream consumers read of ``operator``'s output."""
        return self._demands.get(id(operator))

    def bound_of(self, operator) -> Optional[OperatorBound]:
        """``operator``'s certified worst case (``None`` without
        statistics)."""
        return self._bounds.get(id(operator))

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def proven(self):
        """True when the structural and layout contracts hold statically
        (dead bytes are warnings and do not refute them)."""
        return not self.errors

    @property
    def clean(self):
        """True when, in addition, every carried byte is read."""
        return not self.diagnostics

    def format_summary(self):
        dead = {code: 0 for code in _DEAD_CODES}
        for diagnostic in self.diagnostics:
            if diagnostic.code in dead:
                dead[diagnostic.code] += 1
        summary = (
            "analysis: %d operator(s), %s, %d dead column(s), "
            "%d dead property record(s), %d dead path(s)"
            % (
                len(self._layouts),
                "layout proven" if self.proven
                else "NOT proven (%d error(s))" % len(self.errors),
                dead["S401"],
                dead["S402"],
                dead["S403"],
            )
        )
        if self.certificate is not None:
            summary += ", " + self.certificate.format_summary()
        return summary


def analyze_plan(root, handler=None, statistics=None, vertex_strategy=None,
                 edge_strategy=None):
    """Analyze the plan under ``root``; returns a :class:`PlanAnalysis`.

    ``handler`` (the compiled :class:`~repro.cypher.QueryHandler`)
    enables the whole-query checks and supplies the root demand from the
    RETURN clause; without one every root byte is conservatively live.
    ``statistics`` enables the cost bounds.  The strategies pin the
    morphism the plan will execute under (defaulting like the engine
    does); given explicitly, the plan's own strategies must match them.
    """
    return _Analyzer(
        handler, statistics, vertex_strategy, edge_strategy
    ).run(root)


class _Analyzer:
    """One analysis: the postorder pass, then the preorder pass."""

    def __init__(self, handler, statistics, vertex_strategy, edge_strategy):
        self.handler = handler
        self.statistics = statistics
        #: the strategies the caller pinned (``None`` = not pinned)
        self.configured = (vertex_strategy, edge_strategy)
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self.diagnostics = []
        self.layouts = {}
        self.demands = {}
        self.bounds = {}

    def run(self, root):
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        strategies = set()
        records = []
        for op in root.postorder():
            flag = self._flagger(op)
            rule = self._flagger(op, structural=True)
            self._check_meta(op, rule)
            self._check_cardinality(op, rule)
            # the self-checks are stated against the inputs' metadata; an
            # input without any was already reported at its own node
            if all(child.meta is not None for child in op.children):
                op.check_structure(rule)
            if op.vertex_strategy is not None:
                strategies.add((op.vertex_strategy, op.edge_strategy))
            layout = op.derive_layout(
                [self.layouts[id(child)] for child in op.children],
                vertex_iso,
                flag,
            )
            self.layouts[id(op)] = layout
            self._check_declared(op, layout, flag)
            if not layout.morphism_ok:
                flag(
                    "S305",
                    "output is not statically guaranteed to satisfy "
                    "vertex=%s, edge=%s"
                    % (self.vertex_strategy.value, self.edge_strategy.value),
                )
            if self.statistics is not None:
                bound = OperatorBound(
                    op.describe(),
                    op.cardinality_bound(
                        [self.bounds[id(child)].cardinality_bound
                         for child in op.children],
                        self.statistics,
                    ),
                    _row_bytes_bound(op.meta, layout.path_bounds),
                )
                self.bounds[id(op)] = bound
                records.append(bound)
        self._check_strategies(root, strategies)
        if self.handler is not None:
            self._check_root(root)

        self.demands[id(root)] = self._root_demand(root)
        for op in root.preorder():
            demand = self.demands[id(op)].restricted_to(op.meta)
            self.demands[id(op)] = demand
            child_demands = op.demand_on_children(
                demand, vertex_iso, edge_iso, self._flagger(op)
            )
            for child, child_demand in zip(op.children, child_demands):
                self.demands[id(child)] = child_demand

        certificate = None
        if self.statistics is not None:
            certificate = CostCertificate(
                records,
                statistics_version=getattr(self.statistics, "version", 0),
            )
        return PlanAnalysis(
            sort_diagnostics(self.diagnostics), self.layouts, self.demands,
            self.bounds, certificate,
        )

    def _flagger(self, op, structural=False):
        """The ``flag(code_or_rule, detail)`` callback for ``op``'s rules.

        Structural rules report a rule name, which leads the message of
        one ``S300`` diagnostic; the other rules report their code.
        """
        def flag(name, detail):
            if structural:
                code, message = "S300", "%s: %s: %s" % (
                    name, op.describe(), detail
                )
            else:
                code, message = name, "%s: %s" % (op.describe(), detail)
            self.diagnostics.append(
                Diagnostic.of(code, message, span=op.span())
            )

        return flag

    # Invariants of every operator ----------------------------------------------

    def _check_meta(self, op, rule):
        meta = op.meta
        if meta is None:
            return  # S301, from the declared-metadata comparison
        columns = sorted(meta.entry_column(v) for v in meta.variables)
        if columns != list(range(len(columns))):
            rule(
                "meta-columns",
                "entry columns %s are not the contiguous range 0..%d"
                % (columns, len(columns) - 1),
            )
        for variable in meta.variables:
            kind = meta.entry_kind(variable)
            if kind not in _VALID_KINDS:
                rule(
                    "meta-kind",
                    "variable %r has invalid kind %r" % (variable, kind),
                )
        for index, (variable, key) in enumerate(meta.property_entries()):
            if not meta.has_variable(variable):
                rule(
                    "meta-property-orphan",
                    "property %s.%s has no backing variable entry"
                    % (variable, key),
                )
            if meta.property_index(variable, key) != index:
                rule(
                    "meta-property-index",
                    "property %s.%s maps to index %d, expected %d"
                    % (variable, key, meta.property_index(variable, key),
                       index),
                )

    def _check_cardinality(self, op, rule):
        estimate = op.estimated_cardinality
        if estimate is None:
            rule("cardinality-missing", "planner left no cardinality estimate")
        elif not math.isfinite(estimate) or estimate < 0:
            rule(
                "cardinality-invalid",
                "estimate %r is not a finite non-negative number" % estimate,
            )

    def _check_declared(self, op, layout, flag):
        """The derived layout against the metadata ``op`` declares."""
        meta = op.meta
        if meta is None:
            flag("S301", "operator declares no metadata")
            return
        if meta.column_count != len(layout.entries):
            flag(
                "S301",
                "derived layout has %d column(s) (%d id_data bytes) but the "
                "metadata declares %d (%d bytes)"
                % (
                    len(layout.entries),
                    layout.id_width(),
                    meta.column_count,
                    meta.column_count * ENTRY_WIDTH,
                ),
            )
        for column, (variable, kind) in enumerate(layout.entries):
            if not meta.has_variable(variable):
                flag(
                    "S302",
                    "derived column %d binds %r but the metadata does not "
                    "map it" % (column, variable),
                )
                continue
            declared_column = meta.entry_column(variable)
            declared_kind = meta.entry_kind(variable)
            if declared_column != column:
                flag(
                    "S302",
                    "%r derives to column %d but the metadata maps it to %d"
                    % (variable, column, declared_column),
                )
            if declared_kind != kind:
                flag(
                    "S302",
                    "%r derives to kind %r but the metadata declares %r"
                    % (variable, kind, declared_kind),
                )
        declared_props = tuple(meta.property_entries())
        if declared_props != layout.properties:
            flag(
                "S304",
                "derived property sequence %s disagrees with the declared "
                "mapping %s"
                % (
                    _format_pairs(layout.properties),
                    _format_pairs(declared_props),
                ),
            )
        for variable, kind in layout.entries:
            if kind == "p" and variable not in layout.path_bounds:
                flag(
                    "S303",
                    "path column %r has no declared hop bounds" % variable,
                )

    # Whole-plan invariants ------------------------------------------------------

    def _check_strategies(self, root, strategies):
        rule = self._flagger(root, structural=True)
        if len(strategies) > 1:
            rule(
                "morphism-inconsistent",
                "operators disagree on morphism strategies: %s"
                % sorted((v.name, e.name) for v, e in strategies),
            )
        if not strategies:
            return
        vertex, edge = next(iter(strategies))
        configured_vertex, configured_edge = self.configured
        if configured_vertex is not None and vertex != configured_vertex:
            rule(
                "morphism-inconsistent",
                "plan uses vertex strategy %s, runner configured %s"
                % (vertex.name, configured_vertex.name),
            )
        if configured_edge is not None and edge != configured_edge:
            rule(
                "morphism-inconsistent",
                "plan uses edge strategy %s, runner configured %s"
                % (edge.name, configured_edge.name),
            )

    def _check_root(self, root):
        meta = root.meta
        if meta is None:
            return
        rule = self._flagger(root, structural=True)
        handler = self.handler
        bound = set(meta.variables)
        for variable in handler.vertices:
            if variable not in bound:
                rule(
                    "variable-unbound",
                    "query vertex %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != "v":
                rule(
                    "binding-kind-mismatch",
                    "vertex %r bound as kind %r"
                    % (variable, meta.entry_kind(variable)),
                )
        for variable, edge in handler.edges.items():
            expected = "p" if edge.is_variable_length else "e"
            if variable not in bound:
                rule(
                    "variable-unbound",
                    "query edge %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != expected:
                rule(
                    "binding-kind-mismatch",
                    "edge %r bound as kind %r, expected %r"
                    % (variable, meta.entry_kind(variable), expected),
                )
        returns = handler.ast.returns
        if returns is None:
            return
        expressions = [item.expression for item in returns.items]
        expressions += [order.expression for order in returns.order_by]
        for expression in expressions:
            if isinstance(expression, FunctionCall):
                expression = expression.argument
            if not isinstance(expression, PropertyAccess):
                continue
            variable, key = expression.variable, expression.key
            if variable not in bound or meta.entry_kind(variable) == "p":
                continue
            if not meta.has_property(variable, key):
                rule(
                    "return-property-dropped",
                    "RETURN reads %s.%s which the root does not retain"
                    % (variable, key),
                )

    # Root demand ----------------------------------------------------------------

    def _root_demand(self, root):
        """What the final result construction reads of the root embedding.

        An explicit RETURN reads exactly its items (and the ORDER BY
        keys): a property access reads one ``prop_data`` record, a
        variable reference reads its id column (a path variable's whole
        hop sequence).  ``RETURN *`` (or no RETURN) reads every id column
        and path and no property record besides the ORDER BY keys, as
        :func:`repro.engine.result.build_table` does.  Without a handler
        everything is live.
        """
        meta = root.meta
        if meta is None:
            return Demand()
        path_vars = {
            v for v in meta.variables if meta.entry_kind(v) == "p"
        }
        if self.handler is None:
            return Demand(
                meta.variables, meta.property_entries(), path_vars
            )
        demand = Demand()
        returns = self.handler.ast.returns
        if returns is None or returns.star:
            demand.variables = set(meta.variables)
            demand.paths = set(path_vars)
        for expression in self.handler.return_reads():
            if isinstance(expression, PropertyAccess):
                demand.properties.add((expression.variable, expression.key))
            elif isinstance(expression, VariableRef):
                demand.variables.add(expression.name)
                if expression.name in path_vars:
                    demand.paths.add(expression.name)
        return demand.restricted_to(meta)


def _row_bytes_bound(meta, path_bounds):
    """Worst-case serialized size of one embedding of this shape."""
    if meta is None:
        return 0
    total = meta.column_count * ENTRY_WIDTH
    for variable in meta.variables:
        if meta.entry_kind(variable) == "p":
            _lower, upper = path_bounds.get(variable, (0, 0))
            total += PATH_COUNT_WIDTH + max(2 * upper - 1, 0) * 8
    total += meta.property_count * PROPERTY_RECORD_BOUND
    return total


def _format_pairs(pairs):
    if not pairs:
        return "(none)"
    return ", ".join("%s.%s" % pair for pair in pairs)
