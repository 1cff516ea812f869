"""One static analysis of a physical plan: structure, layout, demand.

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
  metadata and the configured morphism;
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

The analysis reports and gates nothing: no query is admitted or
rejected on its findings.
"""

import math
from typing import List, Optional

from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef
from repro.engine.embedding import ENTRY_WIDTH
from repro.engine.morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    MatchStrategy,
)
from repro.engine.operators.base import Demand, EmbeddingLayout

from .diagnostics import Diagnostic, sort_diagnostics

_VALID_KINDS = {"v", "e", "p"}

_DEAD_CODES = ("S401", "S402", "S403")


class PlanAnalysis:
    """Everything one :func:`analyze_plan` pass found out about a plan."""

    def __init__(self, diagnostics, layouts, demands):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        # each keyed by id(operator)
        self._layouts = layouts
        self._demands = demands

    def layout_of(self, operator) -> Optional[EmbeddingLayout]:
        """The layout derived for ``operator``'s output."""
        return self._layouts.get(id(operator))

    def demand_of(self, operator) -> Optional[Demand]:
        """What downstream consumers read of ``operator``'s output."""
        return self._demands.get(id(operator))

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
        return (
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


def analyze_plan(root, handler=None, vertex_strategy=None,
                 edge_strategy=None):
    """Analyze the plan under ``root``; returns a :class:`PlanAnalysis`.

    ``handler`` (the compiled :class:`~repro.cypher.QueryHandler`)
    enables the whole-query checks and supplies the root demand from the
    RETURN clause; without one every root byte is conservatively live.
    The strategies pin the morphism the plan will execute under
    (defaulting like the engine does); given explicitly, the plan's own
    strategies must match them.
    """
    return _Analyzer(handler, vertex_strategy, edge_strategy).run(root)


class _Analyzer:
    """One analysis: the postorder pass, then the preorder pass."""

    def __init__(self, handler, vertex_strategy, edge_strategy):
        self.handler = handler
        #: the strategies the caller pinned (``None`` = not pinned)
        self.configured = (vertex_strategy, edge_strategy)
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self.diagnostics = []
        self.layouts = {}
        self.demands = {}

    def run(self, root):
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        strategies = set()
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

        return PlanAnalysis(
            sort_diagnostics(self.diagnostics), self.layouts, self.demands
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


def _format_pairs(pairs):
    if not pairs:
        return "(none)"
    return ", ".join("%s.%s" % pair for pair in pairs)
