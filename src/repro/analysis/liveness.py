"""Backward liveness analysis over physical plans (``S4xx``).

The forward flow verifier (:mod:`repro.analysis.flow`) proves what a plan
*carries* — this module proves what a plan *consumes*.  Starting from the
final projection's demand (the RETURN/ORDER BY items), a backward
abstract interpretation propagates per-column, per-property-record and
per-path-content liveness *down* the operator tree through the backward
rule every operator states for itself
(:meth:`PhysicalOperator.demand_on_children`): a join demands its key
columns (and whatever its compiled morphism check inspects) of both
inputs, a selection demands the columns and property records its CNF
reads, an expansion demands its start column — plus, under isomorphism,
every base id column and the contents of every base path — and a
projection demands only the records it keeps *that something above it
still reads*.

Everything an operator introduces but nothing downstream ever reads is
dead freight, flagged as a warning (dead bytes are legal — every
embedding still decodes — just wasteful):

=====  ==========================================================
code   finding
=====  ==========================================================
S401   an id column no consumer reads (future columnar-drop fodder)
S402   a property record loaded into embeddings but never read
S403   path contents carried but never read (only the slot is used)
=====  ==========================================================

The planner computes the same property demand itself
(:class:`~repro.engine.planning.GreedyPlanner`): a leaf loads only the
keys read after it and a projection drops each record where its last
reader consumed it.  This pass is the independent check on that — an
``S402`` on a planned query is a planner defect.  ``S401`` and ``S403``
stay: ids and paths are structural, read by result construction, the
canonical rows and the morphism checks.
"""

from typing import Dict, List, Optional

from repro.cypher.ast import PropertyAccess, VariableRef
from repro.engine.morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    MatchStrategy,
)
from repro.engine.operators.base import Demand

from .diagnostics import Diagnostic, sort_diagnostics


class LivenessVerificationError(AssertionError):
    """A plan failed the liveness check (it carries dead bytes)."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = ["plan failed liveness verification with %d finding(s):"
                 % len(self.diagnostics)]
        lines += ["  " + d.format() for d in self.diagnostics]
        super().__init__("\n".join(lines))


def _all_live(meta):
    """The conservative top: every byte ``meta`` describes is demanded."""
    if meta is None:
        return Demand()
    return Demand(
        variables=set(meta.variables),
        properties=set(meta.property_entries()),
        paths={v for v in meta.variables if meta.entry_kind(v) == "p"},
    )


class LivenessReport:
    """Outcome of one :func:`verify_liveness` pass over a plan."""

    def __init__(self, root, diagnostics, demands):
        self.root = root
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: ``id(operator)`` → :class:`Demand` at that operator's *output*
        self._demands = dict(demands)

    def demand_of(self, operator) -> Optional[Demand]:
        return self._demands.get(id(operator))

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def clean(self):
        """True when every carried byte is provably consumed."""
        return not self.diagnostics

    def format_summary(self):
        dead = {"S401": 0, "S402": 0, "S403": 0}
        for diagnostic in self.diagnostics:
            if diagnostic.code in dead:
                dead[diagnostic.code] += 1
        return (
            "liveness: %d operator(s) interpreted, %d dead column(s), "
            "%d dead property record(s), %d dead path(s) — %s"
            % (
                len(self._demands),
                dead["S401"],
                dead["S402"],
                dead["S403"],
                "all bytes live" if self.clean else "dead bytes found",
            )
        )


def verify_liveness(root, handler=None, vertex_strategy=None,
                    edge_strategy=None):
    """Backward liveness pass over the plan under ``root``.

    ``handler`` (the compiled :class:`~repro.cypher.QueryHandler`)
    supplies the root demand from its RETURN/ORDER BY items; without one
    every root byte is conservatively live.
    The strategies pin which columns the compiled morphism checks read,
    exactly mirroring :func:`~repro.engine.morphism.compile_morphism_check`.
    """
    return _LivenessAnalyzer(vertex_strategy, edge_strategy).analyze(
        root, handler
    )


def assert_liveness(root, handler=None, vertex_strategy=None,
                    edge_strategy=None):
    """Like :func:`verify_liveness` but raises unless the plan is clean."""
    report = verify_liveness(
        root, handler,
        vertex_strategy=vertex_strategy, edge_strategy=edge_strategy,
    )
    if not report.clean:
        raise LivenessVerificationError(report.diagnostics)
    return report


class _LivenessAnalyzer:
    """One backward pass: demand rules + dead-byte findings."""

    def __init__(self, vertex_strategy, edge_strategy):
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self._diagnostics = []
        self._demands: Dict[int, Demand] = {}

    def analyze(self, root, handler):
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        self._demands[id(root)] = self._root_demand(root, handler)
        for operator in root.preorder():
            demand = self._demands[id(operator)].restricted_to(operator.meta)
            self._demands[id(operator)] = demand
            child_demands = operator.demand_on_children(
                demand, vertex_iso, edge_iso,
                lambda code, detail, operator=operator: self._flag(
                    code, operator, detail
                ),
            )
            for child, child_demand in zip(operator.children, child_demands):
                self._demands[id(child)] = child_demand
        return LivenessReport(
            root, sort_diagnostics(self._diagnostics), self._demands
        )

    def _flag(self, code, operator, detail):
        self._diagnostics.append(
            Diagnostic.of(
                code,
                "%s: %s" % (operator.describe(), detail),
                span=operator.span(),
            )
        )

    # Root demand --------------------------------------------------------------

    def _root_demand(self, root, handler):
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
        if meta is None or handler is None:
            return _all_live(meta)
        path_vars = {
            v for v in meta.variables if meta.entry_kind(v) == "p"
        }
        demand = Demand()
        returns = handler.ast.returns
        if returns is None or returns.star:
            demand.variables = set(meta.variables)
            demand.paths = set(path_vars)
        for expression in handler.return_reads():
            if isinstance(expression, PropertyAccess):
                demand.properties.add((expression.variable, expression.key))
            elif isinstance(expression, VariableRef):
                demand.variables.add(expression.name)
                if expression.name in path_vars:
                    demand.paths.add(expression.name)
        return demand.restricted_to(meta)
