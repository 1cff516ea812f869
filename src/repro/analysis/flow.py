"""Static embedding-layout flow verifier (``S3xx``).

The ``S2xx`` sanitizer proves the §3.3 byte-layout contracts *per
embedding at runtime*, at roughly 2.5x execution cost.  This module
proves the same contracts *per plan at compile time*: an abstract
interpretation walks the physical operator tree bottom-up, propagating a
symbolic :class:`EmbeddingLayout` — column kinds in column order, the
physical property-record sequence, path-slot hop bounds and a morphism
guarantee bit — through the forward rule every operator states for
itself (:meth:`PhysicalOperator.derive_layout`), then compares the
derived layout against the metadata each operator actually declares.
The correspondence to the dynamic checks is one-to-one:

=====  ==============================  ============================
code   statically proves               dynamic mirror
=====  ==============================  ============================
S301   merge width arithmetic          S201 / S202
S302   entry kinds and column order    S203
S303   path slots carry sane bounds    S204 / S205
S304   property sequence provenance    S206 / S207
S305   morphism guarantee per node     S208
S306   join-key offset compatibility   S209 (join half)
S307   projection column provenance    S209 (projection half)
=====  ==============================  ============================

A plan whose :class:`FlowReport` is ``proven`` cannot produce an ``S2xx``
finding under fully sanitized execution (the property suite pins this
soundness claim), which is what licenses dropping the runner to
``sanitize="sample"`` — or all the way off — on hot paths.
"""

from typing import List, Optional

from repro.engine.embedding import ENTRY_WIDTH
from repro.engine.morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    MatchStrategy,
)
from repro.engine.operators.base import EmbeddingLayout

from .diagnostics import Diagnostic, sort_diagnostics


def operator_span(operator):
    """Best-effort source :class:`~repro.cypher.span.Span` for an operator
    (see :meth:`~repro.engine.operators.base.PhysicalOperator.span`)."""
    return operator.span()


class FlowVerificationError(AssertionError):
    """A plan failed the static layout-flow verification."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = ["plan failed layout-flow verification with %d finding(s):"
                 % len(self.diagnostics)]
        lines += ["  " + d.format() for d in self.diagnostics]
        super().__init__("\n".join(lines))


class FlowReport:
    """Outcome of one :func:`verify_flow` pass over a plan."""

    def __init__(self, root, diagnostics, layouts):
        self.root = root
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: ``id(operator)`` → derived :class:`EmbeddingLayout`
        self._layouts = dict(layouts)

    def layout_of(self, operator) -> Optional[EmbeddingLayout]:
        return self._layouts.get(id(operator))

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def proven(self):
        """True when the plan's layout contracts hold *statically*."""
        return not self.diagnostics

    def format_summary(self):
        return (
            "flow: %d operator(s) interpreted, %d error(s), %d warning(s)"
            " — %s"
            % (
                len(self._layouts),
                len(self.errors),
                len(self.warnings),
                "layout proven" if self.proven else "NOT proven",
            )
        )


def verify_flow(root, vertex_strategy=None, edge_strategy=None):
    """Abstractly interpret the plan under ``root``; returns a report.

    The strategies pin the morphism configuration the plan will execute
    under (defaulting like the engine does); a node whose output cannot
    be proven to satisfy them is flagged ``S305`` — the sanitizer checks
    morphism at *every* operator boundary, so the static pass must too.
    """
    return _FlowVerifier(vertex_strategy, edge_strategy).verify(root)


def assert_flow(root, vertex_strategy=None, edge_strategy=None):
    """Like :func:`verify_flow` but raises unless the plan is proven."""
    report = verify_flow(
        root, vertex_strategy=vertex_strategy, edge_strategy=edge_strategy
    )
    if not report.proven:
        raise FlowVerificationError(report.diagnostics)
    return report


class _FlowVerifier:
    """One verification pass: forward rules + declared-metadata checks."""

    def __init__(self, vertex_strategy, edge_strategy):
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self._diagnostics = []
        self._layouts = {}

    def verify(self, root):
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        for operator in root.postorder():
            layout = operator.derive_layout(
                [self._layouts[id(child)] for child in operator.children],
                vertex_iso,
                lambda code, detail, operator=operator: self._flag(
                    code, operator, detail
                ),
            )
            self._layouts[id(operator)] = layout
            self._check_declared(operator, layout)
            self._check_morphism(operator, layout)
        return FlowReport(
            root, sort_diagnostics(self._diagnostics), self._layouts
        )

    def _flag(self, code, operator, detail):
        self._diagnostics.append(
            Diagnostic.of(
                code,
                "%s: %s" % (operator.describe(), detail),
                span=operator.span(),
            )
        )

    # Declared-metadata comparison ----------------------------------------------

    def _check_declared(self, op, layout):
        """Derived layout vs. the metadata the operator declares."""
        meta = op.meta
        if meta is None:
            self._flag("S301", op, "operator declares no metadata")
            return
        if meta.column_count != len(layout.entries):
            self._flag(
                "S301", op,
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
                self._flag(
                    "S302", op,
                    "derived column %d binds %r but the metadata does not "
                    "map it" % (column, variable),
                )
                continue
            declared_column = meta.entry_column(variable)
            declared_kind = meta.entry_kind(variable)
            if declared_column != column:
                self._flag(
                    "S302", op,
                    "%r derives to column %d but the metadata maps it to %d"
                    % (variable, column, declared_column),
                )
            if declared_kind != kind:
                self._flag(
                    "S302", op,
                    "%r derives to kind %r but the metadata declares %r"
                    % (variable, kind, declared_kind),
                )
        declared_props = tuple(meta.property_entries())
        if declared_props != layout.properties:
            self._flag(
                "S304", op,
                "derived property sequence %s disagrees with the declared "
                "mapping %s"
                % (
                    _format_pairs(layout.properties),
                    _format_pairs(declared_props),
                ),
            )
        for variable, kind in layout.entries:
            if kind == "p" and variable not in layout.path_bounds:
                self._flag(
                    "S303", op,
                    "path column %r has no declared hop bounds" % variable,
                )

    def _check_morphism(self, op, layout):
        """S305: the configured strategies must hold at every boundary.

        The sanitizer validates morphism per embedding at *every* operator
        output, so an unguaranteed interior node is a refutation even if a
        downstream join would filter the violating embeddings out.
        """
        if not layout.morphism_ok:
            self._flag(
                "S305", op,
                "output is not statically guaranteed to satisfy vertex=%s, "
                "edge=%s"
                % (self.vertex_strategy.value, self.edge_strategy.value),
            )


def _format_pairs(pairs):
    if not pairs:
        return "(none)"
    return ", ".join("%s.%s" % pair for pair in pairs)
