"""Static cost-bound analyzer: certified worst-case plan cost (``S405``).

Dual to the planner's cardinality *estimator* (which aims at the likely
case and may err in either direction), this pass composes the **upper
bounds** every operator states for itself
(:meth:`PhysicalOperator.cardinality_bound`), which provably hold for
any data consistent with the graph statistics:

* a leaf emits at most its label-alternation count (predicates only
  filter — the selectivity floor of any CNF is taken as 1.0, never a
  guess below it);
* a join or cross product emits at most ``|L| · |R|``;
* a var-length expansion emits at most
  ``|input| · Σ_{h=max(lower,1)}^{upper} d_max^h`` (plus ``|input|``
  for a zero-hop lower bound), where ``d_max`` is the per-edge-label
  worst-case fan-out recorded in :class:`~repro.engine.statistics
  .GraphStatistics` — the hop-bound composition grounding the
  worst-case bounds surveyed for modern graph query languages;
* selections and projections never grow their input.

Each operator's bytes-moved bound prices its §3.3 embedding layout:
``columns × 9`` id bytes, ``4 + (2·upper − 1) · 8`` bytes per path slot
at its hop ceiling, and :data:`PROPERTY_RECORD_BOUND` bytes per property
record (a documented cap, not a guarantee — property values are
unbounded in principle).

The resulting :class:`CostCertificate` rides on prepared statements and
is consulted by :class:`~repro.server.service.QueryService` admission
control: a query whose certified bound exceeds the configured threshold
is rejected at submit time, before any operator executes.
"""

import math
from typing import List, Optional

from repro.engine.embedding import ENTRY_WIDTH, PATH_COUNT_WIDTH

from .diagnostics import Diagnostic
from .flow import verify_flow

#: assumed worst-case serialized size of one property record (2-byte
#: length prefix + value).  Property values are statically unbounded, so
#: this is a pricing convention, not a proven cap — the cardinality
#: bounds, which drive admission, do not depend on it.
PROPERTY_RECORD_BOUND = 256


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
        return (
            "costbound: %d operator(s) bounded, max cardinality <= %s, "
            "bytes moved <= %s"
            % (
                len(self.records),
                _format_bound(self.max_cardinality_bound),
                _format_bound(self.total_bytes_bound),
            )
        )


def _format_bound(value):
    if value == math.inf:
        return "unbounded"
    if value >= 1e6:
        return "%.3g" % value
    return "%d" % value


def certify_plan(root, statistics):
    """Compose per-operator upper bounds over the plan under ``root``.

    Requires :class:`~repro.engine.statistics.GraphStatistics`; without
    data-graph counts nothing is provable.  An operator declaring an
    infinite bound makes the plan inadmissible under any finite
    threshold — conservative by construction.
    """
    return CostCertificate(
        [record for _operator, record in operator_bounds(root, statistics)],
        statistics_version=getattr(statistics, "version", 0),
    )


def operator_bounds(root, statistics):
    """``(operator, OperatorBound)`` pairs of the plan, children first."""
    if statistics is None:
        raise ValueError("certify_plan requires graph statistics")
    # path slots are priced at the hop ceiling of the derived layout
    flow = verify_flow(root)
    bounds = {}
    pairs = []
    for op in root.postorder():
        bounds[id(op)] = cardinality = op.cardinality_bound(
            [bounds[id(child)] for child in op.children], statistics
        )
        row_bytes = _row_bytes_bound(op.meta, flow.layout_of(op).path_bounds)
        pairs.append((op, OperatorBound(op.describe(), cardinality, row_bytes)))
    return pairs


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
