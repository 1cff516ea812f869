"""Cardinality-estimate audit: per-operator q-error (§3.5 sanity check).

The greedy planner orders joins by statistics-based cardinality
estimates; when those estimates drift far from reality the chosen plan
can be arbitrarily bad without any visible failure.  The audit executes a
compiled plan once (sharing one dataflow result cache across all plan
nodes, the same plumbing as ``explain(analyze=True)``), computes each
operator's q-error — ``max(est/act, act/est)``, the standard estimation
quality metric — and emits an ``S211`` diagnostic for every operator
whose q-error exceeds the configured factor.
"""

from dataclasses import dataclass
from typing import List

from .diagnostics import Diagnostic

#: estimates within one order of magnitude are considered sane by default
DEFAULT_MAX_Q_ERROR = 10.0


def q_error(estimated, actual):
    """Smoothed q-error: ``max`` of both ratios with +1 against zeros."""
    return max(
        (estimated + 1.0) / (actual + 1.0),
        (actual + 1.0) / (estimated + 1.0),
    )


@dataclass
class EstimateRecord:
    """One operator's estimated vs. actual output cardinality."""

    operator: str
    estimated: float
    actual: int
    q_error: float


@dataclass
class EstimateAudit:
    """Outcome of :func:`audit_estimates` over one plan."""

    records: List[EstimateRecord]
    diagnostics: List[Diagnostic]
    max_q_error: float

    @property
    def worst(self):
        """The record with the largest q-error, or None on empty plans."""
        if not self.records:
            return None
        return max(self.records, key=lambda record: record.q_error)

    def format_table(self):
        """Aligned ``operator / est / actual / q-error`` lines."""
        lines = ["%-60s %10s %10s %8s" % ("operator", "est", "actual", "q-err")]
        for record in self.records:
            lines.append(
                "%-60s %10d %10d %8.1f"
                % (
                    record.operator[:60],
                    round(record.estimated),
                    record.actual,
                    record.q_error,
                )
            )
        return "\n".join(lines)


def audit_estimates(root, max_q_error=DEFAULT_MAX_Q_ERROR):
    """Compare every operator's estimate against its actual cardinality.

    Executes the plan rooted at ``root`` (bottom-up, one shared dataflow
    cache, so each dataflow operator runs once) and returns an
    :class:`EstimateAudit`.  Operators without an estimate — e.g. plans
    not produced by a planner — are skipped.
    """
    cache = {}
    records = []
    diagnostics = []
    for operator in root.postorder():
        if operator.estimated_cardinality is None:
            continue
        actual = operator.actual_cardinality(cache)
        error = q_error(operator.estimated_cardinality, actual)
        records.append(
            EstimateRecord(
                operator=operator.describe(),
                estimated=operator.estimated_cardinality,
                actual=actual,
                q_error=error,
            )
        )
        if error > max_q_error:
            diagnostics.append(
                Diagnostic.of(
                    "S211",
                    "%s: estimated %d but produced %d rows (q-error %.1f > %.1f)"
                    % (
                        operator.describe(),
                        round(operator.estimated_cardinality),
                        actual,
                        error,
                        max_q_error,
                    ),
                )
            )
    return EstimateAudit(
        records=records, diagnostics=diagnostics, max_q_error=max_q_error
    )

