"""Baseline planner: joins edges in textual order, ignoring statistics.

Used by the planner ablation (DESIGN.md E8) to quantify what greedy
reordering buys.  Implementation: delegates candidate construction to
:class:`GreedyPlanner` but always picks the *first* pending edge instead
of the cheapest candidate.
"""

from .greedy import GreedyPlanner


class LeftDeepPlanner(GreedyPlanner):
    """Folds query edges strictly in the order they appear in the query."""

    def plan(self):
        entries = self._initial_entries()
        pending = list(self.handler.edges.values())
        applied_clauses = set()

        while pending:
            edge = pending.pop(0)
            entry, consumed = self._edge_candidate(
                edge, entries, applied_clauses, dry_run=False
            )
            for used in consumed:
                entries.remove(used)
            entries.append(entry)

        return self._finish(entries, applied_clauses)

    def _starts_at_target(self, by_source, by_target):
        return False
