"""Cross-planner differential checking.

The engine ships three planners (greedy, exhaustive, left-deep) that must
be observationally equivalent: for any query they may pick different join
orders but must return the same result *multiset* — the central soundness
claim of the formal-semantics line of work on Cypher.  The differential
checker executes one query under every planner (with sanitized execution
on, in collect mode) and compares the canonical result rows; any
disagreement becomes an ``S210`` diagnostic, any embedding-level
corruption surfaces as the sanitizer's own ``S2xx`` findings.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from .diagnostics import Diagnostic


@dataclass
class PlannerRun:
    """Result of one planner's sanitized execution of the query."""

    planner: str
    rows: Counter
    checked: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def row_count(self):
        return sum(self.rows.values())


@dataclass
class DifferentialReport:
    """Outcome of a :func:`differential_check` run."""

    query: str
    runs: List[PlannerRun]
    diagnostics: List[Diagnostic]

    @property
    def agree(self):
        """True when every planner produced the same result multiset."""
        return not any(d.code == "S210" for d in self.diagnostics)

    @property
    def clean(self):
        """True when the planners agree *and* no sanitizer finding fired."""
        return not self.diagnostics

    def summary(self):
        lines = []
        for run in self.runs:
            lines.append(
                "%-18s %6d row(s), %6d embedding(s) sanitized, %d finding(s)"
                % (run.planner, run.row_count, run.checked, len(run.diagnostics))
            )
        verdict = "agree" if self.agree else "DISAGREE"
        lines.append(
            "planners %s; %d diagnostic(s) total"
            % (verdict, len(self.diagnostics))
        )
        return "\n".join(lines)


def compare_runs(runs):
    """``S210`` diagnostics for every run disagreeing with the first."""
    diagnostics = []
    if not runs:
        return diagnostics
    reference = runs[0]
    for run in runs[1:]:
        if run.rows == reference.rows:
            continue
        missing = reference.rows - run.rows  # Counter difference keeps positives
        extra = run.rows - reference.rows
        fragments = []
        if missing:
            sample = next(iter(missing))
            fragments.append(
                "%d row(s) only under %s (e.g. %r)"
                % (sum(missing.values()), reference.planner, sample)
            )
        if extra:
            sample = next(iter(extra))
            fragments.append(
                "%d row(s) only under %s (e.g. %r)"
                % (sum(extra.values()), run.planner, sample)
            )
        diagnostics.append(
            Diagnostic.of(
                "S210",
                "%s and %s return different multisets: %s"
                % (reference.planner, run.planner, "; ".join(fragments)),
            )
        )
    return diagnostics


def differential_check(
    graph,
    query,
    parameters=None,
    planners=None,
    statistics=None,
    vertex_strategy=None,
    edge_strategy=None,
    sanitize=True,
):
    """Execute ``query`` under every planner and compare result multisets.

    Returns a :class:`DifferentialReport`; ``report.clean`` is the full
    acceptance condition (identical multisets and zero sanitizer
    findings).  ``planners`` defaults to all three; ``statistics`` is
    computed once and shared so the planners see identical inputs.
    Results are compared on order-independent canonical rows (variable →
    bound identifier(s)), so differing column orders between plans do not
    matter.
    """
    # Imported here: repro.analysis must stay importable before the engine
    # package finishes initializing (the runner imports diagnostics).
    from repro.engine import CypherRunner, GraphStatistics
    from repro.engine.naive import canonical_rows_from_embeddings
    from repro.engine.planning import (
        ExhaustivePlanner,
        GreedyPlanner,
        LeftDeepPlanner,
    )

    if planners is None:
        planners = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    runs = []
    diagnostics = []
    for planner_cls in planners:
        runner = CypherRunner(
            graph,
            vertex_strategy=vertex_strategy,
            edge_strategy=edge_strategy,
            statistics=statistics,
            planner_cls=planner_cls,
            sanitize="collect" if sanitize else False,
        )
        embeddings, meta = runner.execute_embeddings(query, parameters)
        rows = Counter(canonical_rows_from_embeddings(embeddings, meta))
        run = PlannerRun(planner=planner_cls.__name__, rows=rows)
        if runner.last_sanitizer is not None:
            run.checked = runner.last_sanitizer.checked
            run.diagnostics = list(runner.last_sanitizer.diagnostics)
            diagnostics.extend(run.diagnostics)
        runs.append(run)
    diagnostics.extend(compare_runs(runs))
    return DifferentialReport(query=query, runs=runs, diagnostics=diagnostics)


def fusion_differential_check(
    graph,
    query,
    parameters=None,
    planners=None,
    statistics=None,
    vertex_strategy=None,
    edge_strategy=None,
):
    """Columnar vs. reference execution, per planner.

    The fusion pass and the chunk kernels must be pure plumbing: for
    every planner the embedding multiset of a columnar execution has to
    equal the per-record reference one bit for bit.  Runs each planner
    once per mode (``mode="columnar"``, ``mode="reference"``) on the
    *same* statistics and compares the raw embedding multisets (stricter
    than the canonical rows: byte-level embedding equality).
    Disagreements become ``S210`` diagnostics in the returned
    :class:`DifferentialReport`.
    """
    from repro.dataflow import MODES
    from repro.engine import CypherRunner, GraphStatistics
    from repro.engine.planning import (
        ExhaustivePlanner,
        GreedyPlanner,
        LeftDeepPlanner,
    )

    if planners is None:
        planners = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    runs = []
    diagnostics = []
    for planner_cls in planners:
        pair = []
        for mode in MODES:
            runner = CypherRunner(
                graph,
                vertex_strategy=vertex_strategy,
                edge_strategy=edge_strategy,
                statistics=statistics,
                planner_cls=planner_cls,
                mode=mode,
            )
            embeddings, _ = runner.execute_embeddings(query, parameters)
            pair.append(
                PlannerRun(
                    planner="%s[%s]" % (planner_cls.__name__, mode),
                    rows=Counter(embeddings),
                )
            )
        # compared per planner: different planners legitimately lay out
        # their embedding columns differently, the two modes of one
        # planner must agree byte for byte
        diagnostics.extend(compare_runs(pair))
        runs.extend(pair)
    return DifferentialReport(query=query, runs=runs, diagnostics=diagnostics)
