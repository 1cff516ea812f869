"""Soundness of the plan analysis' layout flow.

The claim that lets a proven plan run without the sanitizer: a plan the
analysis proves can never produce an ``S2xx`` finding under fully
sanitized execution.  Probed with generated queries across all three
planners and both vertex-morphism strategies — every compiled plan must
be proven, and its sanitized execution must validate every embedding at
every boundary without a single finding.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import CypherRunner, MatchStrategy
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from tests.analysis.test_property import _fresh_graph, cypher_queries

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    query=cypher_queries(),
    planner_index=st.integers(0, len(PLANNERS) - 1),
    iso=st.booleans(),
)
def test_proven_plans_run_sanitized_without_findings(query, planner_index, iso):
    """proven by the analysis ⇒ zero S2xx under fully sanitized
    execution."""
    graph = _fresh_graph()
    vertex_strategy = MatchStrategy.ISOMORPHISM if iso else None
    runner = CypherRunner(
        graph,
        planner_cls=PLANNERS[planner_index],
        vertex_strategy=vertex_strategy,
        sanitize=True,
    )
    report = runner.analyze(query)
    assert report.proven, "%s under %s (iso=%s): %s" % (
        query,
        PLANNERS[planner_index].__name__,
        iso,
        [d.format() for d in report.diagnostics],
    )
    rows = runner.execute_table(query)  # mode="raise": any S2xx would throw
    sanitizer = runner.last_sanitizer
    assert sanitizer is not None
    if rows:  # an empty match checks nothing — vacuously sound
        assert sanitizer.checked > 0
    assert sanitizer.diagnostics == []

