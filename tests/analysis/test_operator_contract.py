"""An operator is one file: the contract, stated in a test module.

``PassThrough`` below is a complete physical operator — ``_build()`` plus
the contract rules of :class:`~repro.engine.PhysicalOperator` — that
exists only here.  It goes clean through the plan analysis and a
sanitized run without a single edit under ``src/``; an operator
*missing* a rule fails loudly, naming itself and the rule, instead of
degrading the analysis.
"""

from collections import Counter

import pytest

from repro.analysis import analyze_plan
from repro.engine import CypherRunner, GreedyPlanner, PhysicalOperator

FILTERED_QUERY = (
    "MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.name = 'Alice' RETURN e, b.name"
)


class PassThrough(PhysicalOperator):
    """Forwards its input unchanged."""

    display = "PassThrough"

    def __init__(self, child):
        super().__init__([child])
        self.meta = child.meta
        self.estimated_cardinality = child.estimated_cardinality

    def _build(self):
        return self.children[0].evaluate().map(_identity, name="PassThrough")

    def derive_layout(self, child_layouts, vertex_iso, flag):
        return child_layouts[0]

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        return [demand.copy()]  # forwarding is not reading

    def check_structure(self, flag):
        if self.meta is not self.children[0].meta:
            flag("binding-dropped", "pass-through changed its metadata")


def _identity(embedding):
    return embedding


class _PassThroughPlanner(GreedyPlanner):
    """Greedy plans with the test-local operator on top."""

    def plan(self):
        return PassThrough(super().plan())


def rows_multiset(runner, query):
    return Counter(map(repr, runner.execute_table(query)))


class TestOneFileOperator:
    def test_clean_through_every_static_analysis(self, figure1_graph):
        runner = CypherRunner(figure1_graph, planner_cls=_PassThroughPlanner)
        handler, root = runner.compile(FILTERED_QUERY)
        assert isinstance(root, PassThrough)
        analysis = analyze_plan(
            root, handler,
            vertex_strategy=runner.vertex_strategy,
            edge_strategy=runner.edge_strategy,
        )
        assert not any(d.code == "S300" for d in analysis.diagnostics)
        assert analysis.proven, [d.format() for d in analysis.diagnostics]
        assert analysis.layout_of(root) is analysis.layout_of(root.children[0])
        # any dead bytes are the query's own, introduced below the operator
        assert not any(
            "PassThrough" in d.message for d in analysis.diagnostics
        )
        assert analysis.demand_of(root).properties == {("b", "name")}

    def test_full_pipeline_matches_the_plain_engine(self, figure1_graph):
        runner = CypherRunner(
            figure1_graph, planner_cls=_PassThroughPlanner, sanitize=True,
        )
        assert runner.analyze(FILTERED_QUERY).proven
        assert rows_multiset(runner, FILTERED_QUERY) == rows_multiset(
            CypherRunner(figure1_graph), FILTERED_QUERY
        )
        assert runner.last_sanitizer.checked > 0
        assert runner.last_sanitizer.diagnostics == []


@pytest.mark.parametrize(
    "rule",
    ["derive_layout", "demand_on_children", "check_structure"],
)
def test_missing_rule_raises_naming_class_and_rule(figure1_graph, rule):
    class Incomplete(PassThrough):
        pass

    # put the base class' "no such rule" default back for this one rule
    setattr(Incomplete, rule, getattr(PhysicalOperator, rule))
    runner = CypherRunner(figure1_graph)
    handler, root = runner.compile(FILTERED_QUERY)
    # the one analysis pass asks every operator for every rule
    with pytest.raises(NotImplementedError) as excinfo:
        analyze_plan(Incomplete(root), handler)
    assert "Incomplete" in str(excinfo.value)
    assert rule in str(excinfo.value)
