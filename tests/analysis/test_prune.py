"""Plans pruned by the planner's property demand: equivalence, flow, bytes.

The planner loads a property record only where something above the leaf
reads it, and drops it once its last reader has consumed it.  Each test
sets those plans against the plans of a *carrying* planner, identical but
for leaves that also load the keys of their own predicate (the §3.1
projection without the demand split): pruning must leave the rows alone,
keep every plan provable and never move more embedding bytes.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_plan,
    differential_check,
    fusion_differential_check,
)
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, MatchStrategy
from repro.engine.operators.filter_project import ProjectEmbeddings
from repro.engine.operators.leaves import SelectAndProjectVertices
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator
from tests.analysis.test_property import _fresh_graph, cypher_queries

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]


class _OwnKeysHandler:
    """A query handler whose leaf keys include the element's own
    predicate keys, which the real handler leaves out."""

    def __init__(self, handler):
        self._handler = handler

    def __getattr__(self, name):
        return getattr(self._handler, name)

    def property_keys(self, variable):
        keys = set(self._handler.property_keys(variable))
        element = self.vertices.get(variable) or self.edges.get(variable)
        if element is not None:
            keys |= element.predicates.property_keys().get(variable, set())
        return keys


def carrying(planner_cls):
    """``planner_cls`` with leaves that carry their own predicate keys."""

    class Carrying(planner_cls):
        def __init__(self, graph, query_handler, *args, **kwargs):
            super().__init__(graph, _OwnKeysHandler(query_handler), *args, **kwargs)

    Carrying.__name__ = "Carrying" + planner_cls.__name__
    return Carrying


def plan_bytes_moved(root):
    """Embedding bytes crossing every operator boundary of one plan.

    Executes the plan once (shared dataflow cache, so every intermediate
    is observable) and sums the serialized size of each physical
    operator's output embeddings — the §3.3 bytes a distributed runtime
    would actually move between operators, and the number pruning exists
    to reduce.
    """
    cache = {}
    total = 0
    for operator in root.postorder():
        dataset = operator.evaluate()
        partitions = dataset.environment.run(
            dataset.operator, cache=cache, mode="reference"
        )
        total += sum(
            embedding.serialized_size()
            for partition in partitions
            for embedding in partition
        )
    return total


#: every column and record the root produces is read by the RETURN clause
ALL_LIVE_QUERY = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, e, b"
DEAD_PROP_QUERY = (
    "MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.name = 'Alice' RETURN e, b.name"
)
#: the genders are read by the selection above the join, then dropped
CROSS_QUERY = (
    "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.gender <> b.gender "
    "RETURN a.name"
)


def rows_multiset(runner, query):
    return Counter(map(repr, runner.execute_table(query)))


def find_leaf(root, variable):
    for node in root.postorder():
        if (
            isinstance(node, SelectAndProjectVertices)
            and node.query_vertex.variable == variable
        ):
            return node
    raise AssertionError("plan contains no leaf for %r" % variable)


def projections(root):
    return [node for node in root.postorder() if isinstance(node, ProjectEmbeddings)]


class TestLeafNarrowing:
    def test_predicate_only_key_never_enters_embeddings(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(DEAD_PROP_QUERY)
        leaf = find_leaf(root, "a")
        assert "name" not in leaf.property_keys
        # the predicate still applied: only Alice's edges survive
        rows = runner.execute_table(DEAD_PROP_QUERY)
        baseline = CypherRunner(
            figure1_graph, planner_cls=carrying(GreedyPlanner)
        ).execute_table(DEAD_PROP_QUERY)
        assert rows and sorted(map(repr, rows)) == sorted(map(repr, baseline))

    def test_clean_plan_is_returned_untouched(self, figure1_graph):
        # nothing is dead, so the planner adds no projection anywhere
        _, root = CypherRunner(figure1_graph).compile(ALL_LIVE_QUERY)
        assert projections(root) == []

    def test_pruned_plan_keeps_estimates(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(CROSS_QUERY)
        narrowing = projections(root)
        assert narrowing
        for node in narrowing:
            assert node.estimated_cardinality == (
                node.children[0].estimated_cardinality
            )

    def test_narrowing_projection_sits_above_last_consumer(
        self, figure1_graph
    ):
        # b.name is a return item, a.name only a predicate operand: the
        # plan must not carry a.name anywhere
        _, root = CypherRunner(figure1_graph).compile(DEAD_PROP_QUERY)
        for node in root.postorder():
            if node.meta is not None:
                assert ("a", "name") not in set(node.meta.property_entries())


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph


class TestLDBCEquivalence:
    """Q1-Q6 × three planners: pruning must be observationally invisible."""

    @pytest.mark.parametrize("planner_cls", PLANNERS)
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruned_equals_original_and_reproves_flow(
        self, ldbc, name, planner_cls
    ):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        original = CypherRunner(graph, planner_cls=carrying(planner_cls))
        pruned = CypherRunner(graph, planner_cls=planner_cls)
        assert rows_multiset(original, query) == rows_multiset(pruned, query)
        handler, root = pruned.compile(query)
        report = analyze_plan(root, handler)
        assert report.proven, [d.format() for d in report.diagnostics]
        assert "S402" not in [d.code for d in report.diagnostics]

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruned_differential_is_clean(self, ldbc, name):
        # pruned and carrying plans of all three planners, one multiset
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        planners = PLANNERS + [carrying(cls) for cls in PLANNERS]
        report = differential_check(graph, query, planners=planners)
        assert report.clean, [d.format() for d in report.diagnostics]
        assert len(report.runs) == 6

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruned_fusion_differential_is_clean(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        report = fusion_differential_check(graph, query)
        assert report.clean, [d.format() for d in report.diagnostics]
        for planner_cls in PLANNERS:
            handler, root = CypherRunner(
                graph, planner_cls=planner_cls
            ).compile(query)
            live = analyze_plan(root, handler)
            assert "S402" not in [d.code for d in live.diagnostics]

    @pytest.mark.parametrize("name", ["Q1", "Q2"])
    def test_pruning_reduces_embedding_bytes(self, ldbc, name):
        # the BENCH_7 claim: queries with predicate-only properties move
        # strictly fewer embedding bytes once pruned
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("low"))
        original = CypherRunner(graph, planner_cls=carrying(GreedyPlanner))
        pruned = CypherRunner(graph)
        _, original_root = original.compile(query)
        _, pruned_root = pruned.compile(query)
        assert plan_bytes_moved(pruned_root) < plan_bytes_moved(original_root)

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruning_never_grows_a_plan(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        original = CypherRunner(graph, planner_cls=carrying(GreedyPlanner))
        pruned = CypherRunner(graph)
        _, original_root = original.compile(query)
        _, pruned_root = pruned.compile(query)
        assert plan_bytes_moved(pruned_root) <= plan_bytes_moved(original_root)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    query=cypher_queries(),
    planner_index=st.integers(0, len(PLANNERS) - 1),
    vertex_iso=st.booleans(),
    edge_iso=st.booleans(),
)
def test_pruned_plans_are_result_equivalent(
    query, planner_index, vertex_iso, edge_iso
):
    """Generated queries × 3 planners × homo/iso: pruning changes nothing."""
    graph = _fresh_graph()
    vertex_strategy = MatchStrategy.ISOMORPHISM if vertex_iso else None
    edge_strategy = (
        MatchStrategy.ISOMORPHISM if edge_iso else MatchStrategy.HOMOMORPHISM
    )
    planner_cls = PLANNERS[planner_index]
    original = CypherRunner(
        graph,
        planner_cls=carrying(planner_cls),
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    )
    pruned = CypherRunner(
        graph,
        planner_cls=planner_cls,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    )
    assert rows_multiset(original, query) == rows_multiset(pruned, query)
