"""Liveness-driven plan pruning: equivalence, flow-cleanliness, byte wins."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import differential_check, fusion_differential_check, verify_flow
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, MatchStrategy
from repro.engine.operators.leaves import SelectAndProjectVertices
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
    prune_plan,
)
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator
from tests.analysis.test_property import _fresh_graph, cypher_queries

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]


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

DEAD_PROP_QUERY = (
    "MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.name = 'Alice' RETURN e, b.name"
)


def rows_multiset(runner, query):
    return Counter(map(repr, runner.execute_table(query)))


def find_leaf(root, variable):
    stack = [root]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, SelectAndProjectVertices)
            and node.query_vertex.variable == variable
        ):
            return node
        stack.extend(node.children)
    raise AssertionError("plan contains no leaf for %r" % variable)


class TestLeafNarrowing:
    def test_predicate_only_key_never_enters_embeddings(self, figure1_graph):
        runner = CypherRunner(figure1_graph, prune=True)
        _, root = runner.compile(DEAD_PROP_QUERY)
        leaf = find_leaf(root, "a")
        assert "name" not in leaf.property_keys
        # the predicate still applied: only Alice's edges survive
        rows = runner.execute_table(DEAD_PROP_QUERY)
        baseline = CypherRunner(figure1_graph).execute_table(DEAD_PROP_QUERY)
        assert sorted(map(repr, rows)) == sorted(map(repr, baseline))

    def test_clean_plan_is_returned_untouched(self, figure1_graph):
        plain = CypherRunner(figure1_graph)
        query = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, e, b"
        handler, root = plain.compile(query)
        assert prune_plan(root, handler) is root

    def test_pruned_plan_keeps_estimates(self, figure1_graph):
        plain = CypherRunner(figure1_graph)
        handler, root = plain.compile(DEAD_PROP_QUERY)
        pruned = prune_plan(root, handler)
        assert pruned is not root
        assert pruned.estimated_cardinality == root.estimated_cardinality

    def test_prune_is_part_of_the_plan_cache_key(self, figure1_graph):
        on = CypherRunner(figure1_graph, prune=True)
        off = CypherRunner(figure1_graph)
        assert on.plan_cache_key("RETURN 1") != off.plan_cache_key("RETURN 1")

    def test_narrowing_projection_sits_above_last_consumer(
        self, figure1_graph
    ):
        # b.name is a return item, a.name only a predicate operand: the
        # rewritten plan must not carry a.name anywhere
        runner = CypherRunner(figure1_graph, prune=True)
        _, root = runner.compile(DEAD_PROP_QUERY)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.meta is not None:
                assert ("a", "name") not in set(node.meta.property_entries())
            stack.extend(node.children)


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
        plain = CypherRunner(graph, planner_cls=planner_cls)
        pruned = CypherRunner(graph, planner_cls=planner_cls, prune=True)
        assert rows_multiset(plain, query) == rows_multiset(pruned, query)
        _, root = pruned.compile(query)
        report = verify_flow(root)
        assert report.proven, [d.format() for d in report.diagnostics]

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruned_differential_is_clean(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        report = differential_check(graph, query, prune=True)
        assert report.clean, [d.format() for d in report.diagnostics]

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruned_fusion_differential_is_clean(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        report = fusion_differential_check(graph, query, prune=True)
        assert report.clean, [d.format() for d in report.diagnostics]

    @pytest.mark.parametrize("name", ["Q1", "Q2"])
    def test_pruning_reduces_embedding_bytes(self, ldbc, name):
        # the BENCH_7 claim: queries with predicate-only properties move
        # strictly fewer embedding bytes once pruned
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("low"))
        plain = CypherRunner(graph)
        pruned = CypherRunner(graph, prune=True)
        _, plain_root = plain.compile(query)
        _, pruned_root = pruned.compile(query)
        assert plan_bytes_moved(pruned_root) < plan_bytes_moved(plain_root)

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pruning_never_grows_a_plan(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        plain = CypherRunner(graph)
        pruned = CypherRunner(graph, prune=True)
        _, plain_root = plain.compile(query)
        _, pruned_root = pruned.compile(query)
        assert plan_bytes_moved(pruned_root) <= plan_bytes_moved(plain_root)


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
    plain = CypherRunner(
        graph,
        planner_cls=PLANNERS[planner_index],
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    )
    pruned = CypherRunner(
        graph,
        planner_cls=PLANNERS[planner_index],
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
        prune=True,
    )
    assert rows_multiset(plain, query) == rows_multiset(pruned, query)
