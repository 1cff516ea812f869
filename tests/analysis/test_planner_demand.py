"""The planner's property demand: no plan carries a dead property record.

A leaf loads only the keys read after it, and a projection drops each
record where its last reader consumed it (paper §3.1).  Every plan the
three planners build, under homo- and isomorphism, must therefore pass
the backward liveness check without an ``S402``, be proven by the forward
flow verifier, and return the rows of the independent
:class:`~repro.engine.NaiveMatcher`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bench.workloads import WORKLOADS
from repro.analysis import analyze_plan
from repro.cypher.query_graph import QueryHandler
from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    MatchStrategy,
    NaiveMatcher,
    canonical_rows_from_embeddings,
)
from repro.engine.operators.filter_project import (
    ProjectEmbeddings,
    SelectEmbeddings,
)
from repro.engine.operators.value_join import JoinEmbeddingsOnProperty
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.harness.queries import ALL_QUERIES, TABLE3_PATTERNS, instantiate
from repro.ldbc import LDBCGenerator
from tests.analysis.test_property import _fresh_graph, cypher_queries

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]
HOMO, ISO = MatchStrategy.HOMOMORPHISM, MatchStrategy.ISOMORPHISM
MORPHISMS = {"homo": (HOMO, HOMO), "iso": (ISO, ISO)}

#: the shapes planner demand has to get right, over the Figure 1 graph
CORPUS = {
    # the genders are dead once the selection above the join read them
    "cross-variable-where": (
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.gender <> b.gender "
        "RETURN a.name"
    ),
    # the join reads both genders; nothing above it does
    "value-join": (
        "MATCH (a:Person)-[s:studyAt]->(u:University), (b:Person) "
        "WHERE a.gender = b.gender RETURN u.name, b"
    ),
    # the clause spans both components: it runs above the product
    "disconnected-root-predicate": (
        "MATCH (a:Person), (c:City) WHERE a.name < c.name RETURN a, c.name"
    ),
    "return-star-order-by": (
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.name < b.name "
        "RETURN * ORDER BY a"
    ),
    "fixed-length-edge-predicate": (
        "MATCH (a:Person)-[s:studyAt]->(u:University) "
        "WHERE s.classYear > 2014 RETURN a.name, u.name"
    ),
    "variable-length-edge-predicate": (
        "MATCH (a:Person)-[e:studyAt|isLocatedIn*1..2]->(c) "
        "WHERE e.classYear > 2014 RETURN a.name, c"
    ),
}


def check_plans(graph, query, morphisms=tuple(MORPHISMS.values())):
    """Every planner's plan of ``query`` under each of ``morphisms``: no
    S402, the flow proven, the naive matcher's rows."""
    for vertex_strategy, edge_strategy in morphisms:
        expected = sorted(
            NaiveMatcher(graph, vertex_strategy, edge_strategy).match(query)
        )
        for planner_cls in PLANNERS:
            runner = CypherRunner(
                graph, planner_cls=planner_cls,
                vertex_strategy=vertex_strategy, edge_strategy=edge_strategy,
            )
            handler, root = runner.compile(query)
            where = "%s, %s: %s" % (
                planner_cls.__name__, vertex_strategy.name, query
            )
            analysis = analyze_plan(
                root, handler,
                vertex_strategy=vertex_strategy, edge_strategy=edge_strategy,
            )
            assert "S402" not in [d.code for d in analysis.diagnostics], (
                where, [d.format() for d in analysis.diagnostics]
            )
            assert analysis.proven, (
                where, [d.format() for d in analysis.diagnostics]
            )
            embeddings, meta = runner.execute_embeddings(query)
            rows = sorted(canonical_rows_from_embeddings(embeddings, meta))
            assert rows == expected, where


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hand_corpus(figure1_graph, name):
    check_plans(figure1_graph, CORPUS[name])


@pytest.mark.parametrize("name", ["cross-variable-where", "value-join"])
def test_projection_sits_above_the_last_reader(figure1_graph, name):
    # the selection's operands and the value join's keys are dropped right
    # above the operator that read them
    _, root = CypherRunner(figure1_graph).compile(CORPUS[name])
    assert isinstance(root, ProjectEmbeddings)
    assert isinstance(
        root.children[0],
        JoinEmbeddingsOnProperty if name == "value-join" else SelectEmbeddings,
    )
    assert root.estimated_cardinality == root.children[0].estimated_cardinality
    returned = QueryHandler(CORPUS[name]).returned_properties()
    assert list(root.meta.property_entries()) == returned


def _ldbc_queries(dataset):
    """Q1–Q6, the Table 3 patterns and every served workload shape, each
    with a literal where the served text binds ``$firstName``."""
    name = dataset.first_name("medium")
    texts = [instantiate(t, name) for t in ALL_QUERIES.values()]
    texts += [instantiate(t, name) for t in TABLE3_PATTERNS.values()]
    for build in WORKLOADS.values():
        for text in build([name] * 40).shapes.values():
            texts.append(text.replace("$firstName", "'%s'" % name))
    unique = {" ".join(text.split()): None for text in texts}
    return list(unique)


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    return dataset, dataset.to_logical_graph(ExecutionEnvironment())


def test_ldbc_and_workload_shapes(ldbc):
    dataset, graph = ldbc
    queries = _ldbc_queries(dataset)
    assert len(queries) == 20
    for query in queries:
        check_plans(graph, query)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(query=cypher_queries(), morphism=st.sampled_from(sorted(MORPHISMS)))
def test_generated_queries(query, morphism):
    check_plans(_fresh_graph(), query, [MORPHISMS[morphism]])
