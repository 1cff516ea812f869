"""Tests for cardinality estimation and the greedy planner."""

import pytest

from repro.cypher import QueryHandler
from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CardinalityEstimator,
    CypherRunner,
    ExhaustivePlanner,
    GraphStatistics,
    GreedyPlanner,
    LeftDeepPlanner,
    MatchStrategy,
)
from repro.engine.operators.leaves import (
    SelectAndProjectEdges,
    SelectAndProjectVertices,
)
from repro.engine.planning.estimation import (
    EQUALITY_SELECTIVITY,
    predicate_selectivity,
)
from repro.harness import ALL_QUERIES, TABLE3_PATTERNS
from repro.ldbc import LDBCGenerator

_T3 = list(TABLE3_PATTERNS.values())


def _prepared(template):
    return template.replace("'{firstName}'", "$firstName")


#: the bench shapes whose hasCreator edge starts at the filtered Person:
#: name -> (query, Person variable, message variable)
PERSON_FIRST = {
    "Q1": (_prepared(ALL_QUERIES["Q1"]), "person", "message"),
    "T3-creator": (_prepared(_T3[1]), "p", "m"),
}

KNOWS_1_3 = (
    "MATCH (p:Person)-[:knows*1..3]->(q:Person) "
    "WHERE p.firstName = $firstName RETURN *"
)


def _vertex_of(operator):
    """The variable of a vertex leaf (``None`` for any other operator)."""
    if isinstance(operator, SelectAndProjectVertices):
        return operator.query_vertex.variable
    return None


def _assert_order(root, first, last):
    """The edge leaf joined vertex leaf ``first`` first; vertex leaf
    ``last`` is the right input of the root join."""
    assert _vertex_of(root.children[0].children[0]) == first
    assert isinstance(root.children[0].children[1], SelectAndProjectEdges)
    assert _vertex_of(root.children[1]) == last


@pytest.fixture
def stats(figure1_graph):
    return GraphStatistics.from_graph(figure1_graph)


class TestEstimation:
    def test_vertex_cardinality_uses_label_counts(self, stats):
        estimator = CardinalityEstimator(stats)
        handler = QueryHandler("MATCH (p:Person) RETURN *")
        assert estimator.vertex_cardinality(handler.vertices["p"]) == 3

    def test_equality_predicate_scales_down(self, stats):
        estimator = CardinalityEstimator(stats)
        handler = QueryHandler("MATCH (p:Person {name: 'Alice'}) RETURN *")
        assert estimator.vertex_cardinality(handler.vertices["p"]) == pytest.approx(
            3 * EQUALITY_SELECTIVITY
        )

    def test_edge_cardinality(self, stats):
        estimator = CardinalityEstimator(stats)
        handler = QueryHandler("MATCH (a)-[e:knows]->(b) RETURN *")
        assert estimator.edge_cardinality(handler.edges["e"]) == 4

    def test_undirected_doubles(self, stats):
        estimator = CardinalityEstimator(stats)
        handler = QueryHandler("MATCH (a)-[e:knows]-(b) RETURN *")
        assert estimator.edge_cardinality(handler.edges["e"]) == 8

    def test_join_cardinality_formula(self, stats):
        estimator = CardinalityEstimator(stats)
        assert estimator.join_cardinality(100, 50, 10, 25) == pytest.approx(200.0)

    def test_expand_cardinality_grows_with_upper_bound(self, stats):
        estimator = CardinalityEstimator(stats)
        short = QueryHandler("MATCH (a)-[e:knows*1..1]->(b) RETURN *").edges["e"]
        long = QueryHandler("MATCH (a)-[e:knows*1..5]->(b) RETURN *").edges["e"]
        assert estimator.expand_cardinality(10, long, False) > (
            estimator.expand_cardinality(10, short, False)
        )

    def test_closing_expand_is_cheaper(self, stats):
        estimator = CardinalityEstimator(stats)
        edge = QueryHandler("MATCH (a)-[e:knows*1..3]->(b) RETURN *").edges["e"]
        assert estimator.expand_cardinality(10, edge, True) < (
            estimator.expand_cardinality(10, edge, False)
        )

    def test_label_clauses_not_double_counted(self):
        handler = QueryHandler("MATCH (p:Person) RETURN *")
        assert predicate_selectivity(handler.vertices["p"].predicates) == 1.0


class TestGreedyPlanner:
    def _plan(self, graph, query, planner_cls=GreedyPlanner):
        handler = QueryHandler(query)
        stats = GraphStatistics.from_graph(graph)
        planner = planner_cls(graph, handler, stats)
        return planner.plan()

    def test_single_vertex_query(self, figure1_graph):
        root = self._plan(figure1_graph, "MATCH (p:Person) RETURN *")
        assert len(root.evaluate().collect()) == 3

    def test_single_edge_query(self, figure1_graph):
        root = self._plan(figure1_graph, "MATCH (a:Person)-[e:knows]->(b) RETURN *")
        assert len(root.evaluate().collect()) == 4

    def test_selective_predicate_drives_join_order(self, figure1_graph):
        """The plan containing the equality-filtered vertex is built first."""
        root = self._plan(
            figure1_graph,
            "MATCH (p:Person {name: 'Alice'})-[s:studyAt]->(u:University) RETURN *",
        )
        _assert_order(root, "p", "u")
        assert len(root.evaluate().collect()) == 1

    def test_selective_target_drives_join_order(self, figure1_graph):
        """The filtered vertex is the edge's target: the edge still joins
        it first, and the unfiltered source joins last."""
        root = self._plan(
            figure1_graph,
            "MATCH (a:Person)-[e:knows]->(b:Person {name: 'Alice'}) RETURN *",
        )
        _assert_order(root, "b", "a")
        assert len(root.evaluate().collect()) == 1

    def test_trivial_vertices_bound_by_edge_columns(self, figure1_graph):
        """A predicate-free vertex gets no leaf scan of its own."""
        root = self._plan(figure1_graph, "MATCH (a)-[e:knows]->(b) RETURN *")
        assert "SelectAndProjectVertices" not in root.explain()

    def test_cycle_closes_with_two_column_join(self, figure1_graph):
        root = self._plan(
            figure1_graph,
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(a) RETURN *",
        )
        results = root.evaluate().collect()
        # pairs (10,20), (20,10), (20,30), (30,20)
        assert len(results) == 4

    def test_disconnected_pattern_uses_cartesian(self, figure1_graph):
        root = self._plan(
            figure1_graph, "MATCH (p:Person), (c:City) RETURN *"
        )
        assert "Cartesian" in root.explain()
        assert len(root.evaluate().collect()) == 3

    def test_isolated_vertex_combined(self, figure1_graph):
        root = self._plan(
            figure1_graph,
            "MATCH (a:Person)-[e:knows]->(b), (c:City) RETURN *",
        )
        assert len(root.evaluate().collect()) == 4  # 4 knows x 1 city

    def test_variable_length_uses_expand(self, figure1_graph):
        root = self._plan(
            figure1_graph, "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN *"
        )
        assert "ExpandEmbeddings" in root.explain()

    def test_global_predicate_applied(self, figure1_graph):
        root = self._plan(
            figure1_graph,
            "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.gender <> b.gender RETURN *",
        )
        assert "SelectEmbeddings" in root.explain()
        assert len(root.evaluate().collect()) == 2

    def test_estimates_attached_for_explain(self, figure1_graph):
        root = self._plan(figure1_graph, "MATCH (a:Person)-[e:knows]->(b) RETURN *")
        assert "[est=" in root.explain()

    def test_left_deep_planner_same_results(self, figure1_graph):
        query = (
            "MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(c) RETURN *"
        )
        greedy = self._plan(figure1_graph, query)
        naive_order = self._plan(figure1_graph, query, planner_cls=LeftDeepPlanner)
        greedy_rows = {e for e in greedy.evaluate().collect()}
        assert len(greedy.evaluate().collect()) == len(
            naive_order.evaluate().collect()
        )

    def test_strategies_forwarded(self, figure1_graph):
        handler = QueryHandler(
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) RETURN *"
        )
        stats = GraphStatistics.from_graph(figure1_graph)
        homo = GreedyPlanner(
            figure1_graph, handler, stats,
            vertex_strategy=MatchStrategy.HOMOMORPHISM,
        ).plan()
        iso = GreedyPlanner(
            figure1_graph, handler, stats,
            vertex_strategy=MatchStrategy.ISOMORPHISM,
        ).plan()
        assert len(homo.evaluate().collect()) > len(iso.evaluate().collect())


#: greedy's plans of the shapes whose order the endpoint choice keeps
#: (a partial plan, a tie, an expansion), on the ``ldbc`` fixture
UNCHANGED_PLANS = {
    "Q4": "\n".join([
        'JoinEmbeddings(on tag)  [est=20]',
        '  JoinEmbeddings(on person)  [est=20]',
        '    JoinEmbeddings(on person)  [est=9]',
        '      JoinEmbeddings(on forum)  [est=12]',
        '        SelectAndProjectVertices(forum:Forum)  [est=3]',
        '        SelectAndProjectEdges((forum)-[__e3:hasMember|hasModerator]->(person))  [est=23]',
        '      JoinEmbeddings(on city)  [est=9]',
        '        JoinEmbeddings(on person)  [est=9]',
        '          JoinEmbeddings(on uni)  [est=9]',
        '            JoinEmbeddings(on person)  [est=9]',
        '              SelectAndProjectVertices(person:Person)  [est=18]',
        '              SelectAndProjectEdges((person)-[__e2:studyAt]->(uni))  [est=9]',
        '            SelectAndProjectVertices(uni:University)  [est=2]',
        '          SelectAndProjectEdges((person)-[__e0:isLocatedIn]->(city))  [est=18]',
        '        SelectAndProjectVertices(city:City)  [est=3]',
        '    SelectAndProjectEdges((person)-[__e1:hasInterest]->(tag))  [est=35]',
        '  SelectAndProjectVertices(tag:Tag)  [est=5]',
    ]),
    "Q5": "\n".join([
        'JoinEmbeddings(on p1, p3)  [est=19]',
        '  JoinEmbeddings(on p3)  [est=128]',
        '    JoinEmbeddings(on p2)  [est=128]',
        '      JoinEmbeddings(on p2)  [est=48]',
        '        JoinEmbeddings(on p1)  [est=48]',
        '          SelectAndProjectVertices(p1:Person)  [est=18]',
        '          SelectAndProjectEdges((p1)-[__e0:knows]->(p2))  [est=48]',
        '        SelectAndProjectVertices(p2:Person)  [est=18]',
        '      SelectAndProjectEdges((p2)-[__e1:knows]->(p3))  [est=48]',
        '    SelectAndProjectVertices(p3:Person)  [est=18]',
        '  SelectAndProjectEdges((p1)-[__e2:knows]->(p3))  [est=48]',
    ]),
    "Q6": "\n".join([
        'JoinEmbeddings(on p2, t1)  [est=71]',
        '  JoinEmbeddings(on p2)  [est=181]',
        '    JoinEmbeddings(on p1)  [est=93]',
        '      JoinEmbeddings(on t1)  [est=35]',
        '        JoinEmbeddings(on p1)  [est=35]',
        '          SelectAndProjectVertices(p1:Person)  [est=18]',
        '          SelectAndProjectEdges((p1)-[__e1:hasInterest]->(t1))  [est=35]',
        '        SelectAndProjectVertices(t1:Tag)  [est=5]',
        '      SelectAndProjectEdges((p1)-[__e0:knows]->(p2))  [est=48]',
        '    JoinEmbeddings(on t2)  [est=35]',
        '      JoinEmbeddings(on p2)  [est=35]',
        '        SelectAndProjectVertices(p2:Person)  [est=18]',
        '        SelectAndProjectEdges((p2)-[__e3:hasInterest]->(t2))  [est=35]',
        '      SelectAndProjectVertices(t2:Tag)  [est=5]',
        '  SelectAndProjectEdges((p2)-[__e2:hasInterest]->(t1))  [est=35]',
    ]),
    "T3-knows": "\n".join([
        'JoinEmbeddings(on q)  [est=5]',
        '  JoinEmbeddings(on p)  [est=5]',
        '    SelectAndProjectVertices(p:Person)  [est=2]',
        '    SelectAndProjectEdges((p)-[__e0:knows]->(q))  [est=48]',
        '  SelectAndProjectVertices(q:Person)  [est=18]',
    ]),
    "T3-knows-creator": "\n".join([
        'JoinEmbeddings(on q)  [est=10]',
        '  JoinEmbeddings(on c)  [est=39]',
        '    SelectAndProjectVertices(c:Comment)  [est=39]',
        '    SelectAndProjectEdges((c)-[__e1:hasCreator]->(q))  [est=67]',
        '  JoinEmbeddings(on q)  [est=5]',
        '    JoinEmbeddings(on p)  [est=5]',
        '      SelectAndProjectVertices(p:Person)  [est=2]',
        '      SelectAndProjectEdges((p)-[__e0:knows]->(q))  [est=48]',
        '    SelectAndProjectVertices(q:Person)  [est=18]',
    ]),
    "knows-1-3": "\n".join([
        'JoinEmbeddings(on q)  [est=52]',
        '  ExpandEmbeddings((p)-[__e0:knows*1..3]->(q))  [est=52]',
        '    SelectAndProjectVertices(p:Person)  [est=2]',
        '  SelectAndProjectVertices(q:Person)  [est=18]',
    ]),
}

UNCHANGED_QUERIES = {
    "Q4": ALL_QUERIES["Q4"],
    "Q5": ALL_QUERIES["Q5"],
    "Q6": ALL_QUERIES["Q6"],
    "T3-knows": _prepared(_T3[2]),
    "T3-knows-creator": _prepared(_T3[3]),
    "knows-1-3": KNOWS_1_3,
}


@pytest.fixture(scope="module")
def ldbc():
    return LDBCGenerator(scale_factor=0.03, seed=11).generate().to_logical_graph(
        ExecutionEnvironment(), indexed=True
    )


class TestEndpointOrder:
    """An edge between two vertex leaves starts at the smaller first join."""

    @pytest.mark.parametrize("planner_cls", [GreedyPlanner, ExhaustivePlanner])
    @pytest.mark.parametrize("name", sorted(PERSON_FIRST))
    def test_has_creator_starts_at_the_filtered_person(
        self, ldbc, name, planner_cls
    ):
        query, person, message = PERSON_FIRST[name]
        # a plan does not depend on the value of $firstName
        _, root = CypherRunner(ldbc, planner_cls=planner_cls).compile(query)
        _assert_order(root, person, message)

    @pytest.mark.parametrize("name", sorted(PERSON_FIRST))
    def test_left_deep_keeps_the_source_first(self, ldbc, name):
        query, person, message = PERSON_FIRST[name]
        _, root = CypherRunner(ldbc, planner_cls=LeftDeepPlanner).compile(query)
        _assert_order(root, message, person)

    @pytest.mark.parametrize("name", sorted(UNCHANGED_QUERIES))
    def test_other_plans_keep_their_order(self, ldbc, name):
        text = CypherRunner(ldbc).explain(UNCHANGED_QUERIES[name])
        assert text == UNCHANGED_PLANS[name]
