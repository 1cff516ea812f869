"""Tests for QueryHandler: query graph construction and predicate push-down."""

import pytest

from repro.cypher import (
    CypherSemanticError,
    DEFAULT_UPPER_BOUND,
    QueryHandler,
)


class TestStructure:
    def test_simple_edge(self):
        handler = QueryHandler("MATCH (a:Person)-[e:knows]->(b:Person)")
        assert set(handler.vertices) == {"a", "b"}
        assert set(handler.edges) == {"e"}
        edge = handler.edges["e"]
        assert edge.source == "a" and edge.target == "b"

    def test_incoming_edge_normalized(self):
        handler = QueryHandler("MATCH (p:Person)<-[c:hasCreator]-(m:Comment)")
        edge = handler.edges["c"]
        assert edge.source == "m" and edge.target == "p"

    def test_anonymous_elements_get_variables(self):
        handler = QueryHandler("MATCH (:Person)-[:knows]->()")
        assert len(handler.vertices) == 2
        assert len(handler.edges) == 1
        assert all(v.startswith("__") for v in handler.vertices)

    def test_shared_vertex_variable_merges(self):
        handler = QueryHandler(
            "MATCH (a:Person)-[e1:knows]->(b), (a)-[e2:studyAt]->(u)"
        )
        assert len(handler.vertices) == 3
        assert handler.edges["e1"].source == "a"
        assert handler.edges["e2"].source == "a"

    def test_edge_variable_reuse_rejected(self):
        with pytest.raises(CypherSemanticError):
            QueryHandler("MATCH (a)-[e]->(b), (b)-[e]->(c)")

    def test_variable_as_both_vertex_and_edge_rejected(self):
        with pytest.raises(CypherSemanticError):
            QueryHandler("MATCH (x)-[y]->(z), (y)-[w]->(z)")

    def test_undirected_edge_flag(self):
        handler = QueryHandler("MATCH (a)-[e:knows]-(b)")
        assert handler.edges["e"].undirected

    def test_triangle(self):
        handler = QueryHandler(
            "MATCH (p1:Person)-[:knows]->(p2:Person),"
            " (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3)"
        )
        assert len(handler.vertices) == 3
        assert len(handler.edges) == 3


class TestVariableLengthEdges:
    def test_bounds_recorded(self):
        handler = QueryHandler("MATCH (a)-[e:knows*1..3]->(b)")
        edge = handler.edges["e"]
        assert edge.is_variable_length
        assert (edge.lower, edge.upper) == (1, 3)

    def test_zero_lower_bound(self):
        handler = QueryHandler("MATCH (m)-[e:replyOf*0..10]->(p)")
        assert handler.edges["e"].lower == 0

    def test_unbounded_upper_gets_default(self):
        handler = QueryHandler("MATCH (a)-[e:knows*2..]->(b)")
        assert handler.edges["e"].upper == DEFAULT_UPPER_BOUND


class TestPredicates:
    def test_label_becomes_predicate(self):
        handler = QueryHandler("MATCH (p:Person)")
        assert not handler.vertices["p"].predicates.is_trivial
        assert handler.vertices["p"].labels == ["Person"]

    def test_inline_properties_become_predicates(self):
        handler = QueryHandler("MATCH (p:Person {name: 'Alice'})")
        cnf = handler.vertices["p"].predicates
        assert len(cnf) == 2  # label clause + property clause

    def test_single_variable_where_pushed_down(self):
        handler = QueryHandler(
            "MATCH (p:Person)-[e]->(q) WHERE p.age > 30 AND q.age < 20"
        )
        assert handler.global_predicates.is_trivial
        # p: label + age; q: age only
        assert len(handler.vertices["p"].predicates) == 2
        assert len(handler.vertices["q"].predicates) == 1

    def test_cross_variable_where_stays_global(self):
        handler = QueryHandler(
            "MATCH (a:Person)-[e]->(b:Person) WHERE a.gender <> b.gender"
        )
        assert len(handler.global_predicates) == 1

    def test_edge_property_predicate_pushed_to_edge(self):
        handler = QueryHandler(
            "MATCH (p)-[s:studyAt]->(u) WHERE s.classYear > 2014"
        )
        cnf = handler.edges["s"].predicates
        assert len(cnf) == 2  # type + classYear

    def test_unbound_variable_in_where_rejected(self):
        with pytest.raises(CypherSemanticError):
            QueryHandler("MATCH (a) WHERE ghost.x = 1")

    def test_unbound_variable_in_return_rejected(self):
        with pytest.raises(CypherSemanticError):
            QueryHandler("MATCH (a) RETURN ghost.x")

    def test_mixed_clause_with_or_not_pushed(self):
        handler = QueryHandler(
            "MATCH (a)-[e]->(b) WHERE a.x = 1 OR b.y = 2"
        )
        # the OR clause spans two variables -> global
        assert len(handler.global_predicates) == 1
        assert handler.vertices["a"].predicates.is_trivial


class TestPropertyKeys:
    def test_keys_from_predicates_and_return(self):
        # the leaf evaluates s.classYear > 2014 itself: the key is read
        # before anything enters an embedding
        handler = QueryHandler(
            "MATCH (p:Person)-[s:studyAt]->(u:University) "
            "WHERE s.classYear > 2014 RETURN p.name, u.name, s.since"
        )
        assert handler.property_keys("p") == {"name"}
        assert handler.property_keys("u") == {"name"}
        assert handler.property_keys("s") == {"since"}

    def test_order_by_keys_count_under_return_star(self):
        handler = QueryHandler(
            "MATCH (p:Person {name: 'Alice'})-[s]->(u) RETURN * ORDER BY u.age"
        )
        assert handler.property_keys("p") == set()
        assert handler.property_keys("u") == {"age"}

    def test_keys_from_global_predicates(self):
        handler = QueryHandler(
            "MATCH (a:Person)-[e]->(b:Person) WHERE a.gender <> b.gender"
        )
        assert handler.property_keys("a") == {"gender"}
        assert handler.property_keys("b") == {"gender"}

    def test_no_keys_needed(self):
        handler = QueryHandler("MATCH (a)-[e]->(b) RETURN *")
        assert handler.property_keys("a") == set()


class TestPaperQueries:
    """All six appendix queries must compile to query graphs."""

    QUERIES = [
        # Q1
        """MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post)
           WHERE person.firstName = 'John'
           RETURN message.creationDate, message.content""",
        # Q2
        """MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post),
                 (message)-[:replyOf*0..10]->(post:Post)
           WHERE person.firstName = 'John'
           RETURN message.creationDate, message.content,
                  post.creationDate, post.content""",
        # Q3
        """MATCH (p1:Person)-[:knows]->(p2:Person),
                 (p2)<-[:hasCreator]-(comment:Comment),
                 (comment)-[:replyOf*1..10]->(post:Post),
                 (post)-[:hasCreator]->(p1)
           WHERE p1.firstName = 'John'
           RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName,
                  post.content""",
        # Q4
        """MATCH (person:Person)-[:isLocatedIn]->(city:City),
                 (person)-[:hasInterest]->(tag:Tag),
                 (person)-[:studyAt]->(uni:University),
                 (person)<-[:hasMember|hasModerator]-(forum:Forum)
           RETURN person.firstName, person.lastName,
                  city.name, tag.name, uni.name, forum.title""",
        # Q5
        """MATCH (p1:Person)-[:knows]->(p2:Person),
                 (p2)-[:knows]->(p3:Person),
                 (p1)-[:knows]->(p3)
           RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName,
                  p3.firstName, p3.lastName""",
        # Q6
        """MATCH (p1:Person)-[:knows]->(p2:Person),
                 (p1)-[:hasInterest]->(t1:Tag),
                 (p2)-[:hasInterest]->(t1),
                 (p2)-[:hasInterest]->(t2:Tag)
           RETURN p1.firstName, p1.lastName, t2.name""",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_compiles(self, query):
        handler = QueryHandler(query)
        assert handler.vertices
        assert handler.edges

    def test_q4_vertex_edge_counts(self):
        handler = QueryHandler(self.QUERIES[3])
        assert len(handler.vertices) == 5  # person, city, tag, uni, forum
        assert len(handler.edges) == 4
