"""Edge-case coverage for variable-length path expansion.

Exercises the planner paths that pick reverse and closing expansions, and
undirected variable-length edges.  Every query runs three ways — the
chunk kernel over a label-indexed copy of the graph, the iterated-join
reference dataflow (per record) and the naive matcher — and all three
must agree.
"""

import itertools

import pytest

from repro.cypher.query_graph import QueryHandler
from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    MatchStrategy,
    NaiveMatcher,
    canonical_rows_from_embeddings,
)
from repro.epgm import Edge, GradoopId, IndexedLogicalGraph, Vertex

HOMO, ISO = MatchStrategy.HOMOMORPHISM, MatchStrategy.ISOMORPHISM


def _check(graph, query, vertex_strategy=None, edge_strategy=None,
           parameters=None, fallbacks=()):
    """Kernel == reference loop == naive matcher on ``query``; the kernel
    run must count exactly the ``fallbacks`` reasons, an expand's once."""
    kwargs = {}
    if vertex_strategy:
        kwargs["vertex_strategy"] = vertex_strategy
    if edge_strategy:
        kwargs["edge_strategy"] = edge_strategy
    runner = CypherRunner(graph, mode="reference", **kwargs)
    embeddings, meta = runner.execute_embeddings(query, parameters)
    engine_rows = sorted(canonical_rows_from_embeddings(embeddings, meta))
    naive_rows = sorted(NaiveMatcher(graph, **kwargs).match(
        QueryHandler(query, parameters=parameters)
    ))
    assert engine_rows == naive_rows, query
    indexed = IndexedLogicalGraph.from_logical_graph(graph)
    with graph.environment.job("kernel") as metrics:
        embeddings, meta = CypherRunner(indexed, **kwargs).execute_embeddings(
            query, parameters
        )
    assert sorted(canonical_rows_from_embeddings(embeddings, meta)) == (
        engine_rows
    ), query
    taken = {k: v for k, v in metrics.chunk_fallbacks.items() if v}
    assert set(taken) == set(fallbacks), query
    assert all(taken[k] == 1 for k in taken if k.startswith("expand")), query
    return engine_rows, runner


class TestReverseExpansion:
    def test_selective_target_triggers_reverse(self, figure1_graph):
        """Only the path target has predicates: the planner must expand
        backwards from it."""
        query = "MATCH (p1)-[e:knows*1..3]->(p2:Person {name: 'Bob'}) RETURN *"
        rows, runner = _check(figure1_graph, query)
        assert rows  # Alice and Eve can reach Bob
        assert "reverse" in runner.explain(query)

    def test_reverse_path_order_is_source_to_target(self, figure1_graph):
        query = "MATCH (p1)-[e:knows*2..2]->(p2:Person {name: 'Bob'}) RETURN *"
        runner = CypherRunner(
            figure1_graph, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        embeddings, meta = runner.execute_embeddings(query)
        paths = {
            tuple(g.value for g in e.path_at(meta.entry_column("e")))
            for e in embeddings
        }
        # Alice -> Eve -> Bob must read [5, 20, 7], not reversed
        assert (5, 20, 7) in paths

    def test_reverse_with_hop_predicates(self, figure1_graph):
        query = (
            "MATCH (p1)-[e:studyAt*1..1]->(u:University {name: 'Uni Leipzig'}) "
            "WHERE e.classYear > 2014 RETURN *"
        )
        rows, _ = _check(figure1_graph, query)
        assert len(rows) == 2  # Alice and Eve; Bob's 2014 hop filtered


class TestClosingExpansion:
    def test_cycle_through_fixed_edge(self, figure1_graph):
        """(a)-[e1]->(b) then b ~~> a by a variable-length path."""
        query = (
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows*1..2]->(a) "
            "RETURN *"
        )
        rows, runner = _check(figure1_graph, query)
        assert rows
        assert "closing" in runner.explain(query)

    def test_self_loop_variable_length(self, figure1_graph):
        """(a) back to itself within two hops (homomorphism)."""
        query = "MATCH (a:Person)-[e:knows*2..2]->(a) RETURN *"
        rows, _ = _check(figure1_graph, query)
        # 10->20->10, 20->10->20, 20->30->20, 30->20->30
        assert len(rows) == 4

    def test_closing_respects_edge_iso(self, figure1_graph):
        query = "MATCH (a:Person)-[e:knows*2..2]->(a) RETURN *"
        rows, _ = _check(
            figure1_graph,
            query,
            edge_strategy=MatchStrategy.ISOMORPHISM,
        )
        # the out-and-back pairs use two distinct edges: still 4
        assert len(rows) == 4


class TestUndirectedVariableLength:
    def test_undirected_expansion(self, figure1_graph):
        query = "MATCH (a:Person {name: 'Alice'})-[e:knows*1..1]-(b) RETURN *"
        rows, _ = _check(figure1_graph, query)
        # edges 5 (out) and 6 (in) both connect Alice and Eve
        assert len(rows) == 2

    def test_undirected_two_hops(self, figure1_graph):
        query = "MATCH (a:City)-[e:isLocatedIn*2..2]-(b) RETURN *"
        rows, _ = _check(figure1_graph, query)
        # city -(isLocatedIn)- university: only one such edge, so no 2-hop
        # path under edge iso
        assert rows == []


class TestBounds:
    @pytest.mark.parametrize("lower,upper", [(0, 0), (0, 3), (2, 2), (3, 3)])
    def test_various_bounds_vs_naive(self, figure1_graph, lower, upper):
        query = (
            "MATCH (a:Person {name: 'Alice'})-[e:knows*%d..%d]->(b) RETURN *"
            % (lower, upper)
        )
        _check(figure1_graph, query)

    def test_zero_zero_binds_target_to_source(self, figure1_graph):
        query = "MATCH (a:Person {name: 'Alice'})-[e:knows*0..0]->(b) RETURN *"
        rows, _ = _check(figure1_graph, query)
        assert len(rows) == 1
        row = dict(rows[0])
        assert row["a"] == row["b"] == 10

    def test_unbounded_defaults_applied(self, figure1_graph):
        from repro.cypher import DEFAULT_UPPER_BOUND

        query = "MATCH (a:Person {name: 'Alice'})-[e:knows*]->(b) RETURN *"
        runner = CypherRunner(figure1_graph)
        handler, _ = runner.compile(query)
        assert handler.edges["e"].upper == DEFAULT_UPPER_BOUND


class TestTwoVariableLengthEdges:
    def test_chained_expansions(self, figure1_graph):
        query = (
            "MATCH (a:Person {name: 'Alice'})-[e1:knows*1..1]->(b:Person),"
            " (b)-[e2:knows*1..2]->(c:Person) RETURN *"
        )
        # the second expansion's input carries e1's PATH column, which
        # edge isomorphism must read: the declared, counted fallback —
        # and everything above it then meets per-record partitions
        _check(figure1_graph, query, fallbacks={
            "expand_base_path", "non_uniform_batch",
        })
        # under homomorphism nothing reads it: the kernel carries it
        _check(figure1_graph, query, edge_strategy=HOMO)

    def test_edge_iso_across_paths(self, figure1_graph):
        query = (
            "MATCH (a:Person)-[e1:knows*1..1]->(b:Person),"
            " (b)-[e2:knows*1..1]->(a) RETURN *"
        )
        homo_rows, _ = _check(
            figure1_graph, query, edge_strategy=MatchStrategy.HOMOMORPHISM
        )
        iso_rows, _ = _check(
            figure1_graph, query, edge_strategy=MatchStrategy.ISOMORPHISM,
            fallbacks={"expand_base_path"},
        )
        assert len(iso_rows) <= len(homo_rows)


# --- the kernel's own corners -------------------------------------------------

BIG = 2**63  # ids beyond int64: the columns are uint64 end to end


@pytest.fixture(scope="module")
def tangle():
    """A 2-cycle with a parallel edge, a self-loop, a second label and a
    chain that ends early, all on ids >= 2**63."""
    def vertex(number, label, **properties):
        return Vertex(GradoopId(BIG + number), label=label, properties=properties)

    def edge(number, label, source, target, **properties):
        return Edge(
            GradoopId(BIG + 100 + number), label=label,
            source_id=GradoopId(BIG + source), target_id=GradoopId(BIG + target),
            properties=properties,
        )

    vertices = [
        vertex(1, "N", name="one"), vertex(2, "N", name="two"),
        vertex(3, "N", name="three"), vertex(4, "M", name="four"),
        vertex(5, "M", name="five"), vertex(6, "M", name="six"),
    ]
    edges = [
        edge(1, "a", 1, 2, w=1), edge(2, "a", 2, 1, w=2),  # the 2-cycle
        edge(3, "a", 1, 2, w=3),  # parallel to edge 1
        edge(4, "a", 3, 3, w=1),  # self-loop
        edge(5, "b", 2, 3, w=1), edge(6, "b", 3, 4, w=2),
        edge(7, "a", 4, 5, w=1), edge(8, "a", 5, 6, w=1),  # chain, ends at 6
    ]
    return IndexedLogicalGraph.from_collections(
        ExecutionEnvironment(parallelism=4), vertices, edges
    )


KERNEL_QUERIES = [
    "MATCH (x:N)-[e:a*0..3]->(y) RETURN *",  # zero-hop emission
    "MATCH (x:N)-[e:a*2..2]->(y) RETURN *",
    "MATCH (x:M {name: 'four'})-[e:a*1..10]->(y) RETURN *",  # ends early
    "MATCH (x:M {name: 'six'})-[e:a*1..3]->(y) RETURN *",  # no out-edges
    "MATCH (x:M {name: 'nobody'})-[e:a*1..3]->(y) RETURN *",  # empty input
    "MATCH (x:N)-[e:a*1..3]->(x) RETURN *",  # closing
    "MATCH (x)-[e:a*1..2]->(y:N {name: 'two'}) RETURN *",  # reverse
    "MATCH (x:N {name: 'three'})-[e:a|b*1..2]-(y) RETURN *",  # undirected, loop
    "MATCH (x:N)-[e:a|b*1..2]->(y) RETURN *",
    "MATCH (x:N)-[e*1..2]->(y) RETURN *",  # unlabeled
    "MATCH (x:N)-[e:a*1..2 {w: 1}]->(y) RETURN *",  # residual, literal
    # the one-sided PATH join: few paths against many N (path side is the
    # build side), many paths against the one M they reach (probe side)
    "MATCH (x:N {name: 'three'})-[e:b*1..1]->(y:M) RETURN *",
    "MATCH (x)-[e*1..3]->(y:M {name: 'four'}) RETURN *",
    "MATCH (x:N)-[e*1..3]->(y:N) RETURN *",
]


@pytest.mark.parametrize(
    "vertex_strategy, edge_strategy",
    list(itertools.product((HOMO, ISO), repeat=2)),
    ids=lambda strategy: strategy.value[:4],
)
@pytest.mark.parametrize("query", KERNEL_QUERIES)
def test_kernel_equals_reference_and_naive(
    tangle, query, vertex_strategy, edge_strategy
):
    _check(tangle, query, vertex_strategy, edge_strategy)


@pytest.mark.parametrize("query", [
    # two PATH entries a row, the second of zero hops or more, then a
    # hash join with the PATH-bearing side
    "MATCH (x:N)-[p:a*1..2]->(y)-[q:a|b*0..2]->(z) RETURN p, x.name, q, z.name",
    # a reversed expansion: the walked path is stored back to front
    "MATCH (y:M {name: 'four'})<-[p*1..3]-(x) RETURN x, p, y.name",
])
def test_paths_beside_properties_equal_reference_and_naive(tangle, query):
    _, runner = _check(tangle, query, HOMO, HOMO)
    assert ("reverse" in runner.explain(query)) == ("<-" in query)
    tables = [
        sorted(map(repr, CypherRunner(
            tangle, vertex_strategy=HOMO, edge_strategy=HOMO, mode=mode
        ).execute_table(query)))
        for mode in ("columnar", "reference")
    ]
    assert tables[0] == tables[1] and tables[0]


def test_residual_predicate_follows_a_rebound_parameter(tangle):
    query = "MATCH (x:N)-[e:a*1..2]->(y) WHERE e.w = $w RETURN *"
    runner = CypherRunner(tangle)
    statement = runner.prepare(query)
    for weight in (1, 3, 1, 7):
        expected, _ = _check(tangle, query, parameters={"w": weight})
        with tangle.environment.job("rebound") as metrics:
            embeddings, meta = runner.execute_embeddings(query, {"w": weight})
        assert sorted(
            canonical_rows_from_embeddings(embeddings, meta)
        ) == expected
        assert not any(metrics.chunk_fallbacks.values())
    assert statement.executions == 4  # one plan, four bindings


def test_kernel_run_shape(tangle):
    """One ``ExpandEmbeddings:hop`` run per superstep the frontier lasts,
    its iteration set, no shuffle — and none of the reference's runs."""
    runner = CypherRunner(tangle)
    query = "MATCH (x:M {name: 'four'})-[e:a*1..10]->(y) RETURN *"
    with tangle.environment.job("shape") as metrics:
        runner.execute_embeddings(query)
    hops = [run for run in metrics.runs if run.iteration is not None]
    assert [run.name for run in hops] == ["ExpandEmbeddings:hop"] * 3
    assert [run.iteration for run in hops] == [1, 2, 3]
    # 4 -> 5 -> 6 -> nothing: the frontier empties in the third superstep
    assert [(run.records_in, run.records_out) for run in hops] == [
        (1, 1), (1, 1), (1, 0),
    ]
    assert not any(run.shuffled_records for run in hops)
    with tangle.environment.job("reference") as reference:
        CypherRunner(tangle, mode="reference").execute_embeddings(query)
    assert {run.iteration for run in reference.runs} - {None} == {1, 2, 3}
    assert any(run.shuffled_records for run in reference.runs)
