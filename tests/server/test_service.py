"""QueryService: admission control, deadlines, caching, lifecycle."""

import threading
import time

import pytest

from repro.dataflow import ExecutionEnvironment, QueryTimeout
from repro.engine import CypherRunner
from repro.engine.columnar import ColumnarLeaf
from repro.epgm import IndexedLogicalGraph, LogicalGraph, indexed
from repro.server import (
    AdmissionError,
    GraphRegistry,
    QueryService,
    ServiceClosedError,
    UnknownGraphError,
)
from tests.conftest import build_figure1_elements
from tests.server.test_protocol import expire_after_the_dataflow
from tests.server.workload import rows_multiset

PLAIN_QUERY = "MATCH (p:Person) RETURN p.name"
PARAM_QUERY = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
VAR_LENGTH_QUERY = "MATCH (a:Person)-[:knows*1..2]->(b:Person) RETURN *"


@pytest.fixture
def registry(figure1_graph):
    registry = GraphRegistry()
    registry.register("fig1", figure1_graph)
    return registry


@pytest.fixture
def service(registry):
    with QueryService(registry, max_concurrency=2, max_queue=4) as service:
        yield service


class TestExecution:
    def test_plain_query_matches_direct_runner(self, service, figure1_graph):
        result = service.execute("fig1", PLAIN_QUERY)
        direct = CypherRunner(figure1_graph).execute_table(PLAIN_QUERY)
        assert rows_multiset(result.rows) == rows_multiset(direct)
        assert result.row_count == 3
        assert result.prepared is False
        assert result.result_cache_hit is False

    def test_plain_query_warm_plan_hit(self, service):
        cold = service.execute("fig1", PLAIN_QUERY)
        warm = service.execute("fig1", PLAIN_QUERY)
        assert cold.plan_cache_hit is False
        assert warm.plan_cache_hit is True

    def test_parameterized_query_routes_through_prepared_plan(self, service):
        alice = service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        eve = service.execute("fig1", PARAM_QUERY, {"name": "Eve"})
        assert alice.prepared is True
        assert [row["p.name"] for row in alice.rows] == ["Alice"]
        assert [row["p.name"] for row in eve.rows] == ["Eve"]
        # second binding reuses the compiled plan from the shared cache
        assert eve.plan_cache_hit is True

    def test_unknown_graph_raises_through_future(self, service):
        with pytest.raises(UnknownGraphError):
            service.execute("nope", PLAIN_QUERY)

    def test_failed_query_counted_and_service_survives(self, service):
        with pytest.raises(Exception):
            service.execute("fig1", "MATCH (p:Person RETURN")  # syntax error
        assert service.metrics.snapshot()["failed"] == 1
        assert service.execute("fig1", PLAIN_QUERY).row_count == 3

    def test_submit_returns_future(self, service):
        future = service.submit("fig1", PLAIN_QUERY)
        assert future.result(timeout=30).row_count == 3


class TestPreparedStatements:
    def test_prepare_execute_rebind(self, service):
        handle = service.prepare("fig1", PARAM_QUERY)
        assert handle.parameter_names == ("name",)
        alice = service.execute_prepared(handle.statement_id, {"name": "Alice"})
        eve = service.execute_prepared(handle.statement_id, {"name": "Eve"})
        assert [row["p.name"] for row in alice.rows] == ["Alice"]
        assert [row["p.name"] for row in eve.rows] == ["Eve"]

    def test_preparing_twice_shares_the_compiled_plan(self, service):
        first = service.prepare("fig1", PARAM_QUERY)
        second = service.prepare("fig1", PARAM_QUERY)
        assert first.plan_cache_hit is False
        assert second.plan_cache_hit is True
        assert first.statement_id != second.statement_id

    def test_unknown_statement_id(self, service):
        with pytest.raises(KeyError):
            service.execute_prepared("stmt-999", {"name": "Alice"})

    @pytest.mark.parametrize("served", [False, True])
    def test_a_cold_compile_counts_one_miss(self, service, served):
        # what /metrics plan_cache reads: one miss per cold text, one hit
        # per warm one, on /prepare as on /query
        def use():
            if served:
                return service.execute("fig1", PARAM_QUERY, {"name": "Eve"})
            return service.prepare("fig1", PARAM_QUERY)

        stats = service.plan_cache.stats
        assert use().plan_cache_hit is False
        assert (stats.misses, stats.hits) == (1, 0)
        assert use().plan_cache_hit is True
        assert (stats.misses, stats.hits) == (1, 1)


class TestResultCache:
    @pytest.fixture
    def caching_service(self, registry):
        with QueryService(registry, result_cache_size=8) as service:
            yield service

    def test_repeat_query_hits_result_cache(self, caching_service):
        cold = caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        warm = caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        assert cold.result_cache_hit is False
        assert warm.result_cache_hit is True
        assert warm.rows == cold.rows
        # one immutable table, a row list of one's own
        assert warm.table is cold.table
        assert warm.rows is not cold.rows
        warm.rows.clear()
        again = caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        assert again.rows == cold.rows != []

    def test_cache_hit_reports_prepared_truthfully(self, caching_service):
        handle = caching_service.prepare("fig1", PARAM_QUERY)
        for _ in range(2):
            result = caching_service.execute_prepared(
                handle.statement_id, {"name": "Eve"}
            )
            assert result.prepared is True
        assert result.result_cache_hit is True
        for _ in range(2):
            result = caching_service.execute("fig1", PLAIN_QUERY)
            assert result.prepared is False
        assert result.result_cache_hit is True

    def test_different_bindings_do_not_share_rows(self, caching_service):
        caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        eve = caching_service.execute("fig1", PARAM_QUERY, {"name": "Eve"})
        assert eve.result_cache_hit is False
        assert [row["p.name"] for row in eve.rows] == ["Eve"]

    def test_touch_invalidates_cached_rows(self, caching_service, registry):
        caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        registry.get("fig1").touch()  # graph changed -> version bump
        after = caching_service.execute("fig1", PARAM_QUERY, {"name": "Alice"})
        assert after.result_cache_hit is False

    def test_touch_drops_what_the_graph_derived(self, figure1_graph):
        # a property set in place: without the drop, the statement would
        # go on answering from the old leaf table and value index
        graph = IndexedLogicalGraph.from_logical_graph(figure1_graph)
        registry = GraphRegistry()
        entry = registry.register("fig1", graph)

        def names(service, handle, name):
            result = service.execute_prepared(
                handle.statement_id, {"name": name}
            )
            return [row["p.name"] for row in result.rows]

        with QueryService(registry) as service:
            handle = service.prepare("fig1", PARAM_QUERY)
            assert names(service, handle, "Alice") == ["Alice"]
            assert graph.leaf_stats()["tables"] == 1
            (alice,) = [
                vertex for vertex in graph.collect_vertices()
                if vertex.get_property("name").raw() == "Alice"
            ]
            alice.set_property("name", "Alicia")
            entry.touch()
            assert graph.leaf_stats()["tables"] == 0
            assert names(service, handle, "Alicia") == ["Alicia"]
            assert names(service, handle, "Alice") == []

    def test_deadline_during_a_table_build_spares_the_next_request(
        self, figure1_graph, monkeypatch
    ):
        registry = GraphRegistry()
        registry.register(
            "fig1", IndexedLogicalGraph.from_logical_graph(figure1_graph)
        )
        encode = ColumnarLeaf.encode

        def slow_encode(self, elements):
            time.sleep(0.2)  # the first partition outlives the deadline
            return encode(self, elements)

        monkeypatch.setattr(ColumnarLeaf, "encode", slow_encode)
        with QueryService(registry) as service:
            with pytest.raises(QueryTimeout):
                service.execute("fig1", PLAIN_QUERY, timeout=0.1)
            assert service.metrics.snapshot()["timeouts"] == 1
            # the abandoned build left nothing behind
            assert not service.metrics_snapshot()["engine"]["leaves"]["tables"]
            monkeypatch.undo()
            assert service.execute("fig1", PLAIN_QUERY).row_count == 3
            leaves = service.metrics_snapshot()["engine"]["leaves"]
        assert (leaves["tables"], leaves["all_rows"]) == (1, 2)


    @pytest.mark.parametrize("slow", ["Adjacency.neighbours", "PairIndex.matches"])
    def test_deadline_inside_an_adjacency_join_spares_the_next_request(
        self, figure1_graph, monkeypatch, slow
    ):
        # a hop and a pair probe poll the deadline once per fan-out slice
        registry = GraphRegistry()
        registry.register(
            "fig1", IndexedLogicalGraph.from_logical_graph(figure1_graph)
        )
        triangle = (
            "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person),"
            " (a)-[:knows]->(c) RETURN a.name"
        )
        owner, method = slow.split(".")
        find = getattr(getattr(indexed, owner), method)

        def slow_find(self, *ids):
            time.sleep(0.2)  # the first probe outlives the deadline
            return find(self, *ids)

        monkeypatch.setattr(getattr(indexed, owner), method, slow_find)
        with QueryService(registry) as service:
            with pytest.raises(QueryTimeout):
                service.execute("fig1", triangle, timeout=0.1)
            assert service.metrics.snapshot()["timeouts"] == 1
            monkeypatch.undo()
            assert service.execute("fig1", triangle).row_count == len(
                CypherRunner(figure1_graph, mode="reference").execute_table(triangle)
            )
            assert not any(
                service.metrics_snapshot()["engine"]["chunk_fallbacks"].values()
            )


class TestAdmissionControl:
    def test_saturated_service_fast_fails(self, registry):
        # one worker, no queue: hold the worker hostage with an event, then
        # the first submission fills the only capacity slot and the second
        # must be rejected immediately (deterministic — occupancy is
        # counted at submit time, before any worker picks the query up)
        release = threading.Event()
        with QueryService(registry, max_concurrency=1, max_queue=0) as service:
            blocker = service._executor.submit(release.wait)
            try:
                queued = service.submit("fig1", PLAIN_QUERY)
                with pytest.raises(AdmissionError):
                    service.submit("fig1", PLAIN_QUERY)
            finally:
                release.set()
            assert queued.result(timeout=30).row_count == 3
            blocker.result(timeout=30)
            # capacity freed: the service accepts work again
            assert service.execute("fig1", PLAIN_QUERY).row_count == 3
            assert service.metrics.snapshot()["rejected"] == 1

    def test_invalid_capacity_configuration(self, registry):
        with pytest.raises(ValueError):
            QueryService(registry, max_concurrency=0)
        with pytest.raises(ValueError):
            QueryService(registry, max_queue=-1)


class TestDeadlines:
    def test_expired_deadline_times_out(self, service):
        with pytest.raises(QueryTimeout):
            service.execute("fig1", PLAIN_QUERY, timeout=0.0)
        assert service.metrics.snapshot()["timeouts"] == 1

    def test_worker_recovers_after_timeout(self, service):
        with pytest.raises(QueryTimeout):
            service.execute("fig1", PLAIN_QUERY, timeout=0.0)
        result = service.execute("fig1", PLAIN_QUERY)
        assert result.row_count == 3

    @pytest.mark.parametrize("query, parameters", [
        (PLAIN_QUERY, None), (PARAM_QUERY, {"name": "Alice"}),
    ])
    def test_deadline_holds_while_the_result_is_built(
        self, service, monkeypatch, query, parameters
    ):
        # the dataflow finishes in time; the token expires before the
        # first result batch is decoded
        expire_after_the_dataflow(monkeypatch)
        with pytest.raises(QueryTimeout):
            service.execute("fig1", query, parameters, timeout=60.0)
        assert service.metrics.snapshot()["timeouts"] == 1
        monkeypatch.undo()
        assert service.execute("fig1", query, parameters).row_count > 0

    def test_default_timeout_applies_to_every_query(self, registry):
        with QueryService(registry, default_timeout=0.0) as service:
            with pytest.raises(QueryTimeout):
                service.execute("fig1", PLAIN_QUERY)

    def test_explicit_timeout_overrides_default(self, registry):
        with QueryService(registry, default_timeout=0.0) as service:
            result = service.execute("fig1", PLAIN_QUERY, timeout=60.0)
            assert result.row_count == 3


class TestLifecycle:
    def test_closed_service_rejects_submissions(self, registry):
        service = QueryService(registry)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit("fig1", PLAIN_QUERY)

    def test_close_is_idempotent(self, registry):
        service = QueryService(registry)
        service.close()
        service.close()

    def test_metrics_snapshot_shape(self, service):
        service.execute("fig1", PLAIN_QUERY)
        snapshot = service.metrics_snapshot()
        assert snapshot["submitted"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["graphs"] == ["fig1"]
        assert snapshot["capacity"] == {"max_concurrency": 2, "max_queue": 4}
        assert "plan_cache" in snapshot
        assert snapshot["latency"]["count"] == 1

    def test_metrics_name_the_engine_mode_and_count_fallbacks(self, service):
        # every stage of a plain join has a chunk kernel; a graph built in
        # code groups its edges by label on the first walk: the join with
        # the edge leaf hops over them, the vertex leaf's is a lookup, and
        # the leaves gather from the tables the graph keeps ...
        service.execute(
            "fig1", "MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name"
        )
        engine = service.metrics_snapshot()["engine"]
        assert engine["mode"] == "columnar"
        assert engine["chunk_fallbacks"] == dict.fromkeys(
            ("non_uniform_batch", "no_kernel", "path_join", "expand_base_path"),
            0,
        )
        adjacency = engine["adjacency"]
        assert (adjacency["labels"], adjacency["edges"]) == (3, 8)
        assert adjacency["bytes"] > 0 and adjacency["pair_indexes"] == 0
        assert (adjacency["hop_joins"], adjacency["lookup_joins"]) == (1, 1)
        assert engine["leaves"]["tables"] > 0
        # ... and a variable-length expansion walks the same adjacency
        service.execute("fig1", VAR_LENGTH_QUERY)
        engine = service.metrics_snapshot()["engine"]
        assert not any(engine["chunk_fallbacks"].values())
        assert engine["adjacency"]["lookup_joins"] == 2

    def test_indexed_graph_expands_without_a_fallback(self, figure1_graph):
        registry = GraphRegistry()
        registry.register(
            "fig1", IndexedLogicalGraph.from_logical_graph(figure1_graph)
        )
        with QueryService(registry) as service:
            answer = service.execute("fig1", VAR_LENGTH_QUERY)
            engine = service.metrics_snapshot()["engine"]
        reference = CypherRunner(figure1_graph, mode="reference").execute_table(
            VAR_LENGTH_QUERY
        )
        assert rows_multiset(answer.rows) == rows_multiset(reference)
        assert not any(engine["chunk_fallbacks"].values())
        # the kernel's chunks and the one-sided PATH join reach the result
        assert engine["result"]["reencoded_partitions"] == 0
        assert engine["adjacency"]["labels"] == 3
        assert engine["adjacency"]["edges"] == 8
        assert engine["adjacency"]["bytes"] > 0
        assert engine["adjacency"]["hop_joins"] == 0
        # ... and the join with (b:Person) looked its rows up
        assert engine["adjacency"]["lookup_joins"] == 1

    def test_indexed_graph_joins_through_the_adjacency(self, figure1_graph):
        registry = GraphRegistry()
        registry.register(
            "fig1", IndexedLogicalGraph.from_logical_graph(figure1_graph)
        )
        triangle = (
            "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person),"
            " (a)-[:knows]->(c) RETURN a.name, c.name"
        )
        with QueryService(registry) as service:
            before = service.metrics_snapshot()["engine"]["adjacency"]
            answers = [service.execute("fig1", triangle) for _ in range(2)]
            engine = service.metrics_snapshot()["engine"]
        reference = CypherRunner(figure1_graph, mode="reference").execute_table(
            triangle
        )
        assert rows_multiset(answers[0].rows) == rows_multiset(reference)
        assert not any(engine["chunk_fallbacks"].values())
        assert engine["result"]["reencoded_partitions"] == 0
        # two hops and one closing probe per execution; the second
        # execution found the first's pair index, counted in ``bytes``
        after = engine["adjacency"]
        assert (after["hop_joins"], after["pair_joins"]) == (4, 2)
        assert after["pair_indexes"] == 1
        assert after["bytes"] > before["bytes"]

    def test_batched_service_reports_its_mode(self):
        """A service runs its environment's mode: on a reference-mode
        environment it reports ``reference``."""
        head, vertices, edges = build_figure1_elements()
        graph = LogicalGraph.from_collections(
            ExecutionEnvironment(parallelism=4, mode="reference"),
            vertices, edges, graph_head=head,
        )
        registry = GraphRegistry()
        registry.register("fig1", graph)
        with QueryService(registry) as reference:
            reference.execute("fig1", PLAIN_QUERY)
            engine = reference.metrics_snapshot()["engine"]
        assert engine["mode"] == "reference"
        assert not any(engine["chunk_fallbacks"].values())
        # ... and every result partition arrived per record
        result = engine["result"]
        assert result["rows"] == 3
        assert result["reencoded_partitions"] == result["chunks"] > 0

    def test_metrics_count_what_crosses_the_result_boundary(self, service):
        assert service.metrics_snapshot()["engine"]["result"] == {
            "rows": 0, "chunks": 0, "reencoded_partitions": 0,
        }
        service.execute("fig1", PLAIN_QUERY)
        result = service.metrics_snapshot()["engine"]["result"]
        assert result["rows"] == 3
        assert result["chunks"] > 0 == result["reencoded_partitions"]
        # an expansion's kernel hands its chunks over too
        answer = service.execute("fig1", VAR_LENGTH_QUERY)
        after = service.metrics_snapshot()["engine"]["result"]
        assert after["rows"] == 3 + answer.row_count
        assert after["chunks"] > result["chunks"]
        assert after["reencoded_partitions"] == 0
