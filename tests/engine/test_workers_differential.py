"""Worker-pool vs single-process differential checking.

Acceptance for the multi-process runtime: for every LDBC paper query
(Q1–Q6), under every planner, executing with ``workers=2`` (fused
chains and exchange joins shipped to real worker processes) yields the
same embedding multiset as single-process reference execution.
Also proves sanitized runs on a worker-enabled environment stay on the
in-process path (the sanitizer's boundary wrappers must see every
intermediate) without error.
"""

from collections import Counter

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator

PLANNERS = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)


@pytest.fixture(scope="module")
def graphs():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    worker_env = ExecutionEnvironment(parallelism=4, workers=2)
    single_env = ExecutionEnvironment(parallelism=4)
    worker_graph = dataset.to_logical_graph(worker_env)
    single_graph = dataset.to_logical_graph(single_env)
    yield (
        dataset,
        (worker_graph, GraphStatistics.from_graph(worker_graph)),
        (single_graph, GraphStatistics.from_graph(single_graph)),
    )
    worker_env.shutdown_workers()


@pytest.mark.parametrize("planner_cls", PLANNERS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_workers_equal_single_process(graphs, name, planner_cls):
    dataset, (worker_graph, worker_stats), (single_graph, single_stats) = (
        graphs
    )
    query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
    pooled = CypherRunner(
        worker_graph,
        statistics=worker_stats,
        planner_cls=planner_cls,
        mode="columnar",
    )
    single = CypherRunner(
        single_graph,
        statistics=single_stats,
        planner_cls=planner_cls,
        mode="reference",
    )
    pooled_embeddings, _ = pooled.execute_embeddings(query)
    single_embeddings, _ = single.execute_embeddings(query)
    assert Counter(pooled_embeddings) == Counter(single_embeddings)


def test_worker_pool_really_engaged(graphs):
    _, (worker_graph, _), _ = graphs
    pool = worker_graph.environment.worker_pool()
    assert pool is not None and pool._started
    assert any(
        handle is not None and handle.shipped for handle in pool._handles
    )


def test_prepared_rebinding_reaches_workers():
    """Regression: one prepared plan, three bindings, pooled execution.

    The prepared statement's closures read a shared ``ParameterBinding``
    late; shipping freezes them by value, so the pool must re-ship the
    spec whenever the binding content changes (content-digest wire keys)
    instead of replaying a stale worker-cached spec.
    """
    dataset = LDBCGenerator(scale_factor=0.01, seed=7).generate()
    worker_env = ExecutionEnvironment(parallelism=4, workers=2)
    single_env = ExecutionEnvironment(parallelism=4)
    try:
        worker_graph = dataset.to_logical_graph(worker_env)
        single_graph = dataset.to_logical_graph(single_env)
        query = (
            "MATCH (p:Person) WHERE p.firstName = $name "
            "RETURN p.firstName, p.lastName"
        )
        pooled = CypherRunner(
            worker_graph, statistics=GraphStatistics.from_graph(worker_graph)
        )
        single = CypherRunner(
            single_graph, statistics=GraphStatistics.from_graph(single_graph)
        )
        for name in (
            dataset.first_name("low"),
            dataset.first_name("high"),
            dataset.first_name("low"),
        ):
            pooled_rows = pooled.execute_table(query, {"name": name})
            single_rows = single.execute_table(query, {"name": name})
            assert pooled_rows and all(
                row["p.firstName"] == name for row in pooled_rows
            )
            assert sorted(
                tuple(sorted(row.items())) for row in pooled_rows
            ) == sorted(tuple(sorted(row.items())) for row in single_rows)
        assert worker_env.worker_pool()._started
    finally:
        worker_env.shutdown_workers()


def test_sanitized_run_stays_in_process():
    dataset = LDBCGenerator(scale_factor=0.01, seed=11).generate()
    environment = ExecutionEnvironment(parallelism=4, workers=2)
    try:
        graph = dataset.to_logical_graph(environment)
        runner = CypherRunner(
            graph,
            statistics=GraphStatistics.from_graph(graph),
            sanitize="collect",
        )
        query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
        embeddings, _ = runner.execute_embeddings(query)
        assert embeddings  # the sanitized run executed
        pool = environment.worker_pool()
        assert pool is None or not pool._started
    finally:
        environment.shutdown_workers()
