"""Concurrent differential stress: N threads vs. a serial baseline.

The LDBC workload (Q1-Q6) runs from many threads through one
:class:`QueryService`, and every concurrent result must be *identical*
(as a row multiset) to what the per-record reference engine returns on
another copy of the graph — the service adds concurrency, caching and
deadlines, never different answers.

Each check runs twice: on a plain graph and, in the ``*_indexed``
tests, on the indexed graph that ``repro serve`` loads.  The service's graph is built cold, so the
threads race to build its resident leaf tables, adjacencies and pair
indexes; on both legs the columnar engine must take its kernels (hop,
pair and lookup joins, leaf probes) and never fall back.
"""

import threading

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.ldbc import LDBCGenerator
from repro.server import GraphRegistry, QueryService
from tests.server.workload import build_workload, rows_multiset

SCALE_FACTOR = 0.02
SEED = 11
THREADS = 8
GRAPH = "ldbc"


@pytest.fixture(scope="module")
def ldbc_setup():
    dataset = LDBCGenerator(scale_factor=SCALE_FACTOR, seed=SEED).generate()
    workload = build_workload(dataset)
    runner = CypherRunner(
        dataset.to_logical_graph(ExecutionEnvironment()), mode="reference"
    )
    reference = {
        item.name: rows_multiset(
            runner.execute_table(item.query, item.parameters)
        )
        for item in workload
    }
    return dataset, workload, reference


def serve(ldbc_setup, indexed):
    """``(registry, indexed, workload, reference)`` over a cold graph."""
    dataset, workload, reference = ldbc_setup
    registry = GraphRegistry()
    registry.register(GRAPH, dataset.to_logical_graph(
        ExecutionEnvironment(parallelism=4), indexed=indexed
    ))
    return registry, indexed, workload, reference


def run_clients(client):
    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_results_match_serial_baseline(ldbc_setup):
    check_concurrent_results(serve(ldbc_setup, indexed=False))


def test_concurrent_results_match_serial_baseline_indexed(ldbc_setup):
    check_concurrent_results(serve(ldbc_setup, indexed=True))


def test_concurrent_rebinding_of_one_prepared_statement(ldbc_setup):
    check_rebinding(serve(ldbc_setup, indexed=False))


def test_concurrent_rebinding_of_one_prepared_statement_indexed(ldbc_setup):
    check_rebinding(serve(ldbc_setup, indexed=True))


def check_concurrent_results(served):
    registry, _, workload, reference = served
    mismatches = []
    errors = []
    barrier = threading.Barrier(THREADS)

    def client(client_index):
        try:
            barrier.wait(30.0)
            # stagger starting offsets so different queries overlap in time
            for step in range(len(workload)):
                item = workload[(client_index + step) % len(workload)]
                result = service.execute(GRAPH, item.query, item.parameters)
                if rows_multiset(result.rows) != reference[item.name]:
                    mismatches.append((client_index, item.name))
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append((client_index, repr(exc)))

    with QueryService(
        registry, max_concurrency=THREADS, max_queue=THREADS * 2
    ) as service:
        run_clients(client)
        snapshot = service.metrics_snapshot()

    assert not errors
    assert not mismatches, "cross-query corruption: %s" % mismatches
    operations = THREADS * len(workload)
    assert snapshot["completed"] == operations
    assert snapshot["failed"] == 0 and snapshot["timeouts"] == 0
    # every query text compiles once; later executions reuse the plan
    assert snapshot["plan_cache"]["hits"] > 0
    assert snapshot["max_in_flight"] >= 2  # work genuinely overlapped
    engine = snapshot["engine"]
    assert not any(engine["chunk_fallbacks"].values()), (
        engine["chunk_fallbacks"]
    )
    for counter in ("hop_joins", "pair_joins", "lookup_joins"):
        assert engine["adjacency"][counter] > 0, counter
    assert engine["leaves"]["probes"] > 0


def check_rebinding(served):
    """Many threads hammer ONE statement with different bindings."""
    registry, _, workload, reference = served
    template = next(item for item in workload if item.parameters)
    bindings = [item for item in workload if item.query == template.query]
    assert len(bindings) >= 2
    failures = []

    def client(client_index):
        try:
            for step in range(4):
                item = bindings[(client_index + step) % len(bindings)]
                result = service.execute_prepared(
                    handle.statement_id, item.parameters
                )
                if rows_multiset(result.rows) != reference[item.name]:
                    failures.append((client_index, item.name))
        except Exception as exc:  # noqa: BLE001 — surfaced below
            failures.append((client_index, repr(exc)))

    with QueryService(
        registry, max_concurrency=THREADS, max_queue=THREADS * 4
    ) as service:
        handle = service.prepare(GRAPH, template.query)
        run_clients(client)
        engine = service.metrics_snapshot()["engine"]

    assert not failures, failures
    assert not any(engine["chunk_fallbacks"].values()), (
        engine["chunk_fallbacks"]
    )
    assert engine["leaves"]["probes"] > 0
