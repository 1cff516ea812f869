"""UDF shippability analyzer: planted captures and fused-chain gating.

Each ``P4xx`` code gets a closure planting exactly the capture it exists
to refuse — a lock, an open handle, mutated shared state, a clock, an
unpicklable value — and the fusion gate is exercised end-to-end:
``plan_fusion(..., certify=True)`` rejects an unshippable chain at fusion
*compile* time, while every fused chain of LDBC Q1–Q6 certifies clean.
"""

import functools
import io
import random
import threading
import time

import pytest

from repro.analysis import (
    ShippabilityError,
    analyze_chain,
    analyze_dataflow,
    classify_callable,
    iter_dataflow_udfs,
)
from repro.dataflow import ExecutionEnvironment
from repro.dataflow.fusion import DEFAULT_BATCH_SIZE, plan_fusion
from repro.engine import CypherRunner
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator

EDGE_QUERY = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"

#: referenced (not captured) by :func:`_locked_stage` — the module-global
#: variant of the P401 capture, which closure cells alone would miss
_PLANTED_LOCK = threading.Lock()


def _locked_stage(record):
    with _PLANTED_LOCK:
        return record


def _double(x):
    return 2 * x


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


class TestClassifyCallable:
    def test_pure_function_is_clean(self):
        assert classify_callable(_double) == []

    def test_builtin_ships_by_reference(self):
        assert classify_callable(len) == []

    def test_partial_over_pure_function_is_clean(self):
        assert classify_callable(functools.partial(_double)) == []

    def test_captured_lock_is_p401(self):
        lock = threading.Lock()

        def fn(x):
            with lock:
                return x

        assert "P401" in codes_of(classify_callable(fn))

    def test_global_lock_reference_is_p401(self):
        findings = classify_callable(_locked_stage)
        assert "P401" in codes_of(findings)
        assert any("_PLANTED_LOCK" in d.message for d in findings)

    def test_captured_open_handle_is_p402(self):
        handle = io.StringIO("buffered")

        def fn(x):
            return (x, handle.tell())

        assert "P402" in codes_of(classify_callable(fn))

    def test_augmented_assignment_on_capture_is_p403(self):
        state = {"n": 0}

        def fn(x):
            state["n"] += 1
            return x

        assert "P403" in codes_of(classify_callable(fn))

    def test_mutator_call_on_captured_container_is_p403(self):
        seen = set()

        def fn(x):
            seen.add(x)
            return x

        assert "P403" in codes_of(classify_callable(fn))

    def test_wall_clock_call_is_p404(self):
        def fn(x):
            return (x, time.time())

        assert "P404" in codes_of(classify_callable(fn))

    def test_random_module_call_is_p404(self):
        def fn(x):
            return x + random.random()

        assert "P404" in codes_of(classify_callable(fn))

    def test_unpicklable_capture_is_p405(self):
        blob = _Unpicklable()

        def fn(x):
            return (x, blob)

        findings = classify_callable(fn)
        assert "P405" in codes_of(findings)

    def test_captured_tuple_of_functions_is_clean(self):
        # the compiled-CNF shape: a tuple of clause lambdas travels as
        # code + cells, so it must not trip the pickle probe
        clauses = (lambda x: x > 0, lambda x: x < 10)

        def fn(x):
            return all(clause(x) for clause in clauses)

        assert classify_callable(fn) == []

    def test_reads_of_captures_are_clean(self):
        offset = 7
        table = {"a": 1}

        def fn(x):
            return x + offset + table.get("a", 0)

        assert classify_callable(fn) == []


class TestDataflowAnalysis:
    def test_plain_plan_is_shippable(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        report = analyze_dataflow(root.evaluate().operator)
        assert report.shippable, report.format_summary()
        assert report.analyzed
        assert "shippable" in report.format_summary()

    def test_udf_names_point_at_operator_slots(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        names = [name for name, _ in iter_dataflow_udfs(
            root.evaluate().operator
        )]
        assert names
        assert all("." in name for name in names)

    def test_sanitized_plan_is_not_shippable(self, figure1_graph):
        # the sanitizer's check closure mutates its operator's counters
        # and captures thread-local state: the canonical unshippable UDF
        _, root = CypherRunner(figure1_graph, sanitize=True).compile(
            EDGE_QUERY
        )
        report = analyze_dataflow(root.evaluate().operator)
        assert not report.shippable
        codes = codes_of(report.diagnostics)
        assert "P403" in codes
        assert "P405" in codes

    def test_runner_check_shippable_entry_point(self, figure1_graph):
        report = CypherRunner(figure1_graph).check_shippable(EDGE_QUERY)
        assert report.shippable


class TestFusionCertification:
    def test_clean_chain_certifies_at_plan_time(self):
        env = ExecutionEnvironment(parallelism=2)
        dataset = (
            env.from_collection(range(16))
            .map(_double)
            .filter(lambda x: x % 4 == 0)
        )
        rewrites = plan_fusion(
            dataset.operator, DEFAULT_BATCH_SIZE, certify=True
        )
        assert rewrites
        for chain in rewrites.values():
            assert analyze_chain(chain).shippable

    def test_unshippable_chain_rejected_at_fusion_compile_time(self):
        env = ExecutionEnvironment(parallelism=2)
        dataset = env.from_collection(range(8)).map(_locked_stage)
        with pytest.raises(ShippabilityError) as excinfo:
            plan_fusion(dataset.operator, DEFAULT_BATCH_SIZE, certify=True)
        assert any(d.code == "P401" for d in excinfo.value.diagnostics)
        assert "fused[" in str(excinfo.value)

    def test_certification_off_by_default(self):
        env = ExecutionEnvironment(parallelism=2)
        collected = env.from_collection(range(4)).map(_locked_stage).collect()
        assert sorted(collected) == [0, 1, 2, 3]

    def test_certified_environment_executes_clean_plans(self):
        head_env = ExecutionEnvironment(parallelism=2)
        dataset = (
            head_env.from_collection(range(10))
            .map(_double)
            .filter(lambda x: x >= 10)
        )
        assert plan_fusion(dataset.operator, DEFAULT_BATCH_SIZE, certify=True)
        assert sorted(dataset.collect()) == [10, 12, 14, 16, 18]


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph


class TestLDBCAcceptance:
    """Every fused chain of the six paper queries certifies zero-P4xx."""

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_paper_query_chains_certify_shippable(self, ldbc, name):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        runner = CypherRunner(graph)
        _, root = runner.compile(query)
        operator = root.evaluate().operator
        rewrites = plan_fusion(operator, DEFAULT_BATCH_SIZE, certify=True)
        assert rewrites, "%s produced no fusable chains" % name
        for chain in rewrites.values():
            report = analyze_chain(chain)
            assert report.shippable, "%s: %s" % (
                name, [d.format() for d in report.diagnostics]
            )
        full = analyze_dataflow(operator)
        assert full.shippable, "%s: %s" % (
            name, [d.format() for d in full.diagnostics]
        )
