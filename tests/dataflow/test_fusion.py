"""Fused execution of partition-local operator chains.

The contract under test: fusion is pure plumbing.  For any DAG, a
columnar (fused) run returns the same partitions AND records the same
per-stage :class:`OperatorRun` metrics (full dataclass equality, same
order) as the per-record reference evaluator over as many partitions,
while errors keep naming the stage that raised and cancellation still
propagates unwrapped.  An in-process columnar run is one partition, so
the two modes meet on a one-worker environment.
"""

import pytest

from repro.dataflow import (
    CancellationToken,
    DEFAULT_BATCH_SIZE,
    ExecutionEnvironment,
    FusedChainOperator,
    JobExecutionError,
    QueryCancelled,
    plan_fusion,
)
from repro.dataflow.fusion import ChainSpec, run_chain
from repro.dataflow.operators import MapOperator


def build_env(parallelism=4, **kwargs):
    return ExecutionEnvironment(parallelism=parallelism, **kwargs)


def chain_dataset(env):
    """map → filter → flat-map → map over a modest integer source."""
    data = env.from_collection(list(range(200)), name="source")
    return (
        data.map(lambda x: x * 3, name="triple")
        .filter(lambda x: x % 2 == 0, name="evens")
        .flat_map(lambda x: [x, x + 1] if x % 4 == 0 else [x], name="expand")
        .map(lambda x: x - 1, name="shift")
    )


def mixed_dag(env):
    """Two fusable chains meeting in a join, then a fused tail."""
    left = (
        env.from_collection(list(range(120)), name="left-source")
        .map(lambda x: (x % 10, x), name="left-key")
        .filter(lambda pair: pair[1] % 3 != 0, name="left-filter")
    )
    right = (
        env.from_collection(list(range(60)), name="right-source")
        .flat_map(lambda x: [(x % 10, -x)], name="right-key")
    )
    joined = left.join(right, lambda p: p[0], lambda p: p[0], name="join")
    return joined.map(lambda pair: pair[0][1] + pair[1][1], name="sum").filter(
        lambda value: value % 2 == 0, name="even-sums"
    )


def run_both(make_dataset, **env_kwargs):
    """(columnar partitions+runs, reference partitions+runs) for one DAG."""
    results = []
    for mode in ("columnar", "reference"):
        env = build_env(parallelism=1, **env_kwargs)
        dataset = make_dataset(env)
        with env.job("probe") as metrics:
            partitions = dataset.collect_partitions(mode=mode)
        results.append((partitions, metrics.runs))
    return results


class TestFusedEqualsPerRecord:
    def test_linear_chain_partitions_and_metrics_match(self):
        (fused_parts, fused_runs), (plain_parts, plain_runs) = run_both(
            chain_dataset
        )
        assert fused_parts == plain_parts
        assert fused_runs == plain_runs  # full dataclass equality, in order

    def test_dag_with_join_partitions_and_metrics_match(self):
        (fused_parts, fused_runs), (plain_parts, plain_runs) = run_both(
            mixed_dag
        )
        assert fused_parts == plain_parts
        assert fused_runs == plain_runs

    def test_shared_node_diamond_matches_and_runs_once(self):
        def diamond(env):
            shared = env.from_collection(list(range(50)), name="src").map(
                lambda x: x + 1, name="shared-map"
            )
            a = shared.filter(lambda x: x % 2 == 0, name="fa")
            b = shared.filter(lambda x: x % 3 == 0, name="fb")
            return a.union(b, name="union")

        (fused_parts, fused_runs), (plain_parts, plain_runs) = run_both(diamond)
        assert fused_parts == plain_parts
        assert fused_runs == plain_runs
        # the multi-consumer map is a chain terminal, executed exactly once
        assert sum(1 for run in fused_runs if run.name == "shared-map") == 1

    @pytest.mark.parametrize("batch_size", [1, 3, 64, DEFAULT_BATCH_SIZE])
    def test_every_batch_size_chunks_to_the_same_result(self, batch_size):
        env = build_env(parallelism=1, batch_size=batch_size)
        reference = chain_dataset(build_env(parallelism=1)).collect(
            mode="reference"
        )
        with env.job("probe") as metrics:
            assert chain_dataset(env).collect(mode="columnar") == reference
        with env.job("probe") as reference_metrics:
            chain_dataset(env).collect(mode="reference")
        assert metrics.runs == reference_metrics.runs

    def test_empty_partitions_flow_through_fused_chains(self):
        def empty(env):
            return env.from_collection([], name="empty").map(
                lambda x: x, name="noop"
            )

        (fused_parts, fused_runs), (plain_parts, plain_runs) = run_both(empty)
        assert fused_parts == plain_parts
        assert fused_runs == plain_runs


class TestFusionPlanning:
    def test_chain_collapses_into_one_fused_operator(self):
        env = build_env()
        dataset = chain_dataset(env)
        rewrites = plan_fusion(dataset.operator, env.batch_size)
        assert list(rewrites) == [dataset.operator.id]
        fused = rewrites[dataset.operator.id]
        assert isinstance(fused, FusedChainOperator)
        assert [stage.name for stage in fused.stages] == [
            "triple", "evens", "expand", "shift",
        ]
        assert fused.terminal_id == dataset.operator.id

    def test_multi_consumer_node_breaks_the_chain(self):
        env = build_env()
        shared = env.from_collection(list(range(10))).map(
            lambda x: x, name="shared"
        )
        a = shared.map(lambda x: x + 1, name="a")
        b = shared.map(lambda x: x + 2, name="b")
        union = a.union(b)
        rewrites = plan_fusion(union.operator, env.batch_size)
        # three separate chains: shared (terminal), a, b
        assert len(rewrites) == 3
        shared_chain = rewrites[shared.operator.id]
        assert [stage.name for stage in shared_chain.stages] == ["shared"]

    def test_operator_subclasses_are_not_fused(self):
        class TracingMap(MapOperator):
            pass

        env = build_env()
        source = env.from_collection(list(range(5)))
        custom = TracingMap(env, source.operator, lambda x: x, "custom")
        assert plan_fusion(custom, env.batch_size) == {}

    def test_materialized_nodes_are_boundaries(self):
        env = build_env()
        dataset = chain_dataset(env)
        everything = set()
        node_stack = [dataset.operator]
        while node_stack:
            node = node_stack.pop()
            everything.add(node.id)
            node_stack.extend(node.parents)
        assert plan_fusion(
            dataset.operator, env.batch_size, materialized=everything
        ) == {}


class TestFusedErrorHandling:
    def test_error_names_the_failing_stage(self):
        env = build_env()
        data = env.from_collection(list(range(40)), name="src")
        bad = (
            data.map(lambda x: x + 1, name="fine")
            .map(lambda x: 1 // (x - 20), name="bad-map")
            .filter(lambda x: True, name="later")
        )
        with pytest.raises(JobExecutionError) as excinfo:
            bad.collect(mode="columnar")
        assert "bad-map" in str(excinfo.value)
        assert excinfo.value.operator_name == "bad-map"
        assert isinstance(excinfo.value.cause, ZeroDivisionError)

    def test_cancellation_propagates_unwrapped_from_fused_loops(self):
        env = build_env(batch_size=4)
        token = CancellationToken()
        token.cancel("stop")
        data = env.from_collection(list(range(100))).map(
            lambda x: x, name="noop"
        )
        with pytest.raises(QueryCancelled):
            env.run(data.operator, cancellation=token, mode="columnar")


class _Chunks:
    """A stand-in columnar partition: the ``chunks`` the loop reads."""

    def __init__(self, chunks):
        self.chunks = chunks


class _Chunk:
    def __init__(self, rows):
        self.rows = list(rows)
        self.count = len(self.rows)

    def to_embeddings(self):
        return list(self.rows)


def _spec(fns, kernels=None, batch_size=3):
    return ChainSpec(
        key=("chain", 1, 2), shape=("map", "filter"), names=("inc", "odd"),
        fns=fns, batch_size=batch_size, chain_name="fused[inc+odd]",
        kernels=kernels,
    )


class TestRunChain:
    def test_one_poll_per_slice_and_counts_per_stage(self):
        polls = []
        spec = _spec((lambda x: x + 1, lambda x: x % 2 == 1))
        out, totals = run_chain(spec, list(range(10)), lambda: polls.append(1))
        assert out == [1, 3, 5, 7, 9]
        assert totals == (5,)
        assert len(polls) == 4  # slices of 3 over 10 records

    def test_failing_chunk_is_replayed_and_names_the_stage(self):
        def inc_kernel(chunk):
            return _Chunk(row + 1 for row in chunk.rows)

        def broken_kernel(chunk):
            raise RuntimeError("kernel bug")

        def odd(row):
            if row == 2:
                raise KeyError(row)
            return row % 2 == 1

        spec = _spec((lambda x: x + 1, odd), (inc_kernel, broken_kernel))
        partition = _Chunks([_Chunk(range(3)), _Chunk(range(3, 6))])
        with pytest.raises(JobExecutionError) as excinfo:
            run_chain(spec, partition, lambda: None)
        assert excinfo.value.operator_name == "odd"
        assert isinstance(excinfo.value.cause, KeyError)

    def test_a_replay_that_passes_blames_the_chain(self):
        def broken_kernel(chunk):
            raise RuntimeError("kernel bug")

        spec = _spec(
            (lambda x: x + 1, lambda x: True), (broken_kernel, broken_kernel)
        )
        with pytest.raises(JobExecutionError) as excinfo:
            run_chain(spec, _Chunks([_Chunk(range(3))]), lambda: None)
        assert excinfo.value.operator_name == "fused[inc+odd]"
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_cancellation_inside_a_kernel_propagates_unwrapped(self):
        def cancelled(chunk):
            raise QueryCancelled("stop")

        spec = _spec((lambda x: x, lambda x: True), (cancelled, cancelled))
        with pytest.raises(QueryCancelled):
            run_chain(spec, _Chunks([_Chunk(range(3))]), lambda: None)


class TestExecutionModes:
    def test_environment_default_fusion_flag_applies(self):
        for mode in ("columnar", "reference"):
            env = build_env(parallelism=1, mode=mode)
            assert env.mode == mode
            assert chain_dataset(env).collect() == chain_dataset(
                build_env(parallelism=1)
            ).collect(mode="reference")
        with pytest.raises(ValueError, match="mode"):
            build_env(mode="batched")

    def test_shared_cache_run_materializes_chain_interiors(self):
        env = build_env()
        dataset = chain_dataset(env)
        cache = {}
        env.run(dataset.operator, cache=cache)
        # per-node caching contract: every interior operator has an entry
        node_stack, node_ids = [dataset.operator], set()
        while node_stack:
            node = node_stack.pop()
            node_ids.add(node.id)
            node_stack.extend(node.parents)
        assert node_ids <= set(cache)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionEnvironment(parallelism=2, batch_size=0)

    def test_default_batch_size_is_advertised(self):
        assert build_env().batch_size == DEFAULT_BATCH_SIZE
