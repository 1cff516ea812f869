"""Tests for execution metrics and the simulated cluster cost model."""

import pytest

from repro.dataflow import (
    ClusterCostModel,
    ExecutionEnvironment,
    JobMetrics,
    JoinStrategy,
    OperatorRun,
)


def make_env(workers=4, **overrides):
    model = ClusterCostModel(workers=workers, **overrides)
    # the simulated cluster is partitioned and priced on the reference path
    return ExecutionEnvironment(cost_model=model, mode="reference")


class TestMetricsCollection:
    def test_map_records_in_out(self):
        env = make_env()
        env.from_collection(range(10)).map(lambda x: x).collect()
        map_runs = env.metrics.runs_named("map")
        assert len(map_runs) == 1
        assert map_runs[0].records_in == 10
        assert map_runs[0].records_out == 10

    def test_filter_records_out_reflects_selectivity(self):
        env = make_env()
        env.from_collection(range(100)).filter(lambda x: x < 10).collect()
        run = env.metrics.runs_named("filter")[0]
        assert run.records_in == 100
        assert run.records_out == 10

    def test_partition_local_ops_do_not_shuffle(self):
        env = make_env()
        (
            env.from_collection(range(50))
            .map(lambda x: x)
            .filter(lambda x: True)
            .flat_map(lambda x: [x])
            .collect()
        )
        assert env.metrics.total_shuffled_records == 0

    def test_repartition_join_shuffles_both_sides(self):
        env = make_env()
        left = env.from_collection(range(100))
        right = env.from_collection(range(100))
        left.join(
            right,
            lambda l: l,
            lambda r: r,
            strategy=JoinStrategy.REPARTITION_HASH,
        ).collect()
        join_run = env.metrics.runs_named("join")[0]
        assert join_run.shuffled_records > 0
        # at most everything moves; with 4 workers about 3/4 of records move
        assert join_run.shuffled_records <= 200

    def test_broadcast_join_shuffle_grows_with_workers(self):
        volumes = {}
        for workers in (2, 8):
            env = make_env(workers=workers)
            small = env.from_collection(range(10))
            big = env.from_collection(range(1000))
            small.join(
                big,
                lambda l: l,
                lambda r: r,
                strategy=JoinStrategy.BROADCAST_FIRST,
            ).collect()
            volumes[workers] = env.metrics.total_shuffled_bytes
        assert volumes[8] > volumes[2]

    def test_auto_join_picks_broadcast_for_tiny_side(self):
        env = make_env()
        small = env.from_collection(range(5))
        big = env.from_collection(range(100_000))
        ds = small.join(big, lambda l: l, lambda r: r, strategy=JoinStrategy.AUTO)
        ds.collect()
        names = [run.name for run in env.metrics.runs_named("join")]
        assert any("broadcast" in name for name in names)

    def test_auto_join_picks_repartition_for_similar_sides(self):
        env = make_env()
        left = env.from_collection(range(1000))
        right = env.from_collection(range(1000))
        left.join(right, lambda l: l, lambda r: r, strategy=JoinStrategy.AUTO).collect()
        names = [run.name for run in env.metrics.runs_named("join")]
        assert any("repartition" in name for name in names)

    def test_skew_reported_for_hot_key(self):
        env = make_env()
        # all records share one key: the whole group lands on one worker
        records = [(7, i) for i in range(100)]
        (
            env.from_collection(records)
            .group_by(lambda r: r[0])
            .reduce_group(lambda key, rows: [len(rows)])
            .collect()
        )
        run = env.metrics.runs_named("group-reduce")[0]
        assert run.skew == pytest.approx(4.0)  # one of four workers does all work

    def test_spill_detected_when_over_memory_budget(self):
        env = make_env(memory_records_per_worker=10)
        records = [(1, i) for i in range(100)]
        left = env.from_collection(records)
        right = env.from_collection(records)
        left.join(
            right,
            lambda l: l[0],
            lambda r: r[0],
            strategy=JoinStrategy.REPARTITION_HASH,
        ).collect()
        assert env.metrics.total_spilled_workers >= 1

    def test_reset_metrics_starts_fresh_scope(self):
        env = make_env()
        env.from_collection(range(10)).collect()
        previous = env.reset_metrics("second")
        assert previous.runs
        assert env.metrics.runs == []
        assert env.metrics.name == "second"

    def test_summary_keys(self):
        env = make_env()
        env.from_collection(range(10)).map(lambda x: x).collect()
        summary = env.metrics.summary()
        assert set(summary) == {
            "operators",
            "records_processed",
            "shuffled_records",
            "shuffled_bytes",
            "spilled_workers",
            "max_skew",
        }


class TestCostModel:
    def test_more_workers_is_faster_on_balanced_load(self):
        runtimes = {}
        for workers in (1, 2, 4, 8):
            env = make_env(workers=workers, job_overhead_seconds=0.0)
            env.from_collection(range(10_000)).map(lambda x: x).collect()
            runtimes[workers] = env.simulated_runtime_seconds()
        assert runtimes[1] > runtimes[2] > runtimes[4] > runtimes[8]

    def test_fixed_overhead_limits_speedup_on_small_data(self):
        runtimes = {}
        for workers in (1, 16):
            env = make_env(workers=workers, job_overhead_seconds=5.0)
            env.from_collection(range(100)).map(lambda x: x).collect()
            runtimes[workers] = env.simulated_runtime_seconds()
        speedup = runtimes[1] / runtimes[16]
        assert speedup < 1.5  # overhead dominates: almost no speedup

    def test_skewed_load_caps_speedup(self):
        """A single hot key keeps one worker busy regardless of cluster size."""

        def run(workers):
            env = make_env(workers=workers, job_overhead_seconds=0.0)
            records = [(1, i) for i in range(5000)]
            (
                env.from_collection(records)
                .group_by(lambda r: r[0])
                .reduce_group(lambda key, rows: [len(rows)])
                .collect()
            )
            return env.simulated_runtime_seconds()

        speedup = run(1) / run(16)
        assert speedup < 3.0  # far from the linear 16x

    def test_spill_penalty_creates_superlinear_speedup(self):
        """More workers -> more aggregate memory -> the spill disappears."""

        def run(workers):
            env = make_env(
                workers=workers,
                memory_records_per_worker=3000,
                job_overhead_seconds=0.0,
                barrier_overhead_seconds=0.0,
                spill_penalty=4.0,
            )
            left = env.from_collection(range(10_000))
            right = env.from_collection(range(10_000))
            left.join(
                right,
                lambda l: l,
                lambda r: r,
                strategy=JoinStrategy.REPARTITION_HASH,
            ).collect()
            return env.simulated_runtime_seconds()

        speedup = run(1) / run(8)
        assert speedup > 8.0  # super-linear, as in paper §4.1

    def test_job_seconds_requires_job_metrics(self):
        model = ClusterCostModel(workers=2)
        with pytest.raises(TypeError):
            model.job_seconds([])

    def test_with_workers_preserves_other_parameters(self):
        model = ClusterCostModel(workers=2, spill_penalty=7.0)
        scaled = model.with_workers(16)
        assert scaled.workers == 16
        assert scaled.spill_penalty == 7.0

    def test_operator_seconds_includes_network_term(self):
        model = ClusterCostModel(workers=2, barrier_overhead_seconds=0.0)
        quiet = OperatorRun("a", worker_records_in=[10, 10])
        chatty = OperatorRun(
            "b", worker_records_in=[10, 10], worker_shuffle_bytes_in=[10**9, 10**9]
        )
        assert model.operator_seconds(chatty) > model.operator_seconds(quiet)

    def test_environment_parallelism_follows_cost_model(self):
        env = ExecutionEnvironment(cost_model=ClusterCostModel(workers=7))
        assert env.parallelism == 7

    def test_environment_parallelism_override(self):
        env = ExecutionEnvironment(
            parallelism=3, cost_model=ClusterCostModel(workers=7)
        )
        assert env.parallelism == 3


class TestOperatorRun:
    def test_skew_of_empty_run_is_one(self):
        assert OperatorRun("x").skew == 1.0

    def test_skew_balanced(self):
        run = OperatorRun("x", worker_records_in=[5, 5, 5, 5])
        assert run.skew == 1.0

    def test_job_metrics_aggregates(self):
        metrics = JobMetrics("test")
        metrics.add(OperatorRun("a", records_in=10, shuffled_records=3))
        metrics.add(OperatorRun("b", records_in=20, shuffled_records=4))
        assert metrics.total_records_processed == 30
        assert metrics.total_shuffled_records == 7
