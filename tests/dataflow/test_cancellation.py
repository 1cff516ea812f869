"""Cancellation tokens, deadlines and per-thread job scoping."""

import threading
import time

import pytest

from repro.dataflow import (
    CancellationToken,
    ExecutionEnvironment,
    QueryCancelled,
    QueryTimeout,
)


@pytest.fixture
def env():
    return ExecutionEnvironment(parallelism=4)


class TestCancellationToken:
    def test_fresh_token_polls_clean(self):
        token = CancellationToken()
        token.poll()  # does not raise

    def test_cancel_makes_poll_raise(self):
        token = CancellationToken()
        token.cancel("client went away")
        with pytest.raises(QueryCancelled, match="client went away"):
            token.poll()

    def test_expired_deadline_raises_query_timeout(self):
        token = CancellationToken.with_timeout(0.0)
        with pytest.raises(QueryTimeout):
            token.poll()

    def test_query_timeout_is_a_query_cancelled(self):
        # one except-clause catches both shapes of cooperative stop
        assert issubclass(QueryTimeout, QueryCancelled)

    def test_future_deadline_does_not_fire_early(self):
        token = CancellationToken.with_timeout(60.0)
        token.poll()
        assert token.remaining() > 0

    def test_propagates_unwrapped_through_operators(self, env):
        # the dataflow's JobExecutionError wrapping must not bury the
        # cancellation — callers catch QueryTimeout, not a wrapper
        token = CancellationToken.with_timeout(0.0)
        data = env.from_collection(list(range(100)))
        mapped = data.flat_map(lambda x: [x])
        with pytest.raises(QueryTimeout):
            env.run(mapped.operator, cancellation=token)

    def test_cancel_from_another_thread_stops_the_run(self):
        token = CancellationToken()
        started = threading.Event()

        def slow(x):
            started.set()
            time.sleep(0.002)
            return [x]

        # a columnar run is one partition and fuses the three flat-maps
        # into one chain: slices of 16 records -> several batch-boundary
        # polls
        sliced = ExecutionEnvironment(parallelism=4, batch_size=16)
        data = sliced.from_collection(list(range(200))).flat_map(slow)
        chained = data.flat_map(lambda x: [x]).flat_map(lambda x: [x])

        def cancel_soon():
            started.wait(5.0)
            token.cancel("stop")

        killer = threading.Thread(target=cancel_soon)
        killer.start()
        with pytest.raises(QueryCancelled):
            sliced.run(chained.operator, cancellation=token)
        killer.join()


class TestJobScope:
    def test_job_scope_metrics_do_not_touch_default(self, env):
        data = env.from_collection([1, 2, 3]).map(lambda x: x + 1)
        with env.job("scoped") as metrics:
            assert data.collect() == [2, 3, 4]
        assert metrics.runs  # scoped metrics saw the run
        assert not env.metrics.runs  # shared accumulator stayed clean

    def test_nested_scopes_innermost_wins(self, env):
        data = env.from_collection([1]).map(lambda x: x)
        with env.job("outer") as outer:
            with env.job("inner") as inner:
                data.collect()
            outer_runs = len(outer.runs)
            inner_runs = len(inner.runs)
        assert inner_runs > 0
        assert outer_runs == 0

    def test_scope_installs_cancellation_for_runs(self, env):
        token = CancellationToken.with_timeout(0.0)
        data = env.from_collection([1]).map(lambda x: x)
        with env.job("doomed", cancellation=token):
            with pytest.raises(QueryTimeout):
                data.collect()

    def test_concurrent_jobs_do_not_interleave_metrics(self, env):
        """Two threads on ONE environment each see only their own runs."""
        barrier = threading.Barrier(2)
        sizes = {"a": 100, "b": 37}
        recorded = {}
        errors = []

        def job(name):
            try:
                data = env.from_collection(list(range(sizes[name])))
                pipeline = data.map(lambda x: x).flat_map(lambda x: [x])
                barrier.wait(5.0)
                with env.job(name) as metrics:
                    result = pipeline.collect()
                assert len(result) == sizes[name]
                recorded[name] = metrics
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=job, args=(name,)) for name in sizes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for name, metrics in recorded.items():
            # every run in this scope belongs to this job: record counts
            # match the job's own dataset size (or 0 for sources), never
            # the other job's
            assert metrics.runs
            for run in metrics.runs:
                assert run.records_in in (0, sizes[name])

    def test_simulated_runtime_uses_active_scope(self, env):
        data = env.from_collection(list(range(50))).map(lambda x: x)
        with env.job("timed") as metrics:
            data.collect()
            scoped_seconds = env.simulated_runtime_seconds()
        assert scoped_seconds == env.simulated_runtime_seconds(metrics)
        assert scoped_seconds > 0
        # outside the scope the default (empty) accumulator is used again
        assert not env.metrics.runs
        assert env.simulated_runtime_seconds() == env.simulated_runtime_seconds(
            env.metrics
        )
