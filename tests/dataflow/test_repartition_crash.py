"""Worker crash during phase 2 of a repartition join.

``run_repartition_join`` re-arms ``state["drained"]`` before phase 2
dispatches its exchange/pjoin batch: new tasks are queued, so the job
is no longer fully accounted for.  A worker dying *inside* the pjoin
(the join function runs there) must therefore

* fail the job with the crash attributed to the join operator,
* NOT send the ``done`` confirmation — queued tasks of the crashed
  job may survive in a respawned worker's backlog, so the cancel mark
  must outlive the failure (the cancel_done model's invariant), and
* leave the pool able to respawn and serve the next query.
"""

import os

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.dataflow.errors import JobExecutionError
from repro.dataflow.operators import JoinStrategy
from repro.dataflow.workers import messages
from repro.dataflow.workers.messages import CANCEL, DONE
from repro.dataflow.workers.pool import WorkerCrashError


@pytest.fixture
def worker_env():
    environment = ExecutionEnvironment(parallelism=4, workers=2)
    yield environment
    environment.shutdown_workers()


def _crashing_join(environment):
    left = environment.from_collection(range(2000)).map(
        lambda x: (x % 97, x)
    )
    right = environment.from_collection(range(2000)).map(
        lambda x: (x % 97, x * 10)
    )

    def kamikaze(l, r):  # noqa: E741 — mirrors the join_fn signature
        if l[0] == 13:
            os._exit(1)  # die mid-pjoin, like a segfault in phase 2
        return [(l[0], l[1], r[1])]

    return left.join(
        right,
        left_key=lambda pair: pair[0],
        right_key=lambda pair: pair[0],
        join_fn=kamikaze,
        strategy=JoinStrategy.REPARTITION_HASH,
    )


def test_phase2_crash_fails_job_without_done_confirmation(worker_env):
    events = []
    previous = messages.set_trace_hook(
        lambda direction, worker, message: (
            events.append((worker, message))
            if direction == "cancel" else None
        )
    )
    try:
        with pytest.raises(JobExecutionError) as info:
            _crashing_join(worker_env).collect()
    finally:
        messages.set_trace_hook(previous)
    assert isinstance(info.value.cause, WorkerCrashError)

    cancelled = {m[1] for _, m in events if m[0] == CANCEL}
    confirmed = {m[1] for _, m in events if m[0] == DONE}
    assert cancelled, "the aborted join should cancel its job"
    # the crash leaves the job un-drained: confirming done would let a
    # respawned worker execute the crashed job's still-queued tasks
    assert not confirmed & cancelled, (
        "done confirmed for crashed job(s) %s" % (confirmed & cancelled)
    )


def test_pool_recovers_after_phase2_crash(worker_env):
    with pytest.raises(JobExecutionError):
        _crashing_join(worker_env).collect()
    pool = worker_env.worker_pool()
    assert pool is not None and pool._started
    # the next queries — chain and repartition join — run on respawned
    # workers and still agree with the in-process path
    out = worker_env.from_collection(range(100)).map(
        lambda x: x + 1
    ).collect()
    assert sorted(out) == list(range(1, 101))

    def query(environment):
        left = environment.from_collection(range(600)).map(
            lambda x: (x % 31, x)
        )
        right = environment.from_collection(range(600)).map(
            lambda x: (x % 31, x * 3)
        )
        return left.join(
            right,
            left_key=lambda pair: pair[0],
            right_key=lambda pair: pair[0],
            join_fn=lambda l, r: [(l[0], l[1], r[1])],
            strategy=JoinStrategy.REPARTITION_HASH,
        ).collect()

    # the in-process run over the pool's four partitions is the reference's
    assert query(worker_env) == query(
        ExecutionEnvironment(parallelism=4, mode="reference")
    )
