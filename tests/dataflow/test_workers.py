"""The multi-process worker runtime: channels, shipping, pool dispatch.

Covers the pieces of ``repro.dataflow.workers`` individually (ring
segments, by-value function shipping, the record codec) and the pool
end-to-end through ``ExecutionEnvironment(workers=N)``: result parity
with in-process execution, resident source caching (and its byte-budget
eviction), spec-cache LRU mirroring across the boundary, the in-process
fallback for uncertified chains, deadline cancellation of in-flight
worker chunks (with ``done`` confirmation), remote stage attribution,
the same join failure and deadline on every path a join takes (in
process, shipped pairs, the worker-side exchange), and worker-crash
containment scoped to the jobs that used the worker.
"""

import os
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.dataflow import ExecutionEnvironment, JoinStrategy
from repro.dataflow.cancellation import CancellationToken, QueryTimeout
from repro.dataflow.errors import JobExecutionError
from repro.dataflow.workers import (
    decode_records,
    messages,
    dump_functions,
    encode_records,
    load_functions,
)
from repro.dataflow.workers.channels import RingSegment
from repro.dataflow.workers.pool import WorkerCrashError


@pytest.fixture
def worker_env():
    environment = ExecutionEnvironment(parallelism=4, workers=2)
    yield environment
    environment.shutdown_workers()


def _pool_started(environment):
    pool = environment.worker_pool()
    return pool is not None and pool._started


# --- ring segments ----------------------------------------------------------


def test_ring_roundtrip_and_attach():
    ring = RingSegment(capacity=256)
    try:
        ref = ring.try_write(b"hello ring")
        assert ref is not None
        attached = RingSegment(name=ring.name, capacity=256)
        try:
            assert attached.read(ref[0], ref[1]) == b"hello ring"
        finally:
            attached.close()
    finally:
        ring.close()


def test_ring_wraps_and_skips_short_tail():
    ring = RingSegment(capacity=64)
    try:
        first = ring.try_write(b"a" * 40)
        assert first == (0, 40)
        assert ring.read(*first) == b"a" * 40
        # 24 bytes of tail remain; a 30-byte payload must skip the tail
        # and wrap to offset 0
        second = ring.try_write(b"b" * 30)
        assert second == (0, 30)
        assert ring.read(*second) == b"b" * 30
    finally:
        ring.close()


def test_ring_overflow_returns_none_instead_of_blocking():
    ring = RingSegment(capacity=64)
    try:
        assert ring.try_write(b"x" * 64) is None  # >= capacity
        ref = ring.try_write(b"x" * 40)
        assert ref is not None
        # 40 bytes unconsumed: no contiguous room for 40 more
        assert ring.try_write(b"y" * 40) is None
        ring.read(*ref)
        # the ring keeps one byte free and a wrapping write also burns
        # the 24-byte tail, so 40 still does not fit — 30 does
        assert ring.try_write(b"y" * 40) is None
        assert ring.try_write(b"y" * 30) is not None
    finally:
        ring.close()


# --- function and record shipping -------------------------------------------


def test_ship_closure_by_value():
    def make_adder(amount):
        return lambda value: value + amount

    rebuilt = load_functions(dump_functions(make_adder(5)))
    assert rebuilt(10) == 15


def test_ship_captured_struct_instance():
    packer = struct.Struct("<I")

    def read_u32(buffer):
        return packer.unpack_from(buffer, 0)[0]

    rebuilt = load_functions(dump_functions(read_u32))
    assert rebuilt(packer.pack(77)) == 77


def test_record_codec_pickle_fallback():
    records = [1, ("two", 2), {"three": 3}]
    fmt, payload = encode_records(records)
    assert fmt == b"P"
    assert decode_records(fmt, payload) == records


def test_record_codec_flat_embeddings():
    from repro.engine.embedding import Embedding

    records = [
        Embedding(b"\x01" * 12, b"", b"\x02\x03"),
        Embedding(b"\x04" * 24, b"\x05", b""),
    ]
    fmt, payload = encode_records(records)
    assert fmt == b"E"
    assert decode_records(fmt, payload) == records


def test_record_codec_columnar_chunks():
    from repro.engine.columnar import ColumnarPartition, chunk_from_embeddings
    from repro.engine.embedding import Embedding

    # one property record a row (a chunk's rows agree on the count), the
    # last one's payload empty; one PATH entry a row, of two lengths in
    # the first chunk and of zero hops in the second
    rows = [
        Embedding(b"\x00" * 9 + b"\x01" * 9, b"", b"\x00\x02\x06\x07").append_path(
            [5, 6, 7]
        ),
        Embedding(b"\x02" * 9 + b"\x03" * 9, b"", b"\x00\x01\x05").append_path([8]),
        Embedding(b"\x04" * 9 + b"\x05" * 9, b"", b"\x00\x00").append_path([]),
    ]
    partition = ColumnarPartition(
        [chunk_from_embeddings(rows[:2]), chunk_from_embeddings(rows[2:])]
    )
    fmt, payload = encode_records(partition)
    assert fmt == b"C"
    decoded = decode_records(fmt, payload)
    # stays columnar across the wire: chunk boundaries survive intact
    assert [chunk.count for chunk in decoded.chunks] == [2, 1]
    assert [
        [lens.tolist() for _, lens in chunk.paths] for chunk in decoded.chunks
    ] == [[[3, 1]], [[0]]]
    assert [
        (r.id_data, r.path_data, r.prop_data) for r in decoded
    ] == [(r.id_data, r.path_data, r.prop_data) for r in rows]
    # a round-trip re-encode is byte-identical (id_buf never re-packed)
    assert encode_records(decoded) == (fmt, payload)

    # path bytes that are no PATH entry (the count field 0x07070707
    # announces 8 GiB of ids) make no chunk: the batch ships per record,
    # unchanged ...
    junk = [Embedding(row.id_data, b"\x07" * 12, row.prop_data) for row in rows]
    assert chunk_from_embeddings(junk) is None
    fmt_junk, payload_junk = encode_records(junk)
    assert fmt_junk == b"E" and decode_records(fmt_junk, payload_junk) == junk
    # ... and a chunk frame carrying such an entry is refused
    entry = struct.pack(">IQ", 3, 5)
    assert payload.count(entry) == 1
    corrupt = payload.replace(entry, b"\x07" * 4 + entry[4:])
    with pytest.raises(ValueError, match="paths"):
        decode_records(fmt, corrupt)


def test_record_codec_chunk_frame_keeps_awkward_property_values():
    from repro.engine.columnar import ColumnarPartition, chunk_from_embeddings
    from repro.engine.embedding import Embedding
    from repro.epgm import GradoopId

    # NULL, a list and the empty string: the shortest record, a nested
    # one and a payload that is all header — as records of one row and
    # down one column
    values = [None, [1, "a", [2.5]], ""]
    rows = [
        Embedding.of_ids(GradoopId(7 + turn)).append_properties(
            values[turn:] + values[:turn]
        )
        for turn in range(3)
    ]
    partition = ColumnarPartition([chunk_from_embeddings(rows)])
    fmt, payload = encode_records(partition)
    assert fmt == b"C"
    decoded = decode_records(fmt, payload)
    assert list(decoded) == rows
    assert [[value.raw() for value in row.properties()] for row in decoded] == [
        values[turn:] + values[:turn] for turn in range(3)
    ]
    (chunk,) = decoded.chunks
    assert chunk.props.shape == chunk.prop_lens.shape == (3, 3)
    assert encode_records(decoded) == (fmt, payload)


def test_record_codec_empty_columnar_partition():
    from repro.engine.columnar import ColumnarPartition

    fmt, payload = encode_records(ColumnarPartition([]))
    assert fmt == b"C"
    decoded = decode_records(fmt, payload)
    assert decoded.chunks == [] and len(decoded) == 0


# --- pooled execution parity ------------------------------------------------


def test_pooled_chain_matches_in_process(worker_env):
    def pipeline(environment):
        return (
            environment.from_collection(range(5000))
            .map(lambda x: x * 3)
            .filter(lambda x: x % 7 != 0)
            .flat_map(lambda x: (x, -x) if x % 100 == 0 else (x,))
            .collect()
        )

    # the in-process run over the pool's four partitions is the reference's
    assert pipeline(worker_env) == pipeline(
        ExecutionEnvironment(parallelism=4, mode="reference")
    )
    assert _pool_started(worker_env)


def test_pool_spawns_from_stdin_main():
    """Regression: a parent fed its script on stdin can still spawn.

    Such a parent's ``__main__.__file__`` is ``"<stdin>"`` — a path no
    child can re-run; without ``_suppress_phantom_main`` the spawn
    preparation data names it and every worker dies on arrival.
    """
    script = (
        "from repro.dataflow import ExecutionEnvironment\n"
        "env = ExecutionEnvironment(parallelism=4, workers=2)\n"
        "out = env.from_collection(range(200)).map(lambda x: x + 1)"
        ".collect()\n"
        "assert sorted(out) == list(range(1, 201)), out\n"
        "pool = env.worker_pool()\n"
        "assert pool is not None and pool._started\n"
        "env.shutdown_workers()\n"
        "print('stdin-main-ok')\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-"],
        input=script,
        capture_output=True,
        text=True,
        env=environ,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stdin-main-ok" in proc.stdout


def test_pooled_join_matches_in_process(worker_env):
    def query(environment):
        left = environment.from_collection(range(2000)).map(
            lambda x: (x % 97, x)
        )
        right = environment.from_collection(range(2000)).map(
            lambda x: (x % 97, x * 10)
        )
        return left.join(
            right,
            left_key=lambda pair: pair[0],
            right_key=lambda pair: pair[0],
            join_fn=lambda l, r: [(l[0], l[1], r[1])],
        ).collect()

    pooled = query(worker_env)
    local = query(ExecutionEnvironment(parallelism=4, mode="reference"))
    assert pooled == local
    assert _pool_started(worker_env)


def test_resident_source_skips_re_shipping(worker_env):
    source = worker_env.from_collection(range(3000))
    first = source.map(lambda x: x + 1).collect()
    pool = worker_env.worker_pool()
    resident = [set(h.resident) for h in pool._handles if h is not None]
    assert any(resident), "warm run should leave source partitions resident"
    second = source.map(lambda x: x + 1).collect()
    assert first == second
    after = [set(h.resident) for h in pool._handles if h is not None]
    assert after == resident  # same source: nothing new shipped


def test_spec_cache_eviction_reships_evicted_specs():
    """Regression: the pool mirrors the worker's spec-cache LRU.

    With a 2-entry cache, two fresh chains evict the first chain's spec
    from the worker; re-running the first chain must re-ship it — a
    stale parent-side ``shipped`` entry would make the worker look up a
    spec it no longer holds and (before the fix) die on a KeyError,
    failing every active job.
    """
    from repro.dataflow.workers.pool import WorkerPool

    environment = ExecutionEnvironment(parallelism=2, workers=1)
    environment._worker_pool = WorkerPool(1, spec_cache_limit=2)
    try:
        first = environment.from_collection(range(500)).map(lambda x: x + 1)
        expected = first.collect()
        environment.from_collection(range(10)).map(lambda x: x * 2).collect()
        environment.from_collection(range(10)).map(lambda x: x * 3).collect()
        handle = environment.worker_pool()._handles[0]
        assert len(handle.shipped) == 2  # the mirror evicted the first spec
        assert first.collect() == expected  # re-shipped, not assumed cached
        assert len(handle.shipped) == 2
    finally:
        environment.shutdown_workers()


def test_resident_budget_evicts_old_sources():
    """Regression: worker scan caches are bounded across ad-hoc queries.

    Every distinct query mints fresh source-operator ids, so without a
    budget each one would permanently pin its scan partitions in worker
    memory.  Past ``resident_bytes`` the pool evicts least-recently-used
    sources (telling the worker to free them) and re-ships on reuse.
    """
    from repro.dataflow.workers.pool import WorkerPool

    environment = ExecutionEnvironment(parallelism=2, workers=1)
    environment._worker_pool = WorkerPool(1, resident_bytes=4096)
    try:
        small = environment.from_collection(range(50))
        expected = sorted(small.map(lambda x: x + 1).collect())
        handle = environment.worker_pool()._handles[0]
        small_keys = set(handle.resident)
        assert small_keys, "scan partitions should go resident"
        # a source far over the 4 KiB budget evicts the small one
        big = environment.from_collection(
            [("pad" * 64, i) for i in range(2000)]
        )
        big.map(lambda pair: pair[1]).collect()
        assert not small_keys & set(handle.resident)
        assert sum(handle.resident.values()) == handle.resident_bytes
        # the evicted source re-ships transparently and still computes
        assert sorted(small.map(lambda x: x + 1).collect()) == expected
    finally:
        environment.shutdown_workers()


def test_uncertified_chain_falls_back_in_process(worker_env):
    lock = threading.Lock()  # P401: captured synchronization primitive

    def touches_lock(value):
        with lock:
            return value + 1

    out = worker_env.from_collection(range(200)).map(touches_lock).collect()
    assert sorted(out) == list(range(1, 201))
    assert not _pool_started(worker_env)


# --- failure semantics across the boundary ----------------------------------


def test_remote_stage_attribution_matches_in_process(worker_env):
    def explode(value):
        if value == 1234:
            raise ValueError("sentinel %d" % value)
        return value

    def run(environment):
        with pytest.raises(JobExecutionError) as info:
            environment.from_collection(range(3000)).map(
                lambda x: x
            ).map(explode, name="explode-stage").collect()
        return info.value

    pooled = run(worker_env)
    local = run(ExecutionEnvironment(parallelism=4))
    assert _pool_started(worker_env)
    assert pooled.operator_name == local.operator_name
    assert type(pooled.cause) is type(local.cause)
    assert str(pooled.cause) == str(local.cause)


def test_deadline_kills_in_flight_worker_chunks(worker_env):
    def slow(value):
        total = 0
        for i in range(4000):
            total += i
        return value + (total & 0)

    data = worker_env.from_collection(range(40_000)).map(slow)
    token = CancellationToken.with_timeout(0.05)
    start = time.perf_counter()
    with worker_env.job("deadline", cancellation=token):
        with pytest.raises(QueryTimeout):
            data.collect()
    elapsed = time.perf_counter() - start
    # the full pipeline takes several seconds of pure compute; a prompt
    # abort proves workers abandoned their queued and in-flight chunks
    assert elapsed < 3.0
    # the pool survives a cancelled job: the next query still works
    assert sorted(
        worker_env.from_collection(range(10)).map(lambda x: x * 2).collect()
    ) == [x * 2 for x in range(10)]


#: the three places a hash join runs: in process, as co-located pairs
#: shipped to the pool (the broadcast strategies) and as the pool's own
#: repartition exchange — all of them the one ``hash_join``
JOIN_PATHS = [
    pytest.param((False, JoinStrategy.REPARTITION_HASH), id="in-process"),
    pytest.param(
        (True, JoinStrategy.BROADCAST_FIRST), id="pooled-broadcast-first"
    ),
    pytest.param(
        (True, JoinStrategy.BROADCAST_SECOND), id="pooled-broadcast-second"
    ),
    pytest.param((True, JoinStrategy.REPARTITION_HASH), id="pooled-exchange"),
]


@pytest.fixture(scope="module")
def module_worker_env():
    environment = ExecutionEnvironment(parallelism=4, workers=2)
    yield environment
    environment.shutdown_workers()


@pytest.fixture(params=JOIN_PATHS)
def join_path(request, module_worker_env):
    pooled, strategy = request.param
    if pooled:
        return module_worker_env, strategy
    return ExecutionEnvironment(parallelism=4), strategy


def _keyed_join(environment, strategy, join_fn, small, large):
    """``small`` keyed rows joined with ``large`` ones; the broadcast
    strategies get the small side where they broadcast it."""
    sides = [
        environment.from_collection([(key, "s") for key in range(small)]),
        environment.from_collection([(i % small, i) for i in range(large)]),
    ]
    if strategy is JoinStrategy.BROADCAST_SECOND:
        sides.reverse()
    left, right = sides
    return left.join(
        right,
        left_key=lambda row: row[0],
        right_key=lambda row: row[0],
        join_fn=join_fn,
        strategy=strategy,
        name="keyed-join",
    )


def test_join_failure_attribution_matches_in_process(join_path):
    environment, strategy = join_path

    def explode(left, right):
        if left[0] == 13:
            raise ValueError("sentinel %d" % left[0])
        return [(left[1], right[1])]

    def run(env):
        with pytest.raises(JobExecutionError) as info:
            _keyed_join(env, strategy, explode, 40, 4000).collect()
        return info.value

    got = run(environment)
    local = run(ExecutionEnvironment(parallelism=4))
    assert _pool_started(environment) == (environment.workers is not None)
    assert got.operator_name == local.operator_name == "keyed-join"
    assert type(got.cause) is type(local.cause) is ValueError
    assert str(got.cause) == str(local.cause) == "sentinel 13"


def test_deadline_inside_a_join_probe_is_a_timeout(join_path):
    environment, strategy = join_path

    def slow(left, right):
        total = 0
        for i in range(2500):
            total += i
        return [(left[1], right[1], total & 0)]

    def serves():
        return sorted(
            _keyed_join(
                environment, strategy, lambda l, r: [l[0] + r[0]], 4, 40
            ).collect()
        ) == sorted(2 * (i % 4) for i in range(40))

    # a warm pool: the deadline must fall inside the join, not the spawn
    assert serves()
    responses = []
    previous = messages.set_trace_hook(
        lambda direction, _worker, batch: responses.extend(batch)
        if direction == "response" else None
    )
    try:
        # 32 768 probe rows a partition, ~0.1 ms each: seconds of work
        # per partition unless the probe loop polls its deadline
        data = _keyed_join(environment, strategy, slow, 64, 131_072)
        token = CancellationToken.with_timeout(0.7)
        start = time.perf_counter()
        with environment.job("join-deadline", cancellation=token):
            with pytest.raises(QueryTimeout):
                data.collect()
        elapsed = time.perf_counter() - start
    finally:
        messages.set_trace_hook(previous)
    assert elapsed < 3.0
    # a task the deadline cut short answers CANCELLED, never a stage error
    assert messages.CANCELLED in [reply[0] for reply in responses] or (
        environment.workers is None
    )
    assert messages.ERROR not in [reply[0] for reply in responses]
    assert _pool_started(environment) == (environment.workers is not None)
    assert serves()  # and the next query is served


def test_worker_crash_names_failing_stage(worker_env):
    def kamikaze(value):
        if value == 1500:
            os._exit(1)  # simulate a segfault mid-task
        return value

    with pytest.raises(JobExecutionError) as info:
        worker_env.from_collection(range(3000)).map(
            kamikaze, name="kamikaze-map"
        ).collect()
    assert _pool_started(worker_env)
    assert "kamikaze-map" in info.value.operator_name
    assert isinstance(info.value.cause, WorkerCrashError)
    # the pool respawns the dead worker before the next dispatch
    assert sorted(
        worker_env.from_collection(range(100)).map(lambda x: x + 1).collect()
    ) == list(range(1, 101))


def test_collect_ignores_crash_of_unused_worker():
    """Regression: one worker dying only fails jobs placed on it.

    Crash notices are broadcast to every active job; a job whose tasks
    all ran elsewhere must keep collecting instead of failing.
    """
    import queue as queue_module

    from repro.dataflow.workers.pool import WorkerPool

    pool = WorkerPool(2)
    fmt, payload = encode_records([1, 2, 3])
    results_queue = queue_module.SimpleQueue()
    results_queue.put(("crash", 1))  # a worker this job never used
    results_queue.put(("ok", 0, None, fmt, payload))
    state = {"cancel_sent": False, "drained": False}
    results = pool._collect(
        7, results_queue, 1, None, "op", {0}, state
    )
    assert set(results) == {0}
    assert state["drained"]

    # the same notice from a worker the job DID use stays fatal
    results_queue = queue_module.SimpleQueue()
    results_queue.put(("crash", 0))
    with pytest.raises(JobExecutionError) as info:
        pool._collect(8, results_queue, 1, None, "op", {0}, state)
    assert isinstance(info.value.cause, WorkerCrashError)
    assert not state["drained"]


def test_cancel_mark_dropped_after_done_confirmation():
    """Regression: cancelled-job marks are confirmed away, not pruned.

    The parent sends ``("done", job)`` once every dispatched task of a
    cancelled job is accounted for; the worker then drops the mark.  No
    size-based pruning exists any more, so a low-id cancelled job whose
    tasks sit behind a long backlog can never lose its mark and run.
    """
    import multiprocessing

    from repro.dataflow.workers.runtime import _Worker

    recv_end, send_end = multiprocessing.Pipe(duplex=False)
    worker = _Worker(0, None, None, recv_end, None, None, 16, 0.0)
    try:
        send_end.send(("cancel", 5))
        assert worker._job_cancelled(5)
        send_end.send(("done", 5))
        assert not worker._job_cancelled(5)
        assert worker.cancelled == set()
        send_end.send(("cancel", 6))
        assert not worker._job_cancelled(5)  # unrelated job unaffected
        assert worker._job_cancelled(6)
    finally:
        recv_end.close()
        send_end.close()


def test_send_on_closed_handle_raises_worker_crash_error(worker_env):
    """Regression: a handle closed under a dispatcher's feet (respawn or
    shutdown) fails the send with WorkerCrashError, never a raw OSError
    on a closed — or recycled — descriptor."""
    worker_env.from_collection(range(10)).map(lambda x: x).collect()
    pool = worker_env.worker_pool()
    handle = pool._handles[0]
    with handle.send_lock:
        handle.closed = True
    with pytest.raises(WorkerCrashError):
        pool._send_batch(handle, ("stale",), b"", [])


def test_crash_hook_triggers_respawn(worker_env):
    worker_env.from_collection(range(100)).map(lambda x: x).collect()
    pool = worker_env.worker_pool()
    handle = pool._handles[0]
    handle.req_conn.send([("crash",)])
    deadline = time.monotonic() + 10
    while handle.alive and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not handle.alive
    assert sorted(
        worker_env.from_collection(range(50)).map(lambda x: x * 2).collect()
    ) == [x * 2 for x in range(50)]
