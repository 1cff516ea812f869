"""The worker pool: parent-side orchestration of sharded execution.

A :class:`WorkerPool` owns ``workers`` long-lived child processes, each
with its own channel set (request/response pipes, a cancellation pipe
that overtakes queued work, and two shared-memory rings — see
:mod:`.channels`).  Partitions are assigned to workers by the static
:func:`~repro.dataflow.partitioner.assign_partitions` map, Ray-streaming
style: the "execution graph" is the fixed partition→worker placement,
and every task for partition *p* runs on the worker owning *p*, so a
worker's resident-source cache (immutable scan inputs shipped once)
keeps hitting across queries.

Concurrency model, chosen to honor the repository's lock discipline
(no blocking call under a named lock — C303):

* callers dispatch under no lock; per-worker channel *sends* serialize
  on that worker's ``workers.channel`` leaf lock (pipe ``send`` and the
  non-blocking ring write are the only operations inside);
* one daemon **receiver thread** drains every worker's response pipe
  with ``multiprocessing.connection.wait`` and routes each message to
  the dispatching caller's per-job queue — the only cross-thread state,
  the job table, is guarded by the ``workers.pool`` lock and never held
  across a blocking call;
* callers block on their own plain ``queue.SimpleQueue`` (never under a
  lock), polling the run's :class:`CancellationToken` between waits, so
  a deadline turns into ``("cancel", job)`` on every cancel pipe and the
  worker abandons in-flight chunks.

Failure containment: a worker that dies mid-task is detected by the
receiver thread (EOF on its response pipe) and a crash notice goes to
every waiting dispatch — but each dispatch knows which workers its job
was placed on and ignores crashes of workers it never used, so one
death only fails the jobs that actually lost tasks.  For those, the
raised error is a :class:`JobExecutionError` naming the operator whose
task was lost, and the pool respawns the worker (with empty caches)
before its next dispatch; the dead handle is only closed after its
``send_lock`` is held once more, so a dispatcher mid-send can never
write into a recycled descriptor.

Everything shipped is certified first: chains through the ``P4xx``
analyzer's :func:`~repro.analysis.udfcheck.analyze_chain`, join UDFs
through :func:`~repro.analysis.udfcheck.analyze_callables` — an
unshippable plan silently stays on the in-process path.
"""

import atexit
import contextlib
import hashlib
import itertools
import multiprocessing
import os
import queue
import sys
import threading
import time
from collections import OrderedDict
from multiprocessing import connection

from repro.locks import named_lock

from ..errors import JobExecutionError
from ..partitioner import assign_partitions
from .channels import INLINE_LIMIT, RingSegment
from .messages import (
    BLOB_INLINE,
    BLOB_RING,
    CANCEL,
    CANCELLED,
    CHAIN,
    DONE,
    ERROR,
    EXCHANGE,
    FREE,
    JOIN,
    OK,
    PJOIN,
    SHIP,
    SHUFFLE,
    SHUTDOWN,
    SRC_BLOB,
    SRC_CACHED,
    SRC_STORE,
    trace,
)
from .shipping import (
    SPEC_CACHE_LIMIT,
    decode_records,
    dump_functions,
    encode_records,
    ordinal_space_of,
)

__all__ = ["WorkerPool", "WorkerCrashError", "RemoteWorkerError"]

#: response batching inside the worker (count + seconds); small values
#: favor latency, the ring favors throughput — both are config knobs
DEFAULT_FLUSH_BATCH = 16
DEFAULT_FLUSH_TIMEOUT = 0.002

#: per-worker budget for resident source partitions (encoded bytes).
#: Ad-hoc queries mint fresh source-operator ids, so without a bound a
#: long-lived server would pin one copy of every scanned dataset per
#: distinct query; the pool evicts least-recently-used sources past
#: this budget and tells the worker to free them.
DEFAULT_RESIDENT_BYTES = 128 * 1024 * 1024

#: how long one blocking wait on the caller's result queue lasts before
#: the cancellation token is polled again
_WAIT_SLICE = 0.05


class WorkerCrashError(RuntimeError):
    """A worker process died while executing shipped tasks."""


class RemoteWorkerError(RuntimeError):
    """A worker-side failure whose cause could not be pickled back."""


def _pick_start_method():
    """``forkserver`` where available (fast fork of a clean, preloaded
    process — safe with parent threads), ``spawn`` everywhere else."""
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


@contextlib.contextmanager
def _suppress_phantom_main():
    """Hide a ``__main__.__file__`` no child could re-run.

    A parent fed its script on stdin (``python - <<...``) or running
    interactively has ``__main__.__file__`` set to a path that does not
    exist on disk (``"<stdin>"``); multiprocessing's spawn preparation
    would tell every child to re-execute that file and the worker would
    die on arrival.  Workers never need the parent's ``__main__`` —
    ``worker_main`` lives in an importable module and shipped closures
    travel by value — so drop the attribute for the duration of the
    spawn and the preparation data simply omits it.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    if path is None or os.path.exists(path):
        yield
        return
    del main.__file__
    try:
        yield
    finally:
        main.__file__ = path


class _WorkerHandle:
    """Parent-side state of one worker process and its channels."""

    def __init__(self, index, process, req_conn, resp_conn, cancel_conn,
                 req_ring, resp_ring):
        self.index = index
        self.process = process
        self.req_conn = req_conn
        self.resp_conn = resp_conn
        self.cancel_conn = cancel_conn
        self.req_ring = req_ring
        self.resp_ring = resp_ring
        self.send_lock = named_lock("workers.channel")
        #: spec keys shipped and still cached worker-side, in the
        #: worker's exact LRU order — every batch touches its key and
        #: evictions mirror the worker's ``spec_cache_limit`` LRU, so
        #: the pool re-ships precisely the specs the worker dropped
        self.shipped = OrderedDict()  # guarded-by: send_lock
        #: resident source partitions this worker holds, cache key →
        #: encoded size; LRU-evicted past the pool's resident-bytes
        #: budget via ``free`` messages  # guarded-by: send_lock
        self.resident = OrderedDict()
        self.resident_bytes = 0  # guarded-by: send_lock
        #: cache keys referenced by the batch being built — never
        #: evicted in the same batch  # guarded-by: send_lock
        self.pinned = set()
        self.alive = True  # unsynchronized: flipped once by the receiver
        #: set (under send_lock) before the channels are torn down, so a
        #: dispatcher holding a stale handle fails cleanly instead of
        #: writing to a closed or recycled descriptor
        self.closed = False  # guarded-by: send_lock

    def pack_blob(self, payload):
        """Ring placement with inline fallback; caller holds send_lock."""
        if len(payload) > INLINE_LIMIT:
            ref = self.req_ring.try_write(payload)
            if ref is not None:
                return (BLOB_RING, ref[0], ref[1])
        return (BLOB_INLINE, payload)

    # resident-source accounting (callers hold send_lock) -------------------

    def hit_resident(self, cache_key):  # requires-lock: send_lock
        """Touch a resident partition; False when it has been evicted."""
        if cache_key not in self.resident:
            return False
        self.resident.move_to_end(cache_key)
        self.pinned.add(cache_key)
        return True

    def store_resident(self, cache_key, size):  # requires-lock: send_lock
        self.resident[cache_key] = size
        self.resident.move_to_end(cache_key)
        self.resident_bytes += size
        self.pinned.add(cache_key)

    def evict_resident(self, budget):  # requires-lock: send_lock
        """``("free", ...)`` messages for the oldest unpinned sources
        past ``budget`` bytes; appended after the batch's tasks so the
        worker frees only after running them."""
        if self.resident_bytes <= budget:
            return []
        frees = []
        for cache_key in list(self.resident):
            if self.resident_bytes <= budget:
                break
            if cache_key in self.pinned:
                continue
            self.resident_bytes -= self.resident.pop(cache_key)
            frees.append((FREE, cache_key[0], cache_key[1]))
        return frees

    def close(self, kill):
        for conn in (self.req_conn, self.cancel_conn, self.resp_conn):
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        if self.process is not None:
            if kill and self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.kill()
                self.process.join(timeout=5)
        self.req_ring.close()
        self.resp_ring.close()


class WorkerPool:
    """``workers`` sharded executor processes behind one dispatch API."""

    def __init__(self, workers, ring_bytes=None, flush_batch=None,
                 flush_timeout=None, start_method=None,
                 spec_cache_limit=None, resident_bytes=None):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        self.workers = workers
        self.ring_bytes = ring_bytes
        self.flush_batch = flush_batch or DEFAULT_FLUSH_BATCH
        self.flush_timeout = (
            DEFAULT_FLUSH_TIMEOUT if flush_timeout is None else flush_timeout
        )
        self.spec_cache_limit = spec_cache_limit or SPEC_CACHE_LIMIT
        self.resident_bytes = (
            DEFAULT_RESIDENT_BYTES if resident_bytes is None
            else resident_bytes
        )
        self._start_method = start_method or _pick_start_method()
        self._lock = named_lock("workers.pool")
        self._handles = [None] * workers  # guarded-by: _lock
        self._active = {}  # job id → caller queue  # guarded-by: _lock
        self._ship_ok = {}  # spec key → bool  # guarded-by: _lock
        self._started = False  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._jobs = itertools.count(1)  # unsynchronized: atomic iterator
        self._receiver = None  # guarded-by: _lock
        self._receiver_stop = threading.Event()
        self._atexit = None  # guarded-by: _lock

    # lifecycle -------------------------------------------------------------

    def _spawn(self, ctx, index):
        req_parent, req_child = ctx.Pipe(duplex=False)
        resp_parent, resp_child = ctx.Pipe(duplex=False)
        cancel_parent, cancel_child = ctx.Pipe(duplex=False)
        req_ring = (
            RingSegment(capacity=self.ring_bytes)
            if self.ring_bytes else RingSegment()
        )
        resp_ring = (
            RingSegment(capacity=self.ring_bytes)
            if self.ring_bytes else RingSegment()
        )
        from .runtime import worker_main

        process = ctx.Process(
            target=worker_main,
            name="repro-worker-%d" % index,
            args=(
                index, req_parent, resp_child, cancel_parent,
                req_ring.descriptor(), resp_ring.descriptor(),
                self.flush_batch, self.flush_timeout,
                self.spec_cache_limit,
            ),
            daemon=True,
        )
        with _suppress_phantom_main():
            process.start()
        # the child inherited its pipe ends; drop ours so EOF propagates
        req_parent.close()
        resp_child.close()
        cancel_parent.close()
        return _WorkerHandle(
            index, process, req_child, resp_parent, cancel_child,
            req_ring, resp_ring,
        )

    def _ensure_started(self):
        """Start (or respawn crashed) workers and the receiver thread."""
        stale = []
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            ctx = multiprocessing.get_context(self._start_method)
            if not self._started:
                if self._start_method == "forkserver":
                    try:
                        multiprocessing.forkserver.set_forkserver_preload(
                            ["repro.dataflow.workers.runtime"]
                        )
                    except Exception:  # pragma: no cover - already running
                        pass
                self._started = True
                self._atexit = self.shutdown
                atexit.register(self._atexit)
            for index in range(self.workers):
                handle = self._handles[index]
                if handle is not None and handle.alive:
                    continue
                if handle is not None:
                    stale.append(handle)
                self._handles[index] = self._spawn(ctx, index)
            if self._receiver is None or not self._receiver.is_alive():
                self._receiver_stop.clear()
                self._receiver = threading.Thread(
                    target=self._receive_loop,
                    name="repro-worker-receiver",
                    daemon=True,
                )
                self._receiver.start()
            handles = list(self._handles)
        for handle in stale:
            # a dispatcher that fetched the old handle list may be
            # mid-send: taking send_lock waits it out, and the closed
            # flag turns any later send on the stale handle into a
            # clean WorkerCrashError instead of an OSError (or a write
            # into a recycled descriptor)
            with handle.send_lock:
                handle.closed = True
            handle.close(kill=True)
        return handles

    def shutdown(self):
        """Stop every worker and release channels; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = [h for h in self._handles if h is not None]
            self._handles = [None] * self.workers
            if self._atexit is not None:
                try:
                    atexit.unregister(self._atexit)
                except Exception:  # pragma: no cover - interpreter exit
                    pass
                self._atexit = None
            receiver = self._receiver
            self._receiver = None
        self._receiver_stop.set()
        for handle in handles:
            # serialize with in-flight dispatches and mark the handle
            # closed so stragglers raise WorkerCrashError, not OSError
            with handle.send_lock:
                handle.closed = True
                try:
                    # a leaf-lock pipe send is the channel design itself:
                    # send_lock only ever guards this worker's descriptor
                    handle.req_conn.send([(SHUTDOWN,)])  # racecheck: ignore[C306]
                except Exception:  # noqa: BLE001 — already dead
                    pass
        if receiver is not None and receiver.is_alive():
            receiver.join(timeout=5)
        for handle in handles:
            handle.close(kill=True)

    # receiver thread -------------------------------------------------------

    def _deliver(self, job, item):
        with self._lock:
            target = self._active.get(job)
        if target is not None:
            target.put(item)

    def _broadcast_crash(self, index):
        with self._lock:
            targets = list(self._active.values())
        for target in targets:
            target.put(("crash", index))

    def _receive_loop(self):
        while not self._receiver_stop.is_set():
            with self._lock:
                handles = [
                    h for h in self._handles if h is not None and h.alive
                ]
            conns = {handle.resp_conn: handle for handle in handles}
            if not conns:
                time.sleep(_WAIT_SLICE)
                continue
            try:
                ready = connection.wait(list(conns), timeout=0.2)
            except OSError:  # pragma: no cover - a conn closed mid-wait
                continue
            for conn in ready:
                handle = conns[conn]
                try:
                    batch = conn.recv()
                except (EOFError, OSError):
                    if self._receiver_stop.is_set():
                        return
                    handle.alive = False
                    self._broadcast_crash(handle.index)
                    continue
                trace("response", handle.index, batch)
                for message in batch:
                    self._route(handle, message)

    def _route(self, handle, message):
        kind = message[0]
        if kind == OK:
            _, job, seq, counts, fmt, blob = message
            if blob[0] == BLOB_RING:
                payload = handle.resp_ring.read(blob[1], blob[2])
            else:
                payload = blob[1]
            self._deliver(job, ("ok", seq, counts, fmt, payload))
        elif kind == CANCELLED:
            self._deliver(message[1], ("cancelled", message[2]))
        elif kind == ERROR:
            _, job, seq, stage, unwrapped, cause_payload, cause_repr = message
            self._deliver(
                job, ("error", seq, stage, unwrapped, cause_payload,
                      cause_repr)
            )

    # shippability gates ----------------------------------------------------

    def chain_shippable(self, chain):
        """True when every stage UDF certifies (``P4xx``-clean); cached
        under the chain's stable stage-id key."""
        key = ("chain-udfs",) + tuple(stage.id for stage in chain.stages)
        with self._lock:
            cached = self._ship_ok.get(key)
        if cached is not None:
            return cached
        from repro.analysis.udfcheck import analyze_chain

        ok = analyze_chain(chain).shippable
        with self._lock:
            self._ship_ok[key] = ok
        return ok

    def join_shippable(self, operator):
        key = ("join-udfs", operator.id)
        with self._lock:
            cached = self._ship_ok.get(key)
        if cached is not None:
            return cached
        from repro.analysis.udfcheck import analyze_callables

        spec = operator.spec
        ok = analyze_callables([
            ("%s.left_key" % operator.name, spec.left_key),
            ("%s.right_key" % operator.name, spec.right_key),
            ("%s.join_fn" % operator.name, spec.join_fn),
        ]).shippable
        with self._lock:
            self._ship_ok[key] = ok
        return ok

    # dispatch --------------------------------------------------------------

    @staticmethod
    def _wire_spec(spec):
        """``(wire_key, payload)``: the spec serialized by value, keyed
        by its *content*.

        Closures are shipped by value, so state they read late — e.g. a
        prepared statement's :class:`ParameterBinding`, rebound between
        executions of one cached plan — is frozen into the payload at
        dump time.  Keying the worker-side spec cache on a digest of
        that payload makes every rebinding a new spec (stale closures
        can never be replayed from the cache), while unchanged chains
        still hash identically and ship to each worker at most once
        per residency in the worker's spec LRU.
        """
        payload = dump_functions(spec)
        digest = hashlib.sha1(payload).hexdigest()
        return tuple(spec.key) + (digest,), payload

    def _send_batch(self, handle, wire_key, payload, messages):
        """Ship the spec payload (when missing) and one task batch.

        Mirrors the worker's spec LRU exactly: the batch touches its
        key, a (re-)ship inserts it, and insertion evicts past the
        shared ``spec_cache_limit`` — per-worker sends serialize on
        ``send_lock`` and the worker consumes batches in send order, so
        both sides perform the same touches and evictions in the same
        order and a shipped key is always still cached worker-side.

        Raises :class:`WorkerCrashError` when the worker is dead or the
        handle was closed under a dispatcher's feet (respawn/shutdown).
        """
        with handle.send_lock:
            if handle.closed or not handle.alive:
                raise WorkerCrashError("worker %d is down" % handle.index)
            handle.pinned = set()
            batch = []
            if wire_key in handle.shipped:
                handle.shipped.move_to_end(wire_key)
            else:
                batch.append((SHIP, wire_key, handle.pack_blob(payload)))
                handle.shipped[wire_key] = True
                while len(handle.shipped) > self.spec_cache_limit:
                    handle.shipped.popitem(last=False)
            for build in messages:
                batch.append(build(handle))
            batch.extend(handle.evict_resident(self.resident_bytes))
            trace("request", handle.index, batch)
            try:
                # a leaf-lock pipe send is the channel design itself:
                # send_lock only ever guards this worker's descriptor
                handle.req_conn.send(batch)  # racecheck: ignore[C306]
            except OSError as exc:
                raise WorkerCrashError(
                    "worker %d pipe failed mid-dispatch" % handle.index
                ) from exc

    def _collect(self, job, result_queue, expected, token, op_name, used,
                 state):
        """Drain ``expected`` task responses, honoring cancellation.

        ``used`` holds the worker indexes this job dispatched to: crash
        notices are broadcast to every active job, so ones from workers
        this job never used are ignored instead of failing it.

        ``state`` (``cancel_sent`` / ``drained``) reports back to the
        caller, which confirms a cancelled job with ``done`` once every
        dispatched task is accounted for — never earlier, since a
        still-queued task of a ``done``-confirmed job would execute.
        """
        state["drained"] = False
        results = {}
        failure = None
        while len(results) < expected:
            if (
                token is not None and not state["cancel_sent"]
                and (token.cancelled or token.expired())
            ):
                self._send_cancel(job)
                state["cancel_sent"] = True
            try:
                item = result_queue.get(timeout=_WAIT_SLICE)
            except queue.Empty:
                continue
            kind = item[0]
            if kind == "crash":
                if item[1] not in used:
                    continue  # no task of this job was placed there
                raise JobExecutionError(
                    op_name,
                    WorkerCrashError(
                        "worker %d died while executing shipped tasks"
                        % item[1]
                    ),
                )
            seq = item[1]
            results[seq] = item
            if kind == "error" and failure is None:
                failure = item
        state["drained"] = True
        if token is not None:
            token.poll()  # raises the caller's QueryCancelled/QueryTimeout
        if failure is not None:
            self._raise_remote(failure)
        return results

    def _send_cancel(self, job):
        with self._lock:
            handles = [h for h in self._handles if h is not None and h.alive]
        for handle in handles:
            trace("cancel", handle.index, (CANCEL, job))
            try:
                handle.cancel_conn.send((CANCEL, job))
            except Exception:  # noqa: BLE001 — crash handled via queue
                pass

    def _send_done(self, job):
        """Confirm a cancelled job fully collected: workers drop its mark."""
        with self._lock:
            handles = [h for h in self._handles if h is not None and h.alive]
        for handle in handles:
            trace("cancel", handle.index, (DONE, job))
            try:
                handle.cancel_conn.send((DONE, job))
            except Exception:  # noqa: BLE001 — crash handled via queue
                pass

    @staticmethod
    def _raise_remote(item):
        _, _seq, stage, unwrapped, cause_payload, cause_repr = item
        cause = None
        if cause_payload is not None:
            import pickle

            try:
                cause = pickle.loads(cause_payload)
            except Exception:  # noqa: BLE001 — fall back to the repr
                cause = None
        if cause is None:
            cause = RemoteWorkerError(cause_repr)
        if unwrapped and getattr(cause, "propagate_unwrapped", False):
            raise cause
        raise JobExecutionError(stage, cause) from cause

    def _run_tasks(self, spec, tasks, token, op_name, space):
        """Ship ``tasks`` (partition-indexed payload builders), gather
        ``(counts, records)`` per task in order, chunk frames decoded
        into ``space``."""
        handles = self._ensure_started()
        assignment = assign_partitions(len(tasks), self.workers)
        wire_key, payload = self._wire_spec(spec)
        job = next(self._jobs)
        result_queue = queue.SimpleQueue()
        state = {"cancel_sent": False, "drained": False}
        with self._lock:
            self._active[job] = result_queue
        try:
            per_worker = {}
            for seq, task in enumerate(tasks):
                per_worker.setdefault(assignment[seq], []).append((seq, task))
            for index, seq_tasks in per_worker.items():
                builders = [
                    self._task_builder(job, seq, wire_key, task)
                    for seq, task in seq_tasks
                ]
                try:
                    self._send_batch(handles[index], wire_key, payload,
                                     builders)
                except WorkerCrashError as exc:
                    raise JobExecutionError(op_name, exc) from exc
            results = self._collect(
                job, result_queue, len(tasks), token, op_name,
                set(per_worker), state,
            )
        finally:
            with self._lock:
                self._active.pop(job, None)
            if state["cancel_sent"] and state["drained"]:
                # every dispatched task is accounted for: workers may
                # forget the cancel mark
                self._send_done(job)
        ordered = []
        for seq in range(len(tasks)):
            item = results[seq]
            if item[0] == "cancelled":
                # unreachable without a token (collect re-raises first),
                # kept as a hard stop if a worker mis-reports
                raise JobExecutionError(
                    op_name, RemoteWorkerError("task cancelled remotely")
                )
            _, _seq, counts, fmt, payload = item
            ordered.append((counts, decode_records(fmt, payload, space)))
        return ordered

    @staticmethod
    def _task_builder(job, seq, spec_key, task):
        """Bind one task message's payload packing to its worker handle."""
        kind = task[0]
        if kind == "chain":
            _, source_key, part_index, records = task

            def build(handle):
                if source_key is not None:
                    cache_key = (source_key, part_index)
                    if handle.hit_resident(cache_key):
                        src = (SRC_CACHED, source_key, part_index)
                        return (CHAIN, job, seq, spec_key, src)
                    fmt, payload = encode_records(records)
                    handle.store_resident(cache_key, len(payload))
                    src = (SRC_STORE, source_key, part_index, fmt,
                           handle.pack_blob(payload))
                    return (CHAIN, job, seq, spec_key, src)
                fmt, payload = encode_records(records)
                src = (SRC_BLOB, fmt, handle.pack_blob(payload))
                return (CHAIN, job, seq, spec_key, src)

            return build
        # ("join", build_records, probe_records, build_is_left)
        _, build_records, probe_records, build_is_left = task

        def build(handle):
            build_fmt, build_payload = encode_records(build_records)
            probe_fmt, probe_payload = encode_records(probe_records)
            return (
                JOIN, job, seq, spec_key,
                (SRC_BLOB, build_fmt, handle.pack_blob(build_payload)),
                (SRC_BLOB, probe_fmt, handle.pack_blob(probe_payload)),
                build_is_left,
            )

        return build

    # public entry points ---------------------------------------------------

    def run_chain(self, chain, partitions, token, source_key=None):
        """Execute a fused chain's partitions on the pool.

        Returns ``(out_partitions, worker_counts)`` shaped exactly like
        the in-process loop's locals, so the caller reconstructs the
        same per-stage ``OperatorRun`` metrics.  ``source_key`` marks the
        input as an immutable source's output: each worker then keeps
        its partitions resident and later executions skip the transfer
        — up to the pool's per-worker ``resident_bytes`` budget, past
        which least-recently-used sources are freed (ad-hoc queries
        mint fresh source ids, so the cache would otherwise grow with
        every distinct query a long-lived server executes).
        The spec carries the chain's chunk kernels whenever every stage
        has one; a worker runs them over chunk input and returns chunk
        frames, as the in-process loop does.
        """
        spec = chain.spec
        tasks = [
            ("chain", source_key, part_index, records)
            for part_index, records in enumerate(partitions)
        ]
        gathered = self._run_tasks(
            spec, tasks, token, chain.name, ordinal_space_of(partitions)
        )
        out = [records for _counts, records in gathered]
        worker_counts = [counts for counts, _records in gathered]
        return out, worker_counts

    def run_join(self, operator, pairs, token):
        """Execute co-partitioned hash-join pairs on the pool.

        ``pairs`` holds ``(build, probe, build_is_left)`` per partition —
        the exact inputs the in-process :func:`hash_join` would take —
        and the result preserves its per-partition emission order.
        """
        spec = operator.spec
        tasks = [
            ("join", build, probe, build_is_left)
            for build, probe, build_is_left in pairs
        ]
        space = ordinal_space_of(
            side for build, probe, _ in pairs for side in (build, probe)
        )
        gathered = self._run_tasks(spec, tasks, token, operator.name, space)
        return [records for _counts, records in gathered]

    def run_repartition_join(self, operator, left_parts, right_parts,
                             token):
        """One REPARTITION_HASH join — exchange and all — on the pool.

        The hash repartitioning itself runs inside the workers: one
        ``shuffle`` task per non-empty input partition, placed on the
        worker owning that partition.  Splits destined for partitions
        the same worker owns never leave it; cross-worker splits come
        back as *encoded bytes* the parent relays verbatim to the
        owning workers (``exchange`` messages) — the parent never
        decodes, hashes or re-encodes a record on the exchange path.
        A second round of per-partition ``pjoin`` tasks then joins each
        co-partitioned pair where its data already lives.

        Returns ``(out, (moved_records, moved_bytes, bytes_in),
        left_counts, right_counts)``; the caller derives ShuffleStats,
        per-worker work and spill accounting from the counts,
        bit-identical to the in-process path.
        """
        spec = operator.spec
        space = ordinal_space_of(list(left_parts) + list(right_parts))
        parallelism = max(len(left_parts), len(right_parts))
        owners = assign_partitions(parallelism, self.workers)
        handles = self._ensure_started()
        wire_key, payload = self._wire_spec(spec)
        job = next(self._jobs)
        result_queue = queue.SimpleQueue()
        state = {"cancel_sent": False, "drained": False}
        with self._lock:
            self._active[job] = result_queue
        completed = False
        try:
            # phase 1: worker-side shuffle of every non-empty partition
            meta = []  # seq → (side, source partition index)
            per_worker = {}
            for side, parts in (("left", left_parts),
                                ("right", right_parts)):
                for source, records in enumerate(parts):
                    if not records:
                        continue
                    seq = len(meta)
                    meta.append((side, source))
                    per_worker.setdefault(owners[source], []).append(
                        (seq, side, source, records)
                    )
            for index, items in per_worker.items():
                builders = [
                    self._shuffle_builder(job, seq, wire_key, side,
                                          source, owners, records)
                    for seq, side, source, records in items
                ]
                try:
                    self._send_batch(handles[index], wire_key, payload,
                                     builders)
                except WorkerCrashError as exc:
                    raise JobExecutionError(operator.name, exc) from exc
            results = self._collect(
                job, result_queue, len(meta), token, operator.name,
                set(per_worker), state,
            )

            left_counts = [0] * parallelism
            right_counts = [0] * parallelism
            moved_records = 0
            moved_bytes = 0
            bytes_in = [0] * parallelism
            relays = {}  # owner worker → [(side, target, source, fmt, payload)]
            for seq in range(len(meta)):
                item = results[seq]
                if item[0] == "cancelled":
                    raise JobExecutionError(
                        operator.name,
                        RemoteWorkerError("task cancelled remotely"),
                    )
                _, _seq, stats, fmt, payload = item
                counts, task_records, task_bytes, task_bytes_in = stats
                side, source = meta[seq]
                totals = left_counts if side == "left" else right_counts
                for target, count in enumerate(counts):
                    totals[target] += count
                moved_records += task_records
                moved_bytes += task_bytes
                for target, size in enumerate(task_bytes_in):
                    bytes_in[target] += size
                for target, f_fmt, f_payload in decode_records(
                    fmt, payload
                ):
                    relays.setdefault(owners[target], []).append(
                        (side, target, source, f_fmt, f_payload)
                    )

            # phase 2: relay foreign splits, then join where the data is.
            # A target with only one non-empty side still gets a pjoin —
            # its result is empty, but the task drains the exchange state.
            targets = [
                target for target in range(parallelism)
                if left_counts[target] or right_counts[target]
            ]
            target_seq = {}
            join_worker = {}
            next_seq = len(meta)
            for target in targets:
                target_seq[target] = next_seq
                next_seq += 1
                join_worker.setdefault(owners[target], []).append(target)
            # new tasks are about to be queued: the job is no longer
            # fully accounted for until phase 2's collect drains
            state["drained"] = False
            phase2_used = set()
            for index in range(self.workers):
                worker_relays = relays.get(index, [])
                worker_targets = join_worker.get(index, [])
                if not worker_relays and not worker_targets:
                    continue
                phase2_used.add(index)
                builders = [
                    self._exchange_builder(job, relay)
                    for relay in worker_relays
                ] + [
                    self._pjoin_builder(job, target_seq[target], wire_key,
                                        target)
                    for target in worker_targets
                ]
                try:
                    self._send_batch(handles[index], wire_key, payload,
                                     builders)
                except WorkerCrashError as exc:
                    raise JobExecutionError(operator.name, exc) from exc
            results = self._collect(
                job, result_queue, len(targets), token, operator.name,
                phase2_used, state,
            )
            out = [[] for _ in range(parallelism)]
            for target in targets:
                item = results[target_seq[target]]
                if item[0] == "cancelled":
                    raise JobExecutionError(
                        operator.name,
                        RemoteWorkerError("task cancelled remotely"),
                    )
                _, _seq, _counts, fmt, payload = item
                out[target] = decode_records(fmt, payload, space)
            completed = True
            return (
                out,
                (moved_records, moved_bytes, bytes_in),
                left_counts,
                right_counts,
            )
        finally:
            with self._lock:
                self._active.pop(job, None)
            if not completed and not state["cancel_sent"]:
                # clear worker-resident exchange state the aborted job
                # left behind; job ids are never reused, so cancelling a
                # job some worker never saw is harmless
                self._send_cancel(job)
                state["cancel_sent"] = True
            if state["cancel_sent"] and state["drained"]:
                # every dispatched task is accounted for (and the
                # cancel above precedes this on each cancel pipe), so
                # workers may forget the cancel mark; after a crash the
                # job stays marked — tasks may still be queued
                self._send_done(job)

    @staticmethod
    def _shuffle_builder(job, seq, spec_key, side, source, owners,
                         records):
        def build(handle):
            fmt, payload = encode_records(records)
            return (
                SHUFFLE, job, seq, spec_key, side, source, owners,
                (SRC_BLOB, fmt, handle.pack_blob(payload)),
            )

        return build

    @staticmethod
    def _exchange_builder(job, relay):
        side, target, source, fmt, payload = relay

        def build(handle):
            return (
                EXCHANGE, job, side, target, source, fmt,
                handle.pack_blob(payload),
            )

        return build

    @staticmethod
    def _pjoin_builder(job, seq, spec_key, target):
        def build(handle):
            return (PJOIN, job, seq, spec_key, target)

        return build
