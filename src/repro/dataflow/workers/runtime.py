"""The worker process: a long-lived executor of shipped partition tasks.

``worker_main`` is the child-process entry point.  It owns one end of
the per-worker channel set (request/response pipes + shared-memory
rings, see :mod:`.channels`) and loops over batched request messages:

* ``("ship", key, blob)`` — decode a
  :class:`~repro.dataflow.fusion.ChainSpec` /
  :class:`~repro.dataflow.operators.JoinSpec` and cache it under
  ``key``.  The cache is an LRU bounded at the pool-chosen
  ``spec_cache_limit``; the pool mirrors the same LRU in each handle's
  ``shipped`` map, so it re-ships exactly the specs this side has
  evicted and never references a spec the worker no longer holds.
* ``("free", source_key, part_index)`` — drop one resident source
  partition.  The pool tracks per-worker resident bytes and appends
  these eviction notices to task batches, so worker memory for scan
  inputs is bounded even across unrelated ad-hoc queries.
* ``("chain", job, seq, key, src)`` — run one partition through a fused
  chain with :func:`~repro.dataflow.fusion.run_chain`, the loop the
  in-process path uses, returning the produced records and the
  per-stage counter totals the parent needs to reconstruct bit-identical
  ``OperatorRun`` metrics.  A spec whose stages all have chunk kernels
  carries them: over chunk input the worker runs them and the result
  returns as a chunk frame (raw column buffers, no per-record decode on
  either side of the ring); any other input runs stage by stage.
* ``("join", job, seq, key, build_src, probe_src, build_is_left)`` —
  one co-partitioned hash-join pair through
  :func:`~repro.dataflow.operators.hash_join`, the function the
  in-process join runs: the spec's chunk kernel over two chunk inputs
  (the result returns as a chunk frame), the per-record loop otherwise,
  with the same build/probe roles and emission order either way.
* ``("shuffle", job, seq, key, side, source, owners, src)`` — hash-
  partition one input partition of a repartition join by its join key
  through :func:`~repro.dataflow.operators.split_partition`, the split
  the in-process shuffle runs (chunks slice by the join kernel's key
  columns).  Splits whose target partition this worker owns stay
  *resident* in the worker's exchange table; foreign splits return to
  the parent as encoded bytes (chunk frames for columnar splits) it
  relays verbatim (never decoding a record) to the owning workers as
  ``("exchange", job, side, target, source, fmt, blob)`` messages.  The
  response carries the per-target counts and the moved-record/byte
  tallies the parent needs to rebuild the exact ``ShuffleStats`` the
  in-process ``hash_shuffle`` computes.
* ``("pjoin", job, seq, key, target)`` — join one co-partitioned pair
  out of the exchange table, concatenating each side's splits in source
  -partition order so record order matches the in-process shuffle.
* ``("shutdown",)`` — drain buffered responses and exit.

Every tag above is a constant from :mod:`.messages`, the single wire
vocabulary both sides import — construction or matching through a raw
string literal is a wirecheck (W5xx) finding.

Cancellation arrives on a dedicated pipe so it overtakes queued work:
the worker polls it between chunks and every ``POLL_INTERVAL`` probe
records, abandons in-flight tasks of cancelled jobs, and acknowledges
each with a ``("cancelled", job, seq)`` response so the parent can
account for every dispatched task.  The pipe carries ``("cancel",
job)`` / ``("done", job)`` pairs: once the parent has collected every
dispatched task of a cancelled job it confirms with ``done`` and the
worker drops the cancel mark — the cancelled set never needs a size-
based prune that could forget a job whose tasks are still queued.

A failing stage is attributed by the same loop the in-process path
runs, and the failing stage's *name* plus the (pickled, when possible)
cause cross back to the parent, which re-raises the exact
:class:`~repro.dataflow.errors.JobExecutionError` in-process execution
would have raised.
"""

import pickle
import time
from collections import OrderedDict

from ..errors import JobExecutionError
from ..fusion import run_chain
from ..operators import _chunked, hash_join, pick_sides, split_partition
from .channels import INLINE_LIMIT, RingSegment
from .messages import (
    BLOB_INLINE,
    BLOB_RING,
    CANCEL,
    CANCELLED,
    CHAIN,
    CRASH,
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
)
from .shipping import (
    FORMAT_PICKLE,
    SPEC_CACHE_LIMIT,
    decode_records,
    dump_functions,
    encode_records,
    load_functions,
)

__all__ = ["worker_main"]


class _Cancelled(Exception):
    """In-flight task abandoned because its job was cancelled."""

    #: raised inside the shared join, shuffle and chain loops: they must
    #: re-raise it as it is, so the task answers ``CANCELLED``
    propagate_unwrapped = True


class _StageError(Exception):
    """A task failed; carries the failing stage's name and the cause."""

    def __init__(self, stage, cause, unwrapped=False):
        super().__init__(stage)
        self.stage = stage
        self.cause = cause
        self.unwrapped = unwrapped


class _PollToken:
    """Adapts the cancel-pipe poll to the ``token.poll()`` the shared
    join, shuffle and chain loops call."""

    __slots__ = ("worker", "job")

    def __init__(self, worker, job):
        self.worker = worker
        self.job = job

    def poll(self):
        if self.worker._job_cancelled(self.job):
            raise _Cancelled()


def _lru_put(cache, key, value, limit):
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > limit:
        cache.popitem(last=False)


class _Worker:
    def __init__(self, index, req_conn, resp_conn, cancel_conn,
                 req_ring, resp_ring, flush_batch, flush_timeout,
                 spec_cache_limit=SPEC_CACHE_LIMIT):
        self.index = index
        self.req_conn = req_conn
        self.resp_conn = resp_conn
        self.cancel_conn = cancel_conn
        self.req_ring = req_ring
        self.resp_ring = resp_ring
        self.flush_batch = flush_batch
        self.flush_timeout = flush_timeout
        self.spec_cache_limit = spec_cache_limit
        #: decoded-spec LRU; the pool mirrors its eviction order, so the
        #: two sides always agree on which keys are resident
        self.specs = OrderedDict()
        #: resident source partitions; membership is parent-driven (the
        #: pool sends ``store`` to fill and ``free`` to evict under its
        #: per-worker byte budget), so it never desynchronizes
        self.resident = {}
        #: cancelled job ids not yet ``done``-confirmed by the parent
        self.cancelled = set()
        #: repartition-exchange table: (job, side, target) → {source:
        #: records}.  Filled by shuffle/exchange messages, drained by the
        #: job's pjoin tasks; cancellation clears a job's leftovers.
        self.exchange = {}
        self._out = []
        self._first_buffered = None

    # blob transport --------------------------------------------------------

    def _resolve_blob(self, blob):
        """Inline bytes, or copy a referenced payload out of the ring."""
        if blob[0] == BLOB_INLINE:
            return blob[1]
        return self.req_ring.read(blob[1], blob[2])

    def _pack_blob(self, payload):
        if len(payload) > INLINE_LIMIT:
            ref = self.resp_ring.try_write(payload)
            if ref is not None:
                return (BLOB_RING, ref[0], ref[1])
        return (BLOB_INLINE, payload)

    def _resolve_source(self, src):
        """Decode one task input; ``store`` variants feed the resident
        cache so later executions of the same immutable source partition
        skip the payload transfer entirely."""
        kind = src[0]
        if kind == SRC_BLOB:
            return decode_records(src[1], self._resolve_blob(src[2]))
        if kind == SRC_CACHED:
            return self.resident[(src[1], src[2])]
        # ("store", cache_key, part_index, fmt, blob)
        records = decode_records(src[3], self._resolve_blob(src[4]))
        self.resident[(src[1], src[2])] = records
        return records

    # response batching -----------------------------------------------------

    def _emit(self, message):
        self._out.append(message)
        if self._first_buffered is None:
            self._first_buffered = time.monotonic()

    def _flush(self, force):
        if not self._out:
            return
        if (
            force
            or len(self._out) >= self.flush_batch
            or time.monotonic() - self._first_buffered >= self.flush_timeout
        ):
            self.resp_conn.send(self._out)
            self._out = []
            self._first_buffered = None

    # cancellation ----------------------------------------------------------

    def _job_cancelled(self, job):
        while self.cancel_conn.poll():
            try:
                kind, stale = self.cancel_conn.recv()
            except EOFError:  # pragma: no cover - parent died mid-cancel
                break
            if kind == CANCEL:
                self.cancelled.add(stale)
                self._forget_job(stale)
            elif kind == DONE:
                # the parent collected every dispatched task of the
                # cancelled job, so nothing of it can still be queued —
                # the mark can be dropped.  Jobs aborted by a worker
                # crash get no confirmation and keep their mark (job
                # ids are never reused, so a stale mark is only a few
                # bytes, never a correctness hazard).
                self.cancelled.discard(stale)
        return job in self.cancelled

    def _forget_job(self, job):
        """Drop a cancelled/aborted job's resident exchange state."""
        if self.exchange:
            for key in [k for k in self.exchange if k[0] == job]:
                del self.exchange[key]

    # task execution --------------------------------------------------------

    def _run_chain(self, job, spec, records):
        """:func:`~repro.dataflow.fusion.run_chain`, the in-process loop,
        polling the cancel pipe; its stage errors cross as
        :class:`_StageError`."""
        try:
            return run_chain(spec, records, _PollToken(self, job).poll)
        except JobExecutionError as exc:
            raise _StageError(exc.operator_name, exc.cause) from exc
        except _Cancelled:
            raise
        except Exception as exc:  # noqa: BLE001 — propagate_unwrapped only
            raise _StageError(spec.chain_name, exc, unwrapped=True) from exc

    def _run_shuffle(self, job, spec, side, source, owners, records):
        """Hash-partition one input partition by its join key.

        :func:`~repro.dataflow.operators.split_partition`, the split the
        in-process shuffle runs, polling the cancel pipe — so the parent
        can rebuild the exact ShuffleStats.  Splits for targets this
        worker owns go straight into the exchange table; non-empty
        foreign splits are encoded (columnar ones as chunk frames) and
        returned for the parent to relay.
        """
        key_fn, key_columns = spec.side(side == "left")
        try:
            splits, moved = split_partition(
                records, source, len(owners), key_fn, key_columns,
                token=_PollToken(self, job),
            )
        except _Cancelled:
            raise
        except Exception as exc:  # noqa: BLE001 — rewrap with context
            raise _StageError(
                spec.name, exc,
                unwrapped=getattr(exc, "propagate_unwrapped", False),
            ) from exc
        if key_columns is not None and _chunked(records):
            splits = [type(records)(chunks) for chunks in splits]
        counts = [len(split) for split in splits]
        foreign = []
        for target, split in enumerate(splits):
            if not counts[target]:
                continue
            if owners[target] == self.index:
                self.exchange.setdefault(
                    (job, side, target), {}
                )[source] = split
            else:
                fmt, payload = encode_records(split)
                foreign.append((target, fmt, payload))
        return (counts, moved.records, moved.bytes, moved.bytes_in), foreign

    def _run_join(self, job, spec, build, probe, build_is_left):
        """:func:`~repro.dataflow.operators.hash_join`, the in-process
        join, polling the cancel pipe; its errors cross as
        :class:`_StageError`."""
        try:
            return hash_join(
                spec, build, probe, build_is_left, _PollToken(self, job)
            )
        except JobExecutionError as exc:
            raise _StageError(exc.operator_name, exc.cause) from exc
        except _Cancelled:
            raise
        except Exception as exc:  # noqa: BLE001 — propagate_unwrapped only
            raise _StageError(spec.name, exc, unwrapped=True) from exc

    def _concat_splits(self, split_map):
        """Concatenate one pjoin side's splits in source-partition order.

        All-columnar splits concatenate by chunk list — no decode, same
        row order as the in-process shuffle; mixed or per-record splits
        fall back to the flat record list.
        """
        splits = [split_map[index] for index in sorted(split_map)]
        if splits and all(map(_chunked, splits)):
            return type(splits[0])(
                [chunk for split in splits for chunk in split.chunks]
            )
        return [record for split in splits for record in split]

    # message handling ------------------------------------------------------

    def _spec_for(self, key, job, seq):
        """The cached spec under ``key``, touched for LRU order.

        The pool mirrors this cache's eviction, so a miss should be
        impossible; if one ever happens it must fail the *task* — a
        bare ``KeyError`` here would kill the process and, through the
        crash broadcast, every job placed on it.
        """
        spec = self.specs.get(key)
        if spec is None:
            self._emit((
                ERROR, job, seq, "worker-spec-cache", False, None,
                "spec %r missing from worker %d's cache "
                "(ship/evict desync)" % (key, self.index),
            ))
            return None
        self.specs.move_to_end(key)
        return spec

    def _respond_result(self, job, seq, counts, records):
        fmt, payload = encode_records(records)
        self._emit((OK, job, seq, counts, fmt, self._pack_blob(payload)))

    def _respond_failure(self, job, seq, error):
        if isinstance(error, _Cancelled):
            self._emit((CANCELLED, job, seq))
            return
        cause = error.cause
        try:
            cause_payload = pickle.dumps(cause)
            pickle.loads(cause_payload)
        except Exception:  # noqa: BLE001 — unpicklable cause: ship repr
            cause_payload = None
        self._emit((
            ERROR, job, seq, error.stage, error.unwrapped,
            cause_payload, repr(cause),
        ))

    def handle(self, message):
        """Process one request; returns False on shutdown."""
        kind = message[0]
        if kind == CHAIN:
            _, job, seq, key, src = message
            spec = self._spec_for(key, job, seq)
            if spec is None:
                return True
            records = self._resolve_source(src)
            if self._job_cancelled(job):
                self._emit((CANCELLED, job, seq))
                return True
            try:
                produced, totals = self._run_chain(job, spec, records)
            except (_Cancelled, _StageError) as error:
                self._respond_failure(job, seq, error)
            else:
                self._respond_result(job, seq, totals, produced)
            return True
        if kind == JOIN:
            _, job, seq, key, build_src, probe_src, build_is_left = message
            spec = self._spec_for(key, job, seq)
            if spec is None:
                return True
            build = self._resolve_source(build_src)
            probe = self._resolve_source(probe_src)
            if self._job_cancelled(job):
                self._emit((CANCELLED, job, seq))
                return True
            try:
                produced = self._run_join(job, spec, build, probe,
                                          build_is_left)
            except (_Cancelled, _StageError) as error:
                self._respond_failure(job, seq, error)
            else:
                self._respond_result(job, seq, None, produced)
            return True
        if kind == SHUFFLE:
            _, job, seq, key, side, source, owners, src = message
            spec = self._spec_for(key, job, seq)
            if spec is None:
                return True
            records = self._resolve_source(src)
            if self._job_cancelled(job):
                self._emit((CANCELLED, job, seq))
                return True
            try:
                stats, foreign = self._run_shuffle(
                    job, spec, side, source, owners, records
                )
            except (_Cancelled, _StageError) as error:
                self._respond_failure(job, seq, error)
            else:
                payload = pickle.dumps(
                    foreign, protocol=pickle.HIGHEST_PROTOCOL
                )
                self._emit((
                    OK, job, seq, stats, FORMAT_PICKLE,
                    self._pack_blob(payload),
                ))
            return True
        if kind == EXCHANGE:
            _, job, side, target, source, fmt, blob = message
            records = decode_records(fmt, self._resolve_blob(blob))
            self.exchange.setdefault((job, side, target), {})[source] = (
                records
            )
            return True
        if kind == PJOIN:
            _, job, seq, key, target = message
            # pop state before the spec/cancellation checks so a failed
            # or cancelled job's splits never linger in the exchange
            # table
            left_map = self.exchange.pop((job, "left", target), {})
            right_map = self.exchange.pop((job, "right", target), {})
            spec = self._spec_for(key, job, seq)
            if spec is None:
                return True
            if self._job_cancelled(job):
                self._emit((CANCELLED, job, seq))
                return True
            build, probe, build_is_left = pick_sides(
                self._concat_splits(left_map), self._concat_splits(right_map)
            )
            try:
                produced = (
                    []
                    if not build or not probe
                    else self._run_join(job, spec, build, probe,
                                        build_is_left)
                )
            except (_Cancelled, _StageError) as error:
                self._respond_failure(job, seq, error)
            else:
                self._respond_result(job, seq, None, produced)
            return True
        if kind == SHIP:
            _, key, blob = message
            _lru_put(
                self.specs, key, load_functions(self._resolve_blob(blob)),
                self.spec_cache_limit,
            )
            return True
        if kind == FREE:
            # parent-driven resident-source eviction (byte budget)
            self.resident.pop((message[1], message[2]), None)
            return True
        if kind == CRASH:  # test hook: die mid-protocol, like a segfault
            import os

            os._exit(1)
        return kind != SHUTDOWN

    def loop(self):
        while True:
            try:
                batch = self.req_conn.recv()
            except (EOFError, OSError):  # parent died: exit quietly
                return
            if not isinstance(batch, list):
                batch = [batch]
            for message in batch:
                if not self.handle(message):
                    self._flush(force=True)
                    return
                # hold small responses back while more work is queued
                self._flush(force=not self.req_conn.poll())


def worker_main(worker_index, req_conn, resp_conn, cancel_conn,
                req_ring_descriptor, resp_ring_descriptor,
                flush_batch, flush_timeout,
                spec_cache_limit=SPEC_CACHE_LIMIT):
    """Child-process entry point (must stay importable for spawn)."""
    req_ring = RingSegment(
        name=req_ring_descriptor[0], capacity=req_ring_descriptor[1]
    )
    resp_ring = RingSegment(
        name=resp_ring_descriptor[0], capacity=resp_ring_descriptor[1]
    )
    worker = _Worker(
        worker_index, req_conn, resp_conn, cancel_conn, req_ring,
        resp_ring, flush_batch, flush_timeout,
        spec_cache_limit=spec_cache_limit,
    )
    try:
        worker.loop()
    finally:
        req_ring.close()
        resp_ring.close()
        for conn in (req_conn, resp_conn, cancel_conn):
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


# re-exported for the pool: shipping a spec means dumping it by value
ship_payload = dump_functions
