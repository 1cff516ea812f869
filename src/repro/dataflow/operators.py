"""Logical operators of the dataflow DAG and their partitioned execution.

Each :class:`Operator` is an immutable node holding its parents and a
user-defined function.  Execution is partition-parallel over the run's
:attr:`ExecutionContext.parallelism` partitions (one in process, unless the
reference path prices the simulated cluster): partition-local operators never
move data; key-based operators (join, group, distinct) shuffle records and
report the movement to the run's :class:`~repro.dataflow.metrics.JobMetrics`.
"""

import enum
import itertools
from operator import attrgetter

from .cancellation import POLL_INTERVAL
from .errors import JobExecutionError
from .partitioner import partition_index, round_robin_partitions
from .sizing import estimate_size

#: mask for ``index & _POLL_MASK == 0`` deadline checks in inner loops
_POLL_MASK = POLL_INTERVAL - 1

_ids = itertools.count()


class JoinStrategy(enum.Enum):
    """Physical join strategies, mirroring Flink's optimizer choices."""

    AUTO = "auto"
    REPARTITION_HASH = "repartition-hash"
    BROADCAST_FIRST = "broadcast-first"
    BROADCAST_SECOND = "broadcast-second"


class ShuffleStats:
    """Bookkeeping for one data redistribution."""

    def __init__(self, parallelism):
        self.records = 0
        self.bytes = 0
        self.bytes_in = [0] * parallelism

    def merge(self, other):
        self.records += other.records
        self.bytes += other.bytes
        for worker, received in enumerate(other.bytes_in):
            self.bytes_in[worker] += received


def split_partition(partition, source, parallelism, key_fn, key_columns=None,
                    token=None):
    """Split partition ``source`` by key hash: ``(splits, ShuffleStats)``.

    ``splits[target]`` lists the rows routed to ``target`` in input
    order.  With ``key_columns`` a columnar partition splits by slicing
    its chunks (:func:`~repro.engine.columnar.shuffle_split`) into chunk
    lists; anything else runs ``key_fn`` per record into record lists,
    polling ``token`` every ``POLL_INTERVAL`` records.  Both
    route by ``partition_index`` and count only cross-worker moves, at
    ``estimate_size`` bytes apiece.  The in-process shuffle and a
    worker's repartition task both split through here.
    """
    stats = ShuffleStats(parallelism)
    if key_columns is not None and _chunked(partition):
        from repro.engine.columnar import shuffle_split  # lazy: layering

        if token is not None:
            token.poll()
        splits, stats.records, stats.bytes, stats.bytes_in = shuffle_split(
            partition.chunks, key_columns, parallelism, source
        )
        return splits, stats
    splits = [[] for _ in range(parallelism)]
    for index, record in enumerate(partition):
        if token is not None and index & _POLL_MASK == 0:
            token.poll()
        target = partition_index(key_fn(record), parallelism)
        splits[target].append(record)
        if target != source:
            size = estimate_size(record)
            stats.records += 1
            stats.bytes += size
            stats.bytes_in[target] += size
    return splits, stats


class ExecutionContext:
    """Per-run services handed to operators: shuffling, metrics, memory."""

    def __init__(self, environment, metrics, iteration=None, cancellation=None,
                 batch_size=None, pool=None, columnar=False, subplans=None, parallelism=None):
        self._environment = environment
        self._metrics = metrics
        #: operator id → partitions of the ``Operator.subplans`` this run
        #: evaluated: shared, so a scan two of them read still runs once
        self.subplans = {} if subplans is None else subplans
        self.iteration = iteration
        #: :class:`~repro.dataflow.cancellation.CancellationToken` or None.
        #: Operators read it into a local and poll at batch boundaries;
        #: plain runs carry ``None`` and pay a single ``is None`` test.
        self.cancellation = cancellation
        #: the run's mode is ``columnar``: the evaluator runs the fusion
        #: pass, fused chains with kernels execute over
        #: :class:`~repro.engine.columnar.EmbeddingChunk` batches and
        #: joins/shuffles split chunks by slicing columns; operators
        #: without kernels fall back per-record transparently.  False is
        #: the per-record reference path
        self.columnar = columnar
        #: :class:`~repro.dataflow.workers.WorkerPool` or None.  Set only
        #: on columnar runs of a ``workers=N`` environment; operators with a
        #: shippable task shape (fused chains, hash-join partition pairs)
        #: offload to it and fall back in-process when it is None or the
        #: task fails shippability certification.
        self.pool = pool
        #: the run's partition count: the simulated cluster's on the reference
        #: path and under a worker pool, else one.  Sub-runs inherit it
        self.parallelism = parallelism or (
            environment.parallelism if pool is not None or not columnar else 1
        )
        self.batch_size = (
            batch_size if batch_size is not None
            else getattr(environment, "batch_size", None)
        )

    def derived(self, **overrides):
        """This run's context with ``iteration`` / ``columnar`` / ...
        overridden — a superstep's, or a sub-run's on another path."""
        options = dict(
            iteration=self.iteration, cancellation=self.cancellation,
            batch_size=self.batch_size, pool=self.pool,
            columnar=self.columnar, subplans=self.subplans,
            parallelism=self.parallelism,
        )
        options.update(overrides)
        return ExecutionContext(self._environment, self._metrics, **options)

    def poll(self):
        """Raise if the run's cancellation token is cancelled or expired."""
        if self.cancellation is not None:
            self.cancellation.poll()

    def count_fallback(self, reason):
        """Record that this columnar run took a per-record path."""
        self._metrics.chunk_fallbacks[reason] += 1

    @property
    def memory_records_per_worker(self):
        return self._environment.cost_model.memory_records_per_worker

    def evaluate(self, operator, cache):
        """Evaluate a sub-DAG (used by bulk iteration)."""
        return self._environment._evaluate(operator, cache, self)

    # Shuffle primitives ---------------------------------------------------

    def hash_shuffle(self, partitions, key_fn, key_columns=None):
        """Redistribute records so equal keys share a worker.

        ``key_columns`` — the join kernel's id key columns, when the join
        declares one — splits partitions by slicing chunk columns, but
        only when every partition is columnar: a mixed input goes through
        the per-record loop whole, so the result is uniformly one form.
        Either way the stats are byte-identical (:func:`split_partition`).
        """
        parallelism = self.parallelism
        if parallelism == 1:  # one partition holds every key already
            return partitions, ShuffleStats(1)
        if not all(map(_chunked, partitions)):
            key_columns = None
        out = [[] for _ in range(parallelism)]
        stats = ShuffleStats(parallelism)
        for source, partition in enumerate(partitions):
            splits, moved = split_partition(
                partition, source, parallelism, key_fn, key_columns,
                self.cancellation,
            )
            stats.merge(moved)
            for target, split in enumerate(splits):
                out[target].extend(split)
        if key_columns is not None:
            partition_cls = type(partitions[0])
            out = [partition_cls(chunks) for chunks in out]
        return out, stats

    def broadcast(self, partitions):
        """Replicate a dataset's records to every worker.

        Columnar partitions broadcast by *sharing* their immutable chunks
        (no copy, no decode); the stats equal the per-record accounting
        because a chunk's byte size is the sum of its rows' serialized
        sizes.  Every worker is charged the bytes it receives; one partition
        holds the input already and is returned as it is.
        """
        parallelism = self.parallelism
        chunked = bool(partitions) and all(map(_chunked, partitions))
        if chunked:
            chunks = [
                chunk for partition in partitions for chunk in partition.chunks
            ]
            total_records = sum(chunk.count for chunk in chunks)
            total_bytes = sum(chunk.byte_size() for chunk in chunks)
        else:
            everything = [record for partition in partitions for record in partition]
            total_records = len(everything)
            total_bytes = sum(map(estimate_size, everything))
        stats = ShuffleStats(parallelism)
        stats.records = total_records * (parallelism - 1)
        stats.bytes = total_bytes * (parallelism - 1)
        stats.bytes_in = [total_bytes] * parallelism
        if parallelism == 1:
            return partitions, stats
        if chunked:
            partition_cls = type(partitions[0])
            return [
                partition_cls(chunks) for _ in range(parallelism)
            ], stats
        return [list(everything) for _ in range(parallelism)], stats

    def record_run(
        self,
        name,
        parent_partition_sets,
        out_partitions,
        shuffle=None,
        spilled_workers=0,
        worker_work=None,
    ):
        """Append an OperatorRun for a finished operator execution.

        ``worker_work`` overrides the per-worker input distribution; shuffle
        operators pass their post-shuffle partition sizes so that skew
        reflects the work each worker actually performs.
        """
        from .metrics import OperatorRun

        if worker_work is not None:
            worker_in = list(worker_work)
        else:
            worker_in = [0] * self.parallelism
            for partitions in parent_partition_sets:
                for worker, partition in enumerate(partitions):
                    worker_in[worker] += len(partition)
        run = OperatorRun(
            name=name,
            records_in=sum(worker_in),
            records_out=sum(len(p) for p in out_partitions),
            worker_records_in=worker_in,
            worker_records_out=[len(p) for p in out_partitions],
            iteration=self.iteration,
        )
        if shuffle is not None:
            run.shuffled_records = shuffle.records
            run.shuffled_bytes = shuffle.bytes
            run.worker_shuffle_bytes_in = list(shuffle.bytes_in)
        run.spilled_workers = spilled_workers
        self._metrics.add(run)
        return run

    def record_stage_run(self, name, worker_in, worker_out, iteration=None):
        """Append the OperatorRun of one stage inside a fused chain.

        Fused chains execute several logical operators in one loop but
        must leave the metrics stream indistinguishable from per-record
        execution (the simulated cost model reads it); this produces
        exactly what :meth:`record_run` records for a partition-local
        operator — no shuffle, no spills, the evaluating run's iteration
        (or ``iteration``, for a node that steps its own supersteps).
        """
        from .metrics import OperatorRun

        run = OperatorRun(
            name=name,
            records_in=sum(worker_in),
            records_out=sum(worker_out),
            worker_records_in=list(worker_in),
            worker_records_out=list(worker_out),
            iteration=self.iteration if iteration is None else iteration,
        )
        self._metrics.add(run)
        return run


class Operator:
    """Base class for DAG nodes."""

    display = "operator"
    #: the chunk kernel the node declares for a columnar run, or None
    kernel = None
    #: roots of dataflow this node may evaluate itself, inside ``execute``
    #: (never evaluated for it like ``parents``); static walkers follow them
    subplans = ()

    def __init__(self, environment, parents, name=None):
        self.id = next(_ids)
        self.environment = environment
        self.parents = list(parents)
        self.name = name or self.display

    def execute(self, ctx, parent_partition_sets):
        raise NotImplementedError

    def _call(self, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 — rewrap with operator context
            if getattr(exc, "propagate_unwrapped", False):
                # the error names its own context (e.g. SanitizerError
                # pointing at a plan operator) — wrapping would bury it
                raise
            raise JobExecutionError(self.name, exc) from exc


class SourceOperator(Operator):
    """Materialized input split round-robin across the run's partitions."""

    display = "source"

    def __init__(self, environment, items, name=None):
        super().__init__(environment, [], name)
        self._items = list(items)

    def execute(self, ctx, parent_partition_sets):
        parallelism = ctx.parallelism
        # one partition is the list itself: no operator mutates its input
        out = [self._items] if parallelism == 1 else round_robin_partitions(
            self._items, parallelism
        )
        ctx.record_run(self.name, [], out)
        return out


class PartitionedSourceOperator(Operator):
    """Input that is already partitioned (e.g. an iteration's working set);
    a one-partition run reads it concatenated."""

    display = "partitioned-source"

    def __init__(self, environment, partitions, name=None):
        super().__init__(environment, [], name)
        self.partitions = partitions

    def execute(self, ctx, parent_partition_sets):
        parallelism = ctx.parallelism
        if parallelism == 1:
            out = [list(itertools.chain.from_iterable(self.partitions))]
        elif len(self.partitions) == parallelism:
            out = [list(p) for p in self.partitions]
        else:
            raise ValueError(
                "expected %d partitions, got %d"
                % (parallelism, len(self.partitions))
            )
        ctx.record_run(self.name, [], out)
        return out


class MapOperator(Operator):
    display = "map"

    def __init__(self, environment, parent, fn, name=None, kernel=None):
        super().__init__(environment, [parent], name)
        self.fn = fn
        self.kernel = kernel

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        out = [[self._call(self.fn, r) for r in p] for p in partitions]
        ctx.record_run(self.name, parent_partition_sets, out)
        return out


class FlatMapOperator(Operator):
    display = "flat-map"

    def __init__(self, environment, parent, fn, name=None):
        super().__init__(environment, [parent], name)
        self.fn = fn

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        token = ctx.cancellation
        out = []
        for partition in partitions:
            produced = []
            for index, record in enumerate(partition):
                if token is not None and index & _POLL_MASK == 0:
                    token.poll()
                produced.extend(self._call(self.fn, record))
            out.append(produced)
        ctx.record_run(self.name, parent_partition_sets, out)
        return out


class FilterOperator(Operator):
    display = "filter"

    def __init__(self, environment, parent, predicate, name=None,
                 kernel=None):
        super().__init__(environment, [parent], name)
        self.predicate = predicate
        self.kernel = kernel

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        out = [[r for r in p if self._call(self.predicate, r)] for p in partitions]
        ctx.record_run(self.name, parent_partition_sets, out)
        return out


class MapPartitionOperator(Operator):
    display = "map-partition"

    def __init__(self, environment, parent, fn, name=None):
        super().__init__(environment, [parent], name)
        self.fn = fn

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        out = [list(self._call(self.fn, iter(p))) for p in partitions]
        ctx.record_run(self.name, parent_partition_sets, out)
        return out


class UnionOperator(Operator):
    """Partition-wise concatenation; no data movement."""

    display = "union"

    def __init__(self, environment, left, right, name=None):
        super().__init__(environment, [left, right], name)

    def execute(self, ctx, parent_partition_sets):
        left, right = parent_partition_sets
        out = [list(l) + list(r) for l, r in zip(left, right)]
        ctx.record_run(self.name, parent_partition_sets, out)
        return out


class RebalanceOperator(Operator):
    """Round-robin redistribution to even out partition sizes."""

    display = "rebalance"

    def __init__(self, environment, parent, name=None):
        super().__init__(environment, [parent], name)

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        parallelism = ctx.parallelism
        out = [[] for _ in range(parallelism)]
        stats = ShuffleStats(parallelism)
        cursor = 0
        for source_worker, partition in enumerate(partitions):
            for record in partition:
                target = cursor % parallelism
                cursor += 1
                out[target].append(record)
                if target != source_worker:
                    size = estimate_size(record)
                    stats.records += 1
                    stats.bytes += size
                    stats.bytes_in[target] += size
        ctx.record_run(self.name, parent_partition_sets, out, shuffle=stats)
        return out


class BulkIterationOperator(Operator):
    """Flink-style bulk iteration as a *lazy* DAG node.

    The superstep loop runs inside :meth:`execute` — at evaluation time,
    under the evaluating run's metrics and cancellation token — never at
    DAG-construction time.  Plans that are built once and executed many
    times (prepared statements re-binding ``$parameters``) therefore
    re-iterate on every execution.
    """

    display = "bulk-iteration"

    def __init__(self, environment, initial, step, max_iterations,
                 collect_emissions=True, name=None):
        super().__init__(environment, [initial], name)
        self.step = step
        self.max_iterations = max_iterations
        self.collect_emissions = collect_emissions

    def execute(self, ctx, parent_partition_sets):
        from .errors import IterationError

        environment = self.environment
        (working,) = parent_partition_sets
        emitted = [[] for _ in range(ctx.parallelism)]
        for iteration in range(1, self.max_iterations + 1):
            if sum(len(p) for p in working) == 0:
                break
            iter_ctx = ctx.derived(iteration=iteration)
            working_ds = environment.from_partitions(
                working, name="iteration-working-set"
            )
            result = self.step(working_ds, iteration)
            if isinstance(result, tuple):
                next_working_ds, emit_ds = result
            else:
                next_working_ds, emit_ds = result, None
            if next_working_ds is None:
                raise IterationError("step returned no next working set")
            # a fresh cache per superstep: only this iteration's sub-DAG
            # is shared between working set and emissions
            cache = {}
            working = environment._evaluate(
                next_working_ds.operator, cache, iter_ctx
            )
            if emit_ds is not None and self.collect_emissions:
                emit_parts = environment._evaluate(
                    emit_ds.operator, cache, iter_ctx
                )
                for worker, partition in enumerate(emit_parts):
                    emitted[worker].extend(partition)
        if self.collect_emissions:
            return emitted
        return [list(p) for p in working]


class PartitionByOperator(Operator):
    """Explicit hash partitioning by a key function."""

    display = "partition-by"

    def __init__(self, environment, parent, key_fn, name=None):
        super().__init__(environment, [parent], name)
        self.key_fn = key_fn

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        if ctx.parallelism == 1:  # nothing to split; a failing key still fails
            for record in itertools.chain.from_iterable(partitions):
                self._call(self.key_fn, record)
        out, stats = ctx.hash_shuffle(
            partitions, lambda record: self._call(self.key_fn, record)
        )
        ctx.record_run(self.name, parent_partition_sets, out, shuffle=stats)
        return out


class DistinctOperator(Operator):
    """Key-based deduplication (shuffle + per-worker hash set)."""

    display = "distinct"

    def __init__(self, environment, parent, key_fn=None, name=None):
        super().__init__(environment, [parent], name)
        self.key_fn = key_fn if key_fn is not None else _identity

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        shuffled, stats = ctx.hash_shuffle(
            partitions, lambda record: self._call(self.key_fn, record)
        )
        out = []
        spilled = 0
        for partition in shuffled:
            if len(partition) > ctx.memory_records_per_worker:
                spilled += 1
            seen = set()
            kept = []
            for record in partition:
                key = _hashable(self._call(self.key_fn, record))
                if key not in seen:
                    seen.add(key)
                    kept.append(record)
            out.append(kept)
        ctx.record_run(
            self.name,
            parent_partition_sets,
            out,
            shuffle=stats,
            spilled_workers=spilled,
            worker_work=[len(p) for p in shuffled],
        )
        return out


class GroupReduceOperator(Operator):
    """Shuffle by key, then apply ``reduce_fn(key, records) -> iterable``."""

    display = "group-reduce"

    def __init__(self, environment, parent, key_fn, reduce_fn, name=None):
        super().__init__(environment, [parent], name)
        self.key_fn = key_fn
        self.reduce_fn = reduce_fn

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        shuffled, stats = ctx.hash_shuffle(
            partitions, lambda record: self._call(self.key_fn, record)
        )
        out = []
        spilled = 0
        for partition in shuffled:
            ctx.poll()
            if len(partition) > ctx.memory_records_per_worker:
                spilled += 1
            groups = {}
            order = []
            for record in partition:
                key = _hashable(self._call(self.key_fn, record))
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(record)
            produced = []
            for key in order:
                produced.extend(self._call(self.reduce_fn, key, groups[key]))
            out.append(produced)
        ctx.record_run(
            self.name,
            parent_partition_sets,
            out,
            shuffle=stats,
            spilled_workers=spilled,
            worker_work=[len(p) for p in shuffled],
        )
        return out


class JoinSpec:
    """What one hash join runs: key readers, flat-join function, kernel.

    ``kernel`` is the chunk kernel the join declares (the engine's
    ``ColumnarJoinSpec``: key columns, merge shape, morphism watch set),
    or ``None``.  The operator holds its spec; the worker pool ships it
    by value, so :func:`hash_join` runs the same join in either process.
    """

    __slots__ = ("key", "left_key", "right_key", "join_fn", "name", "kernel")

    def __init__(self, key, left_key, right_key, join_fn, name, kernel=None):
        self.key = key
        self.left_key = left_key
        self.right_key = right_key
        self.join_fn = join_fn
        self.name = name
        self.kernel = kernel

    def side(self, left):
        """``(key reader, kernel key columns or None)`` of one input."""
        kernel = self.kernel
        if left:
            return self.left_key, kernel.left_columns if kernel else None
        return self.right_key, kernel.right_columns if kernel else None


def pick_sides(left, right):
    """``(build, probe, build_is_left)``: the smaller input builds."""
    if len(left) <= len(right):
        return left, right, True
    return right, left, False


def hash_join(spec, build, probe, build_is_left, token=None):
    """One co-partitioned pair through the hash join: the output partition.

    Two chunk partitions meet the spec's kernel, when it has one, and the
    result is a partition of the build side's type; anything else is
    built into a table and probed per record.  Either way rows come out
    in probe order, each matched against build rows in build order, and
    ``token`` is polled every ``POLL_INTERVAL`` probe records (the kernel
    polls per slice of output).  A failure raises
    :class:`JobExecutionError` naming the join; errors marked
    ``propagate_unwrapped`` (cancellation) propagate as they are.
    """
    kernel = spec.kernel
    try:
        if kernel is not None and _chunked(build) and _chunked(probe):
            return type(build)(kernel.hash_join(
                build.chunks, probe.chunks, build_is_left, token
            ))
        build_key, probe_key = (
            (spec.left_key, spec.right_key) if build_is_left
            else (spec.right_key, spec.left_key)
        )
        join_fn = spec.join_fn
        table = {}
        setdefault = table.setdefault
        produced = []
        extend = produced.extend
        for record in build:
            setdefault(_hashable(build_key(record)), []).append(record)
        get = table.get
        for index, probe_record in enumerate(probe):
            if token is not None and index & _POLL_MASK == 0:
                token.poll()
            matches = get(_hashable(probe_key(probe_record)))
            if not matches:
                continue
            if build_is_left:
                for build_record in matches:
                    extend(join_fn(build_record, probe_record))
            else:
                for build_record in matches:
                    extend(join_fn(probe_record, build_record))
    except Exception as exc:  # noqa: BLE001 — rewrap with context
        if getattr(exc, "propagate_unwrapped", False):
            raise
        raise JobExecutionError(spec.name, exc) from exc
    return produced


class JoinOperator(Operator):
    """Equi-join with selectable physical strategy.

    ``join_fn(left, right)`` has FlatJoin semantics: it returns an iterable
    of output records, so morphism checks can drop pairs without a second
    filter pass (paper §3.1).  ``kernel`` joins (and shuffles) chunk
    partitions; ``fallback`` is the ``CHUNK_FALLBACK_REASONS`` entry every
    columnar execution counts — why this join runs per record, or runs in
    place of a cheaper path.
    """

    display = "join"
    # Broadcasting pays off when one side is small in absolute terms and
    # much smaller than the other; mirrors Flink's size-based heuristic.
    _BROADCAST_LIMIT = 10_000
    _BROADCAST_RATIO = 8
    # read back from the spec, the one place the join holds them
    kernel = property(attrgetter("spec.kernel"))
    left_key = property(attrgetter("spec.left_key"))
    right_key = property(attrgetter("spec.right_key"))

    def __init__(
        self,
        environment,
        left,
        right,
        left_key,
        right_key,
        join_fn=None,
        strategy=JoinStrategy.AUTO,
        name=None,
        kernel=None,
        fallback=None,
    ):
        super().__init__(environment, [left, right], name)
        self.fallback = fallback
        self.spec = JoinSpec(
            ("join", self.id), left_key, right_key,
            join_fn if join_fn is not None else _pair, self.name, kernel,
        )
        self.strategy = strategy
        self.chosen_strategy = None

    def _choose(self, left_count, right_count):
        if self.strategy is not JoinStrategy.AUTO:
            return self.strategy
        smaller, larger = sorted((left_count, right_count))
        if smaller <= self._BROADCAST_LIMIT and larger >= smaller * self._BROADCAST_RATIO:
            if left_count <= right_count:
                return JoinStrategy.BROADCAST_FIRST
            return JoinStrategy.BROADCAST_SECOND
        return JoinStrategy.REPARTITION_HASH

    def execute(self, ctx, parent_partition_sets):
        left_parts, right_parts = parent_partition_sets
        left_count = sum(len(p) for p in left_parts)
        right_count = sum(len(p) for p in right_parts)
        strategy = self._choose(left_count, right_count)
        self.chosen_strategy = strategy
        spec = self.spec
        kernel = spec.kernel

        if ctx.columnar and self.fallback is not None:
            ctx.count_fallback(self.fallback)
        stats = ShuffleStats(ctx.parallelism)
        pool = (
            ctx.pool if strategy is JoinStrategy.REPARTITION_HASH else None
        )
        if pool is not None and pool.join_shippable(self):
            out, spilled, worker_work = self._pooled_exchange_join(
                pool, left_parts, right_parts, ctx, stats
            )
            ctx.record_run(
                "%s[%s]" % (self.name, strategy.value),
                parent_partition_sets,
                out,
                shuffle=stats,
                spilled_workers=spilled,
                worker_work=worker_work,
            )
            return out
        if strategy is JoinStrategy.BROADCAST_FIRST:
            left_local, s = ctx.broadcast(left_parts)
            stats.merge(s)
            # columnar partitions stay columnar on the non-broadcast side
            # so the local join can run its chunk kernel
            right_local = [
                p if _chunked(p) else list(p) for p in right_parts
            ]
        elif strategy is JoinStrategy.BROADCAST_SECOND:
            right_local, s = ctx.broadcast(right_parts)
            stats.merge(s)
            left_local = [p if _chunked(p) else list(p) for p in left_parts]
        else:  # a repartition co-locates equal keys
            # the key functions run bare (no per-record _call frames);
            # one _call per shuffle keeps the error contract
            left_local, s1 = self._call(
                ctx.hash_shuffle, left_parts, *spec.side(True)
            )
            right_local, s2 = self._call(
                ctx.hash_shuffle, right_parts, *spec.side(False)
            )
            stats.merge(s1)
            stats.merge(s2)

        pool = ctx.pool
        if pool is not None and pool.join_shippable(self):
            out, spilled = self._pooled_pairs_join(
                pool, left_local, right_local, ctx
            )
        else:
            out = []
            spilled = 0
            for left_partition, right_partition in zip(
                left_local, right_local
            ):
                ctx.poll()  # batch boundary: one worker's partition pair
                build, probe, build_is_left = pick_sides(
                    left_partition, right_partition
                )
                if len(build) > ctx.memory_records_per_worker:
                    spilled += 1
                if (
                    kernel is not None
                    and ctx.columnar
                    and not (_chunked(build) and _chunked(probe))
                ):
                    ctx.count_fallback("non_uniform_batch")
                out.append(hash_join(
                    spec, build, probe, build_is_left, ctx.cancellation
                ))

        name = "%s[%s]" % (self.name, strategy.value)
        worker_work = [
            len(l) + len(r) for l, r in zip(left_local, right_local)
        ]
        ctx.record_run(
            name,
            parent_partition_sets,
            out,
            shuffle=stats,
            spilled_workers=spilled,
            worker_work=worker_work,
        )
        return out

    def _pooled_pairs_join(self, pool, left_local, right_local, ctx):
        """Ship already-co-located hash-join pairs to the worker pool.

        The broadcast strategies replicate the small side in-parent (a
        list copy), leaving per-partition ``(build, probe)`` pairs the
        workers execute with :func:`hash_join`, as in process — results
        are order-identical and the spill accounting below stays
        byte-for-byte the same.  Empty pairs never ship — their result
        is the empty partition.
        """
        ctx.poll()  # batch boundary: one poll before the dispatch
        out = [None] * len(left_local)
        spilled = 0
        pairs = []
        shipped_indexes = []
        for index, (left_partition, right_partition) in enumerate(
            zip(left_local, right_local)
        ):
            build, probe, build_is_left = pick_sides(
                left_partition, right_partition
            )
            if len(build) > ctx.memory_records_per_worker:
                spilled += 1
            if not build or not probe:
                out[index] = []
                continue
            pairs.append((build, probe, build_is_left))
            shipped_indexes.append(index)
        if pairs:
            produced = pool.run_join(self, pairs, ctx.cancellation)
            for index, records in zip(shipped_indexes, produced):
                out[index] = records
        return out, spilled

    def _pooled_exchange_join(self, pool, left_parts, right_parts, ctx,
                              stats):
        """Run the repartition exchange *and* the join on the worker pool.

        The workers hash-partition both inputs by join key — the parent
        relays only cross-worker splits, as opaque bytes — and join each
        co-partitioned pair on the worker that owns it.  The returned
        per-target counts rebuild the exact ShuffleStats, spill and
        ``worker_work`` accounting the in-process path computes, so the
        simulated cost model cannot tell the two paths apart.
        """
        ctx.poll()  # batch boundary: one poll before the exchange
        out, moved, left_counts, right_counts = pool.run_repartition_join(
            self, left_parts, right_parts, ctx.cancellation
        )
        moved_records, moved_bytes, bytes_in = moved
        stats.records += moved_records
        stats.bytes += moved_bytes
        for target, size in enumerate(bytes_in):
            stats.bytes_in[target] += size
        limit = ctx.memory_records_per_worker
        spilled = sum(
            1
            for left_count, right_count in zip(left_counts, right_counts)
            if min(left_count, right_count) > limit
        )
        worker_work = [
            left_count + right_count
            for left_count, right_count in zip(left_counts, right_counts)
        ]
        return out, spilled, worker_work


class CrossOperator(Operator):
    """Cartesian product: the right side is broadcast."""

    display = "cross"

    def __init__(self, environment, left, right, fn=None, name=None):
        super().__init__(environment, [left, right], name)
        self.fn = fn if fn is not None else _pair_single

    def execute(self, ctx, parent_partition_sets):
        left_parts, right_parts = parent_partition_sets
        right_local, stats = ctx.broadcast(right_parts)
        token = ctx.cancellation
        out = []
        fn = self.fn
        for left_partition, right_partition in zip(left_parts, right_local):
            ctx.poll()
            produced = []
            append = produced.append
            try:
                for index, left_record in enumerate(left_partition):
                    if token is not None and index & _POLL_MASK == 0:
                        token.poll()
                    for right_record in right_partition:
                        append(fn(left_record, right_record))
            except Exception as exc:  # noqa: BLE001 — rewrap with context
                if getattr(exc, "propagate_unwrapped", False):
                    raise
                raise JobExecutionError(self.name, exc) from exc
            out.append(produced)
        ctx.record_run(self.name, parent_partition_sets, out, shuffle=stats)
        return out


def _identity(record):
    return record


def _pair(left, right):
    return [(left, right)]


def _pair_single(left, right):
    return (left, right)


def _chunked(partition):
    """True for a columnar partition (recognized by its ``chunks``)."""
    return getattr(partition, "chunks", None) is not None


def _hashable(key):
    """Coerce mutable key types to hashable equivalents."""
    if isinstance(key, bytearray):
        return bytes(key)
    if isinstance(key, list):
        return tuple(_hashable(part) for part in key)
    return key
