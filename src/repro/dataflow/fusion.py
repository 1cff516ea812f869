"""Operator fusion: partition-local operator chains run as one node.

Flink chains pipelined operators into single tasks so records never cross
an operator boundary through a function-call-per-record indirection.  This
module reproduces that optimization for the simulated dataflow: a *fusion
pass* (:func:`plan_fusion`) collapses maximal chains of partition-local
operators (map / filter / flat-map) into one :class:`FusedChainOperator`.
Only a columnar run plans it.  A partition of chunks flows through the
stages' chunk kernels one chunk at a time; any other input (graph
elements, frontier tuples, cross-product pairs) flows stage by stage in
slices of ``batch_size`` records.  Either way there is one cancellation
poll per chunk or slice, and the per-stage metrics are reconstructed from
counters afterwards — bit-identical to what per-record execution records,
so the simulated cost accounting does not change.

What fuses: ``MapOperator``, ``FilterOperator``, ``FlatMapOperator`` (the
exact classes — subclasses may override ``execute`` and are left alone).
Everything else — sources, shuffles, joins, unions, ``map_partition``,
bulk iterations — is a pipeline break.  Operators already materialized in
the evaluation cache, and operators feeding more than one consumer, break
the chain as well: their output must exist as a standalone partition set.
"""

from typing import Dict

from .errors import JobExecutionError
from .operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    Operator,
    _chunked,
)

#: default slice length of a chain over records; roughly amortizes the
#: per-slice bookkeeping without hurting cache locality of the records
DEFAULT_BATCH_SIZE = 1024

#: the fusable operator classes and their stage kind
_STAGE_KINDS = {
    MapOperator: "map",
    FilterOperator: "filter",
    FlatMapOperator: "flatmap",
}


class ChainSpec:
    """A fused chain, flattened to what running it needs.

    The same object drives the chain in process and, shipped by value, in
    a worker (:mod:`repro.dataflow.workers`).  ``key`` identifies the
    chain *structurally* across executions: fused operators are rebuilt
    per run by the fusion pass, but their *stages* come from the cached
    physical plan, so the stage ids are stable.  The pool extends it with
    a digest of the serialized payload before shipping
    (``WorkerPool._wire_spec``), so state a closure captures by value — a
    prepared statement's parameter binding, say — re-ships whenever its
    content changes while unchanged chains still ship to each worker at
    most once.
    """

    __slots__ = ("key", "shape", "names", "fns", "batch_size", "chain_name",
                 "kernels")

    def __init__(self, key, shape, names, fns, batch_size, chain_name,
                 kernels=None):
        self.key = key
        self.shape = tuple(shape)
        self.names = tuple(names)
        self.fns = tuple(fns)
        self.batch_size = batch_size
        self.chain_name = chain_name
        #: one chunk→chunk kernel per stage, or ``None`` when a stage
        #: declares none
        self.kernels = tuple(kernels) if kernels is not None else None


def run_chain(spec, partition, poll):
    """One partition through a chain: ``(output, stage totals)``.

    Chunks run through the spec's kernels when it has them; anything else
    runs stage by stage over ``batch_size`` slices.  ``poll`` is called
    once per chunk or slice.  Stage totals count the rows after each
    non-map stage.  A failing stage raises :class:`JobExecutionError`
    naming it; errors marked ``propagate_unwrapped`` (cancellation)
    propagate as they are.
    """
    chunks = getattr(partition, "chunks", None)
    if spec.kernels is not None and chunks is not None:
        return _run_kernels(spec, chunks, poll)
    totals = [0] * sum(1 for kind in spec.shape if kind != "map")
    batch = spec.batch_size
    produced = []
    for start in range(0, len(partition), batch):
        poll()
        records = (
            partition
            if start == 0 and len(partition) <= batch
            else partition[start:start + batch]
        )
        produced.extend(_run_stages(spec, records, totals))
    return produced, tuple(totals)


def _run_stages(spec, records, totals):
    """One slice through every stage, in stage order; adds each non-map
    stage's output count to ``totals``."""
    counter = 0
    for kind, fn, name in zip(spec.shape, spec.fns, spec.names):
        try:
            if kind == "map":
                records = [fn(record) for record in records]
            elif kind == "filter":
                records = [record for record in records if fn(record)]
            else:
                records = [out for record in records for out in fn(record)]
        except Exception as exc:  # noqa: BLE001 — rewrap with stage context
            if getattr(exc, "propagate_unwrapped", False):
                raise
            raise JobExecutionError(name, exc) from exc
        if kind != "map":
            totals[counter] += len(records)
            counter += 1
    return records


def _run_kernels(spec, chunks_in, poll):
    """The chain as chunk kernels over one partition's chunks.  A failing
    chunk is decoded and replayed per record by :func:`_run_stages`, so
    the error names the stage."""
    from repro.engine.columnar import ColumnarPartition  # lazy: layering

    shape = spec.shape
    kernels = spec.kernels
    totals = [0] * sum(1 for kind in shape if kind != "map")
    produced = []
    for source in chunks_in:
        poll()
        current = source
        counter = 0
        try:
            for kind, kernel in zip(shape, kernels):
                current = kernel(current)
                if kind != "map":
                    totals[counter] += current.count
                    counter += 1
        except Exception as exc:  # noqa: BLE001 — re-attributed below
            if getattr(exc, "propagate_unwrapped", False):
                raise
            _run_stages(spec, source.to_embeddings(), list(totals))
            # the replay did not fail (a non-deterministic function?) —
            # attribute the original error to the whole chain
            raise JobExecutionError(spec.chain_name, exc) from exc
        if current.count:
            produced.append(current)
    return ColumnarPartition(produced), tuple(totals)


class FusedChainOperator(Operator):
    """One node standing in for a chain of map/filter/flat-maps.

    The chain's stages keep their identity for metrics and error
    attribution: :func:`run_chain` counts per-stage outputs and
    :meth:`ExecutionContext.record_stage_run` emits one
    :class:`~repro.dataflow.metrics.OperatorRun` per stage, identical to
    what per-record execution would have recorded; a failing stage raises
    the :class:`JobExecutionError` naming it.
    """

    display = "fused-chain"

    def __init__(self, environment, parent, stages, batch_size):
        super().__init__(
            environment,
            [parent],
            "fused[%s]" % "+".join(stage.name for stage in stages),
        )
        self.stages = list(stages)
        #: id of the chain's last stage; the evaluator aliases this node's
        #: result under it so downstream parent lookups resolve
        self.terminal_id = stages[-1].id
        fns = tuple(
            stage.predicate if isinstance(stage, FilterOperator) else stage.fn
            for stage in stages
        )
        # a chain runs over chunks when every stage declares a
        # chunk→chunk kernel
        kernels = tuple(stage.kernel for stage in stages)
        self.spec = ChainSpec(
            key=("chain",) + tuple(stage.id for stage in stages),
            shape=(_STAGE_KINDS[type(stage)] for stage in stages),
            names=(stage.name for stage in stages),
            fns=fns,
            batch_size=batch_size,
            chain_name=self.name,
            kernels=(
                kernels if all(k is not None for k in kernels) else None
            ),
        )

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        self._count_fallbacks(ctx, partitions)
        pool = ctx.pool
        if pool is not None and pool.chain_shippable(self):
            return self._execute_pooled(ctx, pool, partitions)
        out = []
        worker_counts = []
        for partition in partitions:
            produced, totals = run_chain(self.spec, partition, ctx.poll)
            out.append(produced)
            worker_counts.append(totals)
        self._record_stage_runs(ctx, partitions, worker_counts)
        return out

    def _count_fallbacks(self, ctx, partitions):
        """Chunks meeting a chain with a kernel gap, and plain embedding
        lists meeting a chain of kernels (an upstream stage fell back),
        are counted fallbacks; a chain over anything else — graph
        elements, frontier tuples — has nothing columnar about it."""
        chunked = [_chunked(partition) for partition in partitions]
        if self.spec.kernels is None:
            if any(chunked):
                ctx.count_fallback("no_kernel")
            return
        for is_chunked in chunked:
            if not is_chunked:
                ctx.count_fallback("non_uniform_batch")

    def _execute_pooled(self, ctx, pool, partitions):
        """Ship the chain's partitions to the worker-process pool.

        The pool runs :func:`run_chain` over the same partitions and
        returns per-partition records plus the per-stage counter totals,
        so the metrics recorded below are bit-identical to in-process
        execution.  A worker-side failure arrives as the same
        stage-attributed :class:`JobExecutionError`; cancellation is
        polled between chunks inside the worker and re-raised here
        through the run's token.  When the chain reads directly from an
        immutable source, its partitions stay resident in the owning
        workers across executions.
        """
        from .operators import SourceOperator

        parent = self.parents[0]
        source_key = parent.id if type(parent) is SourceOperator else None
        out, worker_counts = pool.run_chain(
            self, partitions, ctx.cancellation, source_key=source_key,
        )
        self._record_stage_runs(ctx, partitions, worker_counts)
        return out

    def _record_stage_runs(self, ctx, partitions, worker_counts):
        """Emit one OperatorRun per stage, matching per-record execution."""
        worker_in = [len(partition) for partition in partitions]
        counter = 0
        for name, kind in zip(self.spec.names, self.spec.shape):
            if kind == "map":
                worker_out = worker_in
            else:
                worker_out = [counts[counter] for counts in worker_counts]
                counter += 1
            ctx.record_stage_run(name, worker_in, worker_out)
            worker_in = worker_out


def plan_fusion(root, batch_size: int, materialized=(), certify: bool = False) -> Dict[int, "FusedChainOperator"]:
    """The fusion pass: chains reachable from ``root`` → fused operators.

    Walks the DAG exactly like the evaluator (never descending into nodes
    already ``materialized`` in the evaluation cache), finds maximal
    chains of fusable operators whose links are single-consumer edges, and
    returns a rewrite map ``{chain terminal id: FusedChainOperator}``.
    Single-operator "chains" are fused too — even one stage saves the
    per-record ``_call`` wrapping.  The original operators are untouched;
    the evaluator resolves nodes through the rewrite map per run, so plan
    caching, ``reset()`` and unfused re-execution keep working.

    ``certify=True`` runs the ``P4xx`` UDF shippability analyzer over
    every chain before returning and raises
    :class:`~repro.analysis.udfcheck.ShippabilityError` on the first
    unshippable one — the gate multi-process execution puts in front of
    shipping a compiled chain to a worker.
    """
    materialized = set(materialized)
    if root.id in materialized:
        return {}
    fusable = {}
    sole_consumer = {}  # parent id → unique consumer node, or None if shared
    stack = [root]
    seen = {root.id}
    while stack:
        node = stack.pop()
        if type(node) in _STAGE_KINDS and node.id not in materialized:
            fusable[node.id] = node
        if node.id in materialized:
            continue
        for parent in node.parents:
            if parent.id in sole_consumer:
                if sole_consumer[parent.id] is not node:
                    sole_consumer[parent.id] = None
            else:
                sole_consumer[parent.id] = node
            if parent.id not in seen:
                seen.add(parent.id)
                stack.append(parent)

    merged = {}  # fusable op id → the fusable consumer that absorbs it
    for op_id, op in fusable.items():
        consumer = sole_consumer.get(op_id)
        if consumer is not None and consumer.id in fusable:
            merged[op_id] = consumer

    rewrites = {}
    for op_id, op in fusable.items():
        if op_id in merged:
            continue  # interior of a chain, absorbed by its consumer
        chain = [op]
        head = op
        while True:
            parent = head.parents[0]
            if parent.id in fusable and merged.get(parent.id) is head:
                chain.append(parent)
                head = parent
            else:
                break
        chain.reverse()
        rewrites[op_id] = FusedChainOperator(
            op.environment, chain[0].parents[0], chain, batch_size
        )
    if certify and rewrites:
        # imported lazily: the analyzer is pure stdlib + diagnostics, but
        # fusion must stay importable without the analysis package
        from repro.analysis.udfcheck import certify_chain

        for fused in rewrites.values():
            certify_chain(fused)
    return rewrites
