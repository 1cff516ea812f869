"""Execution environment: owns parallelism, cost model, metrics and the
evaluator, including Flink-style bulk iterations.
"""

import contextlib
import threading

from .cost import ClusterCostModel
from .dataset import DataSet
from .errors import IterationError, PlanError
from .metrics import JobMetrics
from .modes import check_mode, legacy_mode
from .operators import ExecutionContext, PartitionedSourceOperator, SourceOperator


class JobScope:
    """One logical job's execution services: metrics and cancellation.

    Scopes are installed per thread (see :meth:`ExecutionEnvironment.job`),
    so concurrent jobs sharing one environment each record into their own
    :class:`JobMetrics` instead of interleaving runs in the environment's
    default accumulator.
    """

    __slots__ = ("metrics", "cancellation")

    def __init__(self, metrics, cancellation=None):
        self.metrics = metrics
        self.cancellation = cancellation


class ExecutionEnvironment:
    """A simulated shared-nothing cluster running dataflow jobs.

    Args:
        parallelism: Number of simulated workers; if ``cost_model`` is given
            its ``workers`` field wins and this may be omitted.
        cost_model: :class:`~repro.dataflow.cost.ClusterCostModel` used for
            spill thresholds and simulated runtimes.
        batch_size: Slice length of a fused chain over records (graph
            elements, frontier tuples): one cancellation poll per slice.
        mode: Default execution mode of :meth:`run`, one of
            :data:`~repro.dataflow.modes.MODES`.  ``"columnar"`` (the default) runs fused
            chains and joins over one partition of
            :class:`~repro.engine.columnar.EmbeddingChunk` batches and
            falls back per record, counted in
            :attr:`JobMetrics.chunk_fallbacks`, where a stage has no
            kernel.  ``"reference"`` runs every operator per record over
            ``parallelism`` partitions: the same rows, and the only path
            that prices the simulated cluster.
        workers: Number of **worker processes** (multi-process sharded
            execution, :mod:`repro.dataflow.workers`).  ``None`` (the
            default) keeps everything in-process.  Distinct from
            ``parallelism``: a columnar run with a pool keeps
            ``parallelism`` partitions; each worker process *owns*
            ``parallelism / workers`` of them.  Certified-shippable
            fused chains and hash-join partition pairs execute inside
            the pool; everything else — and every uncertified chain or
            sanitized/shared-cache run — transparently stays
            in-process.  The pool starts lazily on the first columnar
            run and is released by :meth:`shutdown_workers`.
    """

    def __init__(self, parallelism=None, cost_model=None, batch_size=None,
                 workers=None, mode="columnar", **legacy):
        if cost_model is None:
            cost_model = ClusterCostModel(workers=parallelism or 4)
        elif parallelism is not None and parallelism != cost_model.workers:
            cost_model = cost_model.with_workers(parallelism)
        if batch_size is None:
            from .fusion import DEFAULT_BATCH_SIZE

            batch_size = DEFAULT_BATCH_SIZE
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %r" % (batch_size,))
        self.cost_model = cost_model  # unsynchronized: immutable after init
        self.batch_size = batch_size  # unsynchronized: immutable after init
        self.mode = check_mode(legacy_mode(mode, **legacy))  # unsynchronized: immutable
        # the shared default accumulator: concurrent service queries never
        # record here (each runs under a per-thread job scope); only
        # single-threaded callers and reset_metrics touch it
        self.metrics = JobMetrics()  # unsynchronized: job scopes bypass it
        self._scopes = threading.local()  # unsynchronized: thread-local
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        self.workers = workers  # unsynchronized: immutable after init
        from repro.locks import named_lock

        self._pool_lock = named_lock("workers.env")
        self._worker_pool = None  # guarded-by: _pool_lock

    @property
    def parallelism(self):
        return self.cost_model.workers

    # Worker processes -------------------------------------------------------

    def worker_pool(self):
        """The lazily created worker pool; ``None`` without ``workers=``."""
        if self.workers is None:
            return None
        with self._pool_lock:
            if self._worker_pool is None:
                from .workers import WorkerPool

                self._worker_pool = WorkerPool(self.workers)
            return self._worker_pool

    def shutdown_workers(self):
        """Stop the worker pool (if any was started); idempotent."""
        with self._pool_lock:
            pool, self._worker_pool = self._worker_pool, None
        if pool is not None:
            pool.shutdown()

    # Job scoping ------------------------------------------------------------

    def _active_scope(self):
        stack = getattr(self._scopes, "stack", None)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def job(self, name="job", cancellation=None):
        """Install a per-thread job scope; yields its :class:`JobMetrics`.

        Every :meth:`run` / iteration primitive on this thread records into
        the scope's own metrics (not the shared default) and polls the
        scope's cancellation token until the ``with`` block exits.  Scopes
        nest; the innermost wins.  Other threads are unaffected, which is
        what makes one environment safe to share between concurrent
        service queries.
        """
        scope = JobScope(JobMetrics(name), cancellation)
        stack = getattr(self._scopes, "stack", None)
        if stack is None:
            stack = []
            self._scopes.stack = stack
        stack.append(scope)
        try:
            yield scope.metrics
        finally:
            stack.pop()

    @property
    def current_metrics(self):
        """The active scope's metrics, or the shared default accumulator."""
        scope = self._active_scope()
        return scope.metrics if scope is not None else self.metrics

    @property
    def current_cancellation(self):
        scope = self._active_scope()
        return scope.cancellation if scope is not None else None

    # Sources ----------------------------------------------------------------

    def from_collection(self, items, name=None):
        """Create a dataset from an in-memory iterable."""
        return DataSet(self, SourceOperator(self, items, name))

    def from_partitions(self, partitions, name=None):
        """Create a dataset from pre-partitioned data (one list per worker)."""
        return DataSet(self, PartitionedSourceOperator(self, partitions, name))

    # Metrics ------------------------------------------------------------------

    def reset_metrics(self, job_name="job"):
        """Start a fresh metrics scope; returns the previous one."""
        previous = self.metrics
        self.metrics = JobMetrics(job_name)
        return previous

    def simulated_runtime_seconds(self, metrics=None):
        """Simulated wall-clock time of ``metrics`` (default: active scope,
        falling back to everything since the last reset)."""
        if metrics is None:
            metrics = self.current_metrics
        return self.cost_model.job_seconds(metrics)

    # Evaluation ----------------------------------------------------------------

    def run(self, operator, cache=None, metrics=None, cancellation=None,
            mode=None, **legacy):
        """Evaluate the DAG rooted at ``operator``; returns partitions.

        ``cache`` (operator id → partitions) may be passed in and shared
        across several ``run`` calls to evaluate a DAG's common operators
        only once — EXPLAIN ANALYZE and the cardinality-estimate audit
        walk every plan node this way without quadratic recomputation.
        Shared-cache runs always take the reference path: fused chains
        would skip materializing their interior operators, breaking the
        per-node caching contract.

        ``mode`` overrides the environment's default mode for this run
        (``legacy`` takes its retired spellings, see
        :func:`~repro.dataflow.modes.legacy_mode`).  ``metrics`` and
        ``cancellation`` default to the thread's active :meth:`job`
        scope, so callers deep inside operator builds need no extra
        plumbing to participate in per-query scoping and deadlines.
        """
        if metrics is None:
            metrics = self.current_metrics
        if cancellation is None:
            cancellation = self.current_cancellation
        mode = legacy_mode(mode, **legacy)
        if mode is None:
            mode = self.mode
        columnar = check_mode(mode) == "columnar" and cache is None
        # the worker pool only ever sees columnar runs: reference and
        # shared-cache execution (sanitized runs, EXPLAIN ANALYZE) stay
        # in-process by construction
        pool = self.worker_pool() if columnar else None
        ctx = ExecutionContext(self, metrics, cancellation=cancellation,
                               pool=pool, columnar=columnar)
        out = self._evaluate(operator, {} if cache is None else cache, ctx)
        # a one-partition source hands out its own list: the caller gets copies
        return [p if hasattr(p, "chunks") else list(p) for p in out]

    def _evaluate(self, operator, cache, ctx):
        if operator.environment is not self:
            raise PlanError("operator belongs to a different environment")
        if operator.id in cache:
            return cache[operator.id]
        rewrites = None
        if ctx.columnar:
            from .fusion import plan_fusion

            rewrites = plan_fusion(
                operator, ctx.batch_size, materialized=cache
            ) or None
            if rewrites is not None:
                operator = rewrites.get(operator.id, operator)
        # Iterative post-order walk: deep Cypher plans (long join chains,
        # many expansion supersteps) would overflow Python's recursion limit.
        stack = [(operator, False)]
        while stack:
            node, expanded = stack.pop()
            if node.id in cache:
                continue
            if expanded:
                # batch boundary: one poll per operator execution
                ctx.poll()
                if rewrites is None:
                    parent_results = [
                        cache[parent.id] for parent in node.parents
                    ]
                else:
                    parent_results = [
                        cache[rewrites.get(parent.id, parent).id]
                        for parent in node.parents
                    ]
                result = node.execute(ctx, parent_results)
                cache[node.id] = result
                # a fused chain stands in for its terminal stage: alias
                # the result so later walks sharing this cache (e.g. the
                # emit branch of a superstep) see the terminal as done
                terminal_id = getattr(node, "terminal_id", None)
                if terminal_id is not None:
                    cache[terminal_id] = result
            else:
                stack.append((node, True))
                for parent in node.parents:
                    if rewrites is not None:
                        parent = rewrites.get(parent.id, parent)
                    if parent.id not in cache:
                        stack.append((parent, False))
        return cache[operator.id]

    # Bulk iteration -------------------------------------------------------------

    def iterate(
        self,
        initial,
        step,
        max_iterations,
        collect_emissions=True,
        name=None,
    ):
        """A Flink-style bulk iteration as a lazy DAG node.

        Args:
            initial: DataSet seeding the working set.
            step: ``step(working: DataSet, iteration: int) ->
                (next_working: DataSet, emit: DataSet | None)``.  Called once
                per superstep with a dataset view of the current working set;
                it must build and return lazy datasets in this environment.
            max_iterations: Hard superstep bound (paper: the path upper
                bound).
            collect_emissions: When True the result is the union of all
                ``emit`` datasets; when False it is the final working set.

        The iteration terminates early once the working set is empty, like
        Flink's empty-workset convergence criterion.  Nothing runs until
        the returned dataset is evaluated, and the loop re-runs on *every*
        evaluation, under the evaluating run's job scope: a prepared
        statement re-executes one compiled plan with different parameter
        bindings, and each binding expands its own paths.
        """
        from .operators import BulkIterationOperator

        if max_iterations < 0:
            raise IterationError("max_iterations must be >= 0")
        return DataSet(
            self,
            BulkIterationOperator(
                self,
                initial.operator,
                step,
                max_iterations,
                collect_emissions=collect_emissions,
                name=name or "bulk-iteration",
            ),
        )

    def delta_iterate(
        self,
        solution,
        key_fn,
        step,
        max_iterations,
        workset=None,
        metrics_scope=None,
    ):
        """Run a Flink-style delta iteration.

        The *solution set* is a keyed state (one record per key); the
        *workset* carries the records that changed last superstep.  Each
        superstep calls ``step(solution_ds, workset_ds, iteration)`` which
        must return a DataSet of **candidate solution records**; records
        whose key's stored value actually changes become the next workset,
        and the iteration converges when no record changes — Flink's
        delta-iteration contract, which lets algorithms like connected
        components touch only the moving frontier.

        Args:
            solution: DataSet seeding the solution set.
            key_fn: Extracts the solution key from a record.
            step: Callback building the candidate dataset (lazy).
            max_iterations: Superstep bound.
            workset: Optional initial workset DataSet (defaults to the
                full solution set).

        Returns:
            A materialized DataSet of the final solution records.
        """
        if max_iterations < 0:
            raise IterationError("max_iterations must be >= 0")
        metrics = metrics_scope if metrics_scope is not None else self.current_metrics
        cancellation = self.current_cancellation
        ctx = ExecutionContext(self, metrics, cancellation=cancellation)
        cache = {}
        solution_parts = self._evaluate(solution.operator, cache, ctx)
        state = {}
        for partition in solution_parts:
            for record in partition:
                state[key_fn(record)] = record
        if workset is None:
            working = [list(p) for p in solution_parts]
        else:
            working = self._evaluate(workset.operator, dict(cache), ctx)

        for iteration in range(1, max_iterations + 1):
            if sum(len(p) for p in working) == 0:
                break
            step_ctx = ExecutionContext(
                self, metrics, iteration=iteration, cancellation=cancellation
            )
            solution_ds = self.from_partitions(
                [list(p) for p in _partition_values(state, self.parallelism)],
                name="delta-solution",
            )
            workset_ds = self.from_partitions(working, name="delta-workset")
            candidates_ds = step(solution_ds, workset_ds, iteration)
            if candidates_ds is None:
                raise IterationError("step returned no candidate dataset")
            candidate_parts = self._evaluate(
                candidates_ds.operator, {}, step_ctx
            )
            changed = [[] for _ in range(self.parallelism)]
            for worker, partition in enumerate(candidate_parts):
                for record in partition:
                    key = key_fn(record)
                    if key not in state:
                        raise IterationError(
                            "delta iteration produced unknown key %r" % (key,)
                        )
                    if state[key] != record:
                        state[key] = record
                        changed[worker].append(record)
            working = changed

        return self.from_partitions(
            [list(p) for p in _partition_values(state, self.parallelism)],
            name="delta-result",
        )


def _partition_values(state, parallelism):
    """Deterministically spread the solution records over workers."""
    from .partitioner import partition_index

    partitions = [[] for _ in range(parallelism)]
    for key, record in state.items():
        partitions[partition_index(key, parallelism)].append(record)
    return partitions
