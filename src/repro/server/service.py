"""The concurrent query service: admission control, deadlines, caching.

:class:`QueryService` turns the single-threaded engine into a shared
service.  Queries run on a bounded thread pool; admission is *fast-fail*
— when ``max_concurrency`` workers are busy and ``max_queue`` queries
wait, a new submission raises :class:`AdmissionError` immediately
instead of stacking unbounded work (the client sees back-pressure, the
service keeps its latency profile).  Every query runs under its own
:class:`~repro.dataflow.CancellationToken`; operators poll it at batch
boundaries, so a deadline cancels a running query cooperatively within
one batch of work and frees the worker.

Concurrency model, in one paragraph: compiled plans are *immutable* DAG
descriptions — each execution calls ``environment.run`` which builds a
fresh per-run dataset cache and threads a per-job scope (metrics +
cancellation) through thread-local state, so any number of workers can
execute the same cached plan simultaneously without sharing mutable
state.  The two exceptions are serialized explicitly: a statement with
``$parameters`` shares one mutable binding (the statement's RLock
serializes its bound executions) and compilation fills the shared plan
cache (one compile lock per runner).  Every request runs the same way:
its text's prepared statement, with the request's parameters bound.
"""

import gc
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cache import LRUCache
from repro.dataflow.cancellation import CancellationToken, QueryTimeout
from repro.engine import CypherRunner, GreedyPlanner
from repro.engine.runner import _graph_cache_token
from repro.locks import named_lock

from .cache import ResultCache, prepared_cache_key
from .metrics import ServiceMetrics
from .registry import GraphRegistry

#: plans are small (operator trees), so the shared default can be generous
DEFAULT_PLAN_CACHE_SIZE = 256


class AdmissionError(RuntimeError):
    """The service is saturated; the query was rejected, not queued."""


class ServiceClosedError(RuntimeError):
    """The service has been shut down and accepts no new queries."""


def _json_default(value):
    """Rows may hold GradoopIds and other engine objects; stringify them."""
    return str(value)


class QueryResult:
    """Everything the service reports about one completed query."""

    __slots__ = (
        "graph",
        "query",
        "parameters",
        "table",
        "_rows",
        "elapsed_seconds",
        "queue_seconds",
        "simulated_seconds",
        "plan_cache_hit",
        "result_cache_hit",
        "prepared",
    )

    def __init__(self, graph, query, parameters, table, elapsed_seconds,
                 queue_seconds, simulated_seconds, plan_cache_hit,
                 result_cache_hit, prepared):
        self.graph = graph
        self.query = query
        self.parameters = parameters
        #: the :class:`~repro.engine.result.ResultTable`, column-wise
        self.table = table
        self._rows = None
        self.elapsed_seconds = elapsed_seconds
        self.queue_seconds = queue_seconds
        self.simulated_seconds = simulated_seconds
        self.plan_cache_hit = plan_cache_hit
        self.result_cache_hit = result_cache_hit
        self.prepared = prepared

    @property
    def rows(self):
        """The result as a list of dicts, built on first use."""
        if self._rows is None:
            self._rows = self.table.rows()
        return self._rows

    @property
    def row_count(self):
        return len(self.table)

    def _report(self):
        return {
            "row_count": self.row_count,
            "elapsed_seconds": self.elapsed_seconds,
            "queue_seconds": self.queue_seconds,
            "simulated_seconds": self.simulated_seconds,
            "plan_cache_hit": self.plan_cache_hit,
            "result_cache_hit": self.result_cache_hit,
            "prepared": self.prepared,
        }

    def to_dict(self):
        return {"graph": self.graph, "rows": self.rows, **self._report()}

    def encode(self):
        """The JSON body as a list of buffers: head, row fragments, tail.

        Byte for byte ``json.dumps(self.to_dict(), default=_json_default)``,
        written from the table's columns, one fragment per result batch
        (:meth:`~repro.engine.result.ResultTable.json_rows`); no row dict
        is built, and a property record's text comes from the graph's
        resident memo, made once per distinct record.
        """
        buffers = [('{"graph": %s, "rows": [' % json.dumps(self.graph)).encode("ascii")]
        for fragment in self.table.json_rows():
            buffers.append(fragment)
            buffers.append(b", ")
        if self.table.batches:
            buffers.pop()
        buffers.append(("], " + json.dumps(self._report())[1:]).encode("ascii"))
        return buffers

    def __repr__(self):
        return "QueryResult(%d rows, %.3fs, plan_hit=%s)" % (
            self.row_count, self.elapsed_seconds, self.plan_cache_hit,
        )


class PreparedHandle:
    """What :meth:`QueryService.prepare` returns: id + declared parameters."""

    __slots__ = ("statement_id", "graph", "parameter_names", "plan_cache_hit")

    def __init__(self, statement_id, graph, parameter_names, plan_cache_hit):
        self.statement_id = statement_id
        self.graph = graph
        self.parameter_names = parameter_names
        self.plan_cache_hit = plan_cache_hit

    def to_dict(self):
        return {
            "statement_id": self.statement_id,
            "graph": self.graph,
            "parameter_names": list(self.parameter_names),
            "plan_cache_hit": self.plan_cache_hit,
        }


class QueryService:
    """A thread-pooled Cypher query executor over a graph registry."""

    def __init__(
        self,
        registry=None,
        max_concurrency=4,
        max_queue=16,
        default_timeout=None,
        planner_cls=GreedyPlanner,
        vertex_strategy=None,
        edge_strategy=None,
        plan_cache_size=DEFAULT_PLAN_CACHE_SIZE,
        result_cache_size=0,
        lint=True,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.registry = registry if registry is not None else GraphRegistry()
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.planner_cls = planner_cls
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self.lint = lint
        #: one LRU of prepared statements shared by every runner the
        #: service creates
        self.plan_cache = LRUCache(plan_cache_size, name="cache.plan")
        #: result tables; off unless result_cache_size > 0
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-query"
        )
        self._capacity = max_concurrency + max_queue
        self._admission_lock = named_lock("service.admission")
        self._occupancy = 0  # guarded-by: _admission_lock
        self._closed = False  # guarded-by: _admission_lock
        # (graph name, graph token) -> CypherRunner; a replaced graph gets
        # a new token and therefore a fresh runner
        self._runner_lock = named_lock("service.runner")
        self._runners = {}  # guarded-by: _runner_lock
        self._statement_lock = named_lock("service.statement")
        self._statements = {}  # guarded-by: _statement_lock
        # itertools.count.__next__ is atomic under the GIL
        self._statement_ids = itertools.count(1)  # unsynchronized: atomic count

    # Graph management --------------------------------------------------------

    def register_graph(self, name, graph, statistics=None):
        return self.registry.register(name, graph, statistics)

    def _runner(self, entry):
        key = (entry.name, _graph_cache_token(entry.graph))
        with self._runner_lock:
            runner = self._runners.get(key)
            if runner is None:
                runner = CypherRunner(
                    entry.graph,
                    statistics=entry.statistics,
                    planner_cls=self.planner_cls,
                    vertex_strategy=self.vertex_strategy,
                    edge_strategy=self.edge_strategy,
                    lint=self.lint,
                    plan_cache=self.plan_cache,
                )
                self._runners[key] = runner
            return runner

    # Submission --------------------------------------------------------------

    def submit(self, graph, query, parameters=None, timeout=None,
               prepared=False):
        """Admit a query and return its ``Future`` (non-blocking).

        Raises :class:`AdmissionError` *immediately* when
        ``max_concurrency + max_queue`` queries are already in the
        service — fast-fail back-pressure instead of unbounded queueing.
        """
        with self._admission_lock:
            if self._closed:
                raise ServiceClosedError("query service is shut down")
            if self._occupancy >= self._capacity:
                self.metrics.on_reject()
                raise AdmissionError(
                    "service saturated: %d queries in flight or queued "
                    "(capacity %d = %d workers + %d queue slots)"
                    % (self._occupancy, self._capacity,
                       self.max_concurrency, self.max_queue)
                )
            self._occupancy += 1
        self.metrics.on_submit()
        submitted = time.perf_counter()
        try:
            return self._executor.submit(
                self._run, graph, query, parameters, timeout, prepared,
                submitted,
            )
        except BaseException:
            self.metrics.on_abandon()
            with self._admission_lock:
                self._occupancy -= 1
            raise

    def execute(self, graph, query, parameters=None, timeout=None,
                prepared=False):
        """Admit, run and wait: the blocking convenience wrapper."""
        return self.submit(
            graph, query, parameters=parameters, timeout=timeout,
            prepared=prepared,
        ).result()

    # Prepared statements -----------------------------------------------------

    def prepare(self, graph, query):
        """Compile ``query`` once; returns a :class:`PreparedHandle`.

        The statement itself lives in the shared plan cache, so preparing
        the same query on the same graph twice returns a second handle to
        the *same* compiled plan (``plan_cache_hit=True``).
        """
        runner = self._runner(self.registry.get(graph))
        statement, hit = self._statement(runner, query)
        statement_id = "stmt-%d" % next(self._statement_ids)
        with self._statement_lock:
            self._statements[statement_id] = (graph, query)
        return PreparedHandle(
            statement_id, graph, statement.parameter_names, hit
        )

    def execute_prepared(self, statement_id, parameters=None, timeout=None):
        """Run a previously prepared statement with fresh bindings."""
        try:
            with self._statement_lock:
                graph, query = self._statements[statement_id]
        except KeyError:
            raise KeyError("unknown statement id %r" % statement_id)
        return self.execute(
            graph, query, parameters=parameters, timeout=timeout,
            prepared=True,
        )

    def _statement(self, runner, query):
        """``(statement, was_cached)``: ``query``'s prepared statement.

        ``in`` does not touch the hit/miss counters, so the probe for the
        flag leaves :meth:`CypherRunner.prepare` to count the one lookup.
        """
        hit = prepared_cache_key(runner, query) in self.plan_cache
        return runner.prepare(query), hit

    # Execution (worker side) -------------------------------------------------

    def _run(self, graph, query, parameters, timeout, prepared, submitted):
        started = time.perf_counter()
        self.metrics.on_start(started - submitted)
        outcome = "failed"
        try:
            result = self._execute_query(
                graph, query, parameters, timeout, prepared, submitted,
                started,
            )
            outcome = "completed"
            return result
        except QueryTimeout:
            outcome = "timeout"
            raise
        finally:
            self.metrics.on_finish(time.perf_counter() - submitted, outcome)
            with self._admission_lock:
                self._occupancy -= 1

    def _execute_query(self, graph, query, parameters, timeout, prepared,
                       submitted, started):
        entry = self.registry.get(graph)
        runner = self._runner(entry)
        if timeout is None:
            timeout = self.default_timeout
        token = (
            CancellationToken.with_timeout(timeout)
            if timeout is not None
            else CancellationToken()
        )
        # the deadline may already have passed while the query queued
        token.poll()
        queue_seconds = started - submitted

        # what the body reports; every text runs as a prepared statement
        prepared = bool(prepared or parameters or "$" in query)
        hit, table = self.result_cache.get(runner, query, parameters)
        if hit:
            return QueryResult(
                graph, query, parameters, table,
                elapsed_seconds=time.perf_counter() - submitted,
                queue_seconds=queue_seconds,
                simulated_seconds=0.0,
                plan_cache_hit=True,
                result_cache_hit=True,
                prepared=prepared,
            )

        environment = entry.graph.environment
        statement, plan_hit = self._statement(runner, query)
        with statement.bound(parameters) as root, environment.job(
            "service:%s" % graph, cancellation=token
        ) as job_metrics:
            batches = root.evaluate().batches(mode=runner.execution_mode())
        # the deadline still holds while the result's columns decode
        table = runner.build_table(statement.handler, batches, root.meta, token)

        self.metrics.on_job(job_metrics, table)
        self.result_cache.put(runner, query, parameters, table)
        return QueryResult(
            graph, query, parameters, table,
            elapsed_seconds=time.perf_counter() - submitted,
            queue_seconds=queue_seconds,
            simulated_seconds=environment.simulated_runtime_seconds(
                job_metrics
            ),
            plan_cache_hit=plan_hit,
            result_cache_hit=False,
            prepared=prepared,
        )

    # Introspection / lifecycle ----------------------------------------------

    def metrics_snapshot(self):
        snapshot = self.metrics.snapshot(
            plan_cache=self.plan_cache,
            result_cache=(
                self.result_cache._cache if self.result_cache.enabled else None
            ),
        )
        entries = self.registry.entries()
        snapshot["graphs"] = [entry.name for entry in entries]
        # the mode requests actually run in; every stage of a columnar
        # run that executed per-record instead is in ``chunk_fallbacks``
        snapshot["engine"]["mode"] = "/".join(sorted({
            entry.graph.environment.mode for entry in entries
        }))
        # what the registered graphs keep resident: the adjacency for
        # expansions, the tables and value indexes of the leaves (and how
        # the leaves that ran selected their rows)
        adjacency = dict.fromkeys(
            ("labels", "edges", "bytes", "pair_indexes", "hop_joins",
             "pair_joins", "lookup_joins", "lookup_passthroughs"), 0
        )
        leaves = dict.fromkeys(
            ("tables", "bytes", "indexes", "texts", "all_rows", "probes",
             "scans"), 0
        )
        for entry in entries:
            for key, value in entry.graph.adjacency_stats().items():
                adjacency[key] += value
            for key, value in entry.graph.leaf_stats().items():
                leaves[key] += value
        snapshot["engine"]["adjacency"] = adjacency
        snapshot["engine"]["leaves"] = leaves
        snapshot["capacity"] = {
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
        }
        with self._statement_lock:
            snapshot["statements"] = len(self._statements)
        # ``frozen`` > 0 says the serving process froze its graph heap
        # (``repro serve`` does); ``collections[2]`` counts the full
        # collections requests have absorbed since start-up
        snapshot["gc"] = {
            "frozen": gc.get_freeze_count(),
            "collections": [
                generation["collections"] for generation in gc.get_stats()
            ],
        }
        return snapshot

    @property
    def closed(self):
        with self._admission_lock:
            return self._closed

    def close(self, wait=True):
        """Stop admitting queries; optionally wait for in-flight ones."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)
        # worker-process pools of the served graphs outlive individual
        # queries; tear them down with the service so ``serve`` exits
        # without leaking processes or shared-memory segments
        for name in self.registry.names():
            try:
                entry = self.registry.get(name)
            except Exception:  # racing remove(); nothing left to stop
                continue
            entry.graph.environment.shutdown_workers()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
