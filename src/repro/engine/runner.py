"""CypherRunner: parse → plan → execute → post-process.

The entry point behind :meth:`LogicalGraph.cypher` (paper §3): compiles a
query string into a physical plan via the greedy planner, runs it on the
dataflow substrate, and turns the resulting embeddings into the
:class:`~repro.epgm.GraphCollection` the EPGM operator contract requires
(Definition 2.4).  Variable bindings are attached as properties on the
result graph heads so arbitrary post-processing remains possible (§2.3).

There is one compile step, :meth:`CypherRunner.prepare`: a query text
becomes one cached :class:`~repro.engine.prepared.PreparedStatement`,
and every execution runs that statement with its ``$parameters`` bound.
"""

import itertools

from repro.analysis.linter import lint_query
from repro.cache import LRUCache
from repro.dataflow.dataset import records_of
from repro.dataflow.modes import legacy_mode
from repro.epgm import GraphCollection, GraphHead, PropertyValue
from repro.locks import named_lock

from .columnar import RecordTexts
from .morphism import DEFAULT_EDGE_STRATEGY, DEFAULT_VERTEX_STRATEGY
from .planning import GreedyPlanner
from .prepared import PreparedStatement
from .result import build_table
from .statistics import GraphStatistics

#: default bound of a runner-private plan cache; the serving layer passes
#: a larger shared cache instead
DEFAULT_PLAN_CACHE_SIZE = 64

_graph_tokens = itertools.count()


def _graph_cache_token(graph):
    """A process-unique, lifetime-stable identity for ``graph``.

    ``id()`` alone can be recycled after garbage collection, which would
    let a dead graph's cached plans leak into a new graph allocated at the
    same address; a monotone token attached on first use cannot collide.
    """
    token = getattr(graph, "_plan_cache_token", None)
    if token is None:
        token = next(_graph_tokens)
        graph._plan_cache_token = token
    return token


class CypherRunner:
    """Executes Cypher pattern-matching queries against one logical graph."""

    def __init__(
        self,
        graph,
        vertex_strategy=None,
        edge_strategy=None,
        statistics=None,
        planner_cls=GreedyPlanner,
        lint=True,
        sanitize=False,
        plan_cache=None,
        mode=None,
        **legacy
    ):
        self.graph = graph
        #: execution-mode override for this runner's executions: ``None``
        #: inherits the environment default, ``"reference"`` forces the
        #: per-record path (``legacy`` takes its retired keywords, see
        #: :func:`~repro.dataflow.modes.legacy_mode`).  Sanitized
        #: execution is always the reference regardless (the sanitizer's
        #: per-boundary wrappers must see every intermediate).
        self.mode = legacy_mode(mode, **legacy)
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self._statistics = statistics
        self.planner_cls = planner_cls
        self.lint_enabled = lint
        #: warnings from the most recent compile (errors raise instead)
        self.last_diagnostics = []
        #: the EmbeddingSanitizer of the most recent compile, or None
        self.last_sanitizer = None
        #: bounded LRU of prepared statements; pass a shared
        #: :class:`repro.cache.LRUCache` to pool them across runners
        #: (the query service does)
        self._plan_cache = (
            plan_cache
            if plan_cache is not None
            else LRUCache(DEFAULT_PLAN_CACHE_SIZE)
        )
        self._compile_lock = named_lock("runner.compile")
        self.sanitize = False
        self.set_sanitize(sanitize)

    @property
    def plan_cache(self):
        return self._plan_cache

    def set_sanitize(self, sanitize):
        """Switch sanitized (instrumented) execution on or off.

        ``sanitize`` is ``False`` (plain execution, the default), ``True``
        (validate every embedding at every operator boundary and raise
        :class:`~repro.analysis.SanitizerError` on the first finding) or
        ``'collect'`` (validate but accumulate findings on
        ``last_sanitizer.diagnostics``).
        Instrumentation is baked into compiled plans; the plan-cache key
        includes the mode, so toggling switches to a different cache slice
        instead of clearing a cache that may be shared with other runners.
        """
        if sanitize not in (False, True, "collect"):
            raise ValueError(
                "sanitize must be False, True or 'collect', not %r"
                % (sanitize,)
            )
        self.sanitize = sanitize
        self.last_sanitizer = None

    @property
    def statistics(self):
        if self._statistics is None:
            self._statistics = GraphStatistics.from_graph(self.graph)
        return self._statistics

    # Compilation -------------------------------------------------------------

    def lint(self, query):
        """Static diagnostics for ``query`` against this graph's statistics.

        Returns the sorted :class:`~repro.analysis.Diagnostic` list without
        raising; callers decide how to treat errors.
        """
        return lint_query(query, statistics=self.statistics)

    def prepare(self, query):
        """The :class:`~repro.engine.prepared.PreparedStatement` of ``query``.

        The one compile step.  With ``lint=True`` (the default) the query
        is linted first: blocking diagnostics (binding errors the compiler
        would reject anyway) raise
        :class:`~repro.analysis.diagnostics.QueryLintError` before any
        planning happens; everything else — including
        unsatisfiable-but-legal predicates — is kept on
        ``last_diagnostics``.  ``$name`` placeholders stay unbound: each
        execution binds its values and re-runs the *same* physical plan.

        Statements live in a bounded LRU cache keyed on the graph, the
        statistics version, the query text, the morphism strategies, the
        planner and the instrumentation mode (:meth:`plan_cache_key`) —
        re-running the same text skips parsing, linting and planning
        whatever its binding, while a statistics bump (graph mutation)
        makes every stale statement unreachable.  One compile lock per
        runner makes racing first uses compile once, and a cold text
        counts one cache miss.
        """
        key = self.plan_cache_key(query)
        cache = self._plan_cache
        statement = cache.get(key)
        if statement is None:
            with self._compile_lock:
                # a racing compile may have finished meanwhile; ``in``
                # leaves the hit/miss counters alone
                if key in cache:
                    statement = cache.get(key)
                if statement is None:
                    statement = PreparedStatement(self, query)
                    cache.put(key, statement)
        self.last_diagnostics = statement.diagnostics
        self.last_sanitizer = statement.sanitizer
        return statement

    def compile(self, query):
        """``(QueryHandler, root physical operator)`` of ``query``'s
        prepared statement (:meth:`prepare`)."""
        statement = self.prepare(query)
        return statement.handler, statement.root

    def plan(self, handler):
        """``(root, sanitizer)``: ``handler``'s physical plan under this
        runner's planner and strategies, instrumented when ``sanitize``
        is set (``sanitizer`` is ``None`` otherwise).  Prepared
        statements plan through here.
        """
        root = self.planner_cls(
            self.graph,
            handler,
            self.statistics,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
        ).plan()
        if not self.sanitize:
            return root, None
        # the sanitizer import is lazy: the analysis package imports the
        # engine, which is mid-initialization when this module first loads
        from repro.analysis.sanitizer import EmbeddingSanitizer

        sanitizer = EmbeddingSanitizer(
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
            mode="collect" if self.sanitize == "collect" else "raise",
        ).attach(root)
        return root, sanitizer

    def plan_cache_key(self, query):
        """The cache key of ``query``'s prepared statement under this
        runner's settings; parameter values are not part of it."""
        return (
            "prepared",
            _graph_cache_token(self.graph),
            getattr(self.statistics, "version", 0),
            query,
            self.planner_cls.__name__,
            self.vertex_strategy,
            self.edge_strategy,
            self.sanitize,
        )

    def explain(self, query):
        """EXPLAIN output: the physical plan with cardinality estimates."""
        _, root = self.compile(query)
        return root.explain()

    def explain_analyze(self, query, parameters=None):
        """EXPLAIN ANALYZE: the plan with estimated *and* actual row counts.

        Executes the query (every sub-plan), so use it for diagnostics, not
        on hot paths.
        """
        with self.prepare(query).bound(parameters) as root:
            return root.explain(analyze=True)

    def audit_estimates(self, query, parameters=None, max_q_error=None):
        """Cardinality-estimate audit: per-operator q-error for ``query``.

        Executes the compiled plan once (shared dataflow cache) and
        returns an :class:`~repro.analysis.EstimateAudit`; operators whose
        estimate is off by more than ``max_q_error`` carry an ``S211``
        diagnostic.
        """
        from repro.analysis.estimates import (
            DEFAULT_MAX_Q_ERROR,
            audit_estimates,
        )

        if max_q_error is None:
            max_q_error = DEFAULT_MAX_Q_ERROR
        with self.prepare(query).bound(parameters) as root:
            return audit_estimates(root, max_q_error=max_q_error)

    def analyze(self, query):
        """The static :class:`~repro.analysis.PlanAnalysis` of ``query``.

        Compiles (through the plan cache) and analyzes the physical plan
        under this runner's strategies: structural invariants (``S300``),
        the §3.3 layout flow (``S301``–``S306``) and dead bytes below the
        RETURN clause's demand (``S401``–``S403``).
        """
        from repro.analysis.plan import analyze_plan

        handler, root = self.compile(query)
        return analyze_plan(
            root,
            handler,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
        )

    def check_shippable(self, query):
        """Shippability report over every UDF in ``query``'s dataflow.

        Builds the compiled plan's dataset DAG (without executing it) and
        classifies every installed callable with the ``P4xx`` analyzer —
        the gate the upcoming multi-process execution requires before
        shipping work to worker processes.  Dataflow nodes are mapped back
        to the query element that compiled them, so findings carry source
        spans.
        """
        from repro.analysis.udfcheck import analyze_dataflow

        _, root = self.compile(query)
        dataflow_root = root.evaluate().operator
        return analyze_dataflow(
            dataflow_root, spans=self._dataflow_spans(root)
        )

    def _dataflow_spans(self, root):
        """``id(dataflow node) -> Span`` for the plan rooted at ``root``.

        Visits physical operators children-first; each claims the dataflow
        nodes reachable from its output dataset that no child already
        claimed, and stamps them with its query element's span.  Nodes
        compiled from span-less operators (joins, projections) simply stay
        unstamped.
        """
        spans = {}
        for operator in root.postorder():
            span = operator.span()
            walk = [operator.evaluate().operator]
            while walk:
                node = walk.pop()
                if id(node) in spans:
                    continue  # a child's node: already attributed
                spans[id(node)] = span
                walk.extend(getattr(node, "parents", ()))
                walk.extend(getattr(node, "subplans", ()))
        return {key: value for key, value in spans.items() if value is not None}

    # Execution ------------------------------------------------------------------

    def execution_mode(self):
        """The ``mode`` argument this runner's executions should pass."""
        return "reference" if self.sanitize else self.mode

    def _batches(self, query, parameters):
        """``(statement, batches)``: ``query``'s statement run under
        ``parameters`` in the caller's job scope."""
        statement = self.prepare(query)
        with statement.bound(parameters) as root:
            batches = root.evaluate().batches(mode=self.execution_mode())
        return statement, batches

    def execute_embeddings(self, query, parameters=None):
        """``(embeddings, meta)`` — the raw relational result."""
        statement, batches = self._batches(query, parameters)
        return records_of(batches), statement.root.meta

    def execute(self, query, attach_bindings=True, parameters=None):
        """The EPGM pattern-matching operator: a GraphCollection of matches."""
        embeddings, meta = self.execute_embeddings(query, parameters)
        return self._build_collection(embeddings, meta, attach_bindings)

    def execute_table(self, query, parameters=None):
        """Neo4j-style tabular result honouring the RETURN clause.

        Returns a list of dicts keyed by alias/expression text.  ``RETURN *``
        yields one column per variable with the bound identifier(s).
        Supports aggregates (count/sum/min/max/avg/collect) with implicit
        grouping over the non-aggregate items, plus DISTINCT, ORDER BY,
        SKIP and LIMIT.
        """
        statement, batches = self._batches(query, parameters)
        return self.build_table(
            statement.handler, batches, statement.root.meta
        ).rows()

    def build_table(self, handler, batches, meta, token=None):
        """The :class:`~repro.engine.result.ResultTable` of result ``batches``.

        The post-processing half of :meth:`execute_table`, split out so
        callers that manage execution themselves (the query service)
        share the one RETURN evaluator.  ``batches`` is
        what :meth:`repro.dataflow.DataSet.batches` yields.
        """
        return build_table(
            handler.ast.returns, batches, meta, token, self.record_texts()
        )

    def record_texts(self):
        """The :class:`~repro.engine.columnar.RecordTexts` a table of this
        runner writes its records through: on the columnar path the graph's
        resident one, which each distinct record fills once; else a fresh
        one (the reference path keeps nothing resident)."""
        graph = self.graph
        if (self.execution_mode() or graph.environment.mode) == "columnar":
            return graph.resident(("texts",), RecordTexts)
        return RecordTexts()

    def build_rows(self, handler, embeddings, meta):
        """Tabular rows (a list of dicts) for already-collected embeddings."""
        return self.build_table(handler, [list(embeddings)], meta).rows()

    # Post-processing -----------------------------------------------------------------

    def _build_collection(self, embeddings, meta, attach_bindings):
        vertices_by_id = {v.id: v for v in self.graph.collect_vertices()}
        edges_by_id = {e.id: e for e in self.graph.collect_edges()}
        heads = []
        result_vertices = {}
        result_edges = {}

        for embedding in embeddings:
            head = GraphHead(self.graph.id_factory.next_id(), label="match")
            bound_vertices, bound_edges = set(), set()
            for variable in meta.variables:
                column = meta.entry_column(variable)
                kind = meta.entry_kind(variable)
                if kind == "v":
                    vid = embedding.id_at(column)
                    bound_vertices.add(vid)
                    if attach_bindings:
                        head.set_property(variable, PropertyValue(vid.value))
                elif kind == "e":
                    eid = embedding.id_at(column)
                    bound_edges.add(eid)
                    if attach_bindings:
                        head.set_property(variable, PropertyValue(eid.value))
                else:  # path
                    via = embedding.path_at(column)
                    for index, gid in enumerate(via):
                        (bound_edges if index % 2 == 0 else bound_vertices).add(gid)
                    if attach_bindings:
                        head.set_property(
                            variable, PropertyValue([g.value for g in via])
                        )
            if attach_bindings:
                for variable, key in meta.property_entries():
                    value = embedding.property_at(meta.property_index(variable, key))
                    if not value.is_null:
                        head.set_property("%s.%s" % (variable, key), value)
            heads.append(head)
            # Definition 2.4: matched elements join the new logical graph
            for vid in bound_vertices:
                vertex = vertices_by_id[vid]
                vertex.add_graph_id(head.id)
                result_vertices[vid] = vertex
            for eid in bound_edges:
                edge = edges_by_id[eid]
                edge.add_graph_id(head.id)
                result_edges[eid] = edge

        environment = self.graph.environment
        return GraphCollection(
            environment,
            environment.from_collection(heads, name="match-heads"),
            environment.from_collection(
                list(result_vertices.values()), name="match-vertices"
            ),
            environment.from_collection(
                list(result_edges.values()), name="match-edges"
            ),
        )
