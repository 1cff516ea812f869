"""Prepared statements: compile once, execute many times with new bindings.

The openCypher semantics work (Francis et al.) specifies query parameters
as *the* mechanism for plan reuse across invocations: the query text is
constant, only ``$name`` values change.  A :class:`PreparedStatement`
compiles such a query into one physical plan whose predicate tree holds
:class:`~repro.cypher.parameters.ParameterSlot` nodes instead of literals;
each :meth:`execute` call assigns a fresh value set to the shared
:class:`~repro.cypher.parameters.ParameterBinding` and re-runs the *same*
plan — no parsing, linting or planning on the hot path.

Bind-time validation reuses the static linter: the original AST is bound
eagerly with the candidate values and re-linted, so a value that makes a
predicate unsatisfiable or type-inconsistent (``p.name STARTS WITH 42``)
is rejected with the linter's structured diagnostics before any operator
runs.

Executions are serialized per statement (the binding is shared mutable
state); different statements — and different plain queries — still run
concurrently.  The query service hands out one statement object per
``(graph, query)`` for exactly this reason.
"""

from repro.analysis.diagnostics import QueryLintError
from repro.analysis.linter import lint_query
from repro.cypher.parameters import (
    ParameterBinding,
    bind_parameters,
    find_parameters,
    parameterize,
)
from repro.cypher.parser import parse
from repro.cypher.query_graph import QueryHandler
from repro.dataflow.cancellation import CancellationToken
from repro.dataflow.dataset import records_of
from repro.locks import named_rlock


class PreparedStatement:
    """One compiled plan plus the machinery to rebind and re-execute it."""

    def __init__(self, runner, query):
        if not isinstance(query, str):
            raise TypeError("prepared statements need the query text")
        self.runner = runner
        self.text = query
        self._ast = parse(query)
        #: the ``$names`` the query declares, in sorted order
        self.parameter_names = tuple(sorted(find_parameters(self._ast)))
        self._binding = ParameterBinding(self.parameter_names)
        #: diagnostics from the most recent bind-time lint
        self.last_diagnostics = []  # guarded-by: _lock
        #: executions completed so far (monotone)
        self.executions = 0  # guarded-by: _lock
        self._lock = named_rlock("statement")

        if runner.lint_enabled:
            diagnostics = lint_query(self._ast, statistics=runner.statistics)
            if any(d.is_blocking for d in diagnostics):
                raise QueryLintError(diagnostics, query_text=query)
            self.last_diagnostics = diagnostics

        slotted = parameterize(self._ast, self._binding)
        self.handler = QueryHandler(slotted)
        self.root, self.sanitizer = runner.plan(self.handler)

    # Binding ----------------------------------------------------------------

    def validate(self, parameters):
        """Bind-time diagnostics for ``parameters`` without executing.

        Binds the original AST eagerly with the candidate values and runs
        the full static linter over the result, so the interval/type
        solver sees the concrete literals.  Returns the diagnostics;
        raises :class:`QueryLintError` when any is blocking.
        """
        bound = bind_parameters(self._ast, parameters or {})
        diagnostics = lint_query(bound, statistics=self.runner.statistics)
        if any(d.is_blocking for d in diagnostics):
            raise QueryLintError(diagnostics, query_text=self.text)
        return diagnostics

    # Execution --------------------------------------------------------------

    def run(self, parameters=None, timeout=None, cancellation=None,
            validate=None):
        """``(embeddings, meta, job_metrics)`` for one binding of the plan.

        ``timeout`` (seconds) installs a per-execution deadline;
        ``cancellation`` passes an externally controlled token instead.
        ``validate`` defaults to the runner's ``lint`` setting.
        """
        batches, meta, metrics = self.batches(
            parameters, timeout=timeout, cancellation=cancellation,
            validate=validate,
        )
        return records_of(batches), meta, metrics

    def batches(self, parameters=None, timeout=None, cancellation=None,
                validate=None):
        """:meth:`run`, with the result as a one-shot iterator of batches.

        The plan has executed when this returns; the batches are what
        the result table is built from
        (see :meth:`repro.dataflow.DataSet.batches`).
        """
        if validate is None:
            validate = self.runner.lint_enabled
        diagnostics = self.validate(parameters) if validate else None
        token = cancellation
        if token is None and timeout is not None:
            token = CancellationToken.with_timeout(timeout)
        with self._lock:
            if diagnostics is not None:
                self.last_diagnostics = diagnostics
            self._binding.assign(parameters or {})
            environment = self.runner.graph.environment
            # instrumentation baked into this plan decides the mode, not the
            # runner's *current* sanitize flag (they may have diverged)
            mode = (
                "reference" if self.sanitizer is not None else self.runner.mode
            )
            with environment.job("prepared", cancellation=token) as metrics:
                batches = self.root.evaluate().batches(mode=mode)
            self.executions += 1
            return batches, self.root.meta, metrics

    def execute_embeddings(self, parameters=None, timeout=None,
                           cancellation=None, validate=None):
        """``(embeddings, meta)`` for one binding of the prepared plan."""
        embeddings, meta, _ = self.run(
            parameters, timeout=timeout, cancellation=cancellation,
            validate=validate,
        )
        return embeddings, meta

    def execute_table(self, parameters=None, timeout=None, cancellation=None,
                      validate=None):
        """Neo4j-style rows honouring the RETURN clause (see the runner)."""
        batches, meta, _ = self.batches(
            parameters, timeout=timeout, cancellation=cancellation,
            validate=validate,
        )
        return self.runner.build_table(self.handler, batches, meta).rows()

    def execute(self, parameters=None, attach_bindings=True, timeout=None,
                cancellation=None, validate=None):
        """The EPGM operator result: a GraphCollection of matches."""
        embeddings, meta = self.execute_embeddings(
            parameters, timeout=timeout, cancellation=cancellation,
            validate=validate,
        )
        return self.runner._build_collection(embeddings, meta, attach_bindings)

    # Introspection ----------------------------------------------------------

    def explain(self):
        return self.root.explain()

    @property
    def binding_generation(self):
        return self._binding.generation

    def __repr__(self):
        with self._lock:
            executions = self.executions
        return "PreparedStatement(%r, parameters=%s, executions=%d)" % (
            self.text.strip().splitlines()[0][:40] if self.text.strip() else "",
            list(self.parameter_names),
            executions,
        )
