"""Prepared statements: every query text compiles to one of these.

The openCypher semantics work (Francis et al.) specifies query parameters
as *the* mechanism for plan reuse across invocations: the query text is
constant, only ``$name`` values change.  A :class:`PreparedStatement`
compiles such a query into one physical plan whose predicate tree holds
:class:`~repro.cypher.parameters.ParameterSlot` nodes instead of literals;
each execution assigns a fresh value set to the shared
:class:`~repro.cypher.parameters.ParameterBinding` and re-runs the *same*
plan — no parsing, linting or planning on the hot path.
:meth:`CypherRunner.prepare <repro.engine.runner.CypherRunner.prepare>`
keeps one statement per query text in the plan cache, and every runner
and service execution runs the text's statement (:meth:`bound`).

Bind-time validation reuses the static linter: the original AST is bound
eagerly with the candidate values and re-linted, so a value that makes a
predicate unsatisfiable or type-inconsistent (``p.name STARTS WITH 42``)
is rejected with the linter's structured diagnostics before any operator
runs.

Executions that bind values are serialized per statement (the binding is
shared mutable state); a statement without parameters binds nothing, so
its executions neither re-lint nor take the lock and run concurrently,
like different statements do.
"""

from contextlib import contextmanager

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
        #: executions that bound parameters so far (monotone)
        self.executions = 0  # guarded-by: _lock
        self._lock = named_rlock("statement")
        #: warnings of the compile-time lint (blocking errors raise)
        self.diagnostics = []

        if runner.lint_enabled:
            self.diagnostics = lint_query(self._ast, statistics=runner.statistics)
            if any(d.is_blocking for d in self.diagnostics):
                raise QueryLintError(self.diagnostics, query_text=query)

        # a text without parameters has nothing to slot: it plans as parsed;
        # either way no ``$name`` is left unbound, and the AST was walked
        ast = self._ast
        if self.parameter_names:
            ast = parameterize(ast, self._binding)
        self.handler = QueryHandler._checked(ast)
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

    @contextmanager
    def bound(self, parameters=None):
        """The plan's root, with ``parameters`` bound for the ``with`` block.

        Binding is strict: a missing or undeclared name raises
        :class:`~repro.cypher.errors.CypherSemanticError`.  A statement
        without parameters only checks that none was passed.  Otherwise
        the values are validated (when the runner lints) and assigned
        under the statement's lock, which the block holds: execute the
        plan inside it.
        """
        if not self.parameter_names:
            self._binding.check(parameters)
            yield self.root
            return
        if self.runner.lint_enabled:
            self.validate(parameters)
        with self._lock:
            self._binding.assign(parameters)
            yield self.root
            self.executions += 1

    # Execution --------------------------------------------------------------

    def run(self, parameters=None):
        """``(embeddings, meta, job_metrics)`` of one execution, in a job
        scope of its own."""
        environment = self.runner.graph.environment
        # instrumentation baked into this plan decides the mode, not the
        # runner's *current* sanitize flag (they may have diverged)
        mode = "reference" if self.sanitizer is not None else self.runner.mode
        with self.bound(parameters) as root:
            with environment.job("prepared") as metrics:
                batches = root.evaluate().batches(mode=mode)
        return records_of(batches), root.meta, metrics

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
