"""UDF shippability analyzer (``P4xx``).

The ROADMAP's top open item — sharded multi-process execution of the
paper's Fig. 3/4 worker-scaling runs — requires shipping the callables
installed into dataflow operators (and compiled into fused chain
templates) to worker processes.  Shipping is cloudpickle-style: the
function's code object plus its captured cells travel, so the question is
not "does the function pickle?" but "does everything it *closes over*
survive the trip, and does its behaviour stay equal across processes?".

This pass answers that statically, modeled on the C3xx lock linter:
closure introspection walks every cell, default and bound receiver a
callable drags along (recursing through function-valued captures), and an
AST pass over the callable's own source looks for mutation of captured
state and calls to process-dependent functions.  Findings:

* ``P401`` — captured synchronization primitive (lock, thread, event,
  thread-local, queue, executor/future, :class:`~repro.locks.InstrumentedLock`):
  a lock in a worker guards nothing the parent can see.
* ``P402`` — captured open handle (file, socket, generator): bound to
  this process's file-descriptor table or interpreter state.
* ``P403`` — the callable *mutates* a captured object (``self.n += 1``,
  ``seen.add(x)``): every worker would mutate its own copy and diverge
  from single-process execution.
* ``P404`` — call to a nondeterministic or process-dependent function
  (``time.*``, ``random``/``secrets``, ``uuid1/uuid4``, ``os.urandom``,
  thread identity, builtin ``id``).
* ``P405`` — a captured non-callable value that does not pickle.

A chain whose every stage UDF is finding-free is *certified shippable*;
:func:`certify_chain` (invoked from the fusion planner under
``certify=True``) raises :class:`ShippabilityError` otherwise, so an
unshippable closure is rejected at fusion compile time — before any
worker would receive it.
"""

import ast
import builtins
import functools
import inspect
import io
import os
import pickle
import queue
import random
import socket
import textwrap
import threading
import time
import types
import uuid
from typing import List

from .diagnostics import Diagnostic, sort_diagnostics


class ShippabilityError(AssertionError):
    """A callable (or fused chain) failed shippability certification."""

    def __init__(self, diagnostics, subject=None):
        self.diagnostics = list(diagnostics)
        self.subject = subject
        lines = ["%s failed shippability certification with %d finding(s):"
                 % (subject or "callable", len(self.diagnostics))]
        lines += ["  " + d.format() for d in self.diagnostics]
        super().__init__("\n".join(lines))


class ShippabilityReport:
    """Outcome of analyzing one or more callables."""

    def __init__(self, diagnostics, analyzed):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: display names of every callable (transitively) analyzed
        self.analyzed = list(analyzed)

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def shippable(self):
        return not self.errors

    def format_summary(self):
        return "udfcheck: %d callable(s) analyzed, %d finding(s) — %s" % (
            len(self.analyzed),
            len(self.diagnostics),
            "shippable" if self.shippable else "NOT shippable",
        )


# Captured-value classification ------------------------------------------------

#: instance checks that make a captured value a P401 synchronization
#: primitive.  ``Lock``/``RLock`` are factory functions, so their concrete
#: types are sampled here once.
_SYNC_TYPES = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Thread,
    threading.Event,
    threading.Condition,
    threading.Semaphore,
    threading.Barrier,
    threading.local,
    queue.Queue,
)


def _sync_types():
    types_ = list(_SYNC_TYPES)
    try:
        from concurrent.futures import Executor, Future

        types_ += [Executor, Future]
    except ImportError:  # pragma: no cover — stdlib, but stay defensive
        pass
    try:
        from repro.locks import InstrumentedLock

        types_.append(InstrumentedLock)
    except ImportError:  # pragma: no cover
        pass
    return tuple(types_)


#: functions whose mere invocation makes a UDF process-dependent
_NONDETERMINISTIC = {
    time.time, time.monotonic, time.perf_counter, time.time_ns,
    os.urandom, uuid.uuid1, uuid.uuid4,
    threading.current_thread, threading.get_ident,
    builtins.id,
}

#: any attribute call into these modules is nondeterministic
_NONDETERMINISTIC_MODULES = {"random", "secrets"}

#: method names whose call on a captured container mutates shared state
_MUTATORS = frozenset({
    "append", "add", "extend", "update", "pop", "popitem", "remove",
    "clear", "insert", "setdefault", "discard", "appendleft", "popleft",
    "sort", "reverse",
})

_MUTABLE_CONTAINERS = (list, dict, set, bytearray)


def _describe(fn):
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = (
        getattr(fn, "__qualname__", None)
        or getattr(fn, "__name__", None)
        or repr(fn)
    )
    return "%s.%s" % (module, qualname)


def classify_callable(fn, name=None, span=None):
    """Analyze one callable; returns its (sorted) ``P4xx`` diagnostics.

    ``span`` optionally names the query location the callable was
    compiled from; findings carry it so CLI output can print the same
    caret excerpts the linter does.
    """
    analyzer = _UdfAnalyzer()
    analyzer.set_span(span)
    analyzer.analyze(fn, name or _describe(fn))
    return sort_diagnostics(analyzer.diagnostics)


def analyze_callables(named_fns):
    """Analyze ``(name, fn)`` or ``(name, fn, span)`` tuples into one
    :class:`ShippabilityReport`; a span attaches to every finding of the
    callable (including its transitively analyzed captures)."""
    analyzer = _UdfAnalyzer()
    for item in named_fns:
        name, fn = item[0], item[1]
        analyzer.set_span(item[2] if len(item) > 2 else None)
        analyzer.analyze(fn, name)
    return ShippabilityReport(
        sort_diagnostics(analyzer.diagnostics), analyzer.analyzed
    )


class _UdfAnalyzer:
    """One analysis pass; accumulates diagnostics across callables."""

    def __init__(self):
        self.diagnostics = []
        self.analyzed = []
        self._visited = set()
        self._span = None

    def set_span(self, span):
        """The query location attached to findings until the next call."""
        self._span = span

    def _flag(self, code, name, detail):
        self.diagnostics.append(
            Diagnostic.of(code, "%s: %s" % (name, detail), span=self._span)
        )

    def analyze(self, fn, name):
        if id(fn) in self._visited:
            return
        self._visited.add(id(fn))
        self.analyzed.append(name)

        if isinstance(fn, functools.partial):
            self.analyze(fn.func, "%s.func" % name)
            for index, value in enumerate(fn.args):
                self._classify_capture(value, name, "partial arg %d" % index)
            for key, value in fn.keywords.items():
                self._classify_capture(value, name, "partial kwarg %r" % key)
            return
        if isinstance(fn, types.MethodType):
            self._classify_capture(fn.__self__, name, "bound receiver")
            self.analyze(fn.__func__, "%s.__func__" % name)
            return
        if isinstance(fn, types.BuiltinFunctionType):
            return  # ships by reference, no cells, no Python body
        if not isinstance(fn, types.FunctionType):
            # a callable object: its __call__ plus its instance state
            call = getattr(type(fn), "__call__", None)
            if isinstance(call, types.FunctionType):
                self._classify_capture(fn, name, "callable instance")
                self.analyze(call, "%s.__call__" % name)
            return

        captured = {}
        if fn.__closure__:
            for cell_name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
                try:
                    value = cell.cell_contents
                except ValueError:  # unfilled cell (recursive def)
                    continue
                captured[cell_name] = value
                self._classify_capture(
                    value, name, "captured %r" % cell_name
                )
        if fn.__defaults__:
            for index, value in enumerate(fn.__defaults__):
                self._classify_capture(value, name, "default %d" % index)
        if fn.__kwdefaults__:
            for key, value in fn.__kwdefaults__.items():
                self._classify_capture(value, name, "default %r" % key)

        # referenced module globals: a worker re-importing the module gets
        # its *own* lock/handle instance, so these are as process-bound as
        # captured ones (co_names over-approximates — attribute names land
        # there too — but the __globals__ membership filter is exact)
        mutable_globals = set()
        for global_name in fn.__code__.co_names:
            if global_name not in fn.__globals__:
                continue
            value = fn.__globals__[global_name]
            if isinstance(value, _sync_types()):
                self._flag(
                    "P401", name,
                    "references global %r, a %s — synchronization state "
                    "cannot cross processes"
                    % (global_name, type(value).__name__),
                )
            elif isinstance(
                value, (io.IOBase, socket.socket, types.GeneratorType)
            ):
                self._flag(
                    "P402", name,
                    "references global %r, an open %s bound to this process"
                    % (global_name, type(value).__name__),
                )
            elif isinstance(value, _MUTABLE_CONTAINERS):
                mutable_globals.add(global_name)

        self._analyze_source(fn, name, captured, mutable_globals)

    # -- captured values -------------------------------------------------------

    def _classify_capture(self, value, name, where):
        if isinstance(value, _sync_types()):
            self._flag(
                "P401", name,
                "%s is a %s — synchronization state cannot cross processes"
                % (where, type(value).__name__),
            )
            return
        if isinstance(value, (io.IOBase, socket.socket, types.GeneratorType)):
            self._flag(
                "P402", name,
                "%s is an open %s bound to this process"
                % (where, type(value).__name__),
            )
            return
        if isinstance(value, types.ModuleType):
            return  # ships by reference
        if callable(value):
            self.analyze(value, "%s<%s>" % (name, where))
            return
        # containers ship element-wise (a function-valued element travels
        # as code + cells like the UDF itself), so classify the elements;
        # mutation of the container is the AST pass's P403, not a capture
        # finding
        if isinstance(value, (tuple, list, set, frozenset)):
            for index, item in enumerate(value):
                self._classify_capture(item, name, "%s[%d]" % (where, index))
            return
        if isinstance(value, dict):
            for key, item in value.items():
                self._classify_capture(item, name, "%s[%r]" % (where, key))
            return
        try:
            pickle.dumps(value)
        except Exception as exc:  # noqa: BLE001 — any failure is the finding
            self._flag(
                "P405", name,
                "%s (%s) does not pickle: %s"
                % (where, type(value).__name__, exc),
            )

    # -- the callable's own body -----------------------------------------------

    def _analyze_source(self, fn, name, captured, mutable_globals=frozenset()):
        try:
            source = textwrap.dedent(inspect.getsource(fn))
            tree = ast.parse(source)
        except (OSError, TypeError, SyntaxError, IndentationError):
            return  # no retrievable source (exec-compiled template, REPL)
        watched = set(fn.__code__.co_freevars) | set(mutable_globals)
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                base = _assignment_base(node.target)
                if base in watched:
                    self._flag(
                        "P403", name,
                        "augmented assignment mutates captured %r (line %d)"
                        % (base, node.lineno),
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    base = _assignment_base(target)
                    if base in watched:
                        self._flag(
                            "P403", name,
                            "assignment mutates captured %r (line %d)"
                            % (base, node.lineno),
                        )
            elif isinstance(node, ast.Call):
                self._classify_call(fn, name, node, captured, watched)

    def _classify_call(self, fn, name, node, captured, watched):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in watched
        ):
            value = captured.get(func.value.id)
            if value is None or isinstance(value, _MUTABLE_CONTAINERS):
                self._flag(
                    "P403", name,
                    "call %r.%s() mutates captured state (line %d)"
                    % (func.value.id, func.attr, node.lineno),
                )
                return
        resolved, dotted = _resolve_call(func, fn, captured)
        if resolved is None:
            return
        if resolved in _NONDETERMINISTIC:
            self._flag(
                "P404", name,
                "calls process-dependent %s (line %d)" % (dotted, node.lineno),
            )
        elif (
            getattr(resolved, "__module__", None) in _NONDETERMINISTIC_MODULES
            or isinstance(getattr(resolved, "__self__", None), random.Random)
        ):
            self._flag(
                "P404", name,
                "calls nondeterministic %s (line %d)" % (dotted, node.lineno),
            )


def _assignment_base(target):
    """The root ``Name`` of an attribute/subscript assignment target.

    ``self.checked += 1`` → ``self``; a bare ``Name`` target rebinds the
    local (or triggers ``nonlocal``, which the compiler rejects without
    the declaration) and is not object mutation.
    """
    node = target
    seen_deref = False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        seen_deref = True
        node = node.value
    if seen_deref and isinstance(node, ast.Name):
        return node.id
    return None


def _resolve_call(func, fn, captured):
    """Resolve an ``ast.Call`` callee to a runtime object, best effort.

    Walks dotted names rooted in a captured cell, the function's globals
    or builtins (aliased imports resolve naturally because the *object*
    is followed, not the source text).  Returns ``(object, dotted_name)``
    or ``(None, None)`` when unresolvable — unknown names are ignored
    rather than guessed at.
    """
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None, None
    parts.append(node.id)
    parts.reverse()
    root = parts[0]
    if root in captured:
        value = captured[root]
    elif root in fn.__globals__:
        value = fn.__globals__[root]
    elif hasattr(builtins, root):
        value = getattr(builtins, root)
    else:
        return None, None
    for attr in parts[1:]:
        try:
            value = getattr(value, attr)
        except AttributeError:
            return None, None
    dotted = ".".join(parts)
    module = getattr(value, "__module__", None)
    if isinstance(fn.__globals__.get(root), types.ModuleType):
        dotted = ".".join(
            [fn.__globals__[root].__name__] + parts[1:]
        )
    elif module and not isinstance(value, types.ModuleType):
        dotted = "%s.%s" % (module, parts[-1])
    return value, dotted


# Dataflow / fusion entry points -----------------------------------------------

#: operator attributes that hold user-supplied callables
_UDF_ATTRS = ("fn", "predicate", "key_fn", "reduce_fn", "left_key",
              "right_key")


def iter_dataflow_udfs(root, spans=None):
    """Yield ``(name, fn)`` for every UDF reachable from ``root``.

    Walks the operator DAG through ``parents`` exactly like the
    evaluator, and into the ``subplans`` a node evaluates itself; the
    name identifies the operator and the slot so a finding points at
    where the callable was installed.  With ``spans`` — a map
    from ``id(dataflow node)`` to a source :class:`~repro.cypher.span
    .Span` (the runner builds one from the physical plan) — yields
    ``(name, fn, span)`` triples instead so findings locate the query
    element the callable was compiled from.
    """
    stack = [root]
    seen = {id(root)}
    while stack:
        node = stack.pop()
        for attr in _UDF_ATTRS:
            fn = getattr(node, attr, None)
            if callable(fn):
                name = "%s.%s" % (node.name, attr)
                if spans is None:
                    yield name, fn
                else:
                    yield name, fn, spans.get(id(node))
        for parent in (*getattr(node, "parents", ()),
                       *getattr(node, "subplans", ())):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)


def analyze_dataflow(root, spans=None):
    """Shippability report over every UDF in the dataflow DAG of ``root``."""
    return analyze_callables(iter_dataflow_udfs(root, spans=spans))


def analyze_chain(chain):
    """Shippability report over one fused chain's stage UDFs."""
    return analyze_callables(
        ("%s[stage %d]" % (chain.name, index), fn)
        for index, fn in enumerate(chain.spec.fns)
    )


def certify_chain(chain):
    """Certify a fused chain shippable; raises :class:`ShippabilityError`.

    Called by the fusion planner under ``certify=True`` so an unshippable
    closure is rejected at fusion compile time, before any execution.
    Returns the (clean) report on success.
    """
    report = analyze_chain(chain)
    if not report.shippable:
        raise ShippabilityError(report.errors, subject=chain.name)
    return report
