"""The registry of named graphs a query service executes against.

Gradoop frames pattern matching as one operator inside a long-lived
analytics service; the registry is the serving layer's handle on the
graphs that service owns.  Each entry carries the graph, its (lazily
computed) :class:`~repro.engine.GraphStatistics` and a **statistics
version counter**: every mutation — replacing the graph, or telling the
registry the graph changed underneath it — bumps the version, and because
plan- and result-cache keys embed the version, a bump atomically
invalidates every cached artifact derived from the old graph without the
registry having to know which caches exist.
"""

from repro.engine import GraphStatistics
from repro.locks import named_lock


class UnknownGraphError(KeyError):
    """Lookup of a graph name the registry does not know."""

    def __init__(self, name, known=()):
        message = "unknown graph %r" % name
        if known:
            message += " (registered: %s)" % ", ".join(sorted(known))
        super().__init__(message)
        self.name = name

    def __str__(self):
        return self.args[0]


class RegisteredGraph:
    """One named graph and its versioned statistics."""

    def __init__(self, name, graph, statistics=None):
        self.name = name  # unsynchronized: immutable after construction
        # replaced atomically under _lock; readers may see the old or the
        # new graph, never a torn one (reference assignment is atomic)
        self.graph = graph  # unsynchronized: atomic reference swap
        self._statistics = statistics  # guarded-by: _lock
        self._lock = named_lock("registry.entry")
        if statistics is not None and not hasattr(statistics, "version"):
            statistics.version = 0

    @property
    def environment(self):
        return self.graph.environment

    def _statistics_locked(self):  # requires-lock: _lock
        """The statistics object, computed on first use (one graph pass)."""
        if self._statistics is None:
            self._statistics = GraphStatistics.from_graph(self.graph)
        return self._statistics

    @property
    def statistics(self):
        """Graph statistics, computed on first use (one graph pass)."""
        with self._lock:
            return self._statistics_locked()

    @property
    def version(self):
        return getattr(self.statistics, "version", 0)

    def touch(self):
        """Record that the graph mutated: bump the statistics version.

        Callers that change the data in place (or learn it changed) must
        call this; cached plans and results keyed on the old version
        become unreachable and age out of their LRU caches, and what the
        graph derived from the old data (leaf tables, value indexes) is
        dropped, so the plans compiled next read the new data.  Returns
        the new version.  The read-bump-return runs under the entry lock,
        so concurrent touches never lose a bump (every caller gets a
        distinct version).
        """
        with self._lock:
            statistics = self._statistics_locked()
            statistics.version += 1
            self.graph.drop_resident()
            return statistics.version

    def replace(self, graph, statistics=None):
        """Swap in a new graph under the same name (version keeps rising).

        The swap *and* the version bump happen under one lock: a reader
        that sees the new graph also sees a version newer than any entry
        the old graph ever cached under.
        """
        with self._lock:
            previous_version = (
                self._statistics.version if self._statistics is not None else 0
            )
            self.graph = graph
            self._statistics = statistics
            self._statistics_locked().version = previous_version + 1
        return self

    def __repr__(self):
        with self._lock:
            return "RegisteredGraph(%r, version=%d)" % (
                self.name,
                self._statistics.version
                if self._statistics is not None else 0,
            )


class GraphRegistry:
    """Thread-safe name → :class:`RegisteredGraph` mapping."""

    def __init__(self):
        self._lock = named_lock("registry")
        self._graphs = {}  # guarded-by: _lock

    def register(self, name, graph, statistics=None):
        """Add ``name``; replaces an existing entry (bumping its version)."""
        with self._lock:
            entry = self._graphs.get(name)
            if entry is None:
                entry = RegisteredGraph(name, graph, statistics)
                self._graphs[name] = entry
                return entry
        return entry.replace(graph, statistics)

    def get(self, name):
        with self._lock:
            entry = self._graphs.get(name)
        if entry is None:
            raise UnknownGraphError(name, known=self.names())
        return entry

    def remove(self, name):
        with self._lock:
            return self._graphs.pop(name, None)

    def names(self):
        with self._lock:
            return sorted(self._graphs)

    def entries(self):
        """The registered graphs, by name, as one consistent snapshot."""
        with self._lock:
            return [self._graphs[name] for name in sorted(self._graphs)]

    def __contains__(self, name):
        with self._lock:
            return name in self._graphs

    def __len__(self):
        with self._lock:
            return len(self._graphs)
