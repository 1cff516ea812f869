"""Cache key construction and the optional result cache.

Both service caches ride on :class:`repro.cache.LRUCache`; this module
owns the *keys*.  Every key embeds the graph's cache-identity token and
its statistics **version**, so bumping the version (after a mutation)
makes every stale entry unreachable — invalidation by construction, no
cross-cache bookkeeping.  The stale entries then age out of the LRU.

Two key families, each starting with a distinct tag:

- ``("prepared", ...)`` — prepared statements, the one compiled form of
  a query text (:meth:`CypherRunner.prepare`); parameters *excluded*,
  the whole point being one plan for all bindings.
- ``("result", ...)`` — result tables, parameters included.
"""

from repro.cache import LRUCache


def prepared_cache_key(runner, query):
    """Cache key for the prepared statement of ``query`` on ``runner``:
    graph token, statistics version, text, planner, strategies and
    sanitize flag (:meth:`CypherRunner.plan_cache_key`) — a prepared plan
    serves every binding."""
    return runner.plan_cache_key(query)


def result_cache_key(runner, query, parameters=None):
    """Cache key for the result table of one (query, binding)."""
    return ("result",) + runner.plan_cache_key(query)[1:] + (
        # repr keeps the key hashable for list/None parameter values
        repr(sorted((parameters or {}).items())),
    )


class ResultCache:
    """A bounded LRU of result tables.

    Off by default (``maxsize=0`` stores nothing): result caching only
    pays off for repeated identical read-only queries, and every entry
    pins its full result set in memory.  The service stores the
    :class:`~repro.engine.result.ResultTable`, which nothing mutates
    once built; every hit gets a ``QueryResult`` of its own, and with it
    its own row list.
    """

    def __init__(self, maxsize=0):
        self._cache = LRUCache(maxsize)

    @property
    def enabled(self):
        return self._cache.maxsize > 0

    @property
    def stats(self):
        return self._cache.stats

    def get(self, runner, query, parameters=None):
        """``(hit, table)`` — a miss returns ``(False, None)``."""
        if not self.enabled:
            return False, None
        key = result_cache_key(runner, query, parameters)
        sentinel = object()
        table = self._cache.get(key, sentinel)
        if table is sentinel:
            return False, None
        return True, table

    def put(self, runner, query, parameters, table):
        if self.enabled:
            self._cache.put(result_cache_key(runner, query, parameters), table)

    def invalidate(self, predicate=None):
        return self._cache.invalidate(predicate)

    def clear(self):
        self._cache.clear()

    def __len__(self):
        return len(self._cache)
