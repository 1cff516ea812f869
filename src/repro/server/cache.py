"""Cache key construction and the optional result cache.

Both service caches ride on :class:`repro.cache.LRUCache`; this module
owns the *keys*.  Every key embeds the graph's cache-identity token and
its statistics **version**, so bumping the version (after a mutation)
makes every stale entry unreachable — invalidation by construction, no
cross-cache bookkeeping.  The stale entries then age out of the LRU.

Three key families share one cache comfortably because each starts with
a distinct tag:

- ``("plan", ...)`` — compiled physical plans (eagerly-bound queries);
  built by :meth:`CypherRunner.plan_cache_key`, parameters included.
- ``("prepared", ...)`` — prepared statements; parameters *excluded*,
  the whole point being one plan for all bindings.
- ``("result", ...)`` — result tables, parameters included.
"""

from repro.cache import LRUCache


def prepared_cache_key(runner, query):
    """Cache key for the prepared statement of ``query`` on ``runner``.

    Reuses the runner's plan-key fields (graph token, statistics version,
    planner, strategies, sanitize flag) but swaps the tag and
    drops the parameter values — a prepared plan serves every binding.
    """
    base = runner.plan_cache_key(query, None)
    return ("prepared",) + base[1:]


def result_cache_key(runner, query, parameters=None):
    """Cache key for the result table of one (query, binding)."""
    base = runner.plan_cache_key(query, parameters)
    return ("result",) + base[1:]


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
