"""Service-level observability: counters, gauges and latency histograms.

Everything here is deliberately stdlib-only and lock-protected — the
query service records into these structures from every worker thread.
The histogram uses logarithmic buckets (powers of two over microseconds)
so percentile estimates stay cheap and bounded regardless of how many
queries the service has seen; the reported percentile is the upper bound
of the bucket the rank falls into, i.e. a conservative (pessimistic)
estimate with <2x resolution error.
"""

from repro.dataflow.metrics import CHUNK_FALLBACK_REASONS
from repro.locks import named_lock


class LatencyHistogram:
    """Log₂-bucketed latency histogram over seconds.

    Bucket ``i`` covers latencies in ``[2**(i-1), 2**i)`` microseconds;
    64 buckets reach ~2.9 hours, far beyond any deadline this service
    will enforce.

    Deliberately lock-free: every histogram is owned by a
    :class:`ServiceMetrics`, which records into it and snapshots it
    under its own lock — adding a second lock here would just double the
    acquisitions on the query hot path.
    """

    BUCKETS = 64

    def __init__(self):
        # unsynchronized: owner-serialized — ServiceMetrics mutates and
        # reads every histogram under ServiceMetrics._lock
        self._counts = [0] * self.BUCKETS  # unsynchronized: owner-serialized
        self.count = 0  # unsynchronized: owner-serialized
        self.total = 0.0  # unsynchronized: owner-serialized
        self.max = 0.0  # unsynchronized: owner-serialized

    def record(self, seconds):
        micros = seconds * 1e6
        index = 0
        # smallest i with 2**i > micros, clamped to the last bucket
        while index < self.BUCKETS - 1 and (1 << index) <= micros:
            index += 1
        self._counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, fraction):
        """Upper-bound estimate of the ``fraction`` percentile, in seconds."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.5))
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                return min((1 << index) / 1e6, self.max)
        return self.max

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def snapshot(self):
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "max_s": self.max,
        }


class ServiceMetrics:
    """All counters and gauges one :class:`QueryService` exposes.

    ``queue_depth`` counts admitted queries not yet running; ``in_flight``
    counts queries currently executing on a worker.  Latency is recorded
    from submission to completion, so it includes queueing — that is the
    latency a client observes.
    """

    def __init__(self):
        self._lock = named_lock("service.metrics")
        self.submitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        self.timeouts = 0  # guarded-by: _lock
        self.queue_depth = 0  # guarded-by: _lock
        self.in_flight = 0  # guarded-by: _lock
        self.max_queue_depth = 0  # guarded-by: _lock
        self.max_in_flight = 0  # guarded-by: _lock
        self.latency = LatencyHistogram()  # guarded-by: _lock
        self.queue_wait = LatencyHistogram()  # guarded-by: _lock
        #: reason → per-record fallbacks taken by executed columnar jobs
        self.chunk_fallbacks = dict.fromkeys(  # guarded-by: _lock
            CHUNK_FALLBACK_REASONS, 0
        )
        #: what crossed the result boundary: rows, the batches they came
        #: in, and how many of those arrived per record and were re-encoded
        self.result = {  # guarded-by: _lock
            "rows": 0, "chunks": 0, "reencoded_partitions": 0,
        }

    # Lifecycle hooks (called by the service) --------------------------------

    def on_submit(self):
        with self._lock:
            self.submitted += 1
            self.queue_depth += 1
            if self.queue_depth > self.max_queue_depth:
                self.max_queue_depth = self.queue_depth

    def on_reject(self):
        with self._lock:
            self.rejected += 1

    def on_start(self, queue_seconds):
        with self._lock:
            self.queue_depth -= 1
            self.in_flight += 1
            if self.in_flight > self.max_in_flight:
                self.max_in_flight = self.in_flight
            self.queue_wait.record(queue_seconds)

    def on_finish(self, latency_seconds, outcome):
        """``outcome`` is one of ``"completed"``, ``"failed"``, ``"timeout"``."""
        with self._lock:
            self.in_flight -= 1
            self.latency.record(latency_seconds)
            if outcome == "completed":
                self.completed += 1
            elif outcome == "timeout":
                self.timeouts += 1
            else:
                self.failed += 1

    def on_job(self, job_metrics, table):
        """Fold in one executed job's fallback counts and its result."""
        with self._lock:
            for reason, count in job_metrics.chunk_fallbacks.items():
                self.chunk_fallbacks[reason] += count
            self.result["rows"] += len(table)
            self.result["chunks"] += table.chunks
            self.result["reencoded_partitions"] += table.reencoded

    def on_abandon(self):
        """An admitted query never started (service shut down first)."""
        with self._lock:
            self.queue_depth -= 1

    # Reporting ---------------------------------------------------------------

    def snapshot(self, plan_cache=None, result_cache=None):
        with self._lock:
            data = {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "timeouts": self.timeouts,
                "queue_depth": self.queue_depth,
                "in_flight": self.in_flight,
                "max_queue_depth": self.max_queue_depth,
                "max_in_flight": self.max_in_flight,
                "latency": self.latency.snapshot(),
                "queue_wait": self.queue_wait.snapshot(),
                "engine": {
                    "chunk_fallbacks": dict(self.chunk_fallbacks),
                    "result": dict(self.result),
                },
            }
        if plan_cache is not None:
            data["plan_cache"] = plan_cache.stats.snapshot()
            data["plan_cache"]["size"] = len(plan_cache)
        if result_cache is not None:
            data["result_cache"] = result_cache.stats.snapshot()
            data["result_cache"]["size"] = len(result_cache)
        return data
