"""The serving layer: a concurrent query service over the Cypher engine.

Gradoop's pattern matching runs inside long-lived distributed analytics
jobs; this package reproduces the *service* half of that story on the
simulated runtime — named graphs (:mod:`registry`), prepared statements
and shared plan/result caches (:mod:`cache` + the engine's
:class:`~repro.engine.PreparedStatement`), a thread-pooled executor with
fast-fail admission control and cooperative per-query deadlines
(:mod:`service`), service metrics (:mod:`metrics`) and a stdlib
HTTP/JSON front end (:mod:`protocol`).
"""

from .cache import ResultCache, prepared_cache_key, result_cache_key
from .metrics import LatencyHistogram, ServiceMetrics
from .protocol import QueryHTTPServer, serve_in_thread
from .registry import GraphRegistry, RegisteredGraph, UnknownGraphError
from .service import (
    AdmissionError,
    PreparedHandle,
    QueryResult,
    QueryService,
    ServiceClosedError,
)

__all__ = [
    "AdmissionError",
    "GraphRegistry",
    "LatencyHistogram",
    "PreparedHandle",
    "QueryHTTPServer",
    "QueryResult",
    "QueryService",
    "RegisteredGraph",
    "ResultCache",
    "ServiceClosedError",
    "ServiceMetrics",
    "UnknownGraphError",
    "prepared_cache_key",
    "result_cache_key",
    "serve_in_thread",
]
