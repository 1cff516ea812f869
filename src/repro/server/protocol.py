"""A stdlib HTTP/JSON front end for :class:`QueryService`.

Deliberately minimal — ``http.server`` + ``json``, no third-party web
framework — because the protocol exists to demonstrate the *service*
semantics (admission control, deadlines, prepared statements) over a
real socket, not to be a production web server.  Each request runs on
its own ``ThreadingHTTPServer`` thread and blocks on the service's
future, so the service's admission control is the real concurrency
limit.

Routes (all bodies JSON):

====== =========== ====================================================
Method Path        Body / response
====== =========== ====================================================
GET    /health     ``{"status": "ok", "graphs": [...]}``
GET    /metrics    the full :meth:`QueryService.metrics_snapshot`
POST   /query      ``{graph, query, parameters?, timeout?}`` → result
POST   /prepare    ``{graph, query}`` → ``{statement_id, ...}``
POST   /execute    ``{statement_id, parameters?, timeout?}`` → result
POST   /shutdown   acknowledges, then stops the listener
====== =========== ====================================================

Error mapping, the same for every route: saturation → 503, deadline →
504, cancelled → 499, unknown graph, statement or route → 404,
syntax/semantic/lint/binding errors → 400, a ``timeout`` that is not a
finite number ≥ 0 or ``parameters`` that are not an object → 400 before
the service runs, anything else → 500.

**Errors are JSON, always.**  Every response this module sends, whatever
its status, is ``application/json`` with at least an ``"error"`` key on
a failure.  That includes the errors ``http.server`` raises before a
route is reached (an unsupported method, a malformed request line):
:meth:`ServiceRequestHandler.send_error` answers those as
``{"error": ..., "kind": "protocol"}`` with the stdlib's status code and
``Connection: close``.

**A response is one write.**  :meth:`ServiceRequestHandler._send_body`
is the only function that writes to the socket, and it hands the kernel
head and body together; accepted connections have ``TCP_NODELAY`` set.
A query result's body is the buffer list of
:meth:`~repro.server.service.QueryResult.encode` — it is never joined.
See "What a request waits for" in ``docs/server.md``.
"""

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.diagnostics import QueryLintError
from repro.cypher.errors import CypherError
from repro.dataflow.cancellation import QueryCancelled, QueryTimeout

from .registry import UnknownGraphError
from .service import AdmissionError, ServiceClosedError, _json_default

#: the most buffers one ``sendmsg`` takes; one more is ``EMSGSIZE``
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _send_gathered(sock, *buffers):
    """``sendall`` of several buffers as gathered writes.

    One ``sendmsg`` per ``_IOV_MAX`` buffers — one in all for any
    response this server builds: the kernel sees head and body together,
    so no segment of a response waits on the ACK of an earlier one, and a
    megabyte body is not copied into a joined buffer first.  A send cut
    short (by a signal, a full socket buffer) resumes where it stopped.
    """
    buffers = [memoryview(buffer) for buffer in buffers]
    done = 0
    while done < len(buffers):
        sent = sock.sendmsg(buffers[done:done + _IOV_MAX])
        while done < len(buffers) and sent >= len(buffers[done]):
            sent -= len(buffers[done])
            done += 1
        if sent:
            buffers[done] = buffers[done][sent:]


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's :class:`QueryService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # TCP_NODELAY on every accepted connection: a segment never waits
    # for the client's (delayed) ACK of the one before it
    disable_nagle_algorithm = True

    # quiet by default; the smoke test parses stdout for the listen line
    def log_message(self, format, *args):
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self):
        return self.server.service

    # Plumbing ----------------------------------------------------------------

    def _send_json(self, status, payload, close=False):
        self._send_body(
            status,
            [json.dumps(payload, default=_json_default).encode("utf-8")],
            close,
        )

    def _send_body(self, status, body, close=False):
        """Write one whole response; the only writer to the socket.

        ``body`` is a list of buffers.  The head is built here rather
        than with ``send_response`` / ``end_headers``, which flush it as
        a write of its own: the body would then sit behind Nagle until
        the client ACKs the head, and a stock client's kernel delays
        that ACK by 40 ms.
        """
        length = sum(map(len, body))
        reason = self.responses.get(status, ("",))[0]
        head = [
            "%s %d %s" % (self.protocol_version, status, reason),
            "Server: " + self.version_string(),
            "Date: " + self.date_time_string(),
        ]
        if close:
            head.append("Connection: close")
            self.close_connection = True
        head += [
            "Content-Type: application/json",
            "Content-Length: %d" % length,
            "", "",
        ]
        self.log_request(status, length)
        if self.command == "HEAD":
            body = []
        _send_gathered(
            self.connection, "\r\n".join(head).encode("latin-1"), *body
        )

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own errors, as JSON instead of its HTML page.

        ``http.server`` calls this for what never reaches a route: an
        unsupported method, a malformed or oversized request line.  It
        keeps the stdlib's status code and ``Connection: close``, and
        always writes a status line, garbage request line or not.
        """
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self.log_error("code %d, message %s", code, message)
        self._send_json(code, {"error": message, "kind": "protocol"},
                        close=True)

    def _read_json(self):
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest("invalid JSON body: %s" % error)
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    def _require(self, payload, *keys):
        missing = [key for key in keys if key not in payload]
        if missing:
            raise _BadRequest("missing field(s): %s" % ", ".join(missing))
        return [payload[key] for key in keys]

    # Routes ------------------------------------------------------------------

    def _health(self, payload):
        self._send_json(200, {
            "status": "ok",
            "graphs": self.service.registry.names(),
        })

    def _metrics(self, payload):
        self._send_json(200, self.service.metrics_snapshot())

    def _options(self, payload):
        """``(parameters, timeout)`` of a /query or /execute body, checked
        here: a ``NaN`` deadline would never expire."""
        parameters = payload.get("parameters")
        if parameters is not None and not isinstance(parameters, dict):
            raise _BadRequest("field 'parameters' must be a JSON object")
        timeout = payload.get("timeout")
        if timeout is not None and not (
            type(timeout) in (int, float)
            and 0 <= timeout <= sys.float_info.max
        ):
            raise _BadRequest("field 'timeout' must be a finite number >= 0")
        return parameters, timeout

    def _query(self, payload):
        graph, query = self._require(payload, "graph", "query")
        parameters, timeout = self._options(payload)
        result = self.service.execute(
            graph, query, parameters=parameters, timeout=timeout,
        )
        self._send_body(200, result.encode())

    def _prepare(self, payload):
        graph, query = self._require(payload, "graph", "query")
        self._send_json(200, self.service.prepare(graph, query).to_dict())

    def _execute(self, payload):
        (statement_id,) = self._require(payload, "statement_id")
        parameters, timeout = self._options(payload)
        result = self.service.execute_prepared(
            statement_id, parameters=parameters, timeout=timeout,
        )
        self._send_body(200, result.encode())

    def _shutdown(self, payload):
        self._send_json(200, {"status": "shutting down"})
        # shutdown() must not run on the handler thread: it joins
        # the serve loop, which is waiting on this very request
        threading.Thread(target=self.server.stop, daemon=True).start()

    _ROUTES = {
        ("GET", "/health"): _health,
        ("GET", "/metrics"): _metrics,
        ("POST", "/query"): _query,
        ("POST", "/prepare"): _prepare,
        ("POST", "/execute"): _execute,
        ("POST", "/shutdown"): _shutdown,
    }

    def _dispatch(self):
        """Run the route for ``(method, path)`` under the one error net."""
        try:
            payload = self._read_json()
            route = self._ROUTES.get((self.command, self.path))
            if route is None:
                self._send_json(404, {
                    "error": "no such route: %s" % self.path
                })
            else:
                route(self, payload)
        except _BadRequest as error:
            self._send_json(400, {"error": str(error)})
        except (QueryLintError, CypherError, ValueError, TypeError) as error:
            self._send_json(400, {
                "error": str(error), "kind": type(error).__name__,
            })
        except (UnknownGraphError, KeyError) as error:
            self._send_json(404, {"error": str(error)})
        except AdmissionError as error:
            self._send_json(503, {"error": str(error), "kind": "rejected"})
        except ServiceClosedError as error:
            self._send_json(503, {"error": str(error), "kind": "closed"})
        except QueryTimeout as error:
            self._send_json(504, {"error": str(error), "kind": "timeout"})
        except QueryCancelled as error:
            self._send_json(499, {"error": str(error), "kind": "cancelled"})
        except Exception as error:  # noqa: BLE001 — the wire must answer
            self._send_json(500, {
                "error": str(error), "kind": type(error).__name__,
            })

    do_GET = do_POST = _dispatch


class _BadRequest(ValueError):
    pass


class QueryHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, service, host="127.0.0.1", port=0, verbose=False):
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 picks a free one)."""
        return self.server_address[0], self.server_address[1]

    def stop(self, close_service=True):
        """Stop the listener; optionally drain and close the service."""
        self.shutdown()
        self.server_close()
        if close_service:
            self.service.close(wait=True)


def serve_in_thread(service, host="127.0.0.1", port=0, verbose=False):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    The test-friendly entry point: the caller gets the bound address from
    ``server.address`` and stops with ``server.stop()``.
    """
    server = QueryHTTPServer(service, host=host, port=port, verbose=verbose)
    # stop() waits for the serve loop's next poll: keep that wait short
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="repro-serve", daemon=True,
    )
    thread.start()
    return server, thread
