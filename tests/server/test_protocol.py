"""The HTTP wire protocol, end to end over a real socket."""

import gc
import json
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dataflow import DataSet, ExecutionEnvironment
from repro.engine import columnar as columnar_module
from repro.engine.columnar import ColumnarExpandSpec, ColumnarVertexLookup
from repro.epgm import IndexedLogicalGraph, LogicalGraph
from repro.server import GraphRegistry, QueryService, serve_in_thread
from repro.server.protocol import _IOV_MAX, _send_gathered
from tests.conftest import build_figure1_elements

PARAM_QUERY = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"


def http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def expire_after_the_dataflow(monkeypatch):
    """Make every query's deadline pass between its last operator and
    the first result batch."""
    run = DataSet.batches

    def batches(self, **flags):
        result = run(self, **flags)
        token = self.environment.current_cancellation
        if token is not None:  # a query's job, not a statistics scan
            token.deadline = time.monotonic() - 1
        return result

    monkeypatch.setattr(DataSet, "batches", batches)


def serve_figure1(graph, max_concurrency=2, **options):
    registry = GraphRegistry()
    registry.register("fig1", graph)
    service = QueryService(
        registry, max_concurrency=max_concurrency, **options
    )
    server, thread = serve_in_thread(service)
    base = "http://%s:%d" % server.address
    yield base, server, thread
    server.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def endpoint(figure1_graph):
    yield from serve_figure1(figure1_graph)


@pytest.fixture(scope="module")
def wire():
    """One server for the raw-socket tests."""
    head, vertices, edges = build_figure1_elements()
    yield from serve_figure1(LogicalGraph.from_collections(
        ExecutionEnvironment(parallelism=4), vertices, edges, graph_head=head
    ))


def raw_request(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    return (
        "%s %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
        % (method, path, len(body))
    ).encode("ascii") + body


def raw_exchange(sock, request):
    """Send raw bytes; return ``(head, body)`` of one framed response."""
    sock.sendall(request)
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside the head: %r" % buffer
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        chunk = sock.recv(1 << 20)
        assert chunk, "connection closed inside the body"
        body += chunk
    assert len(body) == length
    return head, body


def status_of(head):
    return int(head.split(b" ", 2)[1])


@pytest.fixture
def stock_socket(wire):
    """A stock client's socket: no TCP_NODELAY, no TCP_QUICKACK."""
    _, server, _ = wire
    with socket.create_connection(server.address, timeout=30) as sock:
        yield sock


class _CountingSocket:
    """An accepted connection that records each write made to it."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = []

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def send(self, data, *args):
        self.writes.append(len(data))
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        self.writes.append(len(data))
        return self._sock.sendall(data, *args)

    def sendmsg(self, buffers, *args):
        buffers = list(buffers)
        self.writes.append(sum(len(buffer) for buffer in buffers))
        return self._sock.sendmsg(buffers, *args)


@pytest.fixture
def accepted(wire, monkeypatch):
    """The server side of every connection accepted during the test."""
    _, server, _ = wire
    connections = []
    accept = server.get_request

    def counting_accept():
        sock, address = accept()
        connections.append(_CountingSocket(sock))
        return connections[-1], address

    monkeypatch.setattr(server, "get_request", counting_accept)
    return connections


class TestEndpoints:
    def test_health(self, endpoint):
        base, _, _ = endpoint
        status, body = http("GET", base + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["graphs"] == ["fig1"]

    def test_query_roundtrip(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "fig1", "query": PARAM_QUERY,
            "parameters": {"name": "Alice"},
        })
        assert status == 200
        assert body["row_count"] == 1
        assert body["rows"] == [{"p.name": "Alice"}]

    def test_prepare_then_execute_with_two_bindings(self, endpoint):
        base, _, _ = endpoint
        status, prepared = http("POST", base + "/prepare", {
            "graph": "fig1", "query": PARAM_QUERY,
        })
        assert status == 200
        assert prepared["parameter_names"] == ["name"]
        for name in ("Alice", "Eve"):
            status, body = http("POST", base + "/execute", {
                "statement_id": prepared["statement_id"],
                "parameters": {"name": name},
            })
            assert status == 200
            assert body["rows"] == [{"p.name": name}]

    def test_metrics_reports_progress(self, endpoint):
        base, _, _ = endpoint
        http("POST", base + "/query", {"graph": "fig1", "query": PARAM_QUERY,
                                       "parameters": {"name": "Bob"}})
        status, metrics = http("GET", base + "/metrics")
        assert status == 200
        assert metrics["completed"] >= 1
        assert "plan_cache" in metrics


class TestErrorMapping:
    def test_unknown_graph_is_404(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "nope", "query": PARAM_QUERY,
        })
        assert status == 404
        assert "nope" in body["error"]

    def test_saturated_service_is_503_rejected(self, figure1_graph):
        # one worker, no queue: hold the worker, fill the only capacity
        # slot, and the request over the wire must fast-fail as a
        # rejection — the signal that tells a client to retry
        served = serve_figure1(figure1_graph, max_concurrency=1, max_queue=0)
        base, server, _ = next(served)
        service = server.service
        release = threading.Event()
        blocker = service._executor.submit(release.wait)
        try:
            queued = service.submit("fig1", PARAM_QUERY, {"name": "Bob"})
            before = http("GET", base + "/metrics")[1]
            status, body = http("POST", base + "/query", {
                "graph": "fig1", "query": PARAM_QUERY,
                "parameters": {"name": "Alice"},
            })
            after = http("GET", base + "/metrics")[1]
            release.set()
            assert queued.result(timeout=30).row_count == 1
            blocker.result(timeout=30)
        finally:
            release.set()
            next(served, None)  # stop the server
        assert status == 503
        assert body["kind"] == "rejected"
        assert after["rejected"] == before["rejected"] + 1
        assert after["failed"] == before["failed"]

    def test_missing_field_is_400(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("POST", base + "/query", {"graph": "fig1"})
        assert status == 400

    @pytest.mark.parametrize("field, value", [
        ("timeout", float("nan")),
        ("timeout", float("inf")),
        ("timeout", -1),
        ("timeout", 10 ** 400),
        ("timeout", True),
        ("timeout", "5"),
        ("timeout", [1]),
        ("timeout", {"a": 1}),
        ("parameters", ["Alice"]),
        ("parameters", "Alice"),
        ("parameters", 5),
    ])
    def test_malformed_option_is_400(self, wire, field, value):
        base, _, _ = wire
        _, prepared = http("POST", base + "/prepare", {
            "graph": "fig1", "query": PARAM_QUERY,
        })
        well_formed = {"parameters": {"name": "Alice"}, "timeout": 60}
        bodies = {
            "/query": dict(well_formed, graph="fig1", query=PARAM_QUERY),
            "/execute": dict(well_formed, statement_id=prepared["statement_id"]),
        }
        for route, body in bodies.items():
            _, before = http("GET", base + "/metrics")
            status, answer = http("POST", base + route, dict(body, **{
                field: value,
            }))
            assert status == 400, (route, answer)
            assert field in answer["error"]
            _, after = http("GET", base + "/metrics")
            assert after["failed"] == before["failed"]
            assert after["submitted"] == before["submitted"]
            # the request is served once the field is well formed
            assert http("POST", base + route, body)[0] == 200

    def test_malformed_json_is_400(self, endpoint):
        base, _, _ = endpoint
        request = urllib.request.Request(
            base + "/query", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_syntax_error_is_400(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("POST", base + "/query", {
            "graph": "fig1", "query": "MATCH (p:Person RETURN",
        })
        assert status == 400

    def test_expired_deadline_is_504(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "fig1", "query": PARAM_QUERY,
            "parameters": {"name": "Alice"}, "timeout": 0.0,
        })
        assert status == 504

    def test_deadline_passing_while_the_result_is_built_is_504(
        self, endpoint, monkeypatch
    ):
        base, _, _ = endpoint
        expire_after_the_dataflow(monkeypatch)
        payload = {"graph": "fig1", "query": PARAM_QUERY,
                   "parameters": {"name": "Alice"}, "timeout": 60.0}
        status, body = http("POST", base + "/query", payload)
        assert (status, body["kind"]) == (504, "timeout")
        monkeypatch.undo()
        status, body = http("POST", base + "/query", payload)
        assert (status, body["row_count"]) == (200, 1)

    def test_deadline_inside_an_expansion_superstep_is_504(
        self, figure1_graph, monkeypatch
    ):
        """The expand kernel builds its fan-out in slices and polls the
        deadline between them: a token expiring inside the second
        superstep ends the request there, and the service goes on."""
        hops, slices = [], []
        hop, extend = ColumnarExpandSpec.hop, ColumnarExpandSpec._extend

        def counting_hop(self, frontier, emit, edge_mask, token, emitted):
            hops.append(token)
            return hop(self, frontier, emit, edge_mask, token, emitted)

        def expiring_extend(self, *args):
            slices.append(len(hops))
            if len(hops) == 2:  # this slice is the deadline's last
                hops[-1].deadline = time.monotonic() - 1
            return extend(self, *args)

        monkeypatch.setattr(columnar_module, "_OUTPUT_ROWS", 1)
        monkeypatch.setattr(ColumnarExpandSpec, "hop", counting_hop)
        monkeypatch.setattr(ColumnarExpandSpec, "_extend", expiring_extend)
        payload = {"graph": "fig1", "timeout": 60.0, "query":
                   "MATCH (a:Person {name: 'Eve'})-[e:knows*1..10]->(b) "
                   "RETURN *"}
        indexed = IndexedLogicalGraph.from_logical_graph(figure1_graph)
        for base, _, _ in serve_figure1(indexed):
            status, body = http("POST", base + "/query", payload)
            assert (status, body["kind"]) == (504, "timeout")
            # a slice is at least one frontier row: Eve's in the first
            # superstep; her two friends' in the second, of which only
            # the one that saw the deadline pass ran
            assert slices == [1, 2]
            monkeypatch.undo()
            status, body = http("POST", base + "/query", payload)
            assert status == 200 and body["row_count"] > 2
            engine = http("GET", base + "/metrics")[1]["engine"]
            assert not any(engine["chunk_fallbacks"].values())

    def test_deadline_inside_a_vertex_lookup_is_504(
        self, figure1_graph, monkeypatch
    ):
        """The lookup has no fan-out to poll in: it polls the deadline
        once per probe run itself.  A token expiring at the second run
        ends the request there, and the service goes on.  The two ends'
        predicates tie, so the hop starts at ``a`` and ``b`` is looked up
        last; ``b``'s predicate drops a Person, so that lookup searches:
        one into every Person after a ``knows`` hop passes its input
        through."""
        polls = []
        run = ColumnarVertexLookup.run

        class Expiring:
            def __init__(self, token):
                self.token = token

            def poll(self):
                polls.append(self.token)
                if len(polls) == 2:
                    self.token.deadline = time.monotonic() - 1
                self.token.poll()

        def expiring_run(self, leaf, partitions, token):
            return run(self, leaf, partitions, Expiring(token))

        monkeypatch.setattr(columnar_module, "_PROBE_ROWS", 1)
        monkeypatch.setattr(ColumnarVertexLookup, "run", expiring_run)
        payload = {"graph": "fig1", "timeout": 60.0, "query":
                   "MATCH (a:Person)-[e:knows]->(b:Person) "
                   "WHERE a.name <> 'Carol' AND b.name <> 'Alice' RETURN *"}
        indexed = IndexedLogicalGraph.from_logical_graph(figure1_graph)
        for base, _, _ in serve_figure1(indexed):
            status, body = http("POST", base + "/query", payload)
            assert (status, body["kind"]) == (504, "timeout")
            assert len(polls) == 2
            monkeypatch.undo()
            status, body = http("POST", base + "/query", payload)
            assert status == 200 and body["row_count"] > 2
            engine = http("GET", base + "/metrics")[1]["engine"]
            assert engine["adjacency"]["lookup_joins"] == 2
            assert not any(engine["chunk_fallbacks"].values())

    def test_unknown_route_is_404(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("GET", base + "/nope")
        assert status == 404


class TestResponsePath:
    """One write per response on a TCP_NODELAY connection, same bytes."""

    SMALL = raw_request("POST", "/query", {
        "graph": "fig1", "query": PARAM_QUERY,
        "parameters": {"name": "Alice"},
    })

    def test_stock_client_sees_no_delayed_ack_stall(self, stock_socket):
        # a response split over two writes on a Nagle socket waits for
        # the client kernel's delayed ACK: a >= 40 ms constant per request
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            head, _ = raw_exchange(stock_socket, self.SMALL)
            latencies.append(time.perf_counter() - started)
            assert status_of(head) == 200
        assert statistics.median(latencies) < 0.020

    def test_accepted_connection_has_tcp_nodelay(self, accepted, stock_socket):
        raw_exchange(stock_socket, raw_request("GET", "/health"))
        (connection,) = accepted
        assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_one_write_per_response(
        self, wire, accepted, stock_socket, monkeypatch
    ):
        _, server, _ = wire
        monkeypatch.setattr(
            server.service, "metrics_snapshot", lambda: {"pad": "x" * 100_000}
        )
        exchanges = [
            (self.SMALL, 200),
            # a result of several batches: head, fragments and tail
            (raw_request("POST", "/query", {
                "graph": "fig1", "query": "MATCH (p:Person) RETURN *",
            }), 200),
            (raw_request("GET", "/metrics"), 200),  # > 64 KB
            (raw_request("POST", "/query", {"graph": "fig1"}), 400),
        ]
        sizes = []
        for request, expected in exchanges:
            head, body = raw_exchange(stock_socket, request)
            assert status_of(head) == expected
            sizes.append(len(head) + 4 + len(body))
        assert sizes[2] > 64 * 1024
        (connection,) = accepted
        assert connection.writes == sizes

    def test_gathered_send_resumes_a_short_write(self):
        class ShortWriter:
            """Takes at most 5 bytes per call, as an interrupted send."""

            def __init__(self):
                self.received = b""

            def sendmsg(self, buffers):
                taken = b"".join(buffers)[:5]
                self.received += taken
                return len(taken)

        sock = ShortWriter()
        _send_gathered(sock, b"head\r\n", b"", b"0123456789")
        assert sock.received == b"head\r\n0123456789"

    def test_gathered_send_takes_more_buffers_than_one_sendmsg(self):
        # Linux answers EMSGSIZE to more than IOV_MAX (1024) buffers
        buffers = [bytes([index % 251]) for index in range(3000)]
        left, right = socket.socketpair()
        with left, right:
            right.settimeout(30)
            _send_gathered(left, *buffers)
            received = b""
            while len(received) < len(buffers):
                received += right.recv(65536)
        assert received == b"".join(buffers)

    def test_gathered_send_resumes_inside_a_slice_boundary(self):
        class SliceWriter:
            """Refuses what Linux refuses; stops one byte short of a
            full slice, inside its last buffer."""

            def __init__(self):
                self.received = b""
                self.calls = 0

            def sendmsg(self, buffers):
                assert len(buffers) <= _IOV_MAX, "EMSGSIZE"
                self.calls += 1
                taken = b"".join(buffers)[:2 * _IOV_MAX - 1]
                self.received += taken
                return len(taken)

        buffers = [b"%02d" % (index % 100) for index in range(2 * _IOV_MAX + 3)]
        sock = SliceWriter()
        _send_gathered(sock, *buffers)
        assert sock.received == b"".join(buffers)
        assert sock.calls == 3

    def test_bytes_are_the_stdlib_writers(self, stock_socket):
        # what send_response/send_header/end_headers + write(body) sent
        # before the one-write path replaced them, Date aside
        server_header = b"Server: repro-serve/1.0 Python/%s" % (
            sys.version.split()[0].encode("ascii")
        )
        expected = [
            (raw_request("GET", "/health"), [
                b"HTTP/1.1 200 OK", server_header, b"Date: *",
                b"Content-Type: application/json", b"Content-Length: 36",
            ], b'{"status": "ok", "graphs": ["fig1"]}'),
            (raw_request("GET", "/nope"), [
                b"HTTP/1.1 404 Not Found", server_header, b"Date: *",
                b"Content-Type: application/json", b"Content-Length: 33",
            ], b'{"error": "no such route: /nope"}'),
        ]
        for request, head_lines, body in expected:
            head, got = raw_exchange(stock_socket, request)
            head = re.sub(rb"Date: [^\r]+", b"Date: *", head)
            assert head.split(b"\r\n") == head_lines
            assert got == body

    def test_serve_in_thread_does_not_freeze_the_callers_heap(self, wire):
        # gc.freeze() belongs to ``repro serve``, which owns its process
        base, _, _ = wire
        frozen = gc.get_freeze_count()
        status, metrics = http("GET", base + "/metrics")
        assert status == 200
        assert metrics["gc"]["frozen"] == frozen == gc.get_freeze_count()
        assert len(metrics["gc"]["collections"]) == 3


class TestProtocolErrors:
    """Errors raised outside a route still answer JSON."""

    def test_unsupported_method_is_json(self, stock_socket):
        head, body = raw_exchange(stock_socket, raw_request("PUT", "/query"))
        assert status_of(head) == 501
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {
            "error": "Unsupported method ('PUT')", "kind": "protocol",
        }

    def test_garbage_request_line_is_json_with_a_status_line(
        self, stock_socket
    ):
        head, body = raw_exchange(stock_socket, b"GARBAGE\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Content-Type: application/json" in head
        assert json.loads(body)["kind"] == "protocol"
        assert stock_socket.recv(1) == b""  # Connection: close

    def test_raising_get_route_is_500_and_keeps_the_connection(
        self, wire, stock_socket, monkeypatch
    ):
        _, server, _ = wire

        def boom():
            raise RuntimeError("snapshot exploded")

        monkeypatch.setattr(server.service, "metrics_snapshot", boom)
        head, body = raw_exchange(stock_socket, raw_request("GET", "/metrics"))
        assert status_of(head) == 500
        assert json.loads(body) == {
            "error": "snapshot exploded", "kind": "RuntimeError",
        }
        head, _ = raw_exchange(stock_socket, raw_request("GET", "/health"))
        assert status_of(head) == 200


class TestShutdownEndpoint:
    def test_shutdown_stops_the_server(self, figure1_graph):
        registry = GraphRegistry()
        registry.register("fig1", figure1_graph)
        service = QueryService(registry)
        server, thread = serve_in_thread(service)
        base = "http://%s:%d" % server.address
        status, _ = http("POST", base + "/shutdown")
        assert status == 200
        thread.join(timeout=30)
        assert not thread.is_alive()
        # the stop runs on its own thread: serve loop exit happens first,
        # the service close moments later
        deadline = time.time() + 30
        while not service.closed and time.time() < deadline:
            time.sleep(0.01)
        assert service.closed
