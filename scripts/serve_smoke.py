#!/usr/bin/env python
"""Smoke test for ``repro serve``: the full lifecycle over a real socket.

Generates a small LDBC graph, starts ``python -m repro serve`` as a child
process, waits for its "listening" line, then exercises the wire
protocol — health, a parameterized ad-hoc query, prepare/execute with two
different bindings (each an index probe over the one resident leaf table
on the default engine, per ``/metrics``), metrics — and finally POSTs ``/shutdown`` and asserts
the process exits cleanly with status 0.  One stock ``http.client``
keep-alive connection also times 20 small requests (a response held back
by a delayed ACK costs a constant 40 ms; see "What a request waits for"
in ``docs/server.md``), and ``/metrics`` must show the frozen graph heap.
One answer of several result batches and more than a megabyte is read off
a raw socket: its ``Content-Length`` must be the bytes that arrive, and
``/metrics`` must say how it crossed the result boundary (as chunks, or
per record and re-encoded under ``--no-columnar``).  One variable-length
request (``knows*1..3`` from a bound name) must return the rows of the
per-record reference loop, computed in this process — on the default
engine as chunks from the expand kernel, with no fallback counted; under
``--no-columnar`` from the reference loop itself.  One answer of ids
only (``RETURN *``, several batches, written from the id matrices) is
read off the raw socket too: ``Content-Length`` must be the bytes that
arrive and its rows the per-record reference loop's.  One fixed-length
pattern and one triangle must return the per-record reference's rows too
(so every leg agrees with every other): on the default engine — and with
``--workers 2``, where the kernel runs in the serving process — as a hop
over the resident adjacency and a probe of its pair index
(``engine.adjacency.hop_joins`` / ``pair_joins`` grow, no fallback is
counted); under ``--no-columnar`` both counters stay 0.  Query 2 of the
paper must return the reference's rows too, its joins with a vertex leaf
looked up where the other input's rows sit (``lookup_joins`` grows, every
``chunk_fallbacks`` counter is still 0; under ``--no-columnar`` it stays 0).
Query 4 of the paper (six property values a row) is read off the raw
socket twice: each ``Content-Length`` must be the bytes that arrive, the
two bodies must be identical and the rows the per-record reference's; on
the default engine the second answer is written from the graph's resident
record texts (``engine.leaves.texts`` > 0), which the reference path
never keeps.

Run directly (``python scripts/serve_smoke.py``) or via ``make
serve-smoke``.  Any extra command-line arguments are forwarded to the
``repro serve`` invocation (``python scripts/serve_smoke.py --workers
2`` exercises the multi-process pool, ``--no-columnar`` the per-record
reference path; ``/metrics`` must name the mode the flags select).  Exits non-zero
on the first failed assertion.
"""

import json
import os
import re
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

SCALE_FACTOR = 0.5
SEED = 7
#: 10 273 rows, 1.6 MB at this scale and seed
BIG_QUERY = (
    "MATCH (p:Person)-[:knows]->(q:Person)<-[:hasCreator]-(c:Comment|Post) "
    "RETURN p.firstName, p.lastName, q.firstName, q.lastName, "
    "c.content, c.creationDate, c"
)
#: ids only, written from the id matrices: 10 273 rows, several batches
ID_QUERY = "MATCH (p:Person)-[:knows]->(q:Person)<-[:hasCreator]-(c) RETURN *"
PATH_QUERY = (
    "MATCH (p:Person)-[:knows*1..3]->(q:Person) "
    "WHERE p.firstName = $name RETURN *"
)
JOIN_QUERIES = (
    "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.firstName, q.firstName",
    "MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), "
    "(a)-[:knows]->(c) RETURN a.firstName, b.firstName, c.firstName",
)
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0


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


def raw_post(address, path, payload):
    """``(Content-Length, body bytes until the server stops sending)``."""
    host, _, port = address.rpartition(":")
    body = json.dumps(payload).encode("utf-8")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall((
            "POST %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n"
            "Content-Length: %d\r\n\r\n" % (path, len(body))
        ).encode("ascii") + body)
        received = b""
        while True:
            data = sock.recv(1 << 20)
            if not data:
                break
            received += data
    head, _, body = received.partition(b"\r\n\r\n")
    return int(re.search(rb"Content-Length: (\d+)", head).group(1)), body


def main():
    from repro.dataflow import ExecutionEnvironment
    from repro.engine import CypherRunner
    from repro.epgm.io import CSVDataSink, CSVDataSource
    from repro.harness.queries import QUERY_2, QUERY_4, instantiate
    from repro.ldbc import LDBCGenerator

    failures = []

    def check(condition, message):
        status = "ok" if condition else "FAIL"
        print("  [%s] %s" % (status, message))
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        graph_dir = os.path.join(tmp, "graph")
        print("generating graph (scale %s) -> %s" % (SCALE_FACTOR, graph_dir))
        dataset = LDBCGenerator(scale_factor=SCALE_FACTOR, seed=SEED).generate()
        graph = dataset.to_logical_graph(ExecutionEnvironment())
        CSVDataSink(graph_dir).write_logical_graph(graph)
        common_name = dataset.first_name("low")
        rare_name = dataset.first_name("high")

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # extra CLI args (e.g. --workers 2) pass straight through to serve
        extra_args = sys.argv[1:]
        print(
            "starting: python -m repro serve %s --port 0 %s"
            % (graph_dir, " ".join(extra_args))
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_dir,
             "--name", "smoke", "--port", "0", "--max-concurrency", "2"]
            + extra_args,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            # the serve command prints exactly one listening line first
            deadline = time.time() + STARTUP_TIMEOUT
            line = ""
            while time.time() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    break
                if process.poll() is not None:
                    raise RuntimeError("server exited during startup")
            check("listening on" in line, "server announced its address")
            address = line.strip().rsplit(" ", 1)[-1]
            base = "http://%s" % address
            print("server at %s" % base)

            status, health = http("GET", base + "/health")
            check(status == 200 and health["status"] == "ok", "GET /health")
            check(health["graphs"] == ["smoke"], "graph registered as 'smoke'")

            query = ("MATCH (p:Person) WHERE p.firstName = $name "
                     "RETURN p.firstName, p.lastName")
            status, result = http("POST", base + "/query", {
                "graph": "smoke", "query": query,
                "parameters": {"name": common_name},
            })
            check(status == 200, "POST /query (parameterized)")
            check(result["row_count"] >= 1, "query returned rows")

            status, prepared = http("POST", base + "/prepare", {
                "graph": "smoke", "query": query,
            })
            check(status == 200, "POST /prepare")
            check(prepared["parameter_names"] == ["name"],
                  "statement declares $name")

            rows_by_name = {}
            leaves = []  # engine.leaves after each execution
            for name in (common_name, rare_name):
                status, result = http("POST", base + "/execute", {
                    "statement_id": prepared["statement_id"],
                    "parameters": {"name": name},
                })
                check(status == 200, "POST /execute (name=%s)" % name)
                rows_by_name[name] = result["rows"]
                leaves.append(
                    http("GET", base + "/metrics")[1]["engine"]["leaves"])
            if "--no-columnar" in extra_args:
                check(not any(leaves[-1].values()),
                      "the reference path keeps no leaf table: %s" % leaves[-1])
            else:
                check(leaves[-1]["probes"] >= 2 and leaves[-1]["scans"] == 0,
                      "each binding probed the firstName index: %s"
                      % leaves[-1])
                check(0 < leaves[0]["tables"] == leaves[1]["tables"],
                      "the second execution built no leaf table")
            check(
                all(row["p.firstName"] == common_name
                    for row in rows_by_name[common_name]),
                "binding 1 returns only its own matches",
            )
            check(
                all(row["p.firstName"] == rare_name
                    for row in rows_by_name[rare_name]),
                "rebinding returns the new binding's matches",
            )

            status, body = http("POST", base + "/query", {
                "graph": "nope", "query": query,
            })
            check(status == 404, "unknown graph -> 404")

            # a stock client: keep-alive, ACKs delayed as the kernel defaults
            host, _, port = address.rpartition(":")
            connection = HTTPConnection(host, int(port), timeout=30)
            request = json.dumps({
                "statement_id": prepared["statement_id"],
                "parameters": {"name": rare_name},
            })
            latencies, statuses = [], set()
            for _ in range(20):
                started = time.perf_counter()
                connection.request("POST", "/execute", body=request)
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                statuses.add(response.status)
            connection.close()
            check(statuses == {200}, "20 keep-alive POST /execute")
            median_ms = statistics.median(latencies) * 1e3
            check(median_ms < 20.0,
                  "median of 20 small requests %.2f ms < 20 ms" % median_ms)

            before = http("GET", base + "/metrics")[1]["engine"]["result"]
            length, body = raw_post(address, "/query", {
                "graph": "smoke", "query": BIG_QUERY,
            })
            check(length == len(body) >= 1 << 20,
                  "Content-Length %d == %d bytes read, >= 1 MB"
                  % (length, len(body)))
            answer = json.loads(body)
            check(answer["row_count"] == len(answer["rows"]) > 0,
                  "row_count == len(rows) == %d" % answer["row_count"])

            status, metrics = http("GET", base + "/metrics")
            check(status == 200 and metrics["completed"] >= 3, "GET /metrics")
            crossed = {
                key: value - before[key]
                for key, value in metrics["engine"]["result"].items()
            }
            per_record = (
                crossed["chunks"] if "--no-columnar" in extra_args else 0
            )
            check(crossed["rows"] == answer["row_count"]
                  and crossed["chunks"] > 1
                  and crossed["reencoded_partitions"] == per_record,
                  "the big answer crossed the result boundary as %s" % crossed)
            # one expansion: the kernel's chunks on the default engine,
            # the iterated join under --no-columnar, the same rows
            before = metrics["engine"]
            status, paths = http("POST", base + "/query", {
                "graph": "smoke", "query": PATH_QUERY,
                "parameters": {"name": rare_name},
            })
            per_record = CypherRunner(
                CSVDataSource(graph_dir).get_logical_graph(
                    ExecutionEnvironment()
                ),
                mode="reference",
            )
            reference = per_record.execute_table(
                PATH_QUERY, {"name": rare_name})
            canonical = json.JSONEncoder(sort_keys=True, default=str).encode
            check(status == 200 and paths["row_count"] > 0
                  and sorted(map(canonical, paths["rows"]))
                  == sorted(map(canonical, reference)),
                  "knows*1..3: %d rows, the reference loop's multiset"
                  % paths["row_count"])
            engine = http("GET", base + "/metrics")[1]["engine"]
            crossed = {
                key: value - before["result"][key]
                for key, value in engine["result"].items()
            }
            check(engine["chunk_fallbacks"] == before["chunk_fallbacks"]
                  and crossed["reencoded_partitions"] == (
                      crossed["chunks"] if "--no-columnar" in extra_args
                      else 0),
                  "knows*1..3 crossed as %s, no fallback taken" % crossed)
            check(engine["adjacency"]["edges"] > 0
                  and engine["adjacency"]["bytes"] > 0,
                  "resident adjacency %s" % engine["adjacency"])
            # an answer of ids only, off the raw socket: the id-matrix
            # writer's bytes are what Content-Length announces, and the
            # rows are the reference loop's
            before = engine["result"]
            length, body = raw_post(address, "/query", {
                "graph": "smoke", "query": ID_QUERY,
            })
            engine = http("GET", base + "/metrics")[1]["engine"]
            crossed = {
                key: value - before[key]
                for key, value in engine["result"].items()
            }
            check(length == len(body), "Content-Length %d == %d bytes read"
                  % (length, len(body)))
            answer = json.loads(body)
            check(answer["row_count"] == len(answer["rows"]) > 0
                  and crossed["chunks"] > 1
                  and sorted(map(canonical, answer["rows"]))
                  == sorted(map(canonical, per_record.execute_table(ID_QUERY))),
                  "ids only: %d rows in %d batches, the reference's multiset"
                  % (answer["row_count"], crossed["chunks"]))
            # fixed-length edges: a hop, and a pair probe for the edge
            # that closes the triangle, in place of edge-leaf hash joins
            before = engine
            for text in JOIN_QUERIES:
                status, joined = http("POST", base + "/query", {
                    "graph": "smoke", "query": text,
                })
                check(status == 200 and joined["row_count"] > 0
                      and sorted(map(canonical, joined["rows"]))
                      == sorted(map(canonical, per_record.execute_table(text))),
                      "%d rows, the per-record reference's multiset: %s"
                      % (joined["row_count"], text[:48]))
            engine = http("GET", base + "/metrics")[1]["engine"]
            grown = {
                key: engine["adjacency"][key] - before["adjacency"][key]
                for key in ("hop_joins", "pair_joins")
            }
            if "--no-columnar" in extra_args:
                check(not any(grown.values())
                      and not engine["adjacency"]["hop_joins"],
                      "the reference path joins no adjacency: %s" % grown)
            else:
                check(grown["hop_joins"] >= 3 and grown["pair_joins"] >= 1
                      and engine["chunk_fallbacks"]
                      == before["chunk_fallbacks"],
                      "joined through the adjacency, no fallback: %s" % grown)
            # Q2: its joins with (person:Person) and (post:Post) look the
            # leaf rows up instead of shuffling both sides
            before = engine["adjacency"]["lookup_joins"]
            text = instantiate(QUERY_2, common_name)
            status, answer = http("POST", base + "/query", {
                "graph": "smoke", "query": text,
            })
            check(status == 200 and answer["row_count"] > 0
                  and sorted(map(canonical, answer["rows"]))
                  == sorted(map(canonical, per_record.execute_table(text))),
                  "Q2: %d rows, the per-record reference's multiset"
                  % answer["row_count"])
            engine = http("GET", base + "/metrics")[1]["engine"]
            looked_up = engine["adjacency"]["lookup_joins"] - before
            if "--no-columnar" in extra_args:
                check(not engine["adjacency"]["lookup_joins"],
                      "the reference path looks no vertex up")
            else:
                check(looked_up >= 2
                      and not any(engine["chunk_fallbacks"].values()),
                      "Q2 looked vertex rows up %d times, fallbacks %s"
                      % (looked_up, engine["chunk_fallbacks"]))

            # Q4: six values a row, written from record texts made once
            bodies = []
            for _ in range(2):
                length, body = raw_post(address, "/query", {
                    "graph": "smoke", "query": QUERY_4,
                })
                check(length == len(body), "Q4: Content-Length %d == %d bytes "
                      "read" % (length, len(body)))
                bodies.append(body[:body.index(b'"elapsed_seconds"')])
            answer = json.loads(body)
            check(answer["row_count"] == len(answer["rows"]) > 0
                  and sorted(map(canonical, answer["rows"]))
                  == sorted(map(canonical, per_record.execute_table(QUERY_4))),
                  "Q4: %d rows, the per-record reference's multiset"
                  % answer["row_count"])
            check(bodies[0] == bodies[1], "Q4: both answers byte-identical")
            texts = http("GET", base + "/metrics")[1]["engine"]["leaves"]["texts"]
            if "--no-columnar" in extra_args:
                check(texts == 0, "the reference path keeps no record text")
            else:
                check(texts > 0, "%d resident record texts" % texts)

            check(metrics["plan_cache"]["hits"] >= 1,
                  "plan cache saw warm hits")
            check(metrics["gc"]["frozen"] > 0,
                  "graph heap frozen (%d objects)" % metrics["gc"]["frozen"])
            mode = (
                "reference" if "--no-columnar" in extra_args else "columnar"
            )
            check(metrics["engine"]["mode"] == mode,
                  "engine mode %r, chunk fallbacks %s" % (
                      metrics["engine"]["mode"],
                      metrics["engine"]["chunk_fallbacks"]))

            status, body = http("POST", base + "/shutdown")
            check(status == 200, "POST /shutdown acknowledged")
            process.wait(timeout=SHUTDOWN_TIMEOUT)
            remaining = process.stdout.read()
            check(process.returncode == 0, "server exited with status 0")
            check("shut down cleanly" in remaining, "clean shutdown message")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    if failures:
        print("serve smoke: %d FAILURE(S)" % len(failures))
        return 1
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
