"""The traced run: per-layer metrics from in-process replay.

Loads the benchmark CSV the way ``repro serve`` does and replays each
traced slot through the layers' public functions one call at a time, a
span per call.  Spans are recorded here, around the calls into each
layer — never inside ``src/`` — kept in memory, and written to
``bench/out/trace-<workload>.json`` at the end.  End-to-end metrics are
never taken from this run; the three figures that need the real server
(``gap_ms``, ``queue_ms``, ``plan_hit_ratio``) come from one untimed-for-
metrics round of the end-to-end loop.
"""

import contextlib
import gc
import json
import os
import shutil
import tempfile
import time
from multiprocessing import forkserver, resource_tracker

from repro.analysis.linter import lint_query
from repro.cypher.query_graph import QueryHandler
from repro.dataflow.workers import decode_records, encode_records
from repro.dataflow.workers.channels import RingSegment
from repro.engine import GreedyPlanner
from repro.engine.columnar import chunk_from_embeddings, shuffle_split
from repro.server.cache import prepared_cache_key

from . import OUT_DIR, endtoend, estimators, golden, workloads
from .inprocess import Loaded

#: request-path spans are floors of REPS calls per slot; the mode grid,
#: the operator attribution and the pooled runs, each several times the
#: cost of the request itself, are floors of GRID_REPS
REPS = 3
GRID_REPS = 2
#: slots replayed on the worker pool (the first of the traced ones)
POOLED_SLOTS = 2
FAMILIES = ("leaves", "filter_project", "join", "expand", "value_join")
MODES = {
    "per_record": {"fused": False, "columnar": False},
    "batched": {"fused": True, "columnar": False},
    "columnar": {"fused": True, "columnar": True},
}
_RING_PAYLOAD = 1 << 20


class Tracer:
    """In-memory spans: name, start, end, parent span, slot, repetition."""

    def __init__(self):
        self.spans = []
        self.slot = None
        self.rep = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = {
            "name": name, "slot": self.slot, "rep": self.rep,
            "parent": self._open[-1] if self._open else None,
            "start": None, "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Per span: its duration minus the durations of its children."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def floors(self, name):
        """``slot -> min over repetitions of the summed self time``.

        Several spans of one name inside one repetition (the operators of
        one family) add up before the floor is taken.
        """
        sums = {}
        for span, own in zip(self.spans, self.self_times()):
            if span["name"] == name:
                key = (span["slot"], span["rep"])
                sums[key] = sums.get(key, 0.0) + own
        result = {}
        for (slot, _), value in sums.items():
            result[slot] = min(value, result.get(slot, float("inf")))
        return result

    def mean_ms(self, name, slots):
        """Mean across ``slots`` of the floor, in ms; 0 with no call."""
        per_slot = self.floors(name)
        return 1e3 * estimators.mean(per_slot.get(slot, 0.0) for slot in slots)

    def dump(self, path, extra):
        document = dict(extra, spans=[
            dict(span, self_s=own)
            for span, own in zip(self.spans, self.self_times())
        ])
        with open(path, "w") as handle:
            json.dump(document, handle)


def physical_postorder(root):
    stack = [(root, False)]
    while stack:
        operator, expanded = stack.pop()
        if expanded:
            yield operator
        else:
            stack.append((operator, True))
            stack.extend((child, False) for child in reversed(operator.children))


def family(operator):
    """The ``engine.operators`` module an operator comes from."""
    name = type(operator).__module__.rsplit(".", 1)[-1]
    if name not in FAMILIES:
        raise KeyError("operator family %r has no per-layer metric" % name)
    return name


def _best(function, repetitions):
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _identity(record):
    return record


class Replay:
    """One workload replayed layer by layer on one loaded graph."""

    def __init__(self, workload, loaded, tracer):
        self.workload = workload
        self.loaded = loaded
        self.tracer = tracer
        self.environment = loaded.environment
        self.service = loaded.service()
        self.runner = loaded.runner(plan_cache=self.service.plan_cache)
        self.graph_name = loaded.args.name
        self.statements = {}
        self.handles = {}
        self.untraced = {}
        self.counts = {}
        #: codec -> [units moved, seconds]: bytes for the codecs, rows for
        #: the shuffle split; summed over slots, then divided
        self.codecs = {name: [0, 0.0] for name in (
            "chunk_encode", "chunk_decode", "shuffle_split",
            "wire_encode", "wire_decode")}
        if workload.prepared:
            for shape, text in workload.shapes.items():
                self.handles[shape] = self.service.prepare(
                    self.graph_name, text).statement_id
                self.statements[shape] = self.service.plan_cache.get(
                    prepared_cache_key(self.runner, text))

    # One slot ----------------------------------------------------------------

    def slot(self, slot):
        tracer = self.tracer
        tracer.slot = slot.key
        self._execute(slot, "warm-up")
        for rep in range(REPS):
            tracer.rep = rep
            rows, resp_bytes = self._request(slot, tracer, "t%d" % rep)
            gc.collect()
            started = time.perf_counter()
            self._execute(slot, "u%d" % rep)
            elapsed = time.perf_counter() - started
            self.untraced[slot.key] = min(
                elapsed, self.untraced.get(slot.key, elapsed))
            root, job = self._layers(slot, tracer, "l%d" % rep)
            if rep < GRID_REPS:
                self._grid(slot, tracer, root)
        self.counts[slot.key].update(
            rows=rows,
            resp_bytes=resp_bytes,
            operators=sum(1 for _ in physical_postorder(root)),
            shuffled_bytes=job.total_shuffled_bytes,
            shuffled_records=job.total_shuffled_records,
            operator_runs=len(job.runs),
        )

    def _span(self, name):
        """A span that starts from a collected heap.

        How long an allocation-heavy call takes depends on what the
        collector finds when it runs: the first call after a full
        collection is 15-20 % faster than the next one.  Collecting before
        every timed call gives each layer the same conditions, so their
        times add up; the loaded graph is frozen out of the collector's
        reach, which keeps these collections cheap.
        """
        gc.collect()
        return self.tracer.span(name)

    def _execute(self, slot, literal):
        if self.workload.prepared:
            return self.service.execute_prepared(
                self.handles[slot.shape], parameters=slot.parameters)
        return self.service.execute(self.graph_name, slot.query(literal))

    def _request(self, slot, tracer, literal):
        """The request as the HTTP handler runs it: decode, execute, encode.

        Returns ``(row count, response bytes)``.
        """
        if self.workload.prepared:
            payload = {"statement_id": self.handles[slot.shape],
                       "parameters": slot.parameters}
        else:
            payload = {"graph": self.graph_name, "query": slot.query(literal)}
        raw = json.dumps(payload).encode()
        with tracer.span("request"):
            with tracer.span("server.protocol.decode"):
                json.loads(raw.decode("utf-8"))
            with self._span("server.service.execute"):
                result = self._execute(slot, literal)
            with self._span("server.protocol.encode"):
                body = json.dumps(result.to_dict(), default=str)
        return result.row_count, len(body)

    def _layers(self, slot, tracer, literal):
        """The same request, one public call per layer."""
        with tracer.span("replay"):
            if self.workload.prepared:
                statement = self.statements[slot.shape]
                with tracer.span("cache.plan_lookup"):
                    self.service.plan_cache.get(
                        prepared_cache_key(self.runner, slot.text))
                with self._span("engine.prepared.bind_run"):
                    statement.run(slot.parameters)
                handler, root = statement.handler, statement.root
            elif "{lit}" in slot.text:  # a text never seen: the cold path
                text = slot.query(literal)
                with tracer.span("analysis.linter.lint"):
                    lint_query(text, statistics=self.loaded.statistics)
                with tracer.span("cypher.parse"):
                    handler = QueryHandler(text)
                with tracer.span("engine.planning.plan"):
                    root = GreedyPlanner(
                        self.loaded.graph, handler, self.loaded.statistics,
                        vertex_strategy=self.loaded.vertex_strategy,
                        edge_strategy=self.loaded.edge_strategy,
                    ).plan()
            else:
                with tracer.span("cache.plan_lookup"):
                    handler, root = self.runner.compile(slot.text)
            with self._span("dataflow.collect"):
                with self.environment.job("trace") as job:
                    embeddings = root.evaluate().collect()
            with self._span("engine.runner.build_rows"):
                self.runner.build_rows(handler, embeddings, root.meta)
        return root, job

    def _grid(self, slot, tracer, root):
        """The mode grid and the per-operator attribution of one plan."""
        dataset = root.evaluate()
        stats = {name: [0, 0] for name in FAMILIES}
        supersteps = set()
        with tracer.span("grid"):
            for mode, flags in MODES.items():
                with self._span("dataflow.mode." + mode):
                    dataset.collect(**flags)
            # post-order over a shared cache, per record, so that every
            # intermediate exists and each operator's span is its own work
            cache = {}
            for operator in physical_postorder(root):
                name = family(operator)
                with self.environment.job("attribution") as job:
                    with self._span("engine.operators." + name):
                        partitions = self.environment.run(
                            operator.evaluate().operator, cache=cache,
                            fused=False)
                records = [record for part in partitions for record in part]
                size = sum(record.serialized_size() for record in records)
                stats[name][0] += len(records)
                stats[name][1] += size
                supersteps.update(
                    (id(operator), run.iteration) for run in job.runs
                    if run.iteration is not None)
                if name == "leaves":
                    self._chunk_codec(records, size)
            self._wire_codec(records)  # the root's output: the result
        self.counts[slot.key] = dict(
            {name: tuple(value) for name, value in stats.items()},
            supersteps=len(supersteps))

    def _account(self, codec, amount, seconds):
        self.codecs[codec][0] += amount
        self.codecs[codec][1] += seconds

    def _chunk_codec(self, records, size):
        """Columnar chunk encode / decode / shuffle split of a leaf output."""
        started = time.perf_counter()
        chunk = chunk_from_embeddings(records)
        encoded = time.perf_counter()
        if chunk is None:  # an empty or non-uniform batch has no chunk
            return
        chunk.to_embeddings()
        decoded = time.perf_counter()
        shuffle_split([chunk], (0,), self.environment.parallelism, 0)
        split = time.perf_counter()
        self._account("chunk_encode", size, encoded - started)
        self._account("chunk_decode", size, decoded - encoded)
        self._account("shuffle_split", len(records), split - decoded)

    def _wire_codec(self, records):
        """The worker wire codec on a result."""
        started = time.perf_counter()
        fmt, data = encode_records(records)
        encoded = time.perf_counter()
        decode_records(fmt, data)
        self._account("wire_encode", len(data), encoded - started)
        self._account("wire_decode", len(data), time.perf_counter() - encoded)

    # The workload's metrics ----------------------------------------------------

    def metrics(self, slots):
        tracer = self.tracer
        keys = [slot.key for slot in slots]
        mean = estimators.mean
        out = {}
        for metric, span in (
            ("server.protocol.decode_ms", "server.protocol.decode"),
            ("server.protocol.encode_ms", "server.protocol.encode"),
            ("server.service.execute_ms", "server.service.execute"),
            ("cypher.parse_ms", "cypher.parse"),
            ("analysis.linter.lint_ms", "analysis.linter.lint"),
            ("engine.planning.plan_ms", "engine.planning.plan"),
            ("dataflow.collect_ms", "dataflow.collect"),
            ("engine.runner.build_rows_ms", "engine.runner.build_rows"),
        ):
            out[metric] = tracer.mean_ms(span, keys)
        for mode in MODES:
            out["dataflow.mode.%s_ms" % mode] = tracer.mean_ms(
                "dataflow.mode." + mode, keys)
        out["cache.plan_lookup_us"] = 1e3 * tracer.mean_ms(
            "cache.plan_lookup", keys)
        bind_run = tracer.mean_ms("engine.prepared.bind_run", keys)
        collect = out["dataflow.collect_ms"]
        out["engine.prepared.bind_run_ms"] = (
            bind_run - collect if self.workload.prepared else 0.0)
        # the layers the request passes through, each measured on its own
        # call; what execute() spends beyond them is the service's overhead
        below = (
            out["cypher.parse_ms"] + out["analysis.linter.lint_ms"]
            + out["engine.planning.plan_ms"]
            + out["cache.plan_lookup_us"] / 1e3
            + (bind_run if self.workload.prepared else collect)
            + out["engine.runner.build_rows_ms"]
        )
        execute = out["server.service.execute_ms"]
        out["server.service.overhead_ms"] = execute - below
        out["trace.coverage"] = below / execute
        untraced = 1e3 * mean(self.untraced[key] for key in keys)
        out["trace.overhead_frac"] = (execute - untraced) / untraced
        out["server.protocol.resp_bytes"] = mean(
            self.counts[key]["resp_bytes"] for key in keys)
        # per-record attribution, scaled to the default mode's collect time
        family_ms = {name: tracer.mean_ms("engine.operators." + name, keys)
                     for name in FAMILIES}
        attributed = sum(family_ms.values())
        for name in FAMILIES:
            prefix = "engine.operators.%s." % name
            out[prefix + "self_ms"] = (
                collect * family_ms[name] / attributed if attributed else 0.0)
            out[prefix + "rows_out"] = mean(
                self.counts[key][name][0] for key in keys)
            out[prefix + "bytes_out"] = mean(
                self.counts[key][name][1] for key in keys)
        out["engine.operators.expand.supersteps"] = mean(
            self.counts[key]["supersteps"] for key in keys)
        out["engine.planning.operators"] = mean(
            self.counts[key]["operators"] for key in keys)
        out["engine.runner.rows"] = mean(
            self.counts[key]["rows"] for key in keys)
        for name in ("shuffled_bytes", "shuffled_records", "operator_runs"):
            out["dataflow." + name] = mean(
                self.counts[key][name] for key in keys)
        for metric, codec in (
            ("engine.columnar.encode_mb_s", "chunk_encode"),
            ("engine.columnar.decode_mb_s", "chunk_decode"),
            ("engine.columnar.shuffle_split_mrows_s", "shuffle_split"),
            ("dataflow.workers.codec_encode_mb_s", "wire_encode"),
            ("dataflow.workers.codec_decode_mb_s", "wire_decode"),
        ):
            amount, seconds = self.codecs[codec]
            out[metric] = amount / seconds / 1e6
        return out


def workers_layer(csv_dir, slots, columnar_floor_s):
    """``dataflow.workers.*``: the pool's parts, then whole pooled plans.

    Recorded and annotated with ``nproc``, never gated: with more
    runnable processes than cores the ratios say what the pool costs
    here, not what it gains elsewhere.
    """
    out = {}
    ring = RingSegment(capacity=8 * _RING_PAYLOAD)
    try:
        payload = b"\x5a" * _RING_PAYLOAD

        def transfer():
            offset, length = ring.try_write(payload)
            ring.read(offset, length)

        out["dataflow.workers.ring_mb_s"] = (
            _RING_PAYLOAD / _best(transfer, 20) / 1e6)
    finally:
        ring.close()
    for count in (1, 2):
        loaded = Loaded(csv_dir, workers=count, columnar=True)
        environment = loaded.environment
        try:
            empty = environment.from_partitions(
                [[] for _ in range(environment.parallelism)]).map(_identity)
            first = _best(empty.collect, 1)  # starts the pool
            round_trip = _best(empty.collect, 10)
            if count == 1:
                out["dataflow.workers.spawn_s"] = first - round_trip
                out["dataflow.workers.dispatch_rtt_ms"] = round_trip * 1e3
            runner = loaded.runner()
            pooled_s = 0.0
            for slot in slots:
                text = slot.query("pooled")
                runner.execute_embeddings(text, slot.parameters)  # ship specs
                pooled_s += _best(
                    lambda: runner.execute_embeddings(text, slot.parameters),
                    GRID_REPS)
            out["dataflow.workers.pooled%d_ratio" % count] = (
                pooled_s / columnar_floor_s)
        finally:
            environment.shutdown_workers()
    # the pool's helper processes end only when this process does; the
    # benchmark must have waited for every process it started by then
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    return out


def run(name, seed):
    """The traced run of one workload; returns a result dict."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR)
    try:
        csv_dir = os.path.join(scratch, "graph")
        workload = workloads.build(name, workloads.write_graph(csv_dir))
        # one round of the real loop, for the figures only the server has
        served = endtoend.Round(
            workload, golden.load(name), csv_dir, seed, 0
        ).run(budget_s=0.0, min_passes=1)
        summary = endtoend.summarise([served])
        loaded = Loaded(csv_dir)
        tracer = Tracer()
        replay = Replay(workload, loaded, tracer)
        gc.collect()
        gc.freeze()
        slots = workload.trace_slots()
        for slot in slots:
            replay.slot(slot)
        replay.service.close()
        metrics = replay.metrics(slots)
        pooled = slots[:POOLED_SLOTS]
        columnar = tracer.floors("dataflow.mode.columnar")
        metrics.update(workers_layer(
            csv_dir, pooled, sum(columnar[slot.key] for slot in pooled)))
        metrics.update(summary["layers"])
        metrics["epgm.io.csv_load_s"] = loaded.csv_load_s
        metrics["engine.statistics.statistics_s"] = loaded.statistics_s
        tracer.dump(
            os.path.join(OUT_DIR, "trace-%s.json" % name),
            {"workload": name, "seed": seed, "nproc": os.cpu_count(),
             "slots": [slot.key for slot in slots], "metrics": metrics},
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = summary["failures"]
    return {
        "correct": not failures,
        "attempted": summary["attempted"],
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }
