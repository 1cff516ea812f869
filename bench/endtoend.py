"""The end-to-end run: cold server launches driven over one connection.

A *round* is one cold launch of ``python -m repro serve`` with its
default flags: spawn, read the listen line, connect, ``/prepare``, one
warm-up request per shape (end of set-up), *latency passes* over the slots
for :data:`LATENCY_SHARE` of the round budget (at least
:data:`MIN_PASSES` whole ones), *back-to-back passes* for the rest of it
(at least one whole one), ``/shutdown``.  A *run* is
:data:`ROUNDS` rounds; with several workloads the rounds interleave so a
degraded stretch of the machine hits at most one round of each.

Latency passes time the requests as a stock client sees them, the 40 ms
the kernel delays an ACK included.  A server that idles 40 ms between
2 ms requests restarts each on cold caches, and what that costs depends
on the machine's other tenants (15-30 % between runs of the same code);
back-to-back passes ACK at once, so the server works without a pause and
the CPU a request costs is the program's.  Their latencies are not used.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from . import OUT_DIR, SRC, estimators, golden, workloads
from .client import Client, process_tree, tree_cpu_ns, tree_peak_rss_kb

ROUNDS = 3
MIN_PASSES = 2
LATENCY_SHARE = 2 / 3
_LISTEN_PREFIX = "repro-serve listening on "
_REQUEST_TIMEOUT_S = 120
_EXIT_TIMEOUT_S = 30
_TIMING_FIELDS = ("elapsed_seconds", "queue_seconds", "simulated_seconds")


def calibrate():
    """Floor of 5 of a fixed pure-Python kernel, in ms.

    Printed beside each round so a reader can tell a degraded stretch of
    the machine from a change in the program; never used to normalise.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Round:
    """One cold server launch and everything measured during it."""

    def __init__(self, workload, reference, csv_dir, seed, index):
        self.workload = workload
        self.reference = reference
        self.csv_dir = csv_dir
        self.seed = seed
        self.index = index
        self.samples = {slot.key: [] for slot in workload.slots}
        self.failures = []
        self.attempted = 0
        self.passes = 0

    def run(self, budget_s, min_passes=MIN_PASSES):
        self.calib_ms = calibrate()
        shm_before = _shm_entries()
        environment = dict(
            os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(self.seed % 2**32)
        )
        spawned = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.csv_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=environment, text=True,
        )
        children = []
        try:
            line = process.stdout.readline()
            if not line.startswith(_LISTEN_PREFIX):
                raise RuntimeError("server did not start: %r" % line)
            host, _, port = line[len(_LISTEN_PREFIX):].strip().rpartition(":")
            client = Client(host, int(port), timeout=_REQUEST_TIMEOUT_S)
            try:
                self._set_up(client)
                self.setup_s = time.perf_counter() - spawned
                before = self._plan_cache(client)
                self.measured_s = self._passes(
                    client, process.pid, budget_s * LATENCY_SHARE, min_passes)
                self.latency_requests = self.attempted
                client.quick_ack = True
                self._passes(
                    client, process.pid, budget_s * (1 - LATENCY_SHARE), 1)
                after = self._plan_cache(client)
                lookups = (after["hits"] + after["misses"]
                           - before["hits"] - before["misses"])
                self.plan_hit_ratio = (
                    (after["hits"] - before["hits"]) / lookups
                    if lookups else 0.0
                )
                tree = process_tree(process.pid)
                self.peak_rss_kb = tree_peak_rss_kb(tree)
                children = tree[1:]
                client.request("POST", "/shutdown", {})
            finally:
                client.close()
            try:
                process.communicate(timeout=_EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.failures.append("server still running after /shutdown")
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # round hygiene: each violation is a failed operation
        if process.returncode != 0:
            self.failures.append("server exit code %r" % process.returncode)
        survivors = [pid for pid in children
                     if os.path.exists("/proc/%d" % pid)]
        if survivors:
            self.failures.append("surviving child processes %r" % survivors)
        leaked = _shm_entries() - shm_before
        if leaked:
            self.failures.append("leaked /dev/shm entries %r" % sorted(leaked))
        return self

    # Set-up ----------------------------------------------------------------

    def _set_up(self, client):
        """Prepare the statements, then one warm-up request per shape."""
        self.statements = {}
        if self.workload.prepared:
            for shape, text in self.workload.shapes.items():
                status, body, _ = client.request("POST", "/prepare", {
                    "graph": workloads.GRAPH_NAME, "query": text,
                })
                if status != 200:
                    raise RuntimeError("/prepare %s: %d %r"
                                       % (shape, status, body[:200]))
                self.statements[shape] = json.loads(body)["statement_id"]
        warmed = set()
        for slot in self.workload.slots:
            if slot.shape in warmed:
                continue
            warmed.add(slot.shape)
            status, body, _ = self._send(client, slot, "warm-up")
            if status != 200:
                raise RuntimeError("warm-up %s: %d %r"
                                   % (slot.key, status, body[:200]))

    def _send(self, client, slot, literal):
        if self.workload.prepared:
            return client.request("POST", "/execute", {
                "statement_id": self.statements[slot.shape],
                "parameters": slot.parameters,
            })
        return client.request("POST", "/query", {
            "graph": workloads.GRAPH_NAME, "query": slot.query(literal),
        })

    @staticmethod
    def _plan_cache(client):
        status, body, _ = client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError("/metrics: %d" % status)
        return json.loads(body)["plan_cache"]

    # The closed loop --------------------------------------------------------

    def passes_sent(self):
        """``(latency passes, back-to-back passes)``, fractions included."""
        slots = len(self.workload.slots)
        return (self.latency_requests / slots,
                (self.attempted - self.latency_requests) / slots)

    def literal(self, position):
        """A literal no server of this run has been sent before."""
        return "s%dr%dp%dk%d" % (self.seed, self.index, self.passes, position)

    def _passes(self, client, pid, budget_s, min_passes):
        """Cycle through the slots until the budget is spent.

        The phase ends on the budget, not on a pass boundary — so a run
        lasts what ``--seconds`` says whatever a pass costs — once every
        slot has been sent ``min_passes`` times.  Returns its duration.
        """
        started = time.perf_counter()
        last_pass = self.passes + min_passes
        while True:
            tree = process_tree(pid)
            order = self.workload.ordered(self.seed, self.index, self.passes)
            for position, slot in enumerate(order):
                if (self.passes >= last_pass
                        and time.perf_counter() - started >= budget_s):
                    # the next phase must not draw this pass's order and
                    # literals again
                    self.passes += 1
                    return time.perf_counter() - started
                cpu_before = tree_cpu_ns(tree)
                status, body, latency = self._send(
                    client, slot, self.literal(position))
                cpu_ns = tree_cpu_ns(tree) - cpu_before
                self.attempted += 1
                self._record(slot, status, body, cpu_ns,
                             None if client.quick_ack else latency)
            self.passes += 1

    def _record(self, slot, status, body, cpu_ns, latency):
        """Verify one response (outside the timed interval) and keep it.

        ``latency`` is ``None`` in a back-to-back pass: the sample then
        carries no client-side timing.
        """
        expected = self.reference[slot.key]
        if status != 200:
            self.failures.append("%s: HTTP %d" % (slot.key, status))
            return
        result = json.loads(body)
        if (result["row_count"] != expected["row_count"]
                or golden.row_digest(result["rows"]) != expected["digest"]):
            self.failures.append(
                "%s: %d rows differ from the golden %d-row result"
                % (slot.key, result["row_count"], expected["row_count"])
            )
            return
        # the digits of the timing fields vary in number; without them
        # the body length is a count that repeats exactly
        timing_digits = sum(len(repr(result[field]))
                            for field in _TIMING_FIELDS)
        sample = {
            "cpu_ns": cpu_ns,
            "resp_bytes": len(body) - timing_digits,
            "queue_s": result["queue_seconds"],
        }
        if latency is not None:
            sample["latency_s"] = latency
            sample["gap_s"] = latency - result["elapsed_seconds"]
        self.samples[slot.key].append(sample)


def run(names, seed, seconds):
    """Run ``names`` (interleaved); returns ``name -> result dict``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    finished = {name: [] for name in names}
    try:
        csv_dir = os.path.join(scratch, "graph")
        ranked = workloads.write_graph(csv_dir)
        plans = {}
        for name in names:
            workload = workloads.build(name, ranked)
            plans[name] = (workload, golden.load(name))
        for index in range(ROUNDS):
            for name in names:
                workload, reference = plans[name]
                finished[name].append(
                    Round(workload, reference, csv_dir, seed, index)
                    .run(seconds / ROUNDS)
                )
                done = finished[name][-1]
                print("-- %s round %d: calib_ms %.3f, setup_s %.3f, %.1f "
                      "latency + %.1f back-to-back passes, %d attempted, "
                      "%d failed"
                      % (name, index + 1, done.calib_ms, done.setup_s,
                         *done.passes_sent(), done.attempted,
                         len(done.failures)), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = {name: summarise(finished[name]) for name in names}
    if os.path.exists(scratch):
        for result in results.values():
            result["failures"].append("temp CSV dir not removed")
    for result in results.values():
        result["failed"] = len(result["failures"])
        result["correct"] = not result["failures"]
    return results


def summarise(rounds):
    """Fold a workload's rounds into metrics, layer figures and info."""
    samples = {}
    for done in rounds:
        for key, slot_samples in done.samples.items():
            samples.setdefault(key, []).extend(slot_samples)
    failures = [failure for done in rounds for failure in done.failures]
    # a slot that never answered correctly has no floor: count it failed
    # and keep the aggregates over the slots that did
    answered = {
        key: value for key, value in samples.items()
        if any("latency_s" in sample for sample in value)
    }
    metrics = layers = info = None
    if answered:
        metrics = estimators.end_to_end_metrics(
            answered,
            [done.setup_s for done in rounds],
            [done.peak_rss_kb for done in rounds],
        )
        layers = {
            "server.protocol.gap_ms": 1e3 * estimators.nearest_rank(
                list(estimators.floors(answered, "gap_s").values()), 50),
            "server.service.queue_ms": 1e3 * estimators.nearest_rank(
                list(estimators.floors(answered, "queue_s").values()), 50),
            "server.service.plan_hit_ratio": estimators.mean(
                done.plan_hit_ratio for done in rounds),
        }
        info = estimators.raw_summary(
            answered, sum(done.measured_s for done in rounds)
        )
        info["slots"] = len(answered)
    return {
        "attempted": sum(done.attempted for done in rounds),
        "failures": failures,
        "metrics": metrics,
        "layers": layers,
        "info": info,
        "passes": [[round(sent, 1) for sent in done.passes_sent()]
                   for done in rounds],
    }
