"""Real-time engine microbenchmarks: columnar vs batched vs per-record.

The experiment runners in :mod:`repro.harness.experiments` report
*simulated* cluster runtimes from the cost model; these benchmarks
measure the actual CPU cost of the Python engine itself — the number the
batched execution mode (docs/architecture.md, "Execution model: batching
and fusion") exists to reduce.  ``repro bench-micro`` and
``make bench-micro`` call :func:`run_microbench` and write the report as
a ``BENCH_<n>.json`` trajectory file at the repo root so successive
changes leave a comparable series of measurements behind.

Methodology, chosen for stability on noisy shared machines:

* ``time.process_time`` (CPU time) rather than wall clock;
* the GC is paused around every timed region and collected between them;
* trials of all modes are interleaved round-robin, so slow drift in
  machine load hits every mode equally;
* one untimed warm-up round per (query, mode) pays plan compilation and
  dataset partitioning up front.
"""

import gc
import json
import os
import platform
import re
import time
from statistics import median, stdev

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.ldbc import LDBCGenerator

from .experiments import default_cost_model
from .queries import ALL_QUERIES, instantiate

#: The acceptance pair: an operational one-hop pattern (Q1) and the
#: analytical triangle (Q5) — leaf-dominated and join-dominated work.
DEFAULT_QUERIES = ("Q1", "Q5")

#: Pinned benchmark graph scale.  SF 0.1 medians sit in the
#: single-millisecond range where scheduler noise swamps real deltas;
#: SF 0.2 is the smallest scale at which repeated runs of the same
#: build agree to a few percent, so trajectory files stay comparable.
DEFAULT_SCALE_FACTOR = 0.2

#: Pinned timed trials per (query, mode) after the untimed warm-up.
DEFAULT_REPEATS = 5

#: Execution modes timed by :func:`run_microbench`, in report order:
#: fused/batched (the PR 5 baseline), fused over columnar chunks, and
#: the unfused per-record interpreter.
MICRO_MODES = ("batched", "columnar", "per-record")

#: worker-process counts swept by :func:`run_worker_sweep`
DEFAULT_WORKER_SWEEP = (1, 2, 4, 8)

#: dataflow parallelism pinned across the worker sweep: divisible by
#: every swept worker count, so partition ownership stays balanced
SWEEP_PARALLELISM = 8


def plan_bytes_moved(root):
    """Embedding bytes crossing every operator boundary of one plan.

    Executes the plan once (shared dataflow cache, per-record mode so
    every intermediate is observable) and sums the serialized size of
    each physical operator's output embeddings — the §3.3 bytes a
    distributed runtime would actually move between operators.  This is
    the number liveness-driven pruning (``CypherRunner(prune=True)``)
    exists to reduce.
    """
    cache = {}
    total = 0
    for operator in root.postorder():
        dataset = operator.evaluate()
        partitions = dataset.environment.run(
            dataset.operator, cache=cache, fused=False
        )
        total += sum(
            embedding.serialized_size()
            for partition in partitions
            for embedding in partition
        )
    return total


def _timed(environment, runner, query):
    """One execution; returns (cpu_seconds, result_count)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with environment.job("bench-micro"):
            start = time.process_time()
            embeddings, _ = runner.execute_embeddings(query)
            elapsed = time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()
    gc.collect()
    return elapsed, len(embeddings)


def _timed_wall(environment, runner, query):
    """One execution; returns (wall_seconds, result_count).

    The multi-process sweep must time wall clock: worker processes burn
    their CPU outside the parent, so ``time.process_time`` cannot see
    the work the pool parallelizes.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with environment.job("bench-micro"):
            start = time.perf_counter()
            embeddings, _ = runner.execute_embeddings(query)
            elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    gc.collect()
    return elapsed, len(embeddings)


def run_worker_sweep(
    queries=DEFAULT_QUERIES,
    scale_factor=DEFAULT_SCALE_FACTOR,
    seed=42,
    worker_counts=DEFAULT_WORKER_SWEEP,
    repeats=3,
    batch_size=None,
    selectivity="low",
):
    """Wall-clock speedup curves of multi-process sharded execution.

    Every swept point runs the same queries over the same dataset with
    the dataflow parallelism pinned to :data:`SWEEP_PARALLELISM`, so the
    partitioning — and therefore the work — is identical and only the
    process placement changes.  Trials are interleaved across worker
    counts, one untimed warm-up per count pays process spawn, chain
    shipping and resident source caching up front, and ``speedup`` maps
    each query to the per-count wall-clock ratio against the 1-worker
    pool (both sides pay the same shipping overheads, isolating the
    parallelism win).
    """
    dataset = LDBCGenerator(scale_factor, seed).generate()
    points = {}
    for count in worker_counts:
        environment = ExecutionEnvironment(
            parallelism=SWEEP_PARALLELISM,
            batch_size=batch_size,
            workers=count,
        )
        graph = dataset.to_logical_graph(environment)
        statistics = GraphStatistics.from_graph(graph)
        points[count] = (
            environment,
            CypherRunner(graph, statistics=statistics),
        )

    cases = []
    for name in queries:
        template = ALL_QUERIES[name]
        first_name = (
            dataset.first_name(selectivity) if "{firstName}" in template else None
        )
        cases.append((name, instantiate(template, first_name)))

    samples = {(name, count): [] for name, _ in cases for count in points}
    rows = {}
    try:
        for trial in range(-1, repeats):  # trial -1 is the untimed warm-up
            for name, query in cases:
                for count, (environment, runner) in points.items():
                    elapsed, result_count = _timed_wall(
                        environment, runner, query
                    )
                    if trial < 0:
                        rows[name] = result_count
                    else:
                        samples[name, count].append(elapsed)
    finally:
        for environment, _ in points.values():
            environment.shutdown_workers()

    results = []
    for name, _ in cases:
        for count in worker_counts:
            data = samples[name, count]
            results.append(
                {
                    "query": name,
                    "workers": count,
                    "median_seconds": median(data),
                    "stddev_seconds": stdev(data) if len(data) > 1 else 0.0,
                    "min_seconds": min(data),
                    "rows": rows[name],
                    "seconds": data,
                }
            )
    baseline_count = worker_counts[0]
    speedup = {}
    for name, _ in cases:
        baseline = median(samples[name, baseline_count])
        speedup[name] = {
            str(count): (
                baseline / median(samples[name, count])
                if median(samples[name, count])
                else float("inf")
            )
            for count in worker_counts
        }

    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable_cpus = os.cpu_count()
    return {
        "benchmark": "worker-sweep",
        "scale_factor": scale_factor,
        "seed": seed,
        "parallelism": SWEEP_PARALLELISM,
        "worker_counts": list(worker_counts),
        "baseline_workers": baseline_count,
        "repeats": repeats,
        "clock": "perf_counter",
        # wall-clock scaling is bounded above by the CPUs this process
        # may schedule on: on a single-core host every worker count
        # time-slices the same core and the curve stays flat
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "results": results,
        "speedup": speedup,
    }


def run_microbench(
    queries=DEFAULT_QUERIES,
    scale_factor=DEFAULT_SCALE_FACTOR,
    seed=42,
    workers=4,
    repeats=DEFAULT_REPEATS,
    batch_size=None,
    selectivity="low",
    worker_sweep=None,
):
    """Time each query under batched, columnar, and per-record execution.

    Returns a JSON-ready report dict whose ``results`` list holds one
    record per (query, mode): ``query``, ``mode`` (one of
    :data:`MICRO_MODES`), ``batched`` (false only for the per-record
    interpreter), ``median_seconds``, ``stddev_seconds``,
    ``min_seconds``, ``rows``, and the raw ``seconds`` samples.
    ``speedup`` maps each query to the per-record / batched median
    ratio; ``columnar_speedup`` maps each query to the batched /
    columnar median ratio — the win of running the same fused chains
    over columnar chunks instead of embedding lists.

    ``worker_sweep`` (a sequence of worker-process counts, or ``True``
    for :data:`DEFAULT_WORKER_SWEEP`) additionally runs
    :func:`run_worker_sweep` and attaches its wall-clock speedup curves
    under ``worker_sweep`` in the report.
    """
    dataset = LDBCGenerator(scale_factor, seed).generate()
    modes = {}
    for mode in MICRO_MODES:
        environment = ExecutionEnvironment(
            cost_model=default_cost_model(workers),
            batch_size=batch_size,
            fusion=mode != "per-record",
            columnar=mode == "columnar",
        )
        graph = dataset.to_logical_graph(environment)
        statistics = GraphStatistics.from_graph(graph)
        modes[mode] = (environment, CypherRunner(graph, statistics=statistics))

    cases = []
    for name in queries:
        template = ALL_QUERIES[name]
        first_name = (
            dataset.first_name(selectivity) if "{firstName}" in template else None
        )
        cases.append((name, instantiate(template, first_name)))

    samples = {(name, mode): [] for name, _ in cases for mode in modes}
    rows = {}
    for trial in range(-1, repeats):  # trial -1 is the untimed warm-up
        for name, query in cases:
            for mode, (environment, runner) in modes.items():
                elapsed, count = _timed(environment, runner, query)
                if trial < 0:
                    rows[name] = count
                else:
                    samples[name, mode].append(elapsed)

    results = []
    for name, _ in cases:
        for mode in MICRO_MODES:
            data = samples[name, mode]
            results.append(
                {
                    "query": name,
                    "mode": mode,
                    "batched": mode != "per-record",
                    "median_seconds": median(data),
                    "stddev_seconds": stdev(data) if len(data) > 1 else 0.0,
                    "min_seconds": min(data),
                    "rows": rows[name],
                    "seconds": data,
                }
            )
    speedup = {}
    columnar_speedup = {}
    for name, _ in cases:
        fused = median(samples[name, "batched"])
        plain = median(samples[name, "per-record"])
        chunked = median(samples[name, "columnar"])
        speedup[name] = plain / fused if fused else float("inf")
        columnar_speedup[name] = (
            fused / chunked if chunked else float("inf")
        )

    # Liveness-pruning win: embedding bytes crossing operator boundaries
    # with and without the dead-byte pruning rewriter.  Measured on the
    # per-record environment so every intermediate is observable; one
    # extra execution per (query, pruned) pair.
    environment, _ = modes["per-record"]
    graph = dataset.to_logical_graph(environment)
    statistics = GraphStatistics.from_graph(graph)
    embedding_bytes = {}
    for name, query in cases:
        measured = {}
        for pruned in (False, True):
            runner = CypherRunner(
                graph, statistics=statistics, prune=pruned
            )
            _, root = runner.compile(query)
            measured["pruned" if pruned else "unpruned"] = plan_bytes_moved(
                root
            )
        unpruned = measured["unpruned"]
        measured["reduction_percent"] = (
            100.0 * (unpruned - measured["pruned"]) / unpruned
            if unpruned else 0.0
        )
        embedding_bytes[name] = measured

    report = {
        "benchmark": "engine-microbench",
        "scale_factor": scale_factor,
        "default_scale_factor": DEFAULT_SCALE_FACTOR,
        "seed": seed,
        "workers": workers,
        "repeats": repeats,
        "default_repeats": DEFAULT_REPEATS,
        "batch_size": modes["batched"][0].batch_size,
        "modes": list(MICRO_MODES),
        "clock": "process_time",
        "python": platform.python_version(),
        "results": results,
        "speedup": speedup,
        "columnar_speedup": columnar_speedup,
        "embedding_bytes": embedding_bytes,
    }
    if worker_sweep:
        counts = (
            DEFAULT_WORKER_SWEEP
            if worker_sweep is True
            else tuple(worker_sweep)
        )
        report["worker_sweep"] = run_worker_sweep(
            queries=queries,
            scale_factor=scale_factor,
            seed=seed,
            worker_counts=counts,
            repeats=repeats,
            batch_size=batch_size,
            selectivity=selectivity,
        )
    return report


def format_microbench(report):
    """Human-readable table for one :func:`run_microbench` report."""
    lines = [
        "engine-microbench: SF %s, %d worker(s), %d repeat(s), "
        "batch size %d, %s clock"
        % (
            report["scale_factor"],
            report["workers"],
            report["repeats"],
            report["batch_size"],
            report["clock"],
        ),
        "%-6s %-12s %12s %12s %12s %8s"
        % ("query", "mode", "median [s]", "stddev [s]", "min [s]", "rows"),
    ]
    for record in report["results"]:
        mode = record.get(
            "mode", "batched" if record["batched"] else "per-record"
        )
        lines.append(
            "%-6s %-12s %12.4f %12.4f %12.4f %8d"
            % (
                record["query"],
                mode,
                record["median_seconds"],
                record["stddev_seconds"],
                record["min_seconds"],
                record["rows"],
            )
        )
    for name in sorted(report["speedup"]):
        lines.append(
            "%-6s batched is %.2fx the per-record median"
            % (name, report["speedup"][name])
        )
    for name in sorted(report.get("columnar_speedup", {})):
        lines.append(
            "%-6s columnar is %.2fx the batched median"
            % (name, report["columnar_speedup"][name])
        )
    for name in sorted(report.get("embedding_bytes", {})):
        record = report["embedding_bytes"][name]
        lines.append(
            "%-6s embedding bytes moved: %d unpruned, %d pruned "
            "(%.1f%% reduction)"
            % (
                name,
                record["unpruned"],
                record["pruned"],
                record["reduction_percent"],
            )
        )
    sweep = report.get("worker_sweep")
    if sweep:
        lines.append(
            "worker sweep: SF %s, parallelism %d, %s clock"
            % (sweep["scale_factor"], sweep["parallelism"], sweep["clock"])
        )
        lines.append(
            "%-6s %8s %12s %12s %10s"
            % ("query", "workers", "median [s]", "min [s]", "speedup")
        )
        for record in sweep["results"]:
            lines.append(
                "%-6s %8d %12.4f %12.4f %9.2fx"
                % (
                    record["query"],
                    record["workers"],
                    record["median_seconds"],
                    record["min_seconds"],
                    sweep["speedup"][record["query"]][str(record["workers"])],
                )
            )
    return "\n".join(lines)


def next_trajectory_path(directory="."):
    """``BENCH_<n>.json`` one past the highest existing index."""
    highest = 0
    for entry in os.listdir(directory):
        match = re.fullmatch(r"BENCH_(\d+)\.json", entry)
        if match:
            highest = max(highest, int(match.group(1)))
    return os.path.join(directory, "BENCH_%d.json" % (highest + 1))


def write_microbench(report, path):
    """Write ``report`` to ``path`` as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
