"""Command-line interface.

.. code-block:: bash

    python -m repro generate --scale-factor 0.1 --output /tmp/sn
    python -m repro query /tmp/sn "MATCH (p:Person) RETURN count(*) AS n"
    python -m repro explain /tmp/sn "MATCH (a:Person)-[:knows]->(b) RETURN *"
    python -m repro lint "MATCH (a) WHERE a.age > 5 AND a.age < 3 RETURN a"
    python -m repro check /tmp/sn "MATCH (a:Person)-[:knows*1..2]->(b) RETURN *"
    python -m repro stats /tmp/sn
    python -m repro bench --experiment fig5
    python -m repro serve /tmp/sn --port 7474
    python -m repro bench-serve --clients 8
"""

import argparse
import gc
import sys

from repro.cypher.errors import CypherSyntaxError
from repro.dataflow import (
    ClusterCostModel,
    DEFAULT_BATCH_SIZE,
    ExecutionEnvironment,
)
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.epgm.io import CSVDataSink, CSVDataSource
from repro.ldbc import LDBCGenerator


def _environment(args):
    model = ClusterCostModel(workers=args.workers)
    # --workers on a subcommand (dest process_workers) means real OS
    # worker processes; the global --workers stays the *simulated*
    # cluster size fed to the cost model
    # only ``serve`` can turn the default off (``--no-columnar``)
    columnar = getattr(args, "columnar", True)
    return ExecutionEnvironment(
        cost_model=model,
        batch_size=getattr(args, "batch_size", None),
        workers=getattr(args, "process_workers", None),
        mode="columnar" if columnar else "reference",
    )


def _load(args):
    import os

    if not os.path.isdir(args.graph):
        raise SystemExit(
            "error: %r is not a graph directory (run 'repro generate' first)"
            % args.graph
        )
    environment = _environment(args)
    source = CSVDataSource(args.graph)
    graph = source.get_logical_graph(environment)
    statistics = source.get_statistics()
    return environment, graph, statistics


def _strategy(text):
    return {
        "homo": MatchStrategy.HOMOMORPHISM,
        "iso": MatchStrategy.ISOMORPHISM,
    }[text]


def cmd_generate(args):
    environment = _environment(args)
    dataset = LDBCGenerator(args.scale_factor, args.seed).generate()
    graph = dataset.to_logical_graph(environment)
    CSVDataSink(args.output).write_logical_graph(graph)
    counts = dataset.counts_by_label()
    print("wrote %s" % args.output)
    for label in sorted(counts):
        print("  %-14s %6d" % (label, counts[label]))
    return 0


def cmd_query(args):
    environment, graph, statistics = _load(args)
    runner = CypherRunner(
        graph,
        vertex_strategy=_strategy(args.vertex_strategy),
        edge_strategy=_strategy(args.edge_strategy),
        statistics=statistics,
        # the simulated cluster it reports is the reference path's
        mode="reference",
    )
    environment.reset_metrics("query")
    rows = runner.execute_table(args.cypher)
    columns = list(rows[0]) if rows else []
    if columns:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(str(row[column]) for column in columns))
    print(
        "-- %d row(s); simulated %.2f s on %d workers; %d records shuffled"
        % (
            len(rows),
            environment.simulated_runtime_seconds(),
            args.workers,
            environment.metrics.total_shuffled_records,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_explain(args):
    _, graph, statistics = _load(args)
    runner = CypherRunner(graph, statistics=statistics)
    if args.analyze:
        print(runner.explain_analyze(args.cypher))
    else:
        print(runner.explain(args.cypher))
    for diagnostic in runner.last_diagnostics:
        print(diagnostic.format(args.cypher), file=sys.stderr)
    return 0


def cmd_lint(args):
    """Static query diagnostics without executing.

    Exit codes: 0 clean, 1 error diagnostics, 2 syntax error,
    3 warnings only (the shared analysis-CLI contract; see
    docs/analysis.md).
    """
    from repro.analysis import lint_query

    statistics = None
    if args.graph is not None:
        import os

        if not os.path.isdir(args.graph):
            raise SystemExit("error: %r is not a graph directory" % args.graph)
        statistics = CSVDataSource(args.graph).get_statistics()
        if statistics is None:
            raise SystemExit(
                "error: %r has no statistics; re-export the graph" % args.graph
            )
    try:
        diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in diagnostics:
        print(diagnostic.format(args.cypher))
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    print(
        "-- %d error(s), %d warning(s)" % (errors, warnings), file=sys.stderr
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_check(args):
    """The whole analysis battery for one query.

    Lints; then, under each of the three planners, analyzes the physical
    plan (structure, layout flow, dead bytes and cost bounds — S300,
    S3xx, S4xx) and classifies every dataflow UDF (P4xx); then runs the
    sanitized differential and the estimate audit.  With
    ``--max-cost-bound`` the cost certificates are checked like the
    query service's admission control would (S405).  Each distinct
    diagnostic prints and counts once, however many planners report it.
    Exit codes: 0 clean, 1 error diagnostics, 2 syntax error,
    3 warnings only.
    """
    from repro.analysis import differential_check, lint_query
    from repro.engine.planning import (
        ExhaustivePlanner,
        GreedyPlanner,
        LeftDeepPlanner,
    )

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    try:
        lint_diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in lint_diagnostics:
        print(diagnostic.format(args.cypher))
    if any(d.is_blocking for d in lint_diagnostics):
        print("-- blocked: fix the binding errors above", file=sys.stderr)
        return 1

    vertex_strategy = _strategy(args.vertex_strategy)
    edge_strategy = _strategy(args.edge_strategy)
    # the static findings of all planners, each distinct one once
    static = {}
    all_proven = True
    all_shippable = True
    for planner_cls in (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner):
        runner = CypherRunner(
            graph,
            statistics=statistics,
            planner_cls=planner_cls,
            vertex_strategy=vertex_strategy,
            edge_strategy=edge_strategy,
        )
        analysis = runner.analyze(args.cypher)
        ship = runner.check_shippable(args.cypher)
        all_proven = all_proven and analysis.proven
        all_shippable = all_shippable and ship.shippable
        findings = analysis.diagnostics + ship.diagnostics
        admission = analysis.certificate.diagnostic(args.max_cost_bound)
        if admission is not None:
            findings.append(admission)
        static.update(dict.fromkeys(findings))
        print(
            "-- %-18s %s; %s"
            % (planner_cls.__name__, analysis.format_summary(),
               ship.format_summary()),
            file=sys.stderr,
        )
    for diagnostic in static:
        print(diagnostic.format(args.cypher))

    report = differential_check(
        graph,
        args.cypher,
        statistics=statistics,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    )
    for run in report.runs:
        print(
            "-- %-18s %6d row(s), %6d embedding(s) sanitized, %d finding(s)"
            % (run.planner, run.row_count, run.checked, len(run.diagnostics)),
            file=sys.stderr,
        )
    runner = CypherRunner(
        graph,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
        statistics=statistics,
    )
    audit = runner.audit_estimates(args.cypher, max_q_error=args.max_q_error)
    print(audit.format_table(), file=sys.stderr)
    dynamic = list(dict.fromkeys(report.diagnostics + audit.diagnostics))
    for diagnostic in dynamic:
        print(diagnostic.format())

    diagnostics = lint_diagnostics + list(static) + dynamic
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    verdict = [
        "planners agree" if report.agree else "PLANNERS DISAGREE",
        "layout proven" if all_proven else "layout NOT proven",
        "UDFs shippable" if all_shippable else "UDFs NOT shippable",
    ]
    print(
        "-- check: %s; %d error(s), %d warning(s)"
        % ("; ".join(verdict), errors, warnings),
        file=sys.stderr,
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_racecheck(args):
    """Static lock-discipline lint (C3xx) over our own Python source.

    Exit codes match ``repro check``: 0 clean, 1 error diagnostics,
    2 un-parseable source, 3 warnings only.
    """
    from repro.analysis.concurrency import racecheck_paths

    try:
        report = racecheck_paths(args.paths)
    except SyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in report.diagnostics:
        print(diagnostic.format())
    if args.verbose:
        print(report.format_graph(), file=sys.stderr)
    print("-- %s" % report.format_summary(), file=sys.stderr)
    if report.errors:
        return 1
    return 3 if report.warnings else 0


def cmd_wirecheck(args):
    """Wire-protocol verification for the worker runtime (W5xx).

    Layer 1 diffs the message constructors and handler arms extracted
    from the parent/worker sources against the declared pipe
    vocabulary (:mod:`repro.dataflow.workers.messages`); Layer 2
    exhaustively model-checks the cancel/done, spec-cache, ring and
    resident-eviction protocols.  Exit codes match ``repro check``:
    0 clean, 1 error diagnostics, 2 un-parseable source, 3 warnings
    only.
    """
    from repro.analysis.protocol import wirecheck_paths
    from repro.analysis.wire_models import check_all

    try:
        report = wirecheck_paths()
    except SyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    diagnostics = list(report.diagnostics)
    results = check_all(max_states=args.max_states)
    for result in results.values():
        diagnostics.extend(result.diagnostics)
    for diagnostic in diagnostics:
        print(diagnostic.format())
    if args.verbose:
        print(report.format_vocabulary(), file=sys.stderr)
        for result in results.values():
            print(result.format_summary(), file=sys.stderr)
    bounded = [r.model for r in results.values() if not r.complete]
    if bounded:
        print(
            "warning: state cap hit for model(s) %s — absence of "
            "findings is not a proof" % ", ".join(bounded),
            file=sys.stderr,
        )
    states = sum(r.states_explored for r in results.values())
    print(
        "-- %s; %d model(s), %d state(s) explored"
        % (report.format_summary(), len(results), states),
        file=sys.stderr,
    )
    errors = sum(1 for d in diagnostics if d.is_error)
    if errors:
        return 1
    # a capped exploration is a warning: nothing found, nothing proven
    return 3 if len(diagnostics) > errors or bounded else 0


def cmd_stats(args):
    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    print("vertices: %d" % statistics.vertex_count)
    for label in sorted(statistics.vertex_count_by_label):
        print("  :%-14s %6d" % (label, statistics.vertex_count_by_label[label]))
    print("edges: %d" % statistics.edge_count)
    for label in sorted(statistics.edge_count_by_label):
        print(
            "  :%-14s %6d  (distinct sources %d, targets %d)"
            % (
                label,
                statistics.edge_count_by_label[label],
                statistics.distinct_source_by_label.get(label, 0),
                statistics.distinct_target_by_label.get(label, 0),
            )
        )
    return 0


def cmd_shell(args):
    environment, graph, statistics = _load(args)
    runner = CypherRunner(graph, statistics=statistics)
    print(
        "repro shell — %d vertices, %d edges; Cypher queries, "
        "':explain <q>', ':lint <q>', ':sanitize [on|off]', ':quit'"
        % (graph.vertex_count(), graph.edge_count())
    )
    while True:
        try:
            line = input("cypher> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in (":quit", ":exit", ":q"):
            break
        try:
            if line.startswith(":explain "):
                print(runner.explain(line[len(":explain "):]))
                continue
            if line.startswith(":lint "):
                text = line[len(":lint "):]
                diagnostics = runner.lint(text)
                for diagnostic in diagnostics:
                    print(diagnostic.format(text))
                if not diagnostics:
                    print("-- no findings")
                continue
            if line == ":sanitize" or line.startswith(":sanitize "):
                argument = line[len(":sanitize"):].strip()
                if argument in ("", "toggle"):
                    enable = not runner.sanitize
                elif argument in ("on", "raise", "collect"):
                    enable = argument if argument == "collect" else True
                elif argument == "off":
                    enable = False
                else:
                    print("usage: :sanitize [on|off|collect]")
                    continue
                runner.set_sanitize(enable)
                print(
                    "-- sanitized execution %s"
                    % ("off" if not runner.sanitize else
                       "on (%s mode)" % ("collect" if runner.sanitize ==
                                         "collect" else "raise"))
                )
                continue
            environment.reset_metrics("shell")
            rows = runner.execute_table(line)
            columns = list(rows[0]) if rows else []
            if columns:
                print("\t".join(columns))
                for row in rows:
                    print("\t".join(str(row[c]) for c in columns))
            status = "-- %d row(s), simulated %.2f s" % (
                len(rows), environment.simulated_runtime_seconds()
            )
            if runner.last_sanitizer is not None:
                status += "; %s" % runner.last_sanitizer.summary()
            print(status)
        except Exception as exc:  # noqa: BLE001 — REPL keeps running
            print("error: %s" % exc)
    return 0


def cmd_bench(args):
    from repro.harness import (
        SCALE_FACTOR_LARGE,
        SCALE_FACTOR_SMALL,
        datasize_series,
        format_table,
        intermediate_result_sizes,
        selectivity_series,
        speedup_series,
    )

    if args.experiment == "fig3":
        rows = []
        for query in ("Q1", "Q2", "Q3"):
            for point in speedup_series(query, SCALE_FACTOR_LARGE, [1, 2, 4, 8, 16], "low"):
                rows.append((query, point["workers"], point["seconds"],
                             round(point["speedup"], 1)))
        for query in ("Q4", "Q5", "Q6"):
            for point in speedup_series(query, SCALE_FACTOR_SMALL, [1, 2, 4, 8, 16]):
                rows.append((query, point["workers"], point["seconds"],
                             round(point["speedup"], 1)))
        print(format_table(["query", "workers", "sim s", "speedup"], rows))
    elif args.experiment == "fig4":
        table = datasize_series(
            ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"],
            16,
            [SCALE_FACTOR_SMALL, SCALE_FACTOR_LARGE],
        )
        rows = [
            (query, series[0]["seconds"], series[1]["seconds"])
            for query, series in table.items()
        ]
        print(format_table(["query", "SF-small [s]", "SF-large [s]"], rows))
    elif args.experiment == "fig5":
        table = selectivity_series(["Q1", "Q2", "Q3"], 4, SCALE_FACTOR_LARGE)
        rows = []
        for query, runs in table.items():
            for selectivity in ("high", "medium", "low"):
                run = runs[selectivity]
                rows.append(
                    (query, selectivity, run.simulated_seconds, run.result_count)
                )
        print(format_table(["query", "selectivity", "sim s", "results"], rows))
    elif args.experiment == "table3":
        table = intermediate_result_sizes(SCALE_FACTOR_LARGE)
        rows = [
            (pattern, c["high"], c["medium"], c["low"])
            for pattern, c in table.items()
        ]
        print(format_table(["pattern", "high", "medium", "low"], rows))
    else:
        raise SystemExit("unknown experiment %r" % args.experiment)
    return 0


def cmd_serve(args):
    """Serve one graph over HTTP/JSON via the concurrent query service."""
    from repro.server import GraphRegistry, QueryHTTPServer, QueryService

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    registry = GraphRegistry()
    registry.register(args.name, graph, statistics)
    service = QueryService(
        registry,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_timeout=args.default_timeout,
        vertex_strategy=_strategy(args.vertex_strategy),
        edge_strategy=_strategy(args.edge_strategy),
        result_cache_size=args.result_cache,
    )
    server = QueryHTTPServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.address
    # the smoke test (scripts/serve_smoke.py) parses this exact line
    print("repro-serve listening on %s:%d" % (host, port), flush=True)
    print(
        "-- graph %r: %d vertices, %d edges; %d workers, queue %d; "
        "POST /query {graph, query, parameters}, POST /shutdown to stop"
        % (args.name, statistics.vertex_count, statistics.edge_count,
           args.max_concurrency, args.max_queue),
        file=sys.stderr,
    )
    # everything built so far (the graph, its statistics, the service)
    # lives as long as the process: move it out of the collector's reach
    # so full collections inside requests stop walking it.  Only here,
    # never in serve_in_thread, whose callers own their process.
    gc.collect()
    gc.freeze()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("repro-serve: shut down cleanly", flush=True)
    return 0


def cmd_bench_serve(args):
    """Closed-loop concurrent load over the query service (Q1-Q6)."""
    import json

    from repro.server.bench import run_bench

    def progress(message):
        print("-- %s" % message, file=sys.stderr)

    report = run_bench(
        clients=args.clients,
        rounds=args.rounds,
        scale_factor=args.scale_factor,
        seed=args.seed,
        timeout=args.timeout,
        result_cache_size=args.result_cache,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cypher pattern matching on a simulated distributed "
        "dataflow engine (Gradoop reproduction)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="simulated cluster size"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate an LDBC-like graph")
    generate.add_argument("--scale-factor", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True, help="target directory")
    generate.set_defaults(handler=cmd_generate)

    query = commands.add_parser("query", help="run a Cypher query on a CSV graph")
    query.add_argument("graph", help="graph directory (CSV format)")
    query.add_argument("cypher", help="the query text")
    query.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    query.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    query.set_defaults(handler=cmd_query)

    explain = commands.add_parser("explain", help="show the physical query plan")
    explain.add_argument("graph")
    explain.add_argument("cypher")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and show actual row counts",
    )
    explain.set_defaults(handler=cmd_explain)

    lint = commands.add_parser(
        "lint", help="static query diagnostics without executing"
    )
    lint.add_argument("cypher", help="the query text")
    lint.add_argument(
        "--graph",
        help="graph directory; enables statistics-based warnings "
        "(unknown labels and edge types)",
    )
    lint.set_defaults(handler=cmd_lint)

    check = commands.add_parser(
        "check",
        help="the whole analysis battery: lint, analyze every planner's "
        "physical plan (structure, layout flow, dead bytes, cost bounds) "
        "and its UDFs, run the query under all three planners with "
        "embedding validation, compare result multisets and audit "
        "cardinality estimates",
    )
    check.add_argument("graph")
    check.add_argument("cypher")
    check.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    check.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    check.add_argument(
        "--max-q-error",
        type=float,
        default=10.0,
        help="estimate q-error above which S211 warnings are emitted",
    )
    check.add_argument(
        "--max-cost-bound", type=float, default=None,
        help="emit S405 when any operator's certified output "
        "cardinality exceeds this bound (the admission-control check)",
    )
    check.set_defaults(handler=cmd_check)

    racecheck = commands.add_parser(
        "racecheck",
        help="static lock-discipline lint (C3xx) over Python source: "
        "guarded-by violations, lock-order inversions, blocking calls "
        "under locks, per-call locks",
    )
    racecheck.add_argument(
        "paths", nargs="+",
        help="Python files or directories (e.g. src/repro)",
    )
    racecheck.add_argument(
        "--verbose", action="store_true",
        help="also print the static lock-order graph",
    )
    racecheck.set_defaults(handler=cmd_racecheck)

    wirecheck = commands.add_parser(
        "wirecheck",
        help="wire-protocol verification for the worker runtime: diff "
        "extracted message constructors/handler arms against the "
        "declared pipe vocabulary (W501-W505) and model-check the "
        "cancel/done, spec-cache, ring and resident-eviction "
        "protocols (W506-W508)",
    )
    wirecheck.add_argument(
        "--verbose", action="store_true",
        help="also print the per-pipe vocabulary coverage table and "
        "per-model exploration summaries",
    )
    wirecheck.add_argument(
        "--max-states", type=int, default=100000,
        help="state-space cap per model (absence of findings is not a "
        "proof once hit)",
    )
    wirecheck.set_defaults(handler=cmd_wirecheck)

    stats = commands.add_parser("stats", help="show graph statistics")
    stats.add_argument("graph")
    stats.set_defaults(handler=cmd_stats)

    shell = commands.add_parser("shell", help="interactive Cypher shell")
    shell.add_argument("graph")
    shell.set_defaults(handler=cmd_shell)

    bench = commands.add_parser("bench", help="run one paper experiment")
    bench.add_argument(
        "--experiment",
        choices=["fig3", "fig4", "fig5", "table3"],
        default="fig5",
    )
    bench.set_defaults(handler=cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="serve a CSV graph over HTTP/JSON: concurrent queries, "
        "prepared statements, plan caching, admission control and "
        "per-query deadlines",
    )
    serve.add_argument("graph", help="graph directory (CSV format)")
    serve.add_argument("--name", default="default", help="registry name")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument("--max-concurrency", type=int, default=4)
    serve.add_argument("--max-queue", type=int, default=16)
    serve.add_argument(
        "--default-timeout", type=float, default=None,
        help="per-query deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--result-cache", type=int, default=0,
        help="result cache entries (0 disables result caching)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=None,
        help="slice length of a fused chain over records "
        "(default: %d)" % DEFAULT_BATCH_SIZE,
    )
    serve.add_argument(
        "--workers", dest="process_workers", type=int, default=None,
        metavar="N",
        help="run certified fused chains and hash joins of columnar "
        "runs on N worker processes (default: in-process execution); "
        "distinct from the global --workers, which sets the simulated "
        "cluster size",
    )
    serve.add_argument(
        "--columnar", action=argparse.BooleanOptionalAction, default=True,
        help="run the columnar engine: fused chains, joins and "
        "expansions over embedding chunks (the default); --no-columnar "
        "selects the per-record reference path: identical rows; only "
        "the reference path prices the simulated cluster",
    )
    serve.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    serve.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(handler=cmd_serve)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="closed-loop multi-client load over the query service, "
        "differentially verified against serial execution",
    )
    bench_serve.add_argument("--clients", type=int, default=8)
    bench_serve.add_argument("--rounds", type=int, default=2)
    bench_serve.add_argument("--scale-factor", type=float, default=0.03)
    bench_serve.add_argument("--seed", type=int, default=11)
    bench_serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-query deadline during the load phase",
    )
    bench_serve.add_argument(
        "--result-cache", type=int, default=0,
        help="result cache entries for the service under test",
    )
    bench_serve.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    bench_serve.set_defaults(handler=cmd_bench_serve)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
