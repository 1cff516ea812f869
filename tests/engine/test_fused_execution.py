"""Engine-level contracts of the two execution modes.

Fusion and the chunk kernels must not change anything observable:
embeddings and tabular rows are identical between ``columnar`` and
``reference``, and over as many partitions so are the recorded metrics
(operator runs, shuffle bytes).  An in-process columnar run is one
partition whatever the environment's parallelism — only the reference
path partitions and prices the simulated cluster — so it records no
shuffle, and the two modes' metrics meet on a one-worker environment.
Sanitized execution opts out of fusion entirely; prepared statements
re-bind correctly with fusion on.
"""

from collections import Counter

import pytest

import repro.dataflow.fusion as fusion_module
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.epgm import IndexedLogicalGraph, LogicalGraph
from repro.harness import ALL_QUERIES, DatasetCache, instantiate
from tests.conftest import build_figure1_elements

QUERIES = [
    "MATCH (p1:Person)-[s:studyAt]->(u:University) "
    "WHERE s.classYear > 2014 RETURN p1.name, u.name",
    "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) "
    "RETURN *",
    "MATCH (p:Person)-[e:knows*1..3]->(q:Person) WHERE p.name = 'Alice' "
    "RETURN *",
    "MATCH (p:Person {name: 'Alice'})-[e:knows*2..2]->(p2:Person) RETURN *",
    "MATCH (p1:Person)-[s:studyAt]->(u:University) "
    "WHERE s.classYear > 2014 RETURN p1.name, u.name, s.classYear",
]

#: ``([adjacency] runs, [lookup] runs)`` of each query's columnar run on an
#: indexed graph; the expanding queries lower one lookup
LOWERED_JOINS = {QUERIES[0]: (1, 1), QUERIES[1]: (2, 2), QUERIES[4]: (0, 2)}

#: a small LDBC-like dataset for the paper's queries
LDBC = DatasetCache(seed=42)
LDBC_SCALE = 0.1


def _ldbc_query(template, selectivity):
    return instantiate(template, LDBC.first_name(LDBC_SCALE, selectivity))


#: the paper's Q1-Q6, and the three shapes of the request benchmark's
#: ``path`` workload at another binding, run on the LDBC graph
LDBC_QUERIES = {
    name: _ldbc_query(template, "low") for name, template in ALL_QUERIES.items()
}
LDBC_QUERIES.update(
    ("path-" + name, _ldbc_query(template, "medium"))
    for name, template in (
        ("Q2", ALL_QUERIES["Q2"]),
        ("Q3", ALL_QUERIES["Q3"]),
        ("knows-1-3", "MATCH (p:Person)-[:knows*1..3]->(q:Person) "
                      "WHERE p.firstName = '{firstName}' RETURN *"),
    )
)


def fresh_graph(indexed=False, parallelism=4, **env_kwargs):
    environment = ExecutionEnvironment(parallelism=parallelism, **env_kwargs)
    head, vertices, edges = build_figure1_elements()
    cls = IndexedLogicalGraph if indexed else LogicalGraph
    return cls.from_collections(environment, vertices, edges, graph_head=head)


def run_query(query, mode, indexed=False, parallelism=4):
    if query in LDBC_QUERIES.values():
        graph = LDBC.dataset(LDBC_SCALE).to_logical_graph(
            ExecutionEnvironment(parallelism=parallelism), indexed=indexed
        )
    else:
        graph = fresh_graph(indexed, parallelism)
    runner = CypherRunner(graph, mode=mode)
    with graph.environment.job("probe") as metrics:
        embeddings, meta = runner.execute_embeddings(query)
    return embeddings, meta, metrics


class TestFusedMatchesPerRecord:
    @pytest.mark.parametrize("query", QUERIES)
    def test_embedding_multisets_are_identical(self, query):
        fused, meta_fused, _ = run_query(query, "columnar")
        plain, meta_plain, _ = run_query(query, "reference")
        assert Counter(fused) == Counter(plain)
        assert meta_fused.variables == meta_plain.variables

    @pytest.mark.parametrize("query", QUERIES)
    def test_metrics_are_bit_identical_between_modes(self, query):
        """Over one partition both modes run the same operators: same
        runs, same order, same shuffle accounting, hence the same
        simulated runtime."""
        _, _, fused_metrics = run_query(query, "columnar", parallelism=1)
        _, _, plain_metrics = run_query(query, "reference", parallelism=1)
        assert fused_metrics.runs == plain_metrics.runs
        assert (
            fused_metrics.total_shuffled_bytes
            == plain_metrics.total_shuffled_bytes
        )

    @pytest.mark.parametrize("parallelism", [1, 4, 16])
    @pytest.mark.parametrize("query", QUERIES + [
        pytest.param(text, id=name) for name, text in LDBC_QUERIES.items()
    ])
    def test_metrics_on_an_indexed_graph(self, query, parallelism):
        """On a label-indexed graph the columnar run walks the resident
        adjacency where the query expands or joins an edge leaf and looks
        vertex leaf rows up, so it returns the reference's rows under its
        own documented runs in place of the reference's: one hop per
        superstep instead of the iterated join, one ``[adjacency]`` run
        instead of the edge scan and the hash join, one ``[lookup]`` run
        instead of the hash join with a vertex leaf.  Whatever the
        simulated cluster's size, the run is one partition: one worker
        entry per run, and nothing shuffled."""
        plain, _, plain_metrics = run_query(
            query, "reference", indexed=True, parallelism=parallelism
        )
        columnar, _, metrics = run_query(
            query, "columnar", indexed=True, parallelism=parallelism
        )
        assert Counter(columnar) == Counter(plain)
        assert not any(metrics.chunk_fallbacks.values())
        for run in metrics.runs:
            assert len(run.worker_records_in) == 1, run
            assert len(run.worker_records_out) == 1, run
            assert not run.shuffled_records and not run.shuffled_bytes, run
        if query in LDBC_QUERIES.values():
            return

        def joins(job):
            return [
                run for run in job.runs
                if run.name.startswith("JoinEmbeddings")
                and run.iteration is None
            ]

        # join by join the reference's rows, each one lowered: every join
        # of these plans has a leaf input
        lowered = Counter()
        for run, reference in zip(joins(metrics), joins(plain_metrics)):
            assert run.records_out == reference.records_out
            name, _, kind = run.name.partition("[")
            assert name == reference.name.split("[")[0]
            assert kind in ("adjacency]", "lookup]")
            assert not run.shuffled_bytes and not run.shuffled_records
            lowered[kind] += 1
        assert len(joins(metrics)) == len(joins(plain_metrics))
        # an edge leaf that projects no key is walked on the adjacency; the
        # last query returns s.classYear, so its edge leaf carries a record
        # and both joins are lookups into its vertex leaves
        assert (lowered["adjacency]"], lowered["lookup]"]) == (
            LOWERED_JOINS.get(query, (0, 1))
        )
        if lowered["adjacency]"]:
            assert not metrics.runs_named("edges[")
        elif "knows*" not in query:
            # no shuffle anywhere: every other run is the reference's, but
            # for where its rows sit
            def placed(job):
                return [
                    (run.name, run.records_in, run.records_out)
                    for run in job.runs if run not in joins(job)
                ]

            assert placed(metrics) == placed(plain_metrics)
        if "knows*" not in query:
            return
        reference = [r for r in plain_metrics.runs if r.iteration is not None]
        hops = [run for run in metrics.runs if run.iteration is not None]
        assert {run.name for run in hops} == {"ExpandEmbeddings:hop"}
        assert [run.iteration for run in hops] == sorted(
            {run.iteration for run in reference}
        )
        assert not any(run.shuffled_bytes for run in hops)
        # the frontier is the reference's, superstep by superstep
        for hop in hops:
            (join,) = [
                run for run in reference
                if run.iteration == hop.iteration
                and run.name.startswith("ExpandEmbeddings:hop")
            ]
            assert hop.records_out == join.records_out

    def test_simulated_runtime_is_mode_independent(self):
        # over one partition, which is all an in-process columnar run has
        runtimes = []
        for mode in ("columnar", "reference"):
            graph = fresh_graph(parallelism=1)
            runner = CypherRunner(graph, mode=mode)
            with graph.environment.job("probe") as metrics:
                runner.execute_embeddings(QUERIES[1])
            runtimes.append(
                graph.environment.simulated_runtime_seconds(metrics)
            )
        assert runtimes[0] == runtimes[1]


class TestSanitizerForcesPerRecord:
    def test_sanitized_execution_never_plans_fusion(self, monkeypatch):
        graph = fresh_graph()
        runner = CypherRunner(graph, sanitize=True)
        # compile first: statistics collection is an ordinary (columnar)
        # dataflow job and may plan fusion freely — only the sanitized
        # *query execution* must stay per-record
        _, root = runner.compile(QUERIES[0])

        def explode(*args, **kwargs):
            raise AssertionError("fusion pass ran during sanitized execution")

        monkeypatch.setattr(fusion_module, "plan_fusion", explode)
        embeddings = root.evaluate().collect(mode=runner.execution_mode())
        assert len(embeddings) == 2
        assert runner.last_sanitizer.checked >= len(embeddings)

    def test_unsanitized_execution_does_plan_fusion(self, monkeypatch):
        graph = fresh_graph()
        runner = CypherRunner(graph)
        _, root = runner.compile(QUERIES[0])
        calls = []
        real = fusion_module.plan_fusion

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion_module, "plan_fusion", spy)
        root.evaluate().collect(mode=runner.execution_mode())
        assert calls

    def test_explain_analyze_matches_under_sanitizer(self):
        graph = fresh_graph()
        runner = CypherRunner(graph, sanitize=True)
        text = runner.explain_analyze(QUERIES[0])
        assert "actual=2" in text


class TestPlanReuseUnderFusion:
    def test_prepared_statement_rebinds_with_fusion_on(self):
        graph = fresh_graph()
        statement = CypherRunner(graph).prepare(
            "MATCH (p:Person {name: $who}) RETURN p.name"
        )
        for name in ("Alice", "Bob", "Alice"):
            rows = statement.execute_table({"who": name})
            assert rows == [{"p.name": name}]
        assert statement.executions == 3

    def test_prepared_var_length_rebinds_with_fusion_on(self):
        # the expansion's supersteps must re-run per binding, fused or not
        graph = fresh_graph()
        statement = CypherRunner(graph).prepare(
            "MATCH (p:Person {name: $who})-[e:knows*2..2]->(q:Person) "
            "RETURN *"
        )
        alice = statement.execute_table({"who": "Alice"})
        bob = statement.execute_table({"who": "Bob"})
        assert sorted(row["e"] for row in alice) == [[5, 20, 6], [5, 20, 7]]
        assert alice != bob

    def test_prepared_rebind_across_reset_matches_differential(self):
        # one prepared plan, rebound per execution, with a forced reset()
        # in between so the fused chains are rebuilt from scratch; every
        # binding must agree with the fusion differential check on the
        # equivalent literal query (columnar vs. reference, all planners)
        from repro.analysis import fusion_differential_check

        graph = fresh_graph()
        statistics = GraphStatistics.from_graph(graph)
        runner = CypherRunner(graph, statistics=statistics)
        statement = runner.prepare(
            "MATCH (p:Person {name: $who})-[e:knows]->(q:Person) RETURN *"
        )
        for name in ("Alice", "Eve", "Alice"):
            first, _ = statement.execute_embeddings({"who": name})
            statement.root.reset()
            rebuilt, _ = statement.execute_embeddings({"who": name})
            assert Counter(rebuilt) == Counter(first)
            literal = (
                "MATCH (p:Person {name: '%s'})-[e:knows]->(q:Person) "
                "RETURN *" % name
            )
            report = fusion_differential_check(
                graph, literal, statistics=statistics
            )
            assert report.clean, [str(d) for d in report.diagnostics]
            plain, _ = CypherRunner(
                graph, statistics=statistics, mode="reference"
            ).execute_embeddings(literal)
            assert Counter(first) == Counter(plain)
        assert statement.executions == 6

    def test_reset_then_reexecute_is_stable(self):
        graph = fresh_graph()
        runner = CypherRunner(graph)
        _, root = runner.compile(QUERIES[1])
        first = root.evaluate().collect()
        root.reset()
        assert Counter(root.evaluate().collect()) == Counter(first)

    def test_plan_cached_across_modes_by_runner_settings(self):
        # one graph, two runners sharing the plan cache: toggling the mode
        # must not poison results (the fusion rewrite never mutates plans)
        graph = fresh_graph()
        statistics = GraphStatistics.from_graph(graph)
        fused_runner = CypherRunner(
            graph, statistics=statistics, mode="columnar"
        )
        plain_runner = CypherRunner(
            graph,
            statistics=statistics,
            mode="reference",
            plan_cache=fused_runner.plan_cache,
        )
        fused_rows = fused_runner.execute_table(QUERIES[0])
        plain_rows = plain_runner.execute_table(QUERIES[0])
        assert sorted(r["p1.name"] for r in fused_rows) == sorted(
            r["p1.name"] for r in plain_rows
        )


class TestLegacyModeAlias:
    """The retired ``fused=`` / ``columnar=`` keywords still select a mode:
    ``False`` for either is the reference path, anything else the
    default.  On a label-indexed graph the two paths record different
    runs, so equal run lists say which path ran."""

    @staticmethod
    def _runs(graph, execute):
        with graph.environment.job("alias") as metrics:
            execute()
        return metrics.runs

    def test_retired_keywords_give_the_reference_runs(self):
        graph = fresh_graph(indexed=True)
        statistics = GraphStatistics.from_graph(graph)
        _, root = CypherRunner(graph, statistics=statistics).compile(
            QUERIES[1]
        )
        dataset = root.evaluate()
        reference = self._runs(graph, lambda: dataset.collect(mode="reference"))
        columnar = self._runs(graph, lambda: dataset.collect(mode="columnar"))
        assert reference != columnar
        for flags in (
            {"fused": False, "columnar": False},
            {"fused": True, "columnar": False},
            {"fused": False},
        ):
            assert self._runs(
                graph, lambda: dataset.collect(**flags)
            ) == reference, flags
        assert self._runs(
            graph, lambda: dataset.collect(fused=True, columnar=True)
        ) == columnar
        assert self._runs(
            graph, lambda: graph.environment.run(dataset.operator, fused=False)
        ) == reference
        runner = CypherRunner(graph, statistics=statistics, fused=False)
        runner.compile(QUERIES[1])
        assert runner.execution_mode() == "reference"
        assert self._runs(
            graph, lambda: runner.execute_embeddings(QUERIES[1])
        ) == reference

    @pytest.mark.parametrize("flag", [[], ["--no-columnar"]])
    def test_serve_columnar_flag_selects_the_mode(self, flag):
        from repro import cli

        args = cli.build_parser().parse_args(["serve", "graph"] + flag)
        expected = "reference" if flag else "columnar"
        assert cli._environment(args).mode == expected
        # how ``bench/`` builds its environment from the same parser
        environment = ExecutionEnvironment(
            parallelism=4, columnar=args.columnar, batch_size=args.batch_size
        )
        assert environment.mode == expected
        head, vertices, edges = build_figure1_elements()
        graph = IndexedLogicalGraph.from_collections(
            environment, vertices, edges, graph_head=head
        )
        statistics = GraphStatistics.from_graph(graph)
        runner = CypherRunner(graph, statistics=statistics)
        runner.compile(QUERIES[1])
        served = self._runs(graph, lambda: runner.execute_embeddings(QUERIES[1]))
        reference = self._runs(
            graph,
            lambda: CypherRunner(
                graph, statistics=statistics, mode="reference"
            ).execute_embeddings(QUERIES[1]),
        )
        assert (served == reference) == bool(flag)
