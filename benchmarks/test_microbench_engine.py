"""Engine micro-benchmarks: parse, plan, execute throughput.

Unlike the experiment benchmarks (simulated runtimes), these measure real
wall-clock performance of the Python implementation with pytest-benchmark's
statistical machinery — the numbers an OSS maintainer watches for
regressions.
"""

import pytest

from repro.cypher import QueryHandler, parse
from repro.engine import CypherRunner, GraphStatistics, GreedyPlanner
from repro.harness import ALL_QUERIES, instantiate

QUERY = instantiate(ALL_QUERIES["Q3"], "Jan")

# the medium_graph fixture is session-scoped in benchmarks/conftest.py,
# shared with the ablation benchmarks


@pytest.mark.benchmark(group="micro")
def test_parse_throughput(benchmark):
    query = benchmark(parse, QUERY)
    assert query.patterns


@pytest.mark.benchmark(group="micro")
def test_compile_throughput(benchmark, medium_graph):
    _, graph, statistics = medium_graph

    def compile_query():
        handler = QueryHandler(QUERY)
        return GreedyPlanner(graph, handler, statistics).plan()

    root = benchmark(compile_query)
    assert root.meta.variables


@pytest.mark.benchmark(group="micro")
def test_execute_q1_throughput(benchmark, medium_graph):
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("low"))

    def execute():
        embeddings, _ = runner.execute_embeddings(query)
        return embeddings

    embeddings = benchmark(execute)
    assert embeddings


@pytest.mark.benchmark(group="micro")
def test_execute_q5_throughput(benchmark, medium_graph):
    _, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)

    def execute():
        embeddings, _ = runner.execute_embeddings(ALL_QUERIES["Q5"])
        return embeddings

    embeddings = benchmark(execute)
    assert embeddings


@pytest.mark.benchmark(group="sanitizer-overhead")
def test_execute_q1_plain(benchmark, medium_graph):
    """Baseline for the sanitizer pair: identical query, sanitize off.

    With the sanitizer disabled no per-embedding work happens — the only
    cost is one ``is None`` test per operator *build*, so this case should
    be statistically indistinguishable from ``test_execute_q1_throughput``.
    """
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("low"))

    def execute():
        embeddings, _ = runner.execute_embeddings(query)
        return embeddings

    embeddings = benchmark(execute)
    assert embeddings


@pytest.mark.benchmark(group="sanitizer-overhead")
def test_execute_q1_sanitized(benchmark, medium_graph):
    """Full instrumented execution: every operator boundary validated."""
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics, sanitize=True)
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("low"))

    def execute():
        embeddings, _ = runner.execute_embeddings(query)
        return embeddings

    embeddings = benchmark(execute)
    assert embeddings
    assert runner.last_sanitizer is not None
    assert runner.last_sanitizer.checked >= len(embeddings)
    assert not runner.last_sanitizer.diagnostics


@pytest.mark.benchmark(group="sanitizer-overhead")
def test_execute_q1_sampled(benchmark, medium_graph):
    """Sampled instrumentation: one embedding in 16 validated.

    ``sanitize="sample"`` keeps the instrument wrappers (so execution
    stays per-record, like the fully sanitized case) but skips the
    byte-level validation on all but every ``DEFAULT_SAMPLE_EVERY``-th
    embedding — recovering most of the sanitizer's ~2.5x overhead while
    retaining a statistical smoke check.  Compare against
    ``test_execute_q1_plain`` / ``test_execute_q1_sanitized``; the gap
    this case closes is the per-embedding validation cost that a plan
    proven by the plan analysis (``repro check``) makes redundant.
    """
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics, sanitize="sample")
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("low"))

    def execute():
        embeddings, _ = runner.execute_embeddings(query)
        return embeddings

    embeddings = benchmark(execute)
    assert embeddings
    assert runner.last_sanitizer is not None
    # the sampler saw every embedding but validated only a fraction
    assert runner.last_sanitizer.seen > runner.last_sanitizer.checked
    assert not runner.last_sanitizer.diagnostics


@pytest.mark.benchmark(group="plan-cache")
def test_parameterized_q1_plan_cache_cold(benchmark, medium_graph):
    """Baseline for the plan-cache pair: every run pays parse+lint+plan.

    The cache is cleared inside the measured function, so each execution
    of the ``$firstName``-parameterized Q1 compiles from scratch — the
    cost a service without a plan cache would pay on every request.
    """
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)
    query = ALL_QUERIES["Q1"].replace("'{firstName}'", "$firstName")
    parameters = {"firstName": dataset.first_name("low")}

    def execute_cold():
        runner.plan_cache.clear()
        embeddings, _ = runner.execute_embeddings(query, parameters)
        return embeddings

    embeddings = benchmark(execute_cold)
    assert embeddings
    assert runner.plan_cache.stats.hits == 0  # truly cold every round


@pytest.mark.benchmark(group="plan-cache")
def test_parameterized_q1_plan_cache_warm(benchmark, medium_graph):
    """Warm half of the pair: the compiled plan is reused across runs.

    Same query, same binding — after the first compile every execution is
    a plan-cache hit, which is the serving layer's hot path.
    """
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)
    query = ALL_QUERIES["Q1"].replace("'{firstName}'", "$firstName")
    parameters = {"firstName": dataset.first_name("low")}
    runner.execute_embeddings(query, parameters)  # populate the cache

    def execute_warm():
        embeddings, _ = runner.execute_embeddings(query, parameters)
        return embeddings

    embeddings = benchmark(execute_warm)
    assert embeddings
    # exactly one miss (the warm-up compile); every measured run hit
    assert runner.plan_cache.stats.misses == 1
    assert runner.plan_cache.stats.hits >= 1


@pytest.mark.benchmark(group="plan-cache")
def test_prepared_statement_rebind_throughput(benchmark, medium_graph):
    """One prepared plan, new binding each run: no cache lookup at all."""
    dataset, graph, statistics = medium_graph
    runner = CypherRunner(graph, statistics=statistics)
    query = ALL_QUERIES["Q1"].replace("'{firstName}'", "$firstName")
    statement = runner.prepare(query)
    names = [dataset.first_name("low"), dataset.first_name("medium")]
    state = {"round": 0}

    def execute_rebound():
        state["round"] += 1
        parameters = {"firstName": names[state["round"] % len(names)]}
        embeddings, _ = statement.execute_embeddings(parameters)
        return embeddings

    embeddings = benchmark(execute_rebound)
    assert embeddings
    assert statement.executions >= 1


@pytest.mark.benchmark(group="micro")
def test_statistics_computation(benchmark, medium_graph):
    _, graph, _ = medium_graph
    statistics = benchmark(GraphStatistics.from_graph, graph)
    assert statistics.vertex_count > 0
