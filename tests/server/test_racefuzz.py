"""Interleaving-fuzzer coverage of the serving stack's shared state.

Each test drives one concurrency-sensitive subsystem through seeded
adversarial schedules and checks a consistency invariant afterwards:

* ``LRUCache`` — stats snapshots are consistent (hits + misses equals
  the number of lookups performed; no torn snapshot mid-increment);
* ``RegisteredGraph.touch`` — concurrent version bumps are never lost
  and every caller gets a distinct version (the pre-fix code read the
  version, yielded, then wrote the stale bump);
* prepared statements — concurrent rebinding never bleeds one thread's
  parameter values into another's rows (the statement lock serializes
  assign + evaluate);
* ``CancellationToken`` — a cancel is never lost: once any thread
  cancels, every later poll raises.
"""

from collections import Counter

import pytest

from repro.analysis.concurrency import InterleavingFuzzer
from repro.cache import LRUCache
from repro.dataflow.cancellation import CancellationToken, QueryCancelled
from repro.engine import CypherRunner
from repro.server.registry import RegisteredGraph
from tests.conftest import build_figure1_elements
from repro.dataflow import ExecutionEnvironment
from repro.epgm import LogicalGraph

THREADS = 4


def fuzzer(schedules=12, threads=THREADS, **kwargs):
    return InterleavingFuzzer(
        seed=17, schedules=schedules, threads=threads, **kwargs
    )


# LRUCache stats consistency ---------------------------------------------------

LOOKUPS_PER_THREAD = 25


def cache_worker(cache, fuzz):
    rng = fuzz.random()
    for index in range(LOOKUPS_PER_THREAD):
        key = rng.randrange(12)
        fuzz.step()
        if cache.get(key) is None:
            cache.put(key, "value-%d" % key)


def cache_invariant(cache):
    snapshot = cache.stats.snapshot()
    lookups = snapshot["hits"] + snapshot["misses"]
    expected = THREADS * LOOKUPS_PER_THREAD
    if lookups != expected:
        return "lost stats increments: %d lookups recorded, %d performed" % (
            lookups, expected,
        )
    if snapshot["hits"] != 0 and not 0.0 < snapshot["hit_rate"] <= 1.0:
        return "inconsistent hit_rate %r for %r" % (
            snapshot["hit_rate"], snapshot,
        )


def test_lru_cache_stats_consistent_under_fuzz():
    findings = fuzzer().run(
        setup=lambda: LRUCache(8, name="cache.fuzz"),
        worker=cache_worker,
        invariant=cache_invariant,
    )
    assert findings == [], findings[0] if findings else None


# Registry version bumps -------------------------------------------------------

TOUCHES_PER_THREAD = 20


def build_graph():
    environment = ExecutionEnvironment(parallelism=2)
    head, vertices, edges = build_figure1_elements()
    return LogicalGraph.from_collections(
        environment, vertices, edges, graph_head=head
    )


def test_registry_touch_never_loses_a_bump():
    graph = build_graph()

    def setup():
        return RegisteredGraph("fuzz", graph)

    def worker(entry, fuzz):
        for _ in range(TOUCHES_PER_THREAD):
            fuzz.step()
            entry.touch()

    def invariant(entry):
        expected = THREADS * TOUCHES_PER_THREAD
        if entry.version != expected:
            return "lost version bumps: %d != %d" % (entry.version, expected)

    findings = fuzzer(schedules=8).run(
        setup=setup, worker=worker, invariant=invariant,
    )
    assert findings == [], findings[0] if findings else None


def test_registry_touch_versions_are_distinct():
    graph = build_graph()
    entry = RegisteredGraph("fuzz", graph)
    seen = []

    def worker(_state, fuzz):
        local = []
        for _ in range(TOUCHES_PER_THREAD):
            fuzz.step()
            local.append(entry.touch())
        seen.append(local)

    findings = fuzzer(schedules=1).run(setup=lambda: entry, worker=worker)
    assert findings == []
    versions = [v for local in seen for v in local]
    assert len(versions) == len(set(versions)), "duplicate touch() versions"


# Prepared-statement rebinding -------------------------------------------------

NAMES = ["Alice", "Eve", "Bob"]
REBINDS_PER_THREAD = 6


def test_prepared_rebinding_does_not_bleed_bindings():
    graph = build_graph()
    runner = CypherRunner(graph)
    text = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
    statement = runner.prepare(text)

    def worker(stmt, fuzz):
        rng = fuzz.random()
        for _ in range(REBINDS_PER_THREAD):
            name = NAMES[rng.randrange(len(NAMES))]
            fuzz.step()
            # the runner runs the cached statement under its lock
            rows = runner.execute_table(stmt.text, {"name": name})
            assert [row["p.name"] for row in rows] == [name], (
                "binding bled: asked for %r, got %r" % (name, rows)
            )

    findings = fuzzer(schedules=6, threads=3).run(
        setup=lambda: statement, worker=worker,
    )
    assert findings == [], findings[0] if findings else None
    assert statement.executions == 3 * REBINDS_PER_THREAD * 6


# Fused chain execution --------------------------------------------------------

FUSED_QUERY = (
    "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) "
    "RETURN *"
)
FUSED_RUNS_PER_THREAD = 3


def test_concurrent_fused_execution_matches_serial_reference():
    """Concurrent columnar queries share one graph and one environment;
    each thread's result multiset must equal the serial reference."""
    graph = build_graph()
    serial = Counter(
        CypherRunner(graph, mode="reference").execute_embeddings(FUSED_QUERY)[0]
    )
    assert serial  # the reference must be non-trivial

    def setup():
        return graph

    def worker(shared_graph, fuzz):
        runner = CypherRunner(shared_graph, mode="columnar")
        for _ in range(FUSED_RUNS_PER_THREAD):
            fuzz.step()
            with shared_graph.environment.job("fuzz-fused"):
                embeddings, _ = runner.execute_embeddings(FUSED_QUERY)
            assert Counter(embeddings) == serial, "fused result diverged"

    findings = fuzzer(schedules=6).run(setup=setup, worker=worker)
    assert findings == [], findings[0] if findings else None


# CancellationToken ------------------------------------------------------------

def test_no_lost_cancellations_under_fuzz():
    class TokenState:
        def __init__(self):
            self.token = CancellationToken()
            self.raised = []

    def worker(state, fuzz):
        # thread 0 always cancels; the rest poll until they observe it
        cancels = fuzz.thread_index == 0
        for _ in range(30):
            fuzz.step()
            if cancels:
                state.token.cancel("fuzz")
            else:
                try:
                    state.token.poll()
                except QueryCancelled:
                    state.raised.append(True)
                    return

    def invariant(state):
        if not state.token.cancelled:
            return "token lost its cancellation flag"
        try:
            state.token.poll()
        except QueryCancelled:
            return None
        return "poll() after cancel() did not raise"

    findings = fuzzer(schedules=10).run(
        setup=TokenState, worker=worker, invariant=invariant,
    )
    assert findings == [], findings[0] if findings else None


# Long adversarial schedules (stress) ------------------------------------------

@pytest.mark.stress
def test_lru_cache_stats_consistent_long_schedules():
    findings = InterleavingFuzzer(
        seed=41, schedules=40, threads=8, hot_barriers=2,
    ).run(
        setup=lambda: LRUCache(8, name="cache.fuzz"),
        worker=cache_worker,
        invariant=lambda cache: _long_cache_invariant(cache),
    )
    assert findings == [], findings[0] if findings else None


def _long_cache_invariant(cache):
    snapshot = cache.stats.snapshot()
    lookups = snapshot["hits"] + snapshot["misses"]
    expected = 8 * LOOKUPS_PER_THREAD
    if lookups != expected:
        return "lost stats increments: %d != %d" % (lookups, expected)


@pytest.mark.stress
def test_registry_touch_long_schedules():
    graph = build_graph()

    def worker(entry, fuzz):
        for _ in range(TOUCHES_PER_THREAD):
            fuzz.step()
            entry.touch()

    def invariant(entry):
        expected = 8 * TOUCHES_PER_THREAD
        if entry.version != expected:
            return "lost version bumps: %d != %d" % (entry.version, expected)

    findings = InterleavingFuzzer(
        seed=43, schedules=30, threads=8, hot_barriers=2,
    ).run(
        setup=lambda: RegisteredGraph("fuzz", graph),
        worker=worker,
        invariant=invariant,
    )
    assert findings == [], findings[0] if findings else None
