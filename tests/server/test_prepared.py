"""Prepared statements: one plan, many bindings, validated at bind time."""

import threading

import pytest

from repro.cypher.errors import CypherSemanticError
from repro.engine import CypherRunner, GraphStatistics, prepared
from repro.engine.prepared import PreparedStatement
from repro.server import GraphRegistry, QueryService, prepared_cache_key
from tests.server.workload import rows_multiset

PARAM_QUERY = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
VARLEN_QUERY = (
    "MATCH (a:Person)-[e:knows*1..2]->(b:Person) "
    "WHERE a.name = $name RETURN b.name"
)


@pytest.fixture
def runner(figure1_graph):
    return CypherRunner(figure1_graph)


class TestCompilation:
    def test_declares_sorted_parameter_names(self, runner):
        statement = runner.prepare(
            "MATCH (p:Person) WHERE p.name = $who AND p.gender = $g "
            "RETURN p.name"
        )
        assert statement.parameter_names == ("g", "who")

    def test_requires_query_text(self, runner):
        with pytest.raises(TypeError):
            runner.prepare(None)


class TestRebinding:
    def test_one_plan_many_bindings(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        root = statement.root
        alice = runner.execute_table(PARAM_QUERY, {"name": "Alice"})
        eve = runner.execute_table(PARAM_QUERY, {"name": "Eve"})
        assert [row["p.name"] for row in alice] == ["Alice"]
        assert [row["p.name"] for row in eve] == ["Eve"]
        assert statement.root is root  # no recompilation between bindings
        assert statement.executions == 2

    def test_binding_generation_advances(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        first = statement.binding_generation
        runner.execute_table(PARAM_QUERY, {"name": "Alice"})
        assert statement.binding_generation > first

    def test_matches_literal_query_for_every_binding(self, runner):
        for name in ("Alice", "Eve", "Bob", "Nobody"):
            bound = runner.execute_table(PARAM_QUERY, {"name": name})
            literal = runner.execute_table(
                PARAM_QUERY.replace("$name", "'%s'" % name)
            )
            assert rows_multiset(bound) == rows_multiset(literal)

    def test_varlength_expansion_rebinds_cleanly(self, runner):
        """Regression: the expansion superstep loop must run lazily.

        An eager bulk iteration freezes the first binding's frontier into
        the plan, so a second binding returns rows from the *first*
        binding's expansion — exactly the cross-query corruption the
        bench's differential check exists to catch.
        """
        for name in ("Alice", "Eve", "Alice"):  # rebind back and forth
            bound = runner.execute_table(VARLEN_QUERY, {"name": name})
            literal = runner.execute_table(
                VARLEN_QUERY.replace("$name", "'%s'" % name)
            )
            assert rows_multiset(bound) == rows_multiset(literal)


class TestBindTimeValidation:
    def test_missing_parameter_rejected(self, runner):
        with pytest.raises(CypherSemanticError, match=r"\$name"):
            runner.execute_table(PARAM_QUERY, {})

    def test_undeclared_parameter_rejected(self, runner):
        with pytest.raises(CypherSemanticError, match=r"\$bogus"):
            runner.execute_table(PARAM_QUERY, {"name": "Alice", "bogus": 1})

    def test_a_text_without_parameters_takes_none(self, runner):
        with pytest.raises(CypherSemanticError, match=r"\$bogus"):
            runner.execute_table("MATCH (p:Person) RETURN p.name", {"bogus": 1})

    def test_validate_returns_diagnostics_without_executing(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        executions_before = statement.executions
        diagnostics = statement.validate({"name": "Alice"})
        assert isinstance(diagnostics, list)
        assert statement.executions == executions_before


class TestOneCompilePath:
    @staticmethod
    def _count_compiles(monkeypatch):
        compiled = []
        init = PreparedStatement.__init__

        def counting(self, runner, query):
            compiled.append(query)
            init(self, runner, query)

        monkeypatch.setattr(PreparedStatement, "__init__", counting)
        return compiled

    def test_two_bindings_compile_once_and_the_service_reuses_it(
        self, figure1_graph, monkeypatch
    ):
        statistics = GraphStatistics.from_graph(figure1_graph)
        registry = GraphRegistry()
        registry.register("fig1", figure1_graph, statistics)
        with QueryService(registry, max_concurrency=1) as service:
            runner = CypherRunner(
                figure1_graph, statistics=statistics,
                plan_cache=service.plan_cache,
            )
            compiled = self._count_compiles(monkeypatch)
            alice = runner.execute_table(PARAM_QUERY, {"name": "Alice"})
            eve = runner.execute_table(PARAM_QUERY, {"name": "Eve"})
            assert [row["p.name"] for row in alice + eve] == ["Alice", "Eve"]
            assert compiled == [PARAM_QUERY]
            statement = service.plan_cache.get(
                prepared_cache_key(runner, PARAM_QUERY)
            )
            assert statement.executions == 2
            assert service.prepare("fig1", PARAM_QUERY).plan_cache_hit
            served = service.execute("fig1", PARAM_QUERY, {"name": "Bob"})
            assert served.plan_cache_hit
            assert [row["p.name"] for row in served.rows] == ["Bob"]
            assert compiled == [PARAM_QUERY]
            assert statement.executions == 3

    def test_a_statement_without_parameters_neither_relints_nor_locks(
        self, figure1_graph, monkeypatch
    ):
        text = "MATCH (p:Person) RETURN p.name"
        registry = GraphRegistry()
        registry.register("fig1", figure1_graph)
        with QueryService(registry, max_concurrency=1) as service:
            handle = service.prepare("fig1", text)
            (key,) = service.plan_cache.keys()
            statement = service.plan_cache.get(key)
            lints = []
            monkeypatch.setattr(
                prepared, "lint_query",
                lambda *args, **kwargs: lints.append(args) or [],
            )
            held, release = threading.Event(), threading.Event()

            def hold():
                with statement._lock:
                    held.set()
                    release.wait(timeout=30)

            holder = threading.Thread(target=hold)
            holder.start()
            results = []
            try:
                assert held.wait(timeout=30)
                runs = threading.Thread(target=lambda: results.append(
                    service.execute_prepared(handle.statement_id)
                ))
                runs.start()
                runs.join(timeout=10)
                assert not runs.is_alive(), "waited on the statement lock"
            finally:
                release.set()
                holder.join(timeout=30)
            assert results[0].row_count == 3 and results[0].prepared
            assert lints == []
