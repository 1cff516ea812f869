"""Prepared statements: one plan, many bindings, validated at bind time."""

import pytest

from repro.cypher.errors import CypherSemanticError
from repro.engine import CypherRunner
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
        alice = statement.execute_table({"name": "Alice"})
        eve = statement.execute_table({"name": "Eve"})
        assert [row["p.name"] for row in alice] == ["Alice"]
        assert [row["p.name"] for row in eve] == ["Eve"]
        assert statement.root is root  # no recompilation between bindings
        assert statement.executions == 2

    def test_binding_generation_advances(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        first = statement.binding_generation
        statement.execute_table({"name": "Alice"})
        assert statement.binding_generation > first

    def test_matches_literal_query_for_every_binding(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        for name in ("Alice", "Eve", "Bob", "Nobody"):
            bound = statement.execute_table({"name": name})
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
        statement = runner.prepare(VARLEN_QUERY)
        for name in ("Alice", "Eve", "Alice"):  # rebind back and forth
            bound = statement.execute_table({"name": name})
            literal = runner.execute_table(
                VARLEN_QUERY.replace("$name", "'%s'" % name)
            )
            assert rows_multiset(bound) == rows_multiset(literal)


class TestBindTimeValidation:
    def test_missing_parameter_rejected(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        with pytest.raises(CypherSemanticError, match=r"\$name"):
            statement.execute_table({})

    def test_undeclared_parameter_rejected(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        with pytest.raises(CypherSemanticError, match=r"\$bogus"):
            statement.execute_table({"name": "Alice", "bogus": 1})

    def test_validate_returns_diagnostics_without_executing(self, runner):
        statement = runner.prepare(PARAM_QUERY)
        executions_before = statement.executions
        diagnostics = statement.validate({"name": "Alice"})
        assert isinstance(diagnostics, list)
        assert statement.executions == executions_before
