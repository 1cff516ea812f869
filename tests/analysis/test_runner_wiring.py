"""Linter and verifier wiring inside CypherRunner and the CLI."""

import pytest

from repro.analysis import QueryLintError
from repro.cli import main as cli_main
from repro.cypher.errors import CypherSemanticError
from repro.engine import CypherRunner


class TestRunnerLinting:
    def test_blocking_diagnostic_raises_before_planning(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        with pytest.raises(QueryLintError) as excinfo:
            runner.compile("MATCH (a) WHERE ghost.x = 1 RETURN a")
        assert any(d.code == "E101" for d in excinfo.value.diagnostics)

    def test_lint_error_is_catchable_as_semantic_error(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        with pytest.raises(CypherSemanticError):
            runner.compile("MATCH (a)-[a]->(b) RETURN a")

    def test_warnings_do_not_block_and_are_collected(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        collection = runner.execute("MATCH (a), (b) RETURN a, b")
        assert collection.graph_count() > 0
        assert any(d.code == "W401" for d in runner.last_diagnostics)

    def test_unsatisfiable_query_runs_and_returns_empty(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        rows = runner.execute_table(
            "MATCH (a:Person) WHERE a.yob > 2000 AND a.yob < 1900 RETURN a"
        )
        assert rows == []
        assert any(d.code == "E201" for d in runner.last_diagnostics)

    def test_lint_false_disables_the_gate(self, figure1_graph):
        runner = CypherRunner(figure1_graph, lint=False)
        # the compiler still rejects it, but with its own error, not the
        # linter's structured one
        with pytest.raises(CypherSemanticError) as excinfo:
            runner.compile("MATCH (a) WHERE ghost.x = 1 RETURN a")
        assert not isinstance(excinfo.value, QueryLintError)

    def test_plan_cache_restores_diagnostics(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (a), (b) RETURN a, b"
        runner.compile(query)
        first = list(runner.last_diagnostics)
        runner.last_diagnostics = []
        runner.compile(query)  # cache hit
        assert runner.last_diagnostics == first

    def test_lint_method_reports_statistics_warnings(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        diagnostics = runner.lint("MATCH (d:Dragon) RETURN d")
        assert any(d.code == "W301" for d in diagnostics)


class TestRunnerVerification:
    QUERY = "MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name"

    def test_verify_plans_flag_accepts_good_plans(self, figure1_graph):
        # verification is the analysis, asked for; it does not gate runs
        runner = CypherRunner(figure1_graph)
        analysis = runner.analyze(self.QUERY)
        assert analysis.proven, [d.format() for d in analysis.diagnostics]
        rows = runner.execute_table(self.QUERY)
        assert len(rows) == 4

    def test_verify_plans_off_by_default(self, figure1_graph):
        # no runner setting verifies plans while they compile
        assert not hasattr(CypherRunner(figure1_graph), "verify_plans")
        with pytest.raises(TypeError):
            CypherRunner(figure1_graph, verify_plans=True)


class TestGraphEntryPoint:
    def test_logical_graph_cypher_lints(self, figure1_graph):
        with pytest.raises(CypherSemanticError):
            figure1_graph.cypher("MATCH (a) RETURN ghost.name")


class TestCli:
    def test_lint_exit_one_on_errors(self, capsys):
        code = cli_main(
            ["lint", "MATCH (a) WHERE a.x > 5 AND a.x < 3 RETURN a"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "E201" in out
        assert "^" in out  # caret snippet rendered

    def test_lint_exit_three_on_warnings_only(self, capsys):
        # 3 = warnings-only, the shared analysis-CLI exit contract
        # (docs/analysis.md): lint used to return 0 here, which made
        # warning regressions invisible to scripts
        code = cli_main(["lint", "MATCH (a), (b) RETURN a, b"])
        assert code == 3
        assert "W401" in capsys.readouterr().out

    def test_lint_exit_two_on_syntax_error(self, capsys):
        code = cli_main(["lint", "MATCH (a"])
        assert code == 2

    def test_lint_clean_query(self, capsys):
        code = cli_main(
            ["lint", "MATCH (a:Person)-[:knows]->(b) RETURN a, b"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
