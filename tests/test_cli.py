"""End-to-end tests for the command-line interface.

Most tests call :func:`repro.cli.main` in this interpreter; the shell
tests (stdin), ``--workers`` and one ``python -m repro`` smoke test run
the module in a fresh one.
"""

import os
import subprocess
import sys
import traceback
from types import SimpleNamespace

import pytest

from repro.cli import main


def run_module(*args, **kwargs):
    """``python -m repro <args>`` in a fresh interpreter."""
    env = os.environ.copy()
    if env.get("PYTHONPATH"):
        # keep a relative PYTHONPATH (e.g. "src") working under cwd=
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry)
            for entry in env["PYTHONPATH"].split(os.pathsep)
            if entry
        )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        **kwargs,
    )


@pytest.fixture
def run_cli(capsys):
    """``repro <args>`` in process: its exit status and output, as the
    interpreter would report them (a string exit code or an uncaught
    exception goes to stderr and exits 1)."""

    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as exit:
            code = exit.code
        except Exception:
            traceback.print_exc()
            code = 1
        if isinstance(code, str):
            print(code, file=sys.stderr)
            code = 1
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code or 0, stdout=out, stderr=err)

    return run


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "sn")
    assert not main(["generate", "--scale-factor", "0.05", "--output", path])
    return path


class TestGenerate:
    def test_reports_label_counts(self, run_cli, graph_dir):
        result = run_cli(
            "generate", "--scale-factor", "0.05", "--output", graph_dir + "-b"
        )
        assert result.returncode == 0
        assert "Person" in result.stdout
        assert "knows" in result.stdout

    def test_deterministic_across_runs(self, run_cli, tmp_path):
        a = run_cli("generate", "--output", str(tmp_path / "a"), "--seed", "9")
        b = run_cli("generate", "--output", str(tmp_path / "b"), "--seed", "9")
        assert a.stdout.splitlines()[1:] == b.stdout.splitlines()[1:]


class TestQuery:
    def test_tabular_output(self, run_cli, graph_dir):
        result = run_cli(
            "query", graph_dir, "MATCH (p:Person) RETURN count(*) AS n"
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "n"
        assert lines[1] == "30"

    def test_metrics_on_stderr(self, run_cli, graph_dir):
        result = run_cli("query", graph_dir, "MATCH (p:Person) RETURN p.firstName")
        assert "simulated" in result.stderr
        assert "row(s)" in result.stderr

    def test_workers_flag(self, graph_dir):
        result = run_module(
            "--workers", "8", "query", graph_dir,
            "MATCH (p:Person) RETURN count(*) AS n",
        )
        assert "8 workers" in result.stderr

    def test_strategy_flags_change_results(self, run_cli, graph_dir):
        query = (
            "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person) "
            "RETURN count(*) AS n"
        )
        homo = run_cli("query", graph_dir, query, "--vertex-strategy", "homo")
        iso = run_cli("query", graph_dir, query, "--vertex-strategy", "iso")
        homo_count = int(homo.stdout.strip().splitlines()[1])
        iso_count = int(iso.stdout.strip().splitlines()[1])
        assert homo_count >= iso_count

    def test_bad_query_fails(self, run_cli, graph_dir):
        result = run_cli("query", graph_dir, "MATCH (p:Person")
        assert result.returncode != 0


class TestExplainAndStats:
    def test_explain_shows_plan(self, run_cli, graph_dir):
        result = run_cli(
            "explain", graph_dir, "MATCH (a:Person)-[:knows]->(b) RETURN *"
        )
        assert result.returncode == 0
        assert "SelectAndProjectEdges" in result.stdout
        assert "[est=" in result.stdout

    def test_stats(self, run_cli, graph_dir):
        result = run_cli("stats", graph_dir)
        assert result.returncode == 0
        assert "vertices:" in result.stdout
        assert ":knows" in result.stdout


class TestBench:
    def test_table3(self, run_cli):
        result = run_cli("bench", "--experiment", "table3")
        assert result.returncode == 0
        assert "(:Person)" in result.stdout

    def test_unknown_experiment_rejected(self, run_cli):
        result = run_cli("bench", "--experiment", "fig99")
        assert result.returncode != 0


class TestCheck:
    def test_clean_query_exits_zero(self, run_cli, graph_dir):
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.firstName, e",
        )
        assert result.returncode == 0, result.stderr
        assert "planners agree" in result.stderr
        assert "0 error(s), 0 warning(s)" in result.stderr
        # without e in RETURN its id column is dead: a warning, no error
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.firstName",
        )
        assert result.returncode == 3, result.stderr
        assert "planners agree" in result.stderr
        assert "0 error(s), 1 warning(s)" in result.stderr
        assert "warning[S401]" in result.stdout
        assert "'e'" in result.stdout

    def test_each_distinct_finding_prints_and_counts_once(
        self, run_cli, graph_dir
    ):
        # all three planners return the same plan, so they report the
        # same dead anonymous edge column: one line, one warning
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[:knows]->(b:Person) "
            "RETURN count(b.firstName) AS n",
        )
        assert result.returncode == 3, result.stderr
        assert result.stdout.count("warning[S401]") == 1
        assert result.stdout.count("'__e0'") == 1
        assert "0 error(s), 1 warning(s)" in result.stderr

    def test_reports_every_planner(self, run_cli, graph_dir):
        result = run_cli(
            "check", graph_dir, "MATCH (p:Person) RETURN p.firstName"
        )
        for planner in ("GreedyPlanner", "ExhaustivePlanner", "LeftDeepPlanner"):
            assert planner in result.stderr
        assert "sanitized" in result.stderr
        assert "q-err" in result.stderr  # the estimate-audit table printed

    def test_syntax_error_exits_two(self, run_cli, graph_dir):
        result = run_cli("check", graph_dir, "MATCH (p:Person")
        assert result.returncode == 2
        assert "syntax error" in result.stderr

    def test_blocking_lint_error_exits_one(self, run_cli, graph_dir):
        result = run_cli("check", graph_dir, "MATCH (p:Person) RETURN q")
        assert result.returncode == 1
        assert "blocked" in result.stderr
        # the caret excerpt points into the query text
        assert "^" in result.stdout

    def test_off_estimates_exit_three(self, run_cli, graph_dir):
        # nobody has this name: the selectivity-based leaf estimate
        # overshoots zero actual rows, so a strict threshold trips S211
        result = run_cli(
            "check", graph_dir,
            "MATCH (p:Person) WHERE p.firstName = 'Zzz' RETURN p",
            "--max-q-error", "1.0",
        )
        assert result.returncode == 3, result.stderr
        assert "S211" in result.stdout
        assert "warning(s)" in result.stderr


class TestFlowcheck:
    """The static half of ``check``: every planner's plan analysis and
    UDF shippability."""

    def test_clean_query_proves_and_certifies(self, run_cli, graph_dir):
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.firstName",
        )
        # the one warning is the dead id column of e (S401)
        assert result.returncode == 3, result.stderr
        assert "0 error(s), 1 warning(s)" in result.stderr
        assert "layout proven" in result.stderr
        assert "UDFs shippable" in result.stderr
        for planner in ("GreedyPlanner", "ExhaustivePlanner", "LeftDeepPlanner"):
            assert planner in result.stderr

    def test_variable_length_path_proves(self, run_cli, graph_dir):
        result = run_cli(
            "check", graph_dir,
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a.firstName",
            "--vertex-strategy", "iso",
        )
        assert result.returncode == 0, result.stderr
        assert "layout proven" in result.stderr


class TestShell:
    def test_shell_executes_queries(self, graph_dir):
        result = run_module(
            "shell", graph_dir,
            input="MATCH (p:Person) RETURN count(*) AS n\n:quit\n",
        )
        assert result.returncode == 0
        assert "30" in result.stdout

    def test_shell_explain_and_error_recovery(self, graph_dir):
        result = run_module(
            "shell", graph_dir,
            input=(
                "MATCH (broken\n"
                ":explain MATCH (p:Person) RETURN *\n"
                "MATCH (t:Tag) RETURN count(*) AS n\n"
                ":quit\n"
            ),
        )
        assert result.returncode == 0
        assert "error:" in result.stdout  # the bad query reported
        assert "SelectAndProjectVertices" in result.stdout  # explain worked
        # the shell kept going after the error
        assert result.stdout.count("row(s)") >= 1

    def test_shell_sanitize_toggle(self, graph_dir):
        result = run_module(
            "shell", graph_dir,
            input=(
                ":sanitize on\n"
                "MATCH (p:Person) RETURN count(*) AS n\n"
                ":sanitize off\n"
                ":quit\n"
            ),
        )
        assert result.returncode == 0
        assert "sanitized execution on" in result.stdout
        assert "sanitized execution off" in result.stdout
        # the status line after the query shows the sanitizer summary
        assert "embedding(s) checked" in result.stdout

    def test_missing_graph_dir_fails_cleanly(self):
        # the one `python -m repro` smoke test: the exit message of a
        # string SystemExit reaches stderr
        result = run_module("query", "/nonexistent/graph", "MATCH (a) RETURN *")
        assert result.returncode != 0
        assert "not a graph directory" in result.stderr
