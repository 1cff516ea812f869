"""Plan regret: how far greedy's plan is from the fastest plan it could pick.

The greedy planner (§3.2) minimises estimated intermediate cardinality.
This report runs, for every query of a fixed grid, each distinct plan
(distinct by ``EXPLAIN`` text) that the three planners produce —
:class:`~repro.engine.ExhaustivePlanner`, :class:`~repro.engine.LeftDeepPlanner`
and greedy — on the default (columnar) engine over an indexed graph, the
way ``repro serve`` runs it, and prints greedy's CPU floor divided by the
best plan's, next to greedy's largest estimate q-error
(:meth:`~repro.engine.CypherRunner.audit_estimates`).

The grid: Q1-Q3 at Fig. 5's three selectivities, Q4-Q6, the four Table 3
patterns and ``knows*1..3`` at the same three selectivities, on the
harness's SF-small dataset.  A plan's time is the floor of ``REPEATS``
CPU-time measurements of one execution up to its rows, after one warm-up
run, the plans of a cell taking turns; it is a measurement of the machine
it runs on.

Run ``python -m repro.harness.regret [--output FILE]`` (``make regret``
writes ``docs/plan_regret.md``).
"""

import argparse
import gc
import platform
import sys
import time
from functools import partial

from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    ExhaustivePlanner,
    GraphStatistics,
    GreedyPlanner,
    LeftDeepPlanner,
)

from .experiments import SCALE_FACTOR_SMALL, DatasetCache
from .queries import ALL_QUERIES, TABLE3_PATTERNS, instantiate

REPEATS = 5
SEED = 42  # the dataset seed of the simulated figures
SELECTIVITIES = ("high", "medium", "low")
PLANNERS = (("greedy", GreedyPlanner), ("exhaustive", ExhaustivePlanner),
            ("left-deep", LeftDeepPlanner))

KNOWS_1_3 = """
    MATCH (p:Person)-[:knows*1..3]->(q:Person)
    WHERE p.firstName = '{firstName}' RETURN *
"""


def grid():
    """``(name, template)`` of every query shape the report covers."""
    shapes = list(ALL_QUERIES.items())
    shapes += [("T3 " + pattern, template)
               for pattern, template in TABLE3_PATTERNS.items()]
    shapes.append(("knows*1..3", KNOWS_1_3))
    return shapes


def cpu_floors_ms(runs):
    """The smallest CPU time of ``REPEATS`` calls of each of ``runs``, in
    ms.  The calls take turns, so a slow spell of the machine falls on
    every plan alike, and a collection runs before each, not inside it."""
    for run in runs:
        run()
    floors = [None] * len(runs)
    for _ in range(REPEATS):
        for index, run in enumerate(runs):
            gc.collect()
            started = time.process_time()
            run()
            elapsed = (time.process_time() - started) * 1000.0
            if floors[index] is None or elapsed < floors[index]:
                floors[index] = elapsed
    return floors


def measure(graph, statistics, query):
    """One grid cell: each planner's plan text, every distinct plan's CPU
    floor, and greedy's worst q-error.  Returns a dict."""
    runners = {name: CypherRunner(graph, statistics=statistics, planner_cls=cls)
               for name, cls in PLANNERS}
    plans = {name: runner.explain(query) for name, runner in runners.items()}
    distinct = {}
    for name, runner in runners.items():
        distinct.setdefault(plans[name], partial(runner.execute_table, query))
    floors = dict(zip(distinct, cpu_floors_ms(list(distinct.values()))))
    times = {name: floors[plans[name]] for name in runners}
    best = min(times, key=lambda name: (times[name], name != "greedy"))
    worst = runners["greedy"].audit_estimates(query).worst
    return {
        "rows": len(runners["greedy"].execute_table(query)),
        "plans": len(distinct),
        "times": times,
        "best": best,
        "regret": times["greedy"] / times[best] if times[best] else 1.0,
        "q_error": worst.q_error if worst is not None else 1.0,
        "q_error_at": worst.operator if worst is not None else "-",
    }


def run(out=None):
    """Measure the whole grid; returns ``[(shape, selectivity, cell)]``."""
    dataset = DatasetCache(SEED).dataset(SCALE_FACTOR_SMALL)
    graph = dataset.to_logical_graph(ExecutionEnvironment(), indexed=True)
    statistics = GraphStatistics.from_graph(graph)
    cells = []
    for shape, template in grid():
        selectivities = SELECTIVITIES if "{firstName}" in template else (None,)
        for selectivity in selectivities:
            name = dataset.first_name(selectivity) if selectivity else None
            query = " ".join(instantiate(template, name).split())
            cell = measure(graph, statistics, query)
            cells.append((shape, selectivity, cell))
            if out is not None:
                print("%-50s %-6s regret %.2f" % (shape, selectivity or "-",
                                                   cell["regret"]),
                      file=out, flush=True)
    return cells


def _cell(text):
    """``text`` inside a markdown table cell: a bare ``|`` ends the cell."""
    return text.replace("|", "\\|")


def format_report(cells):
    """The report as a markdown document."""
    lines = [
        "# Plan regret on the columnar engine",
        "",
        "Generated by `python -m repro.harness.regret` (`make regret`); "
        "every number is a measurement on the machine that ran it.",
        "",
        "- dataset: the harness's LDBC-like SF %s (seed %d), indexed, "
        "one in-process partition" % (SCALE_FACTOR_SMALL, SEED),
        "- time: CPU floor of %d runs of `CypherRunner.execute_table` "
        "(plan cache warm, one warm-up run, the plans taking turns), "
        "per distinct plan" % REPEATS,
        "- regret: greedy's floor ÷ the best floor of the three planners; "
        "q-error: greedy's largest estimate q-error "
        "(`CypherRunner.audit_estimates`) and the operator it sits at",
        "- machine: %s, Python %s" % (platform.machine() or "?",
                                       platform.python_version()),
        "",
        "| query | selectivity | rows | plans | greedy ms | exhaustive ms "
        "| left-deep ms | best | regret | greedy q-error | at |",
        "|---|---|---:|---:|---:|---:|---:|---|---:|---:|---|",
    ]
    for shape, selectivity, cell in cells:
        times = cell["times"]
        lines.append(
            "| `%s` | %s | %d | %d | %.2f | %.2f | %.2f | %s | %.2f | %.1f | `%s` |"
            % (_cell(shape), selectivity or "-", cell["rows"], cell["plans"],
               times["greedy"], times["exhaustive"], times["left-deep"],
               cell["best"], cell["regret"], cell["q_error"],
               _cell(cell["q_error_at"]))
        )
    worst = max(cells, key=lambda item: item[2]["regret"])
    lines += [
        "",
        "Worst regret: %.2f (`%s`, %s)."
        % (worst[2]["regret"], worst[0], worst[1] or "-"),
    ]
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.regret",
        description="greedy's plan time over the best planner's, per query",
    )
    parser.add_argument("--output", help="write the markdown report here")
    args = parser.parse_args(argv)
    report = format_report(run(out=sys.stderr))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
