"""Query planning in depth: EXPLAIN, EXPLAIN ANALYZE, planner comparison.

Shows the cost-based optimization of paper §3.2 at work: the statistics,
the plan a greedy/left-deep/exhaustive planner picks for the same query,
and how the estimates compare to actual cardinalities.
"""

from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    ExhaustivePlanner,
    GraphStatistics,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.ldbc import LDBCGenerator

# textual order starts from the unselective membership edge on purpose;
# $name is bound to a rare first name at run time
QUERY = """
MATCH (forum:Forum)-[:hasMember]->(person:Person),
      (person)-[:isLocatedIn]->(city:City),
      (sel:Person {firstName: $name})-[:knows]->(person)
RETURN person.firstName, city.name
"""


def main():
    environment = ExecutionEnvironment(parallelism=4)
    dataset = LDBCGenerator(scale_factor=0.2, seed=42).generate()
    graph = dataset.to_logical_graph(environment)
    statistics = GraphStatistics.from_graph(graph)
    parameters = {"name": dataset.first_name("high")}

    print("=== Statistics the planner sees (paper §3.2) ===")
    for label in ("knows", "hasMember", "isLocatedIn"):
        print(
            "  :%-12s %5d edges, %4d distinct sources"
            % (
                label,
                statistics.edge_count_by_label.get(label, 0),
                statistics.distinct_source_by_label.get(label, 0),
            )
        )

    for name, planner_cls in [
        ("greedy (the paper's planner)", GreedyPlanner),
        ("left-deep textual order", LeftDeepPlanner),
        ("exhaustive enumeration", ExhaustivePlanner),
    ]:
        runner = CypherRunner(graph, statistics=statistics, planner_cls=planner_cls)
        environment.reset_metrics(name)
        rows = runner.execute_table(QUERY, parameters=parameters)
        intermediate = sum(
            run.records_in
            for run in environment.metrics.runs
            if run.name.startswith(("JoinEmbeddings", "SelectEmbeddings"))
        )
        print("\n=== %s ===" % name)
        print(runner.explain(QUERY))
        print(
            "results=%d  intermediate join records=%d  simulated=%.2fs"
            % (len(rows), intermediate, environment.simulated_runtime_seconds())
        )

    print("\n=== EXPLAIN ANALYZE (estimates vs reality) ===")
    runner = CypherRunner(graph, statistics=statistics)
    print(runner.explain_analyze(QUERY, parameters=parameters))


if __name__ == "__main__":
    main()
