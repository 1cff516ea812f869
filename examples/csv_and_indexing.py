"""Graph I/O and the label-indexed graph representation.

Writes a generated social network to the Gradoop-style CSV format, reads
it back — a loaded graph is the IndexedLogicalGraph of paper §3.4 — and
compares query scan volume with the plain LogicalGraph it was written from.
"""

import os
import tempfile

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.epgm import IndexedLogicalGraph
from repro.epgm.io import CSVDataSink, CSVDataSource
from repro.ldbc import generate_graph

QUERY = "MATCH (p:Person)-[:studyAt]->(u:University) RETURN p.firstName, u.name"


def main():
    environment = ExecutionEnvironment(parallelism=4)
    graph = generate_graph(environment, scale_factor=0.1, seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "social-network")
        CSVDataSink(path).write_logical_graph(graph)
        print("wrote graph to", path)
        print("files:", sorted(os.listdir(path)))

        restored = CSVDataSource(path).get_logical_graph(environment)
        print(
            "restored: %d vertices, %d edges"
            % (restored.vertex_count(), restored.edge_count())
        )

        # plain representation (a graph built in code): every query
        # vertex scans all vertices and filters them by label; its edge
        # joins walk the adjacency the graph groups on first use
        environment.reset_metrics("plain")
        plain_rows = CypherRunner(graph).execute_table(QUERY)
        plain_scanned = environment.metrics.total_records_processed

        # label-indexed representation: per-label datasets (paper §3.4),
        # which is what the CSV source loads
        assert isinstance(restored, IndexedLogicalGraph)
        environment.reset_metrics("indexed")
        indexed_rows = CypherRunner(restored).execute_table(QUERY)
        indexed_scanned = environment.metrics.total_records_processed
        print("resident adjacency:", restored.adjacency_stats())

        assert len(plain_rows) == len(indexed_rows)
        print("\nquery:", QUERY)
        print("results:", len(plain_rows))
        print("records processed, plain graph:  ", plain_scanned)
        print("records processed, indexed graph:", indexed_scanned)
        print(
            "indexed representation scanned %.1fx fewer records"
            % (plain_scanned / indexed_scanned)
        )


if __name__ == "__main__":
    main()
