"""Tests for statistics files persisted with CSV datasets."""

import json
import os

from repro.engine import CypherRunner
from repro.epgm.io import CSVDataSink, CSVDataSource
from repro.epgm.io.csv import STATISTICS_FILE


def test_sink_writes_statistics_by_default(tmp_path, figure1_graph):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    assert os.path.exists(os.path.join(path, STATISTICS_FILE))


def test_statistics_can_be_skipped(tmp_path, figure1_graph):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph, with_statistics=False)
    assert not os.path.exists(os.path.join(path, STATISTICS_FILE))
    assert CSVDataSource(path).get_statistics() is None


def test_source_reads_statistics(tmp_path, figure1_graph, env):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    statistics = CSVDataSource(path).get_statistics()
    assert statistics.vertex_count == 5
    assert statistics.edge_count_by_label["knows"] == 4


def test_persisted_statistics_drive_the_runner(tmp_path, figure1_graph, env):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    source = CSVDataSource(path)
    graph = source.get_logical_graph(env)
    runner = CypherRunner(graph, statistics=source.get_statistics())
    rows = runner.execute_table(
        "MATCH (p:Person)-[s:studyAt]->(u) WHERE s.classYear > 2014 RETURN p.name"
    )
    assert sorted(row["p.name"] for row in rows) == ["Alice", "Eve"]


def test_statistics_file_of_older_versions_still_loads(tmp_path, figure1_graph):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    statistics_path = os.path.join(path, STATISTICS_FILE)
    with open(statistics_path, encoding="utf-8") as handle:
        fresh = json.load(handle)
    # a freshly written file carries exactly the planner's statistics
    assert not any("degree" in key for key in fresh)
    # older sinks also wrote a worst-case degree map per direction
    written = dict(fresh)
    for direction in ("out", "in"):
        written["max_%s_degree_by_label" % direction] = {
            label: 1 for label in fresh["edge_count_by_label"]
        }
    with open(statistics_path, "w", encoding="utf-8") as handle:
        json.dump(written, handle, indent=2, sort_keys=True)
    statistics = CSVDataSource(path).get_statistics()
    assert statistics.to_dict() == fresh
    assert statistics.edge_count_by_label["knows"] == 4
