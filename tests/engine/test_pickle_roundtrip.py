"""Pickle round-trips for objects that cross the process boundary.

The worker runtime ships plan state between processes with standard
pickling, so :class:`GraphStatistics` must survive a round-trip
unchanged — and the persistence dict written by older versions, which
carries two per-label degree maps nothing reads any more, must keep
loading.
"""

import pickle

from repro.dataflow import ExecutionEnvironment
from repro.engine import GraphStatistics
from repro.epgm import LogicalGraph
from tests.conftest import build_figure1_elements


def _figure1_statistics():
    head, vertices, edges = build_figure1_elements()
    graph = LogicalGraph.from_collections(
        ExecutionEnvironment(), vertices, edges, graph_head=head
    )
    return GraphStatistics.from_graph(graph)


def test_graph_statistics_pickle_roundtrip():
    statistics = _figure1_statistics()
    rebuilt = pickle.loads(pickle.dumps(statistics))
    assert rebuilt.to_dict() == statistics.to_dict()
    assert rebuilt.version == statistics.version
    # the per-label maps survive and stay independently mutable
    assert rebuilt.edge_count_by_label == statistics.edge_count_by_label
    rebuilt.edge_count_by_label["knows"] = 999
    assert statistics.edge_count_by_label["knows"] != 999


def test_graph_statistics_legacy_dict_fallback():
    statistics = _figure1_statistics()
    legacy = statistics.to_dict()
    # older versions also persisted a worst-case degree map per direction
    for direction in ("out", "in"):
        legacy["max_%s_degree_by_label" % direction] = {
            label: 1 for label in legacy["edge_count_by_label"]
        }
    loaded = GraphStatistics.from_dict(legacy)
    assert loaded.to_dict() == statistics.to_dict()
    rebuilt = pickle.loads(pickle.dumps(loaded))
    assert rebuilt.to_dict() == statistics.to_dict()
