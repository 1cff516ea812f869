"""Pickle round-trips for objects that cross the process boundary.

The worker runtime ships plan state between processes with standard
pickling, so :class:`GraphStatistics` (including the per-label degree
maps) and :class:`CostCertificate` must survive a round-trip unchanged
— and the legacy persistence dict (written before the degree maps
existed) must keep loading.
"""

import pickle

from repro.analysis.plan import CostCertificate, OperatorBound
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
    assert statistics.max_out_degree_by_label  # PR 7 per-label maps exist
    assert statistics.max_in_degree_by_label
    rebuilt = pickle.loads(pickle.dumps(statistics))
    assert rebuilt.to_dict() == statistics.to_dict()
    assert rebuilt.version == statistics.version
    # the per-label degree maps survive and stay independently mutable
    assert rebuilt.max_out_degree_by_label == (
        statistics.max_out_degree_by_label
    )
    rebuilt.max_out_degree_by_label["knows"] = 999
    assert statistics.max_out_degree_by_label.get("knows") != 999


def test_graph_statistics_legacy_dict_fallback():
    statistics = _figure1_statistics()
    legacy = statistics.to_dict()
    del legacy["max_out_degree_by_label"]
    del legacy["max_in_degree_by_label"]
    loaded = GraphStatistics.from_dict(legacy)
    assert loaded.max_out_degree_by_label is None
    assert loaded.max_in_degree_by_label is None
    # degree lookups fall back to the global counts without the maps
    assert loaded.max_out_degree(["knows"]) >= 0
    rebuilt = pickle.loads(pickle.dumps(loaded))
    assert rebuilt.to_dict() == loaded.to_dict()
    assert rebuilt.max_out_degree_by_label is None


def test_cost_certificate_pickle_roundtrip():
    certificate = CostCertificate(
        [
            OperatorBound("scan[Person]", 120, 40),
            OperatorBound("join[knows]", 1440, 64),
        ],
        statistics_version=3,
    )
    rebuilt = pickle.loads(pickle.dumps(certificate))
    assert rebuilt.statistics_version == 3
    assert rebuilt.max_cardinality_bound == certificate.max_cardinality_bound
    assert rebuilt.total_bytes_bound == certificate.total_bytes_bound
    assert [
        (r.operator, r.cardinality_bound, r.bytes_bound)
        for r in rebuilt.records
    ] == [
        (r.operator, r.cardinality_bound, r.bytes_bound)
        for r in certificate.records
    ]
    assert rebuilt.admissible(2000) and not rebuilt.admissible(1000)
