"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4).  Rendered outputs are written to ``benchmarks/_reports/``
so EXPERIMENTS.md can quote measured numbers, and printed (visible with
``pytest -s``).
"""

import os

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import GraphStatistics
from repro.harness import DatasetCache, default_cost_model

REPORT_DIR = os.path.join(os.path.dirname(__file__), "_reports")


@pytest.fixture(scope="session")
def dataset_cache():
    """Generate each scale factor's dataset once for the whole session."""
    return DatasetCache(seed=42)


class GraphCache:
    """Build each (scale_factor, workers, kwargs) logical graph once.

    ``get`` returns ``(dataset, environment, graph, statistics)``; the
    environment is shared, so benchmarks call ``reset_metrics`` before a
    measured region instead of building a fresh environment per run —
    ``to_logical_graph`` and ``GraphStatistics.from_graph`` dominate the
    setup cost of every ablation and are paid once per configuration.
    """

    def __init__(self, dataset_cache):
        self._dataset_cache = dataset_cache
        self._graphs = {}

    def get(self, scale_factor, workers=4, **kwargs):
        key = (scale_factor, workers, tuple(sorted(kwargs.items())))
        if key not in self._graphs:
            dataset = self._dataset_cache.dataset(scale_factor)
            environment = ExecutionEnvironment(
                cost_model=default_cost_model(workers)
            )
            graph = dataset.to_logical_graph(environment, **kwargs)
            statistics = GraphStatistics.from_graph(graph)
            self._graphs[key] = (dataset, environment, graph, statistics)
        return self._graphs[key]


@pytest.fixture(scope="session")
def graph_cache(dataset_cache):
    """Session-wide logical-graph cache shared by every benchmark module."""
    return GraphCache(dataset_cache)


@pytest.fixture
def report():
    """Collects rendered text and writes it to the report directory."""

    class Report:
        def __init__(self):
            self.sections = []

        def add(self, title, body):
            self.sections.append("## %s\n\n%s\n" % (title, body))

        def write(self, name):
            os.makedirs(REPORT_DIR, exist_ok=True)
            text = "\n".join(self.sections)
            with open(os.path.join(REPORT_DIR, name + ".txt"), "w") as handle:
                handle.write(text)
            print("\n" + text)

    return Report()
