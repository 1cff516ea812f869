"""Load the benchmark CSV in-process the way ``repro serve`` does."""

import time

from repro import cli
from repro.dataflow import ExecutionEnvironment
from repro.dataflow.cost import ClusterCostModel
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.epgm.io import CSVDataSource
from repro.server import GraphRegistry, QueryService

_STRATEGIES = {
    "homo": MatchStrategy.HOMOMORPHISM,
    "iso": MatchStrategy.ISOMORPHISM,
}


class Loaded:
    """One graph loaded with ``serve``'s default flags, plus load times."""

    def __init__(self, csv_dir, **environment_overrides):
        # the parser's defaults, not copies of them: when a default
        # changes, the traced run and the golden reference follow
        self.args = cli.build_parser().parse_args(["serve", csv_dir])
        options = dict(
            cost_model=ClusterCostModel(workers=self.args.workers),
            batch_size=self.args.batch_size,
            workers=self.args.process_workers,
            columnar=self.args.columnar,
        )
        options.update(environment_overrides)
        self.environment = ExecutionEnvironment(**options)
        source = CSVDataSource(csv_dir)
        started = time.perf_counter()
        self.graph = source.get_logical_graph(self.environment)
        loaded = time.perf_counter()
        self.statistics = source.get_statistics()
        if self.statistics is None:
            self.statistics = GraphStatistics.from_graph(self.graph)
        self.csv_load_s = loaded - started
        self.statistics_s = time.perf_counter() - loaded
        self.vertex_strategy = _STRATEGIES[self.args.vertex_strategy]
        self.edge_strategy = _STRATEGIES[self.args.edge_strategy]

    def runner(self, **options):
        return CypherRunner(
            self.graph,
            statistics=self.statistics,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
            **options
        )

    def service(self):
        registry = GraphRegistry()
        registry.register(self.args.name, self.graph, self.statistics)
        return QueryService(
            registry,
            max_concurrency=self.args.max_concurrency,
            max_queue=self.args.max_queue,
            default_timeout=self.args.default_timeout,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
            result_cache_size=self.args.result_cache,
        )
