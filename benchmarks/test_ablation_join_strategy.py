"""Ablation E9 — physical join strategy (paper §3.2 discussion).

Flink's optimizer chooses between partitioning and broadcast joins.  We
measure shuffle volume for a small⋈large join under both strategies plus
the AUTO heuristic, at two cluster sizes: broadcasting a small build side
beats repartitioning the large probe side, but its cost grows with the
worker count.
"""

import pytest

from repro.dataflow import ClusterCostModel, ExecutionEnvironment, JoinStrategy
from repro.harness import format_table


def _run_join(strategy, workers, small_count=200, big_count=20_000):
    environment = ExecutionEnvironment(
        cost_model=ClusterCostModel(workers=workers)
    )
    small = environment.from_collection([(i % 97, "s") for i in range(small_count)])
    big = environment.from_collection([(i % 97, "b") for i in range(big_count)])
    environment.reset_metrics("join")
    small.join(big, lambda l: l[0], lambda r: r[0], strategy=strategy).collect(
        mode="reference"
    )
    metrics = environment.metrics
    return {
        "shuffled_records": metrics.total_shuffled_records,
        "shuffled_bytes": metrics.total_shuffled_bytes,
    }


@pytest.mark.benchmark(group="ablation-join")
def test_ablation_join_strategies(benchmark, report):
    def run():
        outcome = {}
        for workers in (4, 16):
            for strategy in (
                JoinStrategy.REPARTITION_HASH,
                JoinStrategy.BROADCAST_FIRST,
                JoinStrategy.AUTO,
            ):
                outcome[(workers, strategy.value)] = _run_join(strategy, workers)
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (workers, strategy, result["shuffled_records"], result["shuffled_bytes"])
        for (workers, strategy), result in outcome.items()
    ]
    report.add(
        "Ablation E9 — shuffle volume by join strategy (small ⋈ large)",
        format_table(["workers", "strategy", "shuffled records", "bytes"], rows),
    )
    report.write("ablation_join_strategy")

    for workers in (4, 16):
        repartition = outcome[(workers, "repartition-hash")]
        broadcast = outcome[(workers, "broadcast-first")]
        auto = outcome[(workers, "auto")]
        # broadcasting the small side moves far less data
        assert broadcast["shuffled_records"] < repartition["shuffled_records"]
        # AUTO matches the better choice
        assert auto["shuffled_records"] <= repartition["shuffled_records"]

    # broadcast cost grows with cluster size; repartition does not
    assert (
        outcome[(16, "broadcast-first")]["shuffled_records"]
        > outcome[(4, "broadcast-first")]["shuffled_records"]
    )
