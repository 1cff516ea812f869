"""Unit tests for the core DataSet transformations."""

import pytest

from repro.dataflow import (
    ExecutionEnvironment,
    JobExecutionError,
    JoinStrategy,
    PlanError,
)


@pytest.fixture
def env():
    return ExecutionEnvironment(parallelism=4)


def test_from_collection_collect_roundtrip(env):
    data = list(range(10))
    assert sorted(env.from_collection(data).collect()) == data


def test_from_collection_preserves_duplicates(env):
    data = [1, 1, 2, 2, 2]
    assert sorted(env.from_collection(data).collect()) == data


def test_map(env):
    result = env.from_collection([1, 2, 3]).map(lambda x: x * 10).collect()
    assert sorted(result) == [10, 20, 30]


def test_filter(env):
    result = env.from_collection(range(10)).filter(lambda x: x % 2 == 0).collect()
    assert sorted(result) == [0, 2, 4, 6, 8]


def test_flat_map_emits_zero_or_more(env):
    result = (
        env.from_collection([0, 1, 2, 3])
        .flat_map(lambda x: [x] * x)
        .collect()
    )
    assert sorted(result) == [1, 2, 2, 3, 3, 3]


def test_map_partition_sees_whole_partition(env):
    sums = (
        env.from_collection(range(100))
        .map_partition(lambda it: [sum(it)])
        .collect(mode="reference")
    )
    assert sum(sums) == sum(range(100))
    # one output per simulated worker: the reference path partitions
    assert len(sums) == 4


def test_union_is_bag_union(env):
    left = env.from_collection([1, 2])
    right = env.from_collection([2, 3])
    assert sorted(left.union(right).collect()) == [1, 2, 2, 3]


def test_union_rejects_foreign_environment(env):
    other_env = ExecutionEnvironment(parallelism=2)
    left = env.from_collection([1])
    right = other_env.from_collection([2])
    with pytest.raises(PlanError):
        left.union(right)


def test_distinct_whole_record(env):
    result = env.from_collection([1, 1, 2, 3, 3, 3]).distinct().collect()
    assert sorted(result) == [1, 2, 3]


def test_distinct_by_key_keeps_one_per_key(env):
    records = [("a", 1), ("a", 2), ("b", 3)]
    result = env.from_collection(records).distinct(key=lambda r: r[0]).collect()
    assert sorted(r[0] for r in result) == ["a", "b"]


def test_group_by_reduce_group(env):
    records = [("a", 1), ("b", 2), ("a", 3)]
    result = (
        env.from_collection(records)
        .group_by(lambda r: r[0])
        .reduce_group(lambda key, rows: [(key, sum(v for _, v in rows))])
        .collect()
    )
    assert sorted(result) == [("a", 4), ("b", 2)]


def test_count_per_group(env):
    records = ["x", "y", "x", "x"]
    result = dict(
        env.from_collection(records).group_by(lambda r: r).count_per_group().collect()
    )
    assert result == {"x": 3, "y": 1}


def test_count(env):
    assert env.from_collection(range(17)).count() == 17


def test_first(env):
    assert len(env.from_collection(range(100)).first(5)) == 5
    assert env.from_collection(range(3)).first(10) == env.from_collection(
        range(3)
    ).collect()[:10]


def test_first_negative_raises(env):
    with pytest.raises(ValueError):
        env.from_collection([1]).first(-1)


def test_rebalance_evens_partitions(env):
    skewed = env.from_partitions([[1] * 40, [], [], []])
    partitions = skewed.rebalance().collect_partitions(mode="reference")
    assert all(len(p) == 10 for p in partitions)


def test_partition_by_colocates_equal_keys(env):
    records = [(i % 3, i) for i in range(30)]
    partitions = (
        env.from_collection(records)
        .partition_by(lambda r: r[0])
        .collect_partitions(mode="reference")
    )
    for partition in partitions:
        assert len({key for key, _ in partition}) <= 3
    # every key lands in exactly one partition
    placements = {}
    for worker, partition in enumerate(partitions):
        for key, _ in partition:
            placements.setdefault(key, set()).add(worker)
    assert all(len(workers) == 1 for workers in placements.values())


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("mode", ["columnar", "reference"])
def test_partition_by_evaluates_its_key_over_any_partition_count(
    parallelism, mode
):
    # one partition splits nothing, yet a failing key fails the stage in
    # both modes, as it does over several partitions
    env = ExecutionEnvironment(parallelism=parallelism)
    ds = env.from_collection([1, 0]).partition_by(lambda r: 1 // r, name="inv")
    with pytest.raises(JobExecutionError) as excinfo:
        ds.collect(mode=mode)
    assert "inv" in str(excinfo.value)
    assert isinstance(excinfo.value.cause, ZeroDivisionError)


@pytest.mark.parametrize("mode", ["columnar", "reference"])
def test_mutating_a_result_leaves_the_next_run_alone(mode):
    # a one-partition source hands its own list to the operators, and a
    # one-partition partition_by passes it on: the caller gets copies
    env = ExecutionEnvironment(parallelism=1)
    source = env.from_collection([3, 1, 2])
    for ds in (
        source,
        source.partition_by(lambda r: r),
        env.from_partitions([[3, 1, 2]]),
    ):
        for partition in ds.collect_partitions(mode=mode):
            partition.sort()
        for batch in ds.batches(mode=mode):
            batch.append(0)
        assert sorted(ds.collect(mode=mode)) == [1, 2, 3]
        assert ds.collect_partitions(mode=mode) == [[3, 1, 2]]


def test_cross_product(env):
    result = env.from_collection([1, 2]).cross(env.from_collection(["a"])).collect()
    assert sorted(result) == [(1, "a"), (2, "a")]


def test_udf_error_is_wrapped_with_operator_name(env):
    ds = env.from_collection([1]).map(lambda x: 1 / 0, name="boom")
    with pytest.raises(JobExecutionError) as excinfo:
        ds.collect()
    assert "boom" in str(excinfo.value)
    assert isinstance(excinfo.value.cause, ZeroDivisionError)


def test_chained_transformations(env):
    result = (
        env.from_collection(range(20))
        .filter(lambda x: x % 2 == 0)
        .map(lambda x: x + 1)
        .flat_map(lambda x: [x, -x])
        .collect()
    )
    assert len(result) == 20
    assert max(result) == 19


def test_shared_subgraph_computed_once_per_run(env):
    calls = []
    base = env.from_collection(range(5)).map(lambda x: calls.append(x) or x)
    left = base.filter(lambda x: x < 3)
    right = base.filter(lambda x: x >= 3)
    assert sorted(left.union(right).collect()) == list(range(5))
    assert len(calls) == 5  # base evaluated once, not twice


@pytest.mark.parametrize("parallelism", [1, 2, 3, 8])
def test_results_independent_of_parallelism(parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    data = [(i % 5, i) for i in range(50)]
    result = (
        env.from_collection(data)
        .group_by(lambda r: r[0])
        .reduce_group(lambda key, rows: [(key, sum(v for _, v in rows))])
        .collect()
    )
    expected = {}
    for key, value in data:
        expected[key] = expected.get(key, 0) + value
    assert dict(result) == expected


class TestJoins:
    @pytest.fixture
    def sides(self, env):
        left = env.from_collection([(1, "a"), (2, "b"), (3, "c")])
        right = env.from_collection([(1, "x"), (1, "y"), (3, "z"), (4, "w")])
        return left, right

    @pytest.mark.parametrize(
        "strategy",
        [
            JoinStrategy.REPARTITION_HASH,
            JoinStrategy.BROADCAST_FIRST,
            JoinStrategy.BROADCAST_SECOND,
            JoinStrategy.SORT_MERGE,
            JoinStrategy.AUTO,
        ],
    )
    def test_all_strategies_agree(self, sides, strategy):
        left, right = sides
        result = left.join(
            right, lambda l: l[0], lambda r: r[0], strategy=strategy
        ).collect()
        pairs = sorted((l[1], r[1]) for l, r in result)
        assert pairs == [("a", "x"), ("a", "y"), ("c", "z")]

    def test_flat_join_fn_can_drop_pairs(self, sides):
        left, right = sides
        result = left.join(
            right,
            lambda l: l[0],
            lambda r: r[0],
            join_fn=lambda l, r: [(l[1], r[1])] if r[1] != "y" else [],
        ).collect()
        assert sorted(result) == [("a", "x"), ("c", "z")]

    def test_join_no_matches(self, env):
        left = env.from_collection([(1, "a")])
        right = env.from_collection([(2, "b")])
        assert left.join(right, lambda l: l[0], lambda r: r[0]).collect() == []

    def test_join_with_duplicate_keys_both_sides(self, env):
        left = env.from_collection([(1, i) for i in range(3)])
        right = env.from_collection([(1, i) for i in range(4)])
        result = left.join(right, lambda l: l[0], lambda r: r[0]).collect()
        assert len(result) == 12

    def test_self_join(self, env):
        ds = env.from_collection([(1, "a"), (2, "b")])
        result = ds.join(ds, lambda l: l[0], lambda r: r[0]).collect()
        assert len(result) == 2

    def test_string_keys(self, env):
        left = env.from_collection([("alice", 1), ("bob", 2)])
        right = env.from_collection([("alice", 10)])
        result = left.join(right, lambda l: l[0], lambda r: r[0]).collect()
        assert result == [(("alice", 1), ("alice", 10))]
