"""Model-based property tests: dataflow operators vs plain-Python models.

Random inputs, random parallelism; every operator must agree with the
obvious sequential implementation regardless of partitioning.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import ExecutionEnvironment, JoinStrategy

_records = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-100, 100)), max_size=40
)
_parallelism = st.integers(1, 7)


@settings(max_examples=60, deadline=None)
@given(records=_records, parallelism=_parallelism)
def test_map_filter_flatmap_pipeline(records, parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    result = (
        env.from_collection(records)
        .map(lambda r: (r[0], r[1] * 2))
        .filter(lambda r: r[1] >= 0)
        .flat_map(lambda r: [r[1]] * (r[0] % 3))
        .collect()
    )
    expected = []
    for key, value in records:
        doubled = value * 2
        if doubled >= 0:
            expected.extend([doubled] * (key % 3))
    assert sorted(result) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(left=_records, right=_records, parallelism=_parallelism)
def test_join_matches_nested_loops(left, right, parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    result = (
        env.from_collection(left)
        .join(env.from_collection(right), lambda l: l[0], lambda r: r[0])
        .collect()
    )
    expected = [(l, r) for l in left for r in right if l[0] == r[0]]
    assert sorted(result) == sorted(expected)


@settings(max_examples=40, deadline=None)
@given(
    left=_records,
    right=_records,
    parallelism=_parallelism,
    strategy=st.sampled_from(
        [
            JoinStrategy.REPARTITION_HASH,
            JoinStrategy.BROADCAST_FIRST,
            JoinStrategy.BROADCAST_SECOND,
        ]
    ),
)
def test_all_join_strategies_equivalent(left, right, parallelism, strategy):
    env = ExecutionEnvironment(parallelism=parallelism)
    result = (
        env.from_collection(left)
        .join(
            env.from_collection(right),
            lambda l: l[0],
            lambda r: r[0],
            strategy=strategy,
        )
        .collect()
    )
    expected = [(l, r) for l in left for r in right if l[0] == r[0]]
    assert sorted(result) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(records=_records, parallelism=_parallelism)
def test_group_reduce_matches_dict(records, parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    result = dict(
        env.from_collection(records)
        .group_by(lambda r: r[0])
        .reduce_group(lambda key, rows: [(key, sum(v for _, v in rows))])
        .collect()
    )
    expected = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    assert result == expected


@settings(max_examples=60, deadline=None)
@given(records=_records, parallelism=_parallelism)
def test_distinct_matches_set(records, parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    result = env.from_collection(records).distinct().collect()
    assert sorted(result) == sorted(set(records))


@settings(max_examples=60, deadline=None)
@given(records=_records, parallelism=_parallelism)
def test_union_with_self_doubles(records, parallelism):
    env = ExecutionEnvironment(parallelism=parallelism)
    ds = env.from_collection(records)
    assert ds.union(ds).count() == 2 * len(records)


@settings(max_examples=40, deadline=None)
@given(records=_records, parallelism=_parallelism)
def test_shuffle_conservation(records, parallelism):
    """Partitioning never loses or duplicates records."""
    env = ExecutionEnvironment(parallelism=parallelism)
    result = env.from_collection(records).partition_by(lambda r: r[0]).collect()
    assert sorted(result) == sorted(records)
