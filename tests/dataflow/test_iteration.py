"""Tests for Flink-style bulk iteration (the lazy ``iterate``)."""

import pytest

from repro.dataflow import ExecutionEnvironment, IterationError


@pytest.fixture
def env():
    return ExecutionEnvironment(parallelism=4)


def test_iteration_final_working_set(env):
    """Double values each superstep; final working set after 3 iterations."""
    initial = env.from_collection([1, 2, 3])
    result = env.iterate(
        initial,
        lambda working, i: working.map(lambda x: x * 2),
        max_iterations=3,
        collect_emissions=False,
    )
    assert sorted(result.collect()) == [8, 16, 24]


def test_iteration_collects_emissions_per_superstep(env):
    """Emit the working set at every superstep (paper: union per path length)."""
    initial = env.from_collection([1])

    def step(working, iteration):
        next_working = working.map(lambda x: x + 1)
        return next_working, next_working

    result = env.iterate(initial, step, max_iterations=4)
    assert sorted(result.collect()) == [2, 3, 4, 5]


def test_iteration_terminates_on_empty_working_set(env):
    initial = env.from_collection(list(range(4)))

    def step(working, iteration):
        shrunk = working.filter(lambda x: x > 90)  # empties immediately
        return shrunk, shrunk

    result = env.iterate(initial, step, max_iterations=100)
    assert result.collect() == []
    # supersteps recorded: only iteration 1 ran
    iterations = {run.iteration for run in env.metrics.runs if run.iteration}
    assert iterations == {1}


def test_iteration_zero_max_iterations_returns_empty_emissions(env):
    initial = env.from_collection([1, 2])
    result = env.iterate(initial, lambda w, i: w, max_iterations=0)
    assert result.collect() == []


def test_iteration_negative_max_raises(env):
    initial = env.from_collection([1])
    with pytest.raises(IterationError):
        env.iterate(initial, lambda w, i: w, max_iterations=-1).collect()


def test_iteration_step_returning_none_raises(env):
    initial = env.from_collection([1])
    with pytest.raises(IterationError):
        env.iterate(
            initial, lambda w, i: (None, None), max_iterations=2
        ).collect()


def test_iteration_can_join_against_static_dataset(env):
    """The expand pattern: repeatedly join a frontier with an edge relation."""
    edges = env.from_collection([(1, 2), (2, 3), (3, 4), (4, 5)])
    frontier = env.from_collection([1])

    def step(working, iteration):
        expanded = working.join(
            edges,
            lambda v: v,
            lambda e: e[0],
            join_fn=lambda v, e: [e[1]],
        )
        return expanded, expanded

    result = env.iterate(frontier, step, max_iterations=3)
    assert sorted(result.collect()) == [2, 3, 4]


def test_iteration_metrics_tag_supersteps(env):
    initial = env.from_collection([1])
    env.iterate(
        initial, lambda w, i: w.map(lambda x: x), max_iterations=3
    ).collect()
    tagged = [run.iteration for run in env.metrics.runs if run.iteration is not None]
    assert set(tagged) == {1, 2, 3}


def test_iteration_growth_pattern(env):
    """Working set can grow superstep over superstep (path explosion)."""
    initial = env.from_collection([0])

    def step(working, iteration):
        grown = working.flat_map(lambda x: [x, x + 1])
        return grown, None

    result = env.iterate(
        initial, step, max_iterations=3, collect_emissions=False
    )
    assert len(result.collect()) == 8
