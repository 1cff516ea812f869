import pytest

from bench import estimators


def test_nearest_rank_percentiles():
    values = [15, 20, 35, 40, 50]
    assert estimators.nearest_rank(values, 5) == 15
    assert estimators.nearest_rank(values, 30) == 20
    assert estimators.nearest_rank(values, 40) == 20
    assert estimators.nearest_rank(values, 50) == 35
    assert estimators.nearest_rank(values, 100) == 50
    # with fewer than ten values the 90th percentile is the slowest one
    assert estimators.nearest_rank([3, 1, 2], 90) == 3
    with pytest.raises(ValueError):
        estimators.nearest_rank([], 50)


def _sample(latency, cpu=1e6, resp=1000):
    return {"latency_s": latency, "cpu_ns": cpu, "resp_bytes": resp}


def test_floor_is_the_minimum_over_all_passes():
    samples = {
        "a": [_sample(0.30), _sample(0.10), _sample(0.20)],
        "b": [_sample(0.40), _sample(0.50)],
    }
    assert estimators.floors(samples, "latency_s") == {"a": 0.10, "b": 0.40}


def test_back_to_back_samples_count_towards_cpu_but_not_latency():
    samples = {"a": [_sample(0.30, cpu=4e6), {"cpu_ns": 2e6, "resp_bytes": 1000}]}
    assert estimators.floors(samples, "latency_s") == {"a": 0.30}
    assert estimators.floors(samples, "cpu_ns") == {"a": 2e6}
    assert estimators.raw_summary(samples, 1.0)["samples"] == 1


def test_end_to_end_metrics_from_floors():
    samples = {
        "a": [_sample(0.30, cpu=4e6), _sample(0.10, cpu=2e6)],
        "b": [_sample(0.40, cpu=6e6, resp=3096), _sample(0.50, cpu=9e6, resp=3096)],
    }
    metrics = estimators.end_to_end_metrics(
        samples, setup_seconds=[1.5, 1.2, 1.9], peak_rss_kb=[2048, 4096, 1024]
    )
    # closed loop, one client, every request at its floor
    assert metrics["throughput_ops_s"] == pytest.approx(2 / 0.5)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["latency_p90_ms"] == pytest.approx(400.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(4.0)
    assert metrics["setup_s"] == 1.2
    assert metrics["peak_rss_mb"] == 4.0
    assert metrics["resp_kb_per_op"] == pytest.approx(2.0)
