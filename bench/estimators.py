"""Floor-of-passes estimators.

Noise on this box is one-sided: a degraded stretch inflates wall and CPU
time for 20-45 s, while the minimum over repeated identical work stays
within a few percent.  Every timing is therefore the floor over all
passes of a slot, and workload metrics aggregate the per-slot floors.
"""

import math


def nearest_rank(values, percent):
    """The nearest-rank ``percent``-th percentile of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def floors(samples, field):
    """``slot -> min over its samples that have ``field`` of that field``.

    Samples of back-to-back passes carry no latency; they count towards
    the floors of the fields they do have.
    """
    return {
        slot: min(sample[field] for sample in slot_samples
                  if field in sample)
        for slot, slot_samples in samples.items()
    }


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def end_to_end_metrics(samples, setup_seconds, peak_rss_kb):
    """The seven named metrics from one run's samples.

    ``samples`` maps slot key to the list of per-request records (dicts
    with ``cpu_ns``, ``resp_bytes`` and, from latency passes,
    ``latency_s``) of all rounds.
    """
    latency = floors(samples, "latency_s")
    cpu = floors(samples, "cpu_ns")
    resp = floors(samples, "resp_bytes")
    floor_values = list(latency.values())
    return {
        "throughput_ops_s": len(floor_values) / sum(floor_values),
        "latency_p50_ms": nearest_rank(floor_values, 50) * 1e3,
        "latency_p90_ms": nearest_rank(floor_values, 90) * 1e3,
        "cpu_ms_per_op": mean(cpu.values()) / 1e6,
        "setup_s": min(setup_seconds),
        "peak_rss_mb": max(peak_rss_kb) / 1024.0,
        "resp_kb_per_op": mean(resp.values()) / 1024.0,
    }


def raw_summary(samples, measured_seconds):
    """All-sample figures, printed beside the metrics for information."""
    latencies = [
        sample["latency_s"]
        for slot_samples in samples.values()
        for sample in slot_samples
        if "latency_s" in sample
    ]
    return {
        "raw_throughput_ops_s": len(latencies) / measured_seconds,
        "raw_p50_ms": nearest_rank(latencies, 50) * 1e3,
        "raw_p99_ms": nearest_rank(latencies, 99) * 1e3,
        "samples": len(latencies),
    }
