import pytest

from bench.trace import Tracer


def _tracer(spans):
    """A tracer holding hand-written ``(name, parent, start, end, rep)``."""
    tracer = Tracer()
    for name, parent, start, end, rep in spans:
        tracer.spans.append({"name": name, "slot": "s", "rep": rep,
                             "parent": parent, "start": start, "end": end})
    return tracer


def test_self_time_is_the_span_minus_its_children():
    tracer = _tracer([
        ("request", None, 0.0, 10.0, 0),
        ("execute", 0, 1.0, 8.0, 0),
        ("collect", 1, 2.0, 5.0, 0),
        ("rows", 1, 5.0, 7.0, 0),
        ("encode", 0, 8.0, 9.5, 0),
    ])
    assert tracer.self_times() == pytest.approx([1.5, 2.0, 3.0, 2.0, 1.5])


def test_floor_sums_a_name_within_a_repetition_then_takes_the_minimum():
    tracer = _tracer([
        ("leaf", None, 0.0, 1.0, 0), ("leaf", None, 1.0, 3.0, 0),
        ("leaf", None, 0.0, 0.5, 1), ("leaf", None, 1.0, 2.0, 1),
    ])
    assert tracer.floors("leaf") == {"s": pytest.approx(1.5)}
    assert tracer.mean_ms("leaf", ["s"]) == pytest.approx(1500.0)
    # a layer that is not on the request path: no call, no time
    assert tracer.mean_ms("parse", ["s"]) == 0.0


def test_spans_nest_and_record_their_parent():
    tracer = Tracer()
    tracer.slot, tracer.rep = "s", 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [span["parent"] for span in tracer.spans] == [None, 0, None]
    outer, inner, _ = tracer.spans
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
