import json
import os

from repro.server.service import DEFAULT_PLAN_CACHE_SIZE

from bench import endtoend, golden, workloads

NAMES = ["name%02d" % rank for rank in range(95)]


def test_slots_and_order_are_deterministic_in_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, NAMES)
        again = workloads.build(name, NAMES)
        assert [s.key for s in first.slots] == [s.key for s in again.slots]
        assert len({s.key for s in first.slots}) == len(first.slots)
        order = [s.key for s in first.ordered(7, 0, 1)]
        assert order == [s.key for s in again.ordered(7, 0, 1)]
        assert sorted(order) == sorted(s.key for s in first.slots)
    workload = workloads.build("adhoc-cold", NAMES)
    orders = {tuple(s.key for s in workload.ordered(*draw))
              for draw in ((7, 0, 1), (8, 0, 1), (7, 1, 1), (7, 0, 2))}
    assert len(orders) == 4


def test_workload_sizes():
    sizes = {name: len(workloads.build(name, NAMES).slots)
             for name in workloads.WORKLOADS}
    assert sizes == {"op-warm": 20, "path": 9, "analytic": 6,
                     "adhoc-cold": 60}


def test_trace_slots_cover_every_shape():
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, NAMES)
        traced = workload.trace_slots()
        assert {s.shape for s in traced} == set(workload.shapes)
        assert len(traced) <= 2 * len(workload.shapes)


class _EchoClient:
    """Answers every request with an empty result and keeps the texts."""

    quick_ack = False

    def __init__(self):
        self.texts = []

    def request(self, method, path, payload=None):
        self.texts.append(payload["query"])
        body = json.dumps({
            "rows": [], "row_count": 0, "elapsed_seconds": 0.001,
            "queue_seconds": 0.0, "simulated_seconds": 0.0,
        }).encode()
        return 200, body, 0.002


def test_every_adhoc_cold_text_is_distinct_and_outnumbers_the_plan_cache(
        monkeypatch):
    """The texts of one run: 3 rounds of two phases, each phase ending
    on its budget in the middle of a pass."""
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(endtoend.time, "perf_counter", lambda: next(ticks))
    workload = workloads.build("adhoc-cold", NAMES)
    reference = {slot.key: {"row_count": 0, "digest": golden.row_digest([])}
                 for slot in workload.slots}
    peer = _EchoClient()
    for index in range(endtoend.ROUNDS):
        done = endtoend.Round(workload, reference, "unused", 42, index)
        # the fake clock ticks once per request past the whole passes
        done._passes(peer, os.getpid(), 25, endtoend.MIN_PASSES)
        done._passes(peer, os.getpid(), 25, 1)
        assert done.attempted == 60 * (endtoend.MIN_PASSES + 1) + 2 * 24
        assert not done.failures
    assert len(set(peer.texts)) == len(peer.texts)
    assert len(peer.texts) > DEFAULT_PLAN_CACHE_SIZE
    assert all("{lit}" not in text for text in peer.texts)


def test_golden_files_cover_exactly_the_slots():
    for name in workloads.WORKLOADS:
        with open(golden.golden_path(name)) as handle:
            document = json.load(handle)
        assert document["graph"] == {"scale": workloads.GRAPH_SCALE,
                                     "seed": workloads.GRAPH_SEED}
        for entry in document["slots"].values():
            assert set(entry) == {"row_count", "digest"}
    assert os.path.basename(golden.golden_path("path")) == "path-seed42.json"


def test_row_digest_ignores_order_but_not_multiplicity():
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    assert golden.row_digest(rows) == golden.row_digest(rows[::-1])
    assert golden.row_digest(rows) == golden.row_digest(
        [{"b": [1, 2], "a": 1}, {"b": None, "a": 2}])
    assert golden.row_digest(rows) != golden.row_digest(rows + rows[:1])
    assert golden.row_digest(rows) != golden.row_digest([rows[0], {"a": 3}])
