"""Golden results: ``row_count`` + order-independent row digest per slot.

Written by ``python -m bench golden`` from the per-record reference path
(``CypherRunner(fused=False)``), after cross-checking that path against
the independent ``repro.engine.naive`` matcher on a small graph; the run
compares every response against it at no timed cost.
"""

import hashlib
import json
import os
import shutil
import tempfile
from collections import Counter

from repro.cypher.query_graph import QueryHandler
from repro.dataflow import ExecutionEnvironment
from repro.engine import NaiveMatcher, canonical_rows_from_embeddings
from repro.epgm.io import CSVDataSink
from repro.ldbc import LDBCGenerator

from . import OUT_DIR, workloads
from .inprocess import Loaded

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
#: the cross-check graph: small enough for the backtracking matcher
NAIVE_SCALE = 0.1


_canonical = json.JSONEncoder(sort_keys=True, default=str).encode


def row_digest(rows):
    """A digest of the row *multiset*: the order of the rows does not matter."""
    lines = sorted(map(_canonical, rows))
    return hashlib.blake2b(
        "\n".join(lines).encode(), digest_size=8
    ).hexdigest()


def golden_path(workload_name):
    return os.path.join(
        GOLDEN_DIR, "%s-seed%d.json" % (workload_name, workloads.GRAPH_SEED)
    )


def load(workload_name):
    """``slot key -> {"row_count", "digest"}`` as recorded."""
    with open(golden_path(workload_name)) as handle:
        return json.load(handle)["slots"]


def reference(runner, slot):
    """What the per-record reference path returns for ``slot``."""
    rows = runner.execute_table(slot.query("golden"), slot.parameters)
    # through JSON once, as the server's rows reach the client
    rows = json.loads(json.dumps(rows, default=str))
    return {"row_count": len(rows), "digest": row_digest(rows)}


def cross_check_naive(scratch):
    """The reference path against the naive matcher, every slot's text.

    Returns the number of slots compared; raises on the first mismatch.
    """
    dataset = LDBCGenerator(NAIVE_SCALE, workloads.GRAPH_SEED).generate()
    directory = os.path.join(scratch, "naive-graph")
    CSVDataSink(directory).write_logical_graph(
        dataset.to_logical_graph(ExecutionEnvironment())
    )
    loaded = Loaded(directory)
    runner = loaded.runner(fused=False)
    matcher = NaiveMatcher(
        loaded.graph, loaded.vertex_strategy, loaded.edge_strategy
    )
    names = workloads.ranked_names(dataset)
    compared = 0
    for name in workloads.WORKLOADS:
        for slot in workloads.build(name, names).slots:
            text = slot.query("golden")
            embeddings, meta = runner.execute_embeddings(text, slot.parameters)
            engine = Counter(canonical_rows_from_embeddings(embeddings, meta))
            naive = Counter(
                matcher.match(QueryHandler(text, parameters=slot.parameters))
            )
            if engine != naive:
                raise AssertionError(
                    "reference path and naive matcher disagree on %s/%s: "
                    "%d vs %d matches"
                    % (name, slot.key, sum(engine.values()),
                       sum(naive.values()))
                )
            compared += 1
    return compared


def write_all():
    """Cross-check, then write one golden file per workload."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR)
    try:
        compared = cross_check_naive(scratch)
        print("naive cross-check at scale %s: %d slots agree"
              % (NAIVE_SCALE, compared))
        directory = os.path.join(scratch, "graph")
        names = workloads.write_graph(directory)
        runner = Loaded(directory).runner(fused=False)
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, names)
            document = {
                "workload": name,
                "graph": {"scale": workloads.GRAPH_SCALE,
                          "seed": workloads.GRAPH_SEED},
                "reference": "CypherRunner(fused=False).execute_table",
                "slots": {slot.key: reference(runner, slot)
                          for slot in workload.slots},
            }
            with open(golden_path(name), "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print("wrote %s (%d slots)"
                  % (golden_path(name), len(workload.slots)))
    finally:
        shutil.rmtree(scratch)
