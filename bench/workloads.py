"""The four workloads: their shapes, bindings and slots.

A *shape* is one query text, a *slot* one distinct request of a workload
(shape + binding).  The graph and the slot set are pinned — one LDBC-like
dataset, like a fixed scale factor of the real benchmark — so every run
does the same work; ``--seed`` draws what a client is free to vary: the
order of the requests, the server's hash seed and the fresh literals of
``adhoc-cold``.  (The driver judges steadiness across seeds, and the
generator's ``knows`` count alone moves 30 % with its seed.)
"""

import random

from repro.dataflow import ExecutionEnvironment
from repro.epgm.io import CSVDataSink
from repro.harness.queries import (
    ANALYTICAL_QUERIES,
    OPERATIONAL_QUERIES,
    TABLE3_PATTERNS,
)
from repro.ldbc import LDBCGenerator, schema

GRAPH_SCALE = 2.0
GRAPH_SEED = 42
GRAPH_NAME = "default"  # the registry name `repro serve` uses by default

_PREDICATE = "WHERE p.firstName = '{firstName}'"
_TABLE3 = dict(zip(("person", "creator", "knows", "knows-creator"),
                   TABLE3_PATTERNS.values()))


def _prepared(template):
    return template.replace("'{firstName}'", "$firstName").strip()


class Slot:
    """One distinct request: a shape plus its binding."""

    __slots__ = ("key", "shape", "text", "parameters")

    def __init__(self, key, shape, text, parameters=None):
        self.key = key
        self.shape = shape
        self.text = text
        self.parameters = parameters

    def query(self, literal):
        """The text to send; ``adhoc-cold`` texts embed a fresh literal."""
        return self.text.replace("{lit}", literal)


class Workload:
    """A named slot set; ``prepared`` ones go through /prepare + /execute."""

    def __init__(self, name, why, slots, prepared):
        self.name = name
        self.why = why
        self.slots = slots
        self.prepared = prepared

    @property
    def shapes(self):
        """``shape -> text`` in first-use order."""
        shapes = {}
        for slot in self.slots:
            shapes.setdefault(slot.shape, slot.text)
        return shapes

    def ordered(self, seed, round_index, pass_index):
        """The slots in the seed-drawn order of one pass.

        Every pass has its own order.  The server's collector runs a full
        collection (40-60 ms over the loaded graph) after a fixed amount
        of allocation, so under one fixed order the same slots would
        absorb the pauses pass after pass, and their floors would depend
        on the order instead of the program.
        """
        slots = list(self.slots)
        random.Random(
            "%s:%d:%d:%d" % (self.name, seed, round_index, pass_index)
        ).shuffle(slots)
        return slots

    def trace_slots(self):
        """Two slots per shape, the binding rotating with the shape.

        The traced run replays every layer several times per slot, so it
        covers each shape at two bindings instead of the whole pass.
        """
        by_shape = {}
        for slot in self.slots:
            by_shape.setdefault(slot.shape, []).append(slot)
        chosen = []
        for index, slots in enumerate(by_shape.values()):
            picks = {(index + step) % len(slots)
                     for step in (0, len(slots) // 2)}
            chosen.extend(slots[pick] for pick in sorted(picks))
        return chosen


def generate_dataset():
    return LDBCGenerator(GRAPH_SCALE, GRAPH_SEED).generate()


def ranked_names(dataset):
    """First names, most frequent first (ties by name)."""
    ranks = dataset.first_name_ranks
    return sorted(ranks, key=lambda name: (-ranks[name], name))


def _parameterised(name, why, shapes, names):
    slots = [
        Slot("%s/%s" % (shape, first_name), shape, text,
             {"firstName": first_name})
        for shape, text in shapes.items()
        for first_name in names
    ]
    return Workload(name, why, slots, prepared=True)


def op_warm(names):
    shapes = {"Q1": _prepared(OPERATIONAL_QUERIES["Q1"])}
    for label, template in _TABLE3.items():
        shapes["T3-" + label] = _prepared(template)
    # 4 names spread over the frequency ranks: 270 persons down to 2
    picked = [names[rank] for rank in (0, 2, 8, 32) if rank < len(names)]
    return _parameterised(
        "op-warm",
        "prepared operational patterns, plan cache always hits: scans, "
        "selection, small joins and fixed request overhead",
        shapes, picked,
    )


def path(names):
    shapes = {
        "Q2": _prepared(OPERATIONAL_QUERIES["Q2"]),
        "Q3": _prepared(OPERATIONAL_QUERIES["Q3"]),
        "knows-1-3": "MATCH (p:Person)-[:knows*1..3]->(q:Person) "
                     "WHERE p.firstName = $firstName RETURN *",
    }
    # names from the frequent half; the three most frequent cost 0.3-0.8 s
    # a request on Q3 and knows*1..3 and would leave time for few passes
    return _parameterised(
        "path",
        "variable-length paths: the only workload where ExpandEmbeddings "
        "and bulk iteration carry the request",
        shapes, names[3:6],
    )


def analytic(names):
    shapes = dict(ANALYTICAL_QUERIES)
    for label in ("creator", "knows", "knows-creator"):
        shapes["T3-" + label] = _TABLE3[label].replace(_PREDICATE, "")
    slots = [Slot(shape, shape, " ".join(text.split()))
             for shape, text in shapes.items()]
    return Workload(
        "analytic",
        "constant analytical texts, warm plan cache, large results: hash "
        "joins, shuffles, row building and JSON encoding",
        slots, prepared=False,
    )


#: ``{lit}`` sits in a predicate that is true of every element, so the
#: text is new to the plan cache while the result stays the golden one
_ADHOC_SHAPES = {
    "city": ("MATCH (c:City) WHERE c.name <> '{lit}' AND c.name = '%s' "
             "RETURN c.name", schema.CITY_NAMES),
    "university": ("MATCH (u:University) WHERE u.name <> '{lit}' "
                   "AND u.name = '%s' RETURN u.name",
                   schema.UNIVERSITY_NAMES),
    "tag": ("MATCH (t:Tag) WHERE t.name <> '{lit}' AND t.name = '%s' "
            "RETURN t.name", schema.TAG_NAMES),
    "forum": ("MATCH (f:Forum) WHERE f.title <> '{lit}' "
              "AND f.title = 'Forum %s' RETURN f.title, f.creationDate",
              [str(number) for number in range(10)]),
    "city-university": ("MATCH (c:City), (u:University) "
                        "WHERE c.name <> '{lit}' AND u.name = '%s' "
                        "RETURN c.name, u.name", schema.UNIVERSITY_NAMES),
    "city-university-tag": ("MATCH (c:City), (u:University), (t:Tag) "
                            "WHERE t.name <> '{lit}' AND c.name = '%s' "
                            "AND u.name = 'TU Dresden' "
                            "RETURN c.name, u.name, t.name",
                            schema.CITY_NAMES),
}


def adhoc_cold(names):
    slots = [
        Slot("%s/%s" % (shape, anchor), shape, template % anchor)
        for shape, (template, anchors) in _ADHOC_SHAPES.items()
        for anchor in anchors[:10]
    ]
    return Workload(
        "adhoc-cold",
        "never-seen texts over tiny labels: every request parses, lints, "
        "plans and misses the plan cache; fixed overhead is all there is",
        slots, prepared=False,
    )


WORKLOADS = {
    "op-warm": op_warm,
    "path": path,
    "analytic": analytic,
    "adhoc-cold": adhoc_cold,
}


def build(name, names):
    return WORKLOADS[name](names)


def write_graph(directory):
    """Generate the pinned dataset, write it as CSV; returns the names."""
    dataset = generate_dataset()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    CSVDataSink(directory).write_logical_graph(graph)
    return ranked_names(dataset)
