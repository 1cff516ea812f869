"""The LDBC workload the server tests drive, and the row-multiset check.

Q1–Q3 run as ``$firstName``-parameterized statements, one binding per
selectivity; Q4–Q6 run as constant texts.  A result is compared to its
baseline as a multiset of canonicalized rows, so neither partitioning
nor thread interleaving can change the verdict.
"""

from collections import Counter

from repro.harness.queries import ANALYTICAL_QUERIES, OPERATIONAL_QUERIES


def parameterized(template):
    """``'{firstName}'`` harness templates as ``$firstName`` queries."""
    return template.replace("'{firstName}'", "$firstName")


def rows_multiset(rows):
    """Order-independent canonical form of a row table.

    ``repr`` canonicalizes engine values (GradoopIds, lists) the same way
    on both sides of the comparison, so the multisets are directly
    comparable across serial and concurrent executions.
    """
    return Counter(
        tuple(sorted((key, repr(value)) for key, value in row.items()))
        for row in rows
    )


class WorkItem:
    """One (query, binding) pair of the workload."""

    __slots__ = ("name", "query", "parameters")

    def __init__(self, name, query, parameters):
        self.name = name
        self.query = query
        self.parameters = parameters


def build_workload(dataset):
    """Q1–Q3 at high and medium selectivity (parameterized) plus Q4–Q6
    (constant)."""
    items = []
    for name in sorted(OPERATIONAL_QUERIES):
        query = parameterized(OPERATIONAL_QUERIES[name])
        for selectivity in ("high", "medium"):
            items.append(WorkItem(
                "%s/%s" % (name, selectivity),
                query,
                {"firstName": dataset.first_name(selectivity)},
            ))
    for name in sorted(ANALYTICAL_QUERIES):
        items.append(WorkItem(name, ANALYTICAL_QUERIES[name], None))
    return items
