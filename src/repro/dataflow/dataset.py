"""The lazy :class:`DataSet` API.

Mirrors Apache Flink's DataSet API: transformations build an operator DAG;
nothing runs until an action (:meth:`DataSet.collect`, :meth:`DataSet.count`)
is triggered through the owning :class:`~repro.dataflow.environment.ExecutionEnvironment`.
"""

from .errors import PlanError
from .modes import legacy_mode
from .operators import (
    CrossOperator,
    DistinctOperator,
    FilterOperator,
    FlatMapOperator,
    GroupReduceOperator,
    JoinOperator,
    JoinStrategy,
    MapOperator,
    MapPartitionOperator,
    PartitionByOperator,
    RebalanceOperator,
    UnionOperator,
)


def _batches(partitions):
    """The result partitions, batch by batch.

    A columnar partition (recognized by its ``chunks`` attribute) yields
    its chunks as they are and lets go of each, so a consumer that
    decodes them never holds the result in both forms at once; a
    per-record partition is one batch, the list itself.
    """
    for partition in partitions:
        chunks = getattr(partition, "chunks", None)
        if chunks is None:
            yield partition
            continue
        chunks.reverse()
        while chunks:
            yield chunks.pop()


def records_of(batches):
    """All records of result ``batches`` as one list, chunks decoded."""
    records = []
    for batch in batches:
        decode = getattr(batch, "to_embeddings", None)
        records.extend(batch if decode is None else decode())
    return records


class DataSet:
    """A distributed collection of records (lazy DAG node)."""

    def __init__(self, environment, operator):
        self.environment = environment
        self.operator = operator

    # Transformations ------------------------------------------------------

    def _derive(self, operator):
        return DataSet(self.environment, operator)

    def _check_same_env(self, other):
        if other.environment is not self.environment:
            raise PlanError("cannot combine datasets from different environments")

    def map(self, fn, name=None):
        """Apply ``fn`` to every record."""
        return self._derive(MapOperator(self.environment, self.operator, fn, name))

    def flat_map(self, fn, name=None):
        """Apply ``fn`` returning zero or more records per input."""
        return self._derive(FlatMapOperator(self.environment, self.operator, fn, name))

    def filter(self, predicate, name=None):
        """Keep records for which ``predicate`` is true."""
        return self._derive(
            FilterOperator(self.environment, self.operator, predicate, name)
        )

    def map_partition(self, fn, name=None):
        """Apply ``fn(iterator) -> iterable`` once per partition."""
        return self._derive(
            MapPartitionOperator(self.environment, self.operator, fn, name)
        )

    def union(self, other, name=None):
        """Bag union with another dataset (no deduplication)."""
        self._check_same_env(other)
        return self._derive(
            UnionOperator(self.environment, self.operator, other.operator, name)
        )

    def distinct(self, key=None, name=None):
        """Deduplicate records by ``key`` (whole record if ``None``)."""
        return self._derive(DistinctOperator(self.environment, self.operator, key, name))

    def rebalance(self, name=None):
        """Redistribute records round-robin to even out partitions."""
        return self._derive(RebalanceOperator(self.environment, self.operator, name))

    def partition_by(self, key, name=None):
        """Hash-partition records by ``key``."""
        return self._derive(
            PartitionByOperator(self.environment, self.operator, key, name)
        )

    def group_by(self, key):
        """Group records by key; follow with :meth:`GroupedDataSet.reduce_group`."""
        return GroupedDataSet(self, key)

    def join(
        self,
        other,
        left_key,
        right_key,
        join_fn=None,
        strategy=JoinStrategy.AUTO,
        name=None,
    ):
        """Equi-join with FlatJoin semantics.

        ``join_fn(left, right)`` returns an iterable of outputs; omitting it
        yields ``(left, right)`` pairs.
        """
        self._check_same_env(other)
        return self._derive(
            JoinOperator(
                self.environment,
                self.operator,
                other.operator,
                left_key,
                right_key,
                join_fn,
                strategy,
                name,
            )
        )

    def cross(self, other, fn=None, name=None):
        """Cartesian product with ``other`` (right side broadcast)."""
        self._check_same_env(other)
        return self._derive(
            CrossOperator(self.environment, self.operator, other.operator, fn, name)
        )

    # Actions ---------------------------------------------------------------

    def collect(self, mode=None, **legacy):
        """Execute the DAG and return all records as a list.

        ``mode`` overrides the environment's default execution mode for
        this execution (``None`` inherits it); ``legacy`` takes its
        retired keywords (:func:`~repro.dataflow.modes.legacy_mode`).
        """
        return records_of(self.batches(mode=legacy_mode(mode, **legacy)))

    def batches(self, mode=None):
        """Execute the DAG now; returns a one-shot iterator of its result.

        Each batch is a chunk (columnar partitions pass theirs through
        undecoded) or a list of records (a per-record partition): the
        form the result table is built from, so the served path decodes
        columns and never an embedding.
        """
        return _batches(self.environment.run(self.operator, mode=mode))

    def collect_partitions(self, mode=None):
        """Execute the DAG and return records per worker."""
        return self.environment.run(self.operator, mode=mode)

    def count(self, mode=None):
        """Execute the DAG and return the number of records."""
        return sum(
            len(p) for p in self.environment.run(self.operator, mode=mode)
        )

    def first(self, n, mode=None):
        """Execute and return up to ``n`` records (deterministic order)."""
        if n < 0:
            raise ValueError("n must be non-negative, got %d" % n)
        return self.collect(mode=mode)[:n]


class GroupedDataSet:
    """Intermediate handle produced by :meth:`DataSet.group_by`."""

    def __init__(self, dataset, key_fn):
        self._dataset = dataset
        self._key_fn = key_fn

    def reduce_group(self, reduce_fn, name=None):
        """Apply ``reduce_fn(key, records) -> iterable`` per group."""
        env = self._dataset.environment
        return DataSet(
            env,
            GroupReduceOperator(
                env, self._dataset.operator, self._key_fn, reduce_fn, name
            ),
        )

    def count_per_group(self, name=None):
        """Convenience: dataset of ``(key, count)`` tuples."""
        return self.reduce_group(
            lambda key, records: [(key, len(records))], name or "count-per-group"
        )
