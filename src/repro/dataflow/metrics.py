"""Execution metrics for simulated dataflow jobs.

Every operator execution appends one :class:`OperatorRun` to the
environment's :class:`JobMetrics`.  The cost model
(:mod:`repro.dataflow.cost`) turns these runs into a simulated wall-clock
runtime; the benchmark harness reads them directly for shuffle-volume and
skew reporting.
"""

from dataclasses import dataclass, field
from typing import List


@dataclass
class OperatorRun:
    """Metrics for a single operator execution.

    Attributes:
        name: Operator display name (e.g. ``"join[repartition-hash]"``).
        records_in: Total input records across all workers.
        records_out: Total output records across all workers.
        worker_records_in: Input records per worker (skew indicator).
        worker_records_out: Output records per worker.
        shuffled_records: Records moved across the (simulated) network.
        shuffled_bytes: Estimated bytes moved across the network.
        worker_shuffle_bytes_in: Bytes received per worker during shuffles.
        spilled_workers: Workers whose in-memory working set exceeded the
            configured per-worker memory budget (join build sides, sorts).
        iteration: Bulk-iteration superstep this run belongs to, or ``None``.
    """

    name: str
    records_in: int = 0
    records_out: int = 0
    worker_records_in: List[int] = field(default_factory=list)
    worker_records_out: List[int] = field(default_factory=list)
    shuffled_records: int = 0
    shuffled_bytes: int = 0
    worker_shuffle_bytes_in: List[int] = field(default_factory=list)
    spilled_workers: int = 0
    iteration: int = None

    @property
    def max_worker_records_in(self):
        return max(self.worker_records_in) if self.worker_records_in else 0

    @property
    def skew(self):
        """Ratio of the busiest worker's input to the mean input.

        1.0 means perfectly balanced; large values explain stagnating
        speedups (paper §4.1).
        """
        if not self.worker_records_in:
            return 1.0
        mean = sum(self.worker_records_in) / len(self.worker_records_in)
        if mean == 0:
            return 1.0
        return self.max_worker_records_in / mean


#: why a columnar run executed a stage per-record instead of through a
#: chunk kernel: the input partition was a plain record list (an upstream
#: stage already fell back), the stage has no kernel, the join carries a
#: PATH column its merge must rewrite, or an expansion's input already
#: carries a PATH column an isomorphism strategy must read
CHUNK_FALLBACK_REASONS = (
    "non_uniform_batch", "no_kernel", "path_join", "expand_base_path",
)


class JobMetrics:
    """Accumulates :class:`OperatorRun` entries for one logical job."""

    def __init__(self, name="job"):
        self.name = name
        self.runs = []
        #: reason → per-record fallbacks taken by this job's columnar
        #: runs (one per kernel-less chain, un-chunked partition or join)
        self.chunk_fallbacks = dict.fromkeys(CHUNK_FALLBACK_REASONS, 0)

    def add(self, run):
        self.runs.append(run)

    # Aggregates -----------------------------------------------------------

    @property
    def total_records_processed(self):
        return sum(run.records_in for run in self.runs)

    @property
    def total_shuffled_records(self):
        return sum(run.shuffled_records for run in self.runs)

    @property
    def total_shuffled_bytes(self):
        return sum(run.shuffled_bytes for run in self.runs)

    @property
    def total_spilled_workers(self):
        return sum(run.spilled_workers for run in self.runs)

    @property
    def max_skew(self):
        return max((run.skew for run in self.runs), default=1.0)

    def runs_named(self, prefix):
        """All runs whose name starts with ``prefix``."""
        return [run for run in self.runs if run.name.startswith(prefix)]

    def summary(self):
        """A compact dict view used by the benchmark harness."""
        return {
            "operators": len(self.runs),
            "records_processed": self.total_records_processed,
            "shuffled_records": self.total_shuffled_records,
            "shuffled_bytes": self.total_shuffled_bytes,
            "spilled_workers": self.total_spilled_workers,
            "max_skew": round(self.max_skew, 3),
        }

    def __repr__(self):
        return "JobMetrics(%s, %d runs, %d shuffled)" % (
            self.name,
            len(self.runs),
            self.total_shuffled_records,
        )
