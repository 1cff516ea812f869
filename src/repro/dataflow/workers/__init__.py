"""Multi-process sharded execution (docs/architecture.md,
"Multi-process execution").

``ExecutionEnvironment(workers=N)`` attaches a :class:`WorkerPool` of
``N`` long-lived worker processes to fused execution: certified-
shippable fused chains and co-partitioned hash-join pairs run inside
the workers — real parallelism, outside the GIL — while uncertified
chains, sanitized runs and shared-cache runs transparently stay on the
in-process path.  Results, per-stage metrics counters, cancellation and
error attribution all cross the process boundary, so everything built
on top (service deadlines, admission control, the simulated cost
model) behaves identically in both modes.
"""

from ..operators import JoinSpec
from . import messages
from .pool import RemoteWorkerError, WorkerCrashError, WorkerPool
from .shipping import (
    ChainSpec,
    decode_records,
    dump_functions,
    encode_records,
    load_functions,
)

__all__ = [
    "messages",
    "WorkerPool",
    "WorkerCrashError",
    "RemoteWorkerError",
    "ChainSpec",
    "JoinSpec",
    "dump_functions",
    "load_functions",
    "encode_records",
    "decode_records",
]
