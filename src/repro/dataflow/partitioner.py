"""Deterministic partitioning utilities.

Python's built-in ``hash`` is salted per process for strings, which would
make shuffle placement — and therefore skew and the simulated runtimes —
non-reproducible.  All key hashing in the dataflow layer goes through
:func:`stable_hash` instead.
"""

import zlib
from typing import Any, Iterable, List

_MASK = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """Finalizer of the splitmix64 generator: avalanche all 64 bits.

    Plain multiplicative hashing leaves the low bits of the product a
    function of only the low bits of the key, so sequential ids would all
    keep their source partition and no shuffle would ever be simulated.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stable_hash(key: Any) -> int:
    """A process-independent 64-bit hash for common key types.

    Supports ints, strings, bytes, bools, None, floats and (nested) tuples
    of those.  Unknown types fall back to hashing their ``repr``, which is
    deterministic for the value types used in this project.
    """
    if key is None:
        return 0x5CA1AB1E
    if isinstance(key, bool):
        return 0xB001 if key else 0xB000
    if isinstance(key, int):
        return _splitmix64(key & _MASK)
    if isinstance(key, float):
        return stable_hash(key.hex())
    if isinstance(key, str):
        return _splitmix64(zlib.crc32(key.encode("utf-8")))
    if isinstance(key, (bytes, bytearray)):
        return _splitmix64(zlib.crc32(bytes(key)))
    if isinstance(key, tuple):
        acc = 0x345678
        for part in key:
            acc = _splitmix64(acc ^ stable_hash(part))
        return acc
    hasher = getattr(key, "stable_hash", None)
    if hasher is not None:
        return hasher() & _MASK
    return _splitmix64(zlib.crc32(repr(key).encode("utf-8")))


def partition_index(key: Any, parallelism: int) -> int:
    """Worker index a record with ``key`` is routed to."""
    return stable_hash(key) % parallelism


def assign_partitions(partitions: int, workers: int) -> List[int]:
    """Static partition → worker-process placement (round-robin).

    The multi-process runtime's "execution graph": every task for
    partition ``p`` runs on the worker process owning ``p``, so a
    worker's resident caches keep hitting across queries.  Round-robin
    keeps ownership balanced for any ``partitions``/``workers`` ratio.
    """
    if workers <= 0:
        raise ValueError("workers must be positive, got %d" % workers)
    return [index % workers for index in range(partitions)]


def round_robin_partitions(items: Iterable[Any], parallelism: int) -> List[List[Any]]:
    """Split ``items`` into ``parallelism`` balanced partitions.

    Mirrors how a distributed source splits its input blocks: order within
    a partition is preserved, sizes differ by at most one.
    """
    if parallelism <= 0:
        raise ValueError("parallelism must be positive, got %d" % parallelism)
    items = list(items)
    # item i goes to partition i % parallelism
    return [items[worker::parallelism] for worker in range(parallelism)]
