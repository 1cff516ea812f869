"""The two execution modes and the one place their names are checked."""

#: the execution modes.  ``columnar`` (the default) fuses partition-local
#: chains and runs chunk kernels over typed-array embedding chunks, falling
#: back per record where a stage has none; ``reference`` runs every
#: operator per record, as sanitized, shared-cache, EXPLAIN ANALYZE and
#: golden runs do.
MODES = ("columnar", "reference")


def check_mode(mode):
    """``mode`` itself, or ValueError when it names no mode."""
    if mode not in MODES:
        raise ValueError(
            "mode must be one of %s, got %r" % (", ".join(MODES), mode)
        )
    return mode


def legacy_mode(mode, fused=None, columnar=None):
    """``mode`` with the retired ``fused=`` / ``columnar=`` keywords folded in.

    A temporary alias for callers not yet moved to ``mode=``: ``False``
    for either keyword means ``"reference"``; anything else leaves
    ``mode`` as given.
    """
    if fused is False or columnar is False:
        return "reference"
    return mode
