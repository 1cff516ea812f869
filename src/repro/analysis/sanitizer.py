"""Instrumented (sanitized) execution — ASan/UBSan for embeddings.

The paper's §3.3 embedding is three raw byte arrays interpreted through
an :class:`~repro.engine.embedding.EmbeddingMetaData` kept entirely
outside the bytes.  Nothing at runtime re-checks that the two stay
consistent while embeddings flow through joins, expansions and
projections — a single off-by-one in offset arithmetic silently corrupts
results.  :class:`EmbeddingSanitizer` is the opt-in instrumented mode
closing that gap: attached to a compiled plan, it wraps every
:class:`~repro.engine.operators.PhysicalOperator` boundary and validates
each emitted embedding structurally against the operator's metadata.

Checks per embedding (each with a stable ``S2xx`` diagnostic code):

* ``S201`` — ``id_data`` length is a multiple of ``ENTRY_WIDTH``;
* ``S202`` — the entry count matches the metadata's column count;
* ``S203`` — flag bytes are only ``FLAG_ID``/``FLAG_PATH`` and agree
  with the metadata's entry kind (``v``/``e`` vs ``p``);
* ``S204`` — every PATH offset lands on a complete ``path_data`` record
  whose element list has the odd (or zero) ``via`` length;
* ``S205`` — path element counts fit the query edge's declared
  ``*lower..upper`` hop bounds;
* ``S206``/``S207`` — ``prop_data`` length fields walk exactly to the
  buffer end, every payload deserializes to a valid ``PropertyValue``
  consuming exactly its declared bytes, and the record count matches
  the metadata;
* ``S208`` — the configured vertex/edge morphism strategy actually holds
  in the output (checked only on structurally sound embeddings);
* ``S209`` — operator contracts: join key columns agree byte-for-byte,
  property projections keep values bit-identical.

The sanitizer costs nothing when disabled: operators test ``_sanitizer``
once per dataset *build*, so the plain execution path has no
per-embedding branch.
"""

from typing import Optional

from repro.engine.embedding import (
    ENTRY_WIDTH,
    FLAG_ID,
    FLAG_PATH,
    PATH_COUNT_WIDTH,
    PATH_ID_WIDTH,
    iter_property_records,
)
from repro.engine.morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    morphism_violations,
)
from repro.epgm import PropertyValue

from .diagnostics import Diagnostic

_FLAG_NAMES = {FLAG_ID: "ID", FLAG_PATH: "PATH"}

class SanitizerError(AssertionError):
    """Sanitized execution caught a corrupt embedding (``mode='raise'``).

    ``diagnostics`` carries the structured findings; the message renders
    them, prefixed by the operator whose boundary they crossed.
    """

    #: tells the dataflow layer not to rewrap this in JobExecutionError —
    #: the finding already names the plan operator it belongs to
    propagate_unwrapped = True

    def __init__(self, diagnostics, operator=None):
        self.diagnostics = list(diagnostics)
        self.operator = operator
        where = " at %s" % operator if operator else ""
        lines = [
            "sanitizer caught %d violation(s)%s:"
            % (len(self.diagnostics), where)
        ]
        lines += ["  " + diagnostic.format() for diagnostic in self.diagnostics]
        super().__init__("\n".join(lines))


def _check_path_record(path_data, offset):
    """Why ``offset`` is not a valid path record, or None when it is."""
    if offset < 0 or offset + PATH_COUNT_WIDTH > len(path_data):
        return (
            "offset %d has no complete element count (path_data is %d bytes)"
            % (offset, len(path_data))
        )
    count = int.from_bytes(
        path_data[offset : offset + PATH_COUNT_WIDTH], "big"
    )
    end = offset + PATH_COUNT_WIDTH + count * PATH_ID_WIDTH
    if end > len(path_data):
        return (
            "record at offset %d declares %d elements ending at byte %d but "
            "path_data is %d bytes" % (offset, count, end, len(path_data))
        )
    return None


def _path_element_count(path_data, offset):
    return int.from_bytes(path_data[offset : offset + PATH_COUNT_WIDTH], "big")


def validate_embedding(
    embedding,
    meta,
    path_bounds=None,
    vertex_strategy=None,
    edge_strategy=None,
):
    """All structural violations of ``embedding`` against ``meta``.

    Returns ``(code, detail)`` pairs, empty when the embedding is sound.
    ``path_bounds`` maps a path variable to its declared ``(lower,
    upper)`` hop bounds; morphism strategies default to no check.  This is
    the sanitizer's core and is usable standalone on hand-built (or
    hand-corrupted) embeddings.
    """
    findings = []
    id_data = embedding.id_data
    if len(id_data) % ENTRY_WIDTH:
        findings.append((
            "S201",
            "id_data is %d bytes, not a multiple of the %d-byte entry width"
            % (len(id_data), ENTRY_WIDTH),
        ))
        return findings  # the column walk below would misinterpret bytes
    columns = len(id_data) // ENTRY_WIDTH
    if meta is not None and columns != meta.column_count:
        findings.append((
            "S202",
            "embedding has %d columns, metadata declares %d"
            % (columns, meta.column_count),
        ))
    named = {}
    if meta is not None:
        for variable in meta.variables:
            named[meta.entry_column(variable)] = (
                variable,
                meta.entry_kind(variable),
            )
    structurally_sound = not findings
    for column, (flag, value) in enumerate(embedding.entries()):
        variable, kind = named.get(column, (None, None))
        label = " (%s)" % variable if variable else ""
        if flag not in _FLAG_NAMES:
            findings.append((
                "S203",
                "column %d%s has flag byte %d, expected ID(%d) or PATH(%d)"
                % (column, label, flag, FLAG_ID, FLAG_PATH),
            ))
            structurally_sound = False
            continue
        if kind is not None:
            expected = FLAG_PATH if kind == "p" else FLAG_ID
            if flag != expected:
                findings.append((
                    "S203",
                    "column %d%s has flag %s but metadata kind %r requires %s"
                    % (
                        column,
                        label,
                        _FLAG_NAMES[flag],
                        kind,
                        _FLAG_NAMES[expected],
                    ),
                ))
                structurally_sound = False
                continue
        if flag == FLAG_PATH:
            problem = _check_path_record(embedding.path_data, value)
            if problem is not None:
                findings.append(("S204", "column %d%s: %s" % (column, label, problem)))
                structurally_sound = False
                continue
            count = _path_element_count(embedding.path_data, value)
            if count and count % 2 == 0:
                # via = [e1, v1, ..., ek]: k hops make 2k-1 elements
                findings.append((
                    "S205",
                    "column %d%s holds %d path elements; via lists have odd "
                    "(or zero) length" % (column, label, count),
                ))
                structurally_sound = False
                continue
            if path_bounds and variable in path_bounds:
                hops = (count + 1) // 2
                lower, upper = path_bounds[variable]
                if not lower <= hops <= upper:
                    findings.append((
                        "S205",
                        "column %d%s holds a %d-hop path outside the declared "
                        "*%d..%d bounds" % (column, label, hops, lower, upper),
                    ))
    property_count: Optional[int] = 0
    try:
        for index, (start, length) in enumerate(
            iter_property_records(embedding.prop_data)
        ):
            payload = embedding.prop_data[start : start + length]
            try:
                _, consumed = PropertyValue.from_bytes(payload)
            except Exception as exc:  # noqa: BLE001 — any decode failure is the finding
                findings.append((
                    "S206",
                    "property %d does not deserialize: %s" % (index, exc),
                ))
            else:
                if consumed != length:
                    findings.append((
                        "S206",
                        "property %d consumed %d of its %d declared bytes"
                        % (index, consumed, length),
                    ))
            property_count = index + 1
    except ValueError as exc:
        findings.append(("S206", str(exc)))
        property_count = None
    if (
        property_count is not None
        and meta is not None
        and property_count != meta.property_count
    ):
        findings.append((
            "S207",
            "embedding carries %d properties, metadata declares %d"
            % (property_count, meta.property_count),
        ))
    if structurally_sound and meta is not None:
        for detail in morphism_violations(
            embedding,
            meta,
            vertex_strategy or DEFAULT_VERTEX_STRATEGY,
            edge_strategy or DEFAULT_EDGE_STRATEGY,
        ):
            findings.append(("S208", detail))
    return findings


class EmbeddingSanitizer:
    """Validates every embedding crossing an operator boundary.

    Attach to a compiled plan root (usually via
    ``CypherRunner(sanitize=...)``); every operator's output dataset is
    then wrapped in a validating map.  ``mode='raise'`` (the default)
    raises :class:`SanitizerError` on the first finding; ``mode='collect'``
    accumulates all findings on ``diagnostics`` and lets execution finish
    — the differential checker uses the latter.
    """

    def __init__(self, vertex_strategy=None, edge_strategy=None, mode="raise"):
        if mode not in ("raise", "collect"):
            raise ValueError("mode must be 'raise' or 'collect', not %r" % mode)
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self.mode = mode
        #: structured findings (Diagnostic) in discovery order
        self.diagnostics = []
        #: embeddings validated so far, across all operator boundaries
        self.checked = 0
        #: path variable -> (lower, upper) hop bounds, merged at attach time
        self.path_bounds = {}

    # Plan wiring --------------------------------------------------------------

    def attach(self, root):
        """Instrument the whole plan rooted at ``root``; returns self.

        Merges every operator's :meth:`sanitizer_context` (the declared
        path bounds), then resets the plan so already-built datasets are
        rebuilt with instrumentation.
        """
        for operator in root.postorder():
            context = operator.sanitizer_context()
            self.path_bounds.update(context.get("path_bounds", {}))
            operator._sanitizer = self
        root.reset()
        return self

    def detach(self, root):
        """Remove the instrumentation installed by :meth:`attach`."""
        for operator in root.postorder():
            operator._sanitizer = None
        root.reset()

    # Dataset wrapping (called from PhysicalOperator.evaluate) ------------------

    def instrument(self, operator, dataset):
        """Wrap ``dataset`` so every record is validated at this boundary."""
        meta = operator.meta
        bounds = self.path_bounds
        vertex_strategy = self.vertex_strategy
        edge_strategy = self.edge_strategy

        def check(embedding):
            self.checked += 1
            for code, detail in validate_embedding(
                embedding,
                meta,
                path_bounds=bounds,
                vertex_strategy=vertex_strategy,
                edge_strategy=edge_strategy,
            ):
                self.report(operator, code, detail)
            return embedding

        return dataset.map(check, name="Sanitize(%s)" % operator.display)

    # Reporting ----------------------------------------------------------------

    def report(self, operator, code, detail):
        """Record one finding; raises in ``'raise'`` mode."""
        diagnostic = Diagnostic.of(
            code, "%s: %s" % (operator.describe(), detail)
        )
        self.diagnostics.append(diagnostic)
        if self.mode == "raise":
            raise SanitizerError([diagnostic], operator=operator.describe())

    def summary(self):
        return "sanitizer: %d embedding(s) checked, %d finding(s)" % (
            self.checked,
            len(self.diagnostics),
        )

    # Operator contract checks (invoked from instrumented operators) ------------

    def check_join_keys(
        self, operator, left_embedding, right_embedding, left_columns, right_columns
    ):
        """S209: the joined key columns must agree byte-for-byte."""
        for left_column, right_column in zip(left_columns, right_columns):
            left_bytes = left_embedding.entry_bytes(left_column)
            right_bytes = right_embedding.entry_bytes(right_column)
            if left_bytes != right_bytes:
                self.report(
                    operator,
                    "S209",
                    "join key columns %d/%d disagree byte-for-byte "
                    "(%s vs %s)"
                    % (
                        left_column,
                        right_column,
                        left_bytes.hex(),
                        right_bytes.hex(),
                    ),
                )

    def check_projection(self, operator, source, projected, keep_indices):
        """S209: projection must keep the chosen values bit-identical."""
        for index, source_index in enumerate(keep_indices):
            kept = projected.property_at(index).to_bytes()
            original = source.property_at(source_index).to_bytes()
            if kept != original:
                self.report(
                    operator,
                    "S209",
                    "projection altered property %d (source index %d): "
                    "%s became %s"
                    % (index, source_index, original.hex(), kept.hex()),
                )

