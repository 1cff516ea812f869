"""Base class for physical query operators, and the operator contract.

A query plan is a tree of physical operators (Fig. 2).  Each operator
carries the :class:`~repro.engine.embedding.EmbeddingMetaData` of its
output and knows how to build the dataflow ``DataSet`` that computes it.

Each operator also states its own rules — the *operator contract* the
plan analysis (``repro.analysis.plan``) composes in one pass: the output
layout from the child layouts, the demand on the children from the
demand on the output, a structural self-check and a source span.  The two value types the rules exchange,
:class:`EmbeddingLayout` and :class:`Demand`, live here so operators
never import the analysis.
"""

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cypher.span import Span

from ..embedding import ENTRY_WIDTH
from ..morphism import MatchStrategy

#: pairs like ``('a', 'v')``: variable and entry kind in column order
_Entries = Tuple[Tuple[str, str], ...]
#: pairs like ``('a', 'name')``: the physical property-record sequence
_Props = Tuple[Tuple[str, str], ...]
#: how a rule reports a finding: ``flag(code_or_rule_name, detail)``
Flag = Callable[[str, str], None]


class EmbeddingLayout:
    """The abstract value: everything the §3.3 layout determines statically.

    ``entries`` is the derived ``(variable, kind)`` tuple in column order
    — column ``i`` occupies ``id_data`` bytes ``[i*9, (i+1)*9)``.
    ``properties`` is the derived *physical* record sequence of
    ``prop_data`` as ``(variable, key)`` pairs; in a sound plan it equals
    the operator's property mapping enumerated by index (a pair loaded on
    both join sides would leave dead bytes and break the equality — the
    static analogue of ``S207``).  ``path_bounds`` maps each path variable
    to its declared ``*lower..upper`` hop bounds, and ``morphism_ok``
    records whether every embedding this operator emits provably satisfies
    the configured morphism strategies.
    """

    __slots__ = ("entries", "properties", "path_bounds", "morphism_ok")

    def __init__(self, entries=(), properties=(), path_bounds=None,
                 morphism_ok=True):
        self.entries: _Entries = tuple(entries)
        self.properties: _Props = tuple(properties)
        self.path_bounds: Dict[str, Tuple[int, int]] = dict(path_bounds or {})
        self.morphism_ok = morphism_ok

    @property
    def variables(self):
        return [variable for variable, _kind in self.entries]

    def kind_of(self, variable):
        for candidate, kind in self.entries:
            if candidate == variable:
                return kind
        return None

    def column_of(self, variable):
        for column, (candidate, _kind) in enumerate(self.entries):
            if candidate == variable:
                return column
        return None

    def id_width(self):
        """The derived ``id_data`` byte width (merge width arithmetic)."""
        return len(self.entries) * ENTRY_WIDTH

    def __repr__(self):
        return "EmbeddingLayout(%r, %r, bounds=%r, morphism_ok=%r)" % (
            self.entries, self.properties, self.path_bounds, self.morphism_ok
        )


class Demand:
    """The abstract value: what downstream consumers read of an output.

    ``variables`` holds variables whose *id column bytes* are read (join
    keys, morphism checks, expansion starts, returned bindings);
    ``properties`` holds ``(variable, key)`` pairs whose ``prop_data``
    record is read; ``paths`` holds path variables whose *contents* (the
    hop sequence, not just the column slot) are read.
    """

    __slots__ = ("variables", "properties", "paths")

    def __init__(self, variables=(), properties=(), paths=()):
        self.variables: Set[str] = set(variables)
        self.properties: Set[Tuple[str, str]] = set(properties)
        self.paths: Set[str] = set(paths)

    def copy(self):
        return Demand(self.variables, self.properties, self.paths)

    def restricted_to(self, meta):
        """The demand intersected with what ``meta`` actually provides."""
        if meta is None:
            return self.copy()
        provided = set(meta.variables)
        pairs = set(meta.property_entries())
        return Demand(
            self.variables & provided,
            self.properties & pairs,
            self.paths & provided,
        )

    def __repr__(self):
        return "Demand(vars=%r, props=%r, paths=%r)" % (
            sorted(self.variables),
            sorted(self.properties),
            sorted(self.paths),
        )


class PhysicalOperator:
    """A node of the physical query plan."""

    #: human-readable operator name used in EXPLAIN output and metrics
    display = "physical-operator"
    #: the morphism semantics this operator enforces on its output
    #: (``None`` on operators that check none)
    vertex_strategy: Optional[MatchStrategy] = None
    edge_strategy: Optional[MatchStrategy] = None

    def __init__(self, children=()):
        self.children = list(children)
        self.meta = None  # set by subclasses
        self.estimated_cardinality = None  # set by the planner
        self._dataset = None
        self._sanitizer = None  # set via EmbeddingSanitizer.attach()

    def postorder(self) -> Iterator["PhysicalOperator"]:
        """Every operator of this sub-plan, children before parents."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def preorder(self) -> Iterator["PhysicalOperator"]:
        """Every operator of this sub-plan, parents before children."""
        yield self
        for child in self.children:
            yield from child.preorder()

    def evaluate(self):
        """The output DataSet (built once, cached).

        With a sanitizer attached the freshly built dataset is wrapped in
        its per-embedding checks.  The gate runs once per *build*, never
        per record, so plain execution pays nothing for the feature.
        """
        if self._dataset is None:
            dataset = self._build()
            if self._sanitizer is not None:
                dataset = self._sanitizer.instrument(self, dataset)
            self._dataset = dataset
        return self._dataset

    def reset(self):
        """Drop the cached datasets of this whole sub-plan.

        The next :meth:`evaluate` rebuilds from scratch, so one compiled
        plan can be executed repeatedly — after attaching or detaching a
        sanitizer, or between ``explain(analyze=True)`` calls.  Dataset
        sharing a planner installed across leaves is rebuilt per operator
        afterwards (correct, merely less shared).
        """
        self._dataset = None
        for child in self.children:
            child.reset()

    def sanitizer_context(self):
        """Operator-specific facts the embedding sanitizer needs.

        Subclasses override this to declare e.g. the ``*lower..upper``
        bounds of a variable-length path column; the sanitizer merges the
        contexts of every operator in the plan at attach time.
        """
        return {}

    def _build(self):
        raise NotImplementedError

    # The operator contract ------------------------------------------------------
    #
    # One rule per analysis, stated by every concrete operator.  A class
    # without a rule fails loudly the first time an analysis asks for it.

    def _no_rule(self, rule):
        return NotImplementedError(
            "%s states no %s() rule" % (type(self).__name__, rule)
        )

    def derive_layout(
        self, child_layouts: Sequence[EmbeddingLayout], vertex_iso: bool,
        flag: Flag,
    ) -> EmbeddingLayout:
        """Forward rule: the output layout from the children's layouts.

        Reads operator parameters and ``child_layouts`` only — never
        ``self.meta``, which is what the plan analysis compares the
        result *against*.  ``vertex_iso`` tells whether the plan will run
        under vertex isomorphism; defects are reported as ``S3xx`` codes.
        """
        raise self._no_rule("derive_layout")

    def demand_on_children(
        self, demand: Demand, vertex_iso: bool, edge_iso: bool, flag: Flag,
    ) -> List[Demand]:
        """Backward rule: what this operator reads of each child, given
        what is read of its output; dead bytes it introduces are reported
        as ``S4xx`` codes."""
        raise self._no_rule("demand_on_children")

    def check_structure(self, flag: Flag) -> None:
        """The operator's structural invariants, reported by rule name
        (one ``S300`` finding each).  Only called when every child
        declares metadata."""
        raise self._no_rule("check_structure")

    def span(self) -> Optional[Span]:
        """Best-effort source :class:`~repro.cypher.span.Span`.

        Leaves and expansions carry the pattern element they were
        compiled from; a selection points at its first predicate atom.
        Joins and projections synthesize columns from *two* source
        locations (or none), so they return ``None`` — a diagnostic
        still names the operator.
        """
        return None

    def describe(self):
        """One line for EXPLAIN trees."""
        return self.display

    def explain(self, indent=0, analyze=False, _cache=None):
        """Recursive EXPLAIN rendering (root at top, inputs below).

        With ``analyze=True`` every operator is executed and the actual
        output cardinality is shown next to the planner's estimate, making
        estimation errors visible (EXPLAIN ANALYZE).  One dataflow result
        cache is shared across the whole tree so common sub-plans are
        evaluated once per call.
        """
        if analyze and _cache is None:
            _cache = {}
        line = "%s%s" % ("  " * indent, self.describe())
        if self.estimated_cardinality is not None:
            line += "  [est=%d" % round(self.estimated_cardinality)
            if analyze:
                line += " actual=%d" % self.actual_cardinality(_cache)
            line += "]"
        elif analyze:
            line += "  [actual=%d]" % self.actual_cardinality(_cache)
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1, analyze=analyze, _cache=_cache))
        return "\n".join(lines)

    def actual_cardinality(self, cache=None):
        """Execute this operator's sub-plan and count the output rows.

        ``cache`` — a dataflow result cache (operator id → partitions) —
        may be shared between calls on different plan nodes to evaluate
        each dataflow operator only once (EXPLAIN ANALYZE, the estimate
        audit).
        """
        dataset = self.evaluate()
        # sanitized runs take the reference path (see docs/architecture.md);
        # shared caches force that anyway, but an uncached call must opt out
        mode = "reference" if self._sanitizer is not None else None
        partitions = dataset.environment.run(
            dataset.operator, cache=cache, mode=mode
        )
        return sum(len(partition) for partition in partitions)
