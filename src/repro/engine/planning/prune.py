"""Liveness-driven plan pruning: drop dead property bytes early.

The backward liveness pass (:mod:`repro.analysis.liveness`) computes, for
every operator output, exactly which property records any downstream
consumer reads.  This rewriter applies that information in two moves:

* **narrow leaf extraction** — a key loaded only for an element-local
  predicate (evaluated on the element inside the leaf's flat-map, before
  projection) never needs to enter the embedding at all;
* **insert early projections** — a record consumed partway up the plan
  (a value-join key, a mid-plan selection operand) is projected away
  immediately above its last consumer instead of riding to the root.

Only ``prop_data`` bytes are ever pruned.  Id columns and path slots are
structural — result construction, the differential harnesses' canonical
rows and the morphism checks may read them — so embeddings keep their
column layout and every pruned plan remains result-equivalent to the
original (the liveness property suite pins this across planners and
morphism configurations).

The rewrite *rebuilds* the operator tree bottom-up rather than mutating
it: every operator precomputes byte offsets from its children's metadata
at construction time, so swapping a child in place would desynchronize
the compiled accessors from the actual layout.
"""


def prune_plan(root, handler=None, vertex_strategy=None, edge_strategy=None):
    """Rewrite ``root`` to carry only live property bytes.

    Returns the (possibly new) plan root; when liveness finds nothing to
    prune the original operator objects are returned untouched, so leaf
    dataset sharing and cached evaluations survive.
    """
    from repro.analysis.liveness import verify_liveness

    report = verify_liveness(
        root, handler,
        vertex_strategy=vertex_strategy, edge_strategy=edge_strategy,
    )
    return _rewrite(root, report)


def _rewrite(op, report):
    """``op``'s sub-plan rebuilt bottom-up, then narrowed to its demand.

    Every operator rebuilds itself over its rewritten inputs
    (:meth:`PhysicalOperator.rebuild`); a projection then drops the
    records still carried but dead at ``op``'s output.  Placing it here —
    directly above the last consumer — is the earliest point liveness
    allows.
    """
    live = report.demand_of(op).properties
    new_op = op.rebuild(
        [_rewrite(child, report) for child in op.children], live
    )
    new_op.estimated_cardinality = op.estimated_cardinality
    if new_op.meta is None:
        return new_op
    carried = list(new_op.meta.property_entries())
    keep = [pair for pair in carried if pair in live]
    return new_op if keep == carried else new_op.projected_to(keep)
