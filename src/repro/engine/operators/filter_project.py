"""SelectEmbeddings and ProjectEmbeddings (paper §3.1)."""

from repro.cypher.predicates import compile_cnf

from ..columnar import project_kernel, select_kernel
from ..embedding import EmbeddingMetaData, compile_property_projector
from .base import EmbeddingLayout, PhysicalOperator


class SelectEmbeddings(PhysicalOperator):
    """Evaluate predicates spanning multiple query elements."""

    display = "SelectEmbeddings"

    def __init__(self, child, cnf):
        super().__init__([child])
        self.cnf = cnf
        self.meta = child.meta
        missing = cnf.variables() - set(child.meta.variables)
        if missing:
            raise ValueError(
                "SelectEmbeddings predicate references unbound variables: %s"
                % ", ".join(sorted(missing))
            )

    def _build(self):
        evaluate = compile_cnf(self.cnf)
        bind = self.meta.compiled_bindings()

        def keep(embedding):
            return evaluate(bind(embedding))

        return self.children[0].evaluate().filter(
            keep, name="SelectEmbeddings(%s)" % self.cnf,
            kernel=select_kernel(evaluate, self.meta),
        )

    def describe(self):
        return "SelectEmbeddings(%s)" % self.cnf

    def derive_layout(self, child_layouts, vertex_iso, flag):
        return child_layouts[0]

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        child = demand.copy()
        child.variables |= self.cnf.variables()
        for variable, keys in self.cnf.property_keys().items():
            for key in keys:
                child.properties.add((variable, key))
        return [child.restricted_to(self.children[0].meta)]

    def check_structure(self, flag):
        meta = self.children[0].meta
        bound = set(meta.variables)
        unbound = self.cnf.variables() - bound
        if unbound:
            flag(
                "select-unbound",
                "predicate references unbound variables %s" % sorted(unbound),
            )
        for variable, keys in self.cnf.property_keys().items():
            if variable not in bound:
                continue  # already reported as select-unbound
            if meta.entry_kind(variable) == "p":
                continue  # paths carry no projected properties
            for key in sorted(keys):
                if not meta.has_property(variable, key):
                    flag(
                        "select-property-missing",
                        "predicate reads %s.%s which the input does not "
                        "project" % (variable, key),
                    )

    def span(self):
        """The first predicate atom that carries a source location."""
        for clause in self.cnf.clauses:
            for atom in clause.atoms:
                comparison = atom.comparison
                for side in (comparison.left, comparison.right):
                    # a bound ``$parameter`` slot has no source location
                    span = getattr(side, "span", None)
                    if span is not None:
                        return span
                if comparison.span is not None:
                    return comparison.span
        return None


class ProjectEmbeddings(PhysicalOperator):
    """Drop properties that later stages no longer need."""

    display = "ProjectEmbeddings"

    def __init__(self, child, keep_pairs):
        """``keep_pairs``: list of ``(variable, key)`` to retain, in order."""
        super().__init__([child])
        self.keep_pairs = list(keep_pairs)
        self._keep_indices = [
            child.meta.property_index(variable, key)
            for variable, key in self.keep_pairs
        ]
        meta = EmbeddingMetaData(
            {v: (child.meta.entry_column(v), child.meta.entry_kind(v))
             for v in child.meta.variables}
        )
        for variable, key in self.keep_pairs:
            meta = meta.with_property(variable, key)
        self.meta = meta

    def _build(self):
        keep_indices = list(self._keep_indices)
        project = compile_property_projector(keep_indices)
        kernel = project_kernel(keep_indices)

        sanitizer = self._sanitizer
        if sanitizer is not None:
            # sanitized runs are per-record by construction: the wrapper
            # must see every embedding, so it declares no kernel
            kernel = None
            operator, plain_project = self, project

            def project(embedding):  # noqa: F811
                projected = plain_project(embedding)
                sanitizer.check_projection(
                    operator, embedding, projected, keep_indices
                )
                return projected

        return self.children[0].evaluate().map(
            project, name="ProjectEmbeddings", kernel=kernel
        )

    def describe(self):
        return "ProjectEmbeddings(%s)" % ", ".join(
            "%s.%s" % pair for pair in self.keep_pairs
        )

    def derive_layout(self, child_layouts, vertex_iso, flag):
        (child,) = child_layouts
        # a kept pair the input lacks is not derived, so the declared
        # metadata that promises it disagrees (S304)
        return EmbeddingLayout(
            entries=child.entries,
            properties=[
                pair for pair in self.keep_pairs if pair in child.properties
            ],
            path_bounds=child.path_bounds,
            morphism_ok=child.morphism_ok,
        )

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        # the projection copies its kept records; copying is not reading,
        # so only records something *above* still reads stay demanded —
        # this is what lets pruning narrow transitively down to the leaf
        child = demand.restricted_to(self.children[0].meta)
        child.properties = {
            tuple(pair) for pair in self.keep_pairs
            if tuple(pair) in demand.properties
        }
        return [child.restricted_to(self.children[0].meta)]

    def check_structure(self, flag):
        # a kept record the input lacks or the output loses (S304) and a
        # changed binding (S301, S302) are refuted by the layout rules
        pass
