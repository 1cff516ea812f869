"""JoinEmbeddingsOnProperty: equi-join two sub-queries on property values.

Paper §3.1 calls out exactly this as the extensibility example: "it is
easy to integrate new query operators, for example, to join subqueries on
property values."  The planner uses it for cross-entry equality clauses
like ``WHERE a.city = b.city`` between otherwise disconnected patterns,
replacing a Cartesian product plus filter with a hash join.

NULL never joins (Cypher: ``NULL = NULL`` is unknown), and numeric keys
compare across int/float like the predicate evaluator does.
"""

from ..embedding import compile_merge
from ..morphism import compile_morphism_check
from .join import TwoInputOperator


def _join_key(value):
    """A hashable key with PropertyValue equality semantics."""
    if value.is_number:
        return ("num", float(value.raw()))
    return (value.type_name, value.to_bytes())


class JoinEmbeddingsOnProperty(TwoInputOperator):
    """Join on ``left_var.left_key = right_var.right_key``."""

    display = "JoinEmbeddingsOnProperty"

    def __init__(
        self,
        left,
        right,
        left_property,
        right_property,
        vertex_strategy,
        edge_strategy,
    ):
        """``left_property``/``right_property``: ``(variable, key)`` pairs
        that must be projected into the respective inputs."""
        super().__init__(left, right, vertex_strategy, edge_strategy)
        self.left_property = left_property
        self.right_property = right_property
        self._left_index = left.meta.property_index(*left_property)
        self._right_index = right.meta.property_index(*right_property)

    def _build(self):
        left_index = self._left_index
        right_index = self._right_index
        left_reader = self.children[0].meta.property_reader(*self.left_property)
        right_reader = self.children[1].meta.property_reader(*self.right_property)
        merge = compile_merge(
            self.children[0].meta, self.children[1].meta, frozenset()
        )
        check = compile_morphism_check(
            self.meta, self.vertex_strategy, self.edge_strategy
        )

        def not_null(reader):
            def keep(embedding):
                return not reader(embedding).is_null

            return keep

        if check is None:

            def flat_join(left_embedding, right_embedding):
                return [merge(left_embedding, right_embedding)]

        else:

            def flat_join(left_embedding, right_embedding):
                merged = merge(left_embedding, right_embedding)
                if check(merged):
                    return [merged]
                return []

        sanitizer = self._sanitizer
        if sanitizer is not None:
            # Property keys compare by value semantics (int 1 == float 1.0),
            # not byte-for-byte; recheck key equality and the NULL contract.
            operator, plain_flat_join = self, flat_join

            def flat_join(left_embedding, right_embedding):  # noqa: F811
                left_value = left_embedding.property_at(left_index)
                right_value = right_embedding.property_at(right_index)
                if (
                    left_value.is_null
                    or right_value.is_null
                    or _join_key(left_value) != _join_key(right_value)
                ):
                    sanitizer.report(
                        operator,
                        "S209",
                        "property join matched %r with %r"
                        % (left_value.raw(), right_value.raw()),
                    )
                return plain_flat_join(left_embedding, right_embedding)

        left_ds = self.children[0].evaluate().filter(
            not_null(left_reader), name="JoinEmbeddingsOnProperty:left-not-null"
        )
        right_ds = self.children[1].evaluate().filter(
            not_null(right_reader), name="JoinEmbeddingsOnProperty:right-not-null"
        )
        return left_ds.join(
            right_ds,
            lambda e: _join_key(left_reader(e)),
            lambda e: _join_key(right_reader(e)),
            join_fn=flat_join,
            name="JoinEmbeddingsOnProperty(%s.%s=%s.%s)"
            % (self.left_property + self.right_property),
        )

    def describe(self):
        return "JoinEmbeddingsOnProperty(%s.%s = %s.%s)" % (
            self.left_property + self.right_property
        )

    def _check_keys(self, left, right, flag):
        for side, layout, pair in (
            ("left", left, self.left_property),
            ("right", right, self.right_property),
        ):
            if tuple(pair) not in layout.properties:
                flag(
                    "S306",
                    "%s join key %s.%s is not projected into the %s input"
                    % (side, pair[0], pair[1], side),
                )
        return set()

    def _demand_keys(self, left, right):
        left.properties.add(tuple(self.left_property))
        right.properties.add(tuple(self.right_property))
