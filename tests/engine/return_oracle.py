"""The retired row-at-a-time RETURN evaluator, kept as the test oracle.

This is what ``CypherRunner.build_rows`` was before results left as
columns (``_plain_row`` / ``_evaluate_return_item`` / ``_aggregate_rows``
/ ``_order_rows``): one ``EmbeddingBindings`` and one dict per embedding,
post-processing on the dicts.  It shares no code with
``repro.engine.result``; ``test_result_table.py`` requires the two to
agree row for row and the served JSON to be ``json.dumps`` of these rows.
"""

from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef
from repro.cypher.errors import CypherSemanticError
from repro.engine import EmbeddingBindings


def oracle_rows(returns, embeddings, meta):
    if returns is not None and returns.has_aggregates:
        rows = _aggregate_rows(returns, embeddings, meta)
    else:
        rows = [_plain_row(returns, embedding, meta) for embedding in embeddings]
    if returns is not None and returns.distinct:
        seen = set()
        unique = []
        for row in rows:
            key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
    if returns is not None and returns.order_by:
        rows = _order_rows(returns, rows)
    if returns is not None and returns.skip is not None:
        rows = rows[returns.skip:]
    if returns is not None and returns.limit is not None:
        rows = rows[:returns.limit]
    return rows


def _plain_row(returns, embedding, meta):
    if returns is None or returns.star:
        row = {}
        for variable in meta.variables:
            column = meta.entry_column(variable)
            if meta.entry_kind(variable) == "p":
                row[variable] = [g.value for g in embedding.path_at(column)]
            else:
                row[variable] = embedding.raw_id_at(column)
        return row
    bindings = EmbeddingBindings(embedding, meta)
    row = {}
    for item in returns.items:
        name = item.alias or str(item.expression)
        row[name] = _evaluate(item.expression, bindings, embedding, meta)
    return row


def _aggregate_rows(returns, embeddings, meta):
    group_items = [
        item for item in returns.items
        if not isinstance(item.expression, FunctionCall)
    ]
    agg_items = [
        item for item in returns.items
        if isinstance(item.expression, FunctionCall)
    ]
    groups = {}
    order = []
    for embedding in embeddings:
        bindings = EmbeddingBindings(embedding, meta)
        key_values = tuple(
            _hashable(_evaluate(item.expression, bindings, embedding, meta))
            for item in group_items
        )
        if key_values not in groups:
            groups[key_values] = []
            order.append(key_values)
        inputs = []
        for item in agg_items:
            argument = item.expression.argument
            if argument is None:  # count(*)
                inputs.append(1)
            else:
                inputs.append(_evaluate(argument, bindings, embedding, meta))
        groups[key_values].append(inputs)
    rows = []
    for key_values in order:
        row = {}
        for item, value in zip(group_items, key_values):
            row[item.alias or str(item.expression)] = (
                list(value) if isinstance(value, tuple) else value
            )
        for index, item in enumerate(agg_items):
            values = [inputs[index] for inputs in groups[key_values]]
            row[item.alias or str(item.expression)] = _aggregate(
                item.expression.name, item.expression.argument, values
            )
        rows.append(row)
    return rows


def _order_rows(returns, rows):
    column_names = set(rows[0]) if rows else None

    def sort_key(row):
        key = []
        for order in returns.order_by:
            name = str(order.expression)
            if column_names is not None and name not in column_names:
                raise CypherSemanticError(
                    "ORDER BY expression %r is not among the returned columns"
                    % name
                )
            value = row[name]
            key.append((value is None, _negate_if(value, order.descending)))
        return tuple(key)

    return sorted(rows, key=sort_key)


def _evaluate(expression, bindings, embedding, meta):
    if isinstance(expression, PropertyAccess):
        return bindings.property_value(expression.variable, expression.key).raw()
    if isinstance(expression, VariableRef):
        variable = expression.name
        if meta.entry_kind(variable) == "p":
            return [
                g.value for g in embedding.path_at(meta.entry_column(variable))
            ]
        return embedding.raw_id_at(meta.entry_column(variable))
    raise ValueError("unsupported RETURN expression %r" % (expression,))


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


def _aggregate(name, argument, values):
    if name == "count":
        if argument is None:
            return len(values)
        return sum(1 for value in values if value is not None)
    present = [value for value in values if value is not None]
    if name == "collect":
        return present
    if name == "sum":
        return sum(present) if present else 0
    if not present:
        return None
    if name == "min":
        return min(present)
    if name == "max":
        return max(present)
    if name == "avg":
        return sum(present) / len(present)
    raise CypherSemanticError("unknown aggregate %r" % name)


class _Descending:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return isinstance(other, _Descending) and self.value == other.value


def _negate_if(value, descending):
    return _Descending(value) if descending else value
