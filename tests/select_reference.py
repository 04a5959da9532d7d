"""Reference SELECT: the row-at-a-time pipeline, the oracle for the engine's.

The production :class:`~repro.storage.executor.SelectExecutor` runs every
SELECT as a chain of block operators over compiled kernels, with pushdowns
(bare-LIMIT stop, heap top-k, grouped top-k, the semi-join rewrite) chosen
once per statement.  This is the plain plan it replaced, kept as its
oracle: materialize the FROM source, then filter, window, group or
project, order (one stable sort pass per ORDER BY item), de-duplicate and
slice, every expression through :meth:`Expression.evaluate`.  It shares
the planner's FROM resolution, but its hash joins are the textbook
:func:`~repro.storage.joins.hash_join` with no rewrite, and its DML
predicates, assignments and join conditions run on the interpreter too.

``test_storage_compile.py``, the window, join, array, parser and lineage
suites, the SQL fuzz and ``benchmarks/bench_sql.py`` require the engine
to give this pipeline's answers (rows, order and error type).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ExecutionError
from repro.storage.columns import ColumnBlock
from repro.storage.engine import Database
from repro.storage.executor import (
    _SET_RETURNING,
    Pairs,
    Relation,
    Row,
    SelectExecutor,
    _base_name,
    _item_names,
    _rank_window,
    unnested,
)
from repro.storage.expression import FuncCall, Star, window_calls
from repro.storage.joins import hash_join
from repro.storage.parser import ast_nodes as ast

MODES = ("compiled", "interpreted")


class ReferenceExecutor(SelectExecutor):
    """The row-at-a-time executor: the same statements, the textbook plan."""

    hash_join = staticmethod(hash_join)

    def row_func(self, expr, env):
        return lambda row: expr.evaluate(row, env)

    def rewrite_join(self, select, left, right, keys, where_parts):
        return None

    def _build(self, select, source, where, grouped, topk_hint):
        """The whole statement, interpreted; ``topk_hint`` is a pushdown,
        which the reference ignores."""
        output = self._interpret(select, source, where, grouped)
        return output.names, output.types, [ColumnBlock(output.rows)]

    def _interpret(self, select, source, where, grouped) -> Relation:
        """Materialize the scan up front, then filter, group or project,
        order, de-duplicate and slice, each over ``Expression.evaluate``."""
        source.materialize()
        relation = source.relation
        env = relation.env()
        rows = relation.rows
        if where is not None:
            rows = [row for row in rows if where.evaluate(row, env) is True]
        if grouped:
            names = _item_names(select.items)
            types: list = [None] * len(names)
            pairs = self._grouped(select, relation, rows)
        else:
            if any(window_calls(item.expr) for item in select.items):
                select, relation, rows = self._windowed(select, relation, rows)
                env = relation.env()
            names, types, pairs = self._projected(select, relation, rows)
        output = Relation(names, [pair[1] for pair in pairs], types)
        self._infer_missing_types(output)
        if select.order_by:
            pairs = _order_multipass(select.order_by, pairs, env, output.env())
            output.rows = [pair[1] for pair in pairs]
        if select.distinct:
            output.rows = list(dict.fromkeys(output.rows))
        if select.offset is not None:
            output.rows = output.rows[select.offset :]
        if select.limit is not None:
            output.rows = output.rows[: select.limit]
        return output

    def _windowed(self, select, relation: Relation, rows: list[Row]):
        """Rank the filtered rows, append each window's value vector as a
        synthetic column, and hand back the rewritten select with the
        widened relation and rows."""
        env = relation.env()
        calls, items, _types = self._select_list(select, relation)
        vectors = [
            _rank_window(
                call.name,
                len(rows),
                [[e.evaluate(row, env) for row in rows] for e in call.partition_by],
                [[e.evaluate(row, env) for row in rows] for e, _d in call.order_by],
                [descending for _e, descending in call.order_by],
            )[0]
            for call in calls
        ]
        rows = [row + extra for row, extra in zip(rows, zip(*vectors))]
        names = relation.names + [f"__win{k}" for k in range(len(calls))]
        types = relation.types + [None] * len(calls)
        return select._replace(items=items), Relation(names, rows, types), rows

    def _projected(self, select, relation: Relation, rows: list[Row]):
        env = relation.env()
        names: list[str] = []
        types: list = []
        plan: list = []  # None marks Star (extend with row)
        # Set-returning items: position -> range-encoded?
        unnest_positions: dict[int, bool] = {}
        for item in select.items:
            expr = item.expr
            if isinstance(expr, Star):
                names.extend(relation.base_names())
                types.extend(relation.types)
                plan.append(None)
                continue
            position = len(names)
            if isinstance(expr, FuncCall) and expr.name in _SET_RETURNING:
                unnest_positions[position] = expr.name == "unnest_ranges"
                plan.append(_set_argument(expr, env))
            else:
                plan.append(lambda row, expr=expr: expr.evaluate(row, env))
            names.append(_base_name(expr, item.alias, position))
            types.append(None)
        pairs: Pairs = []
        for row in rows:
            values: list[Any] = []
            for func in plan:
                if func is None:
                    values.extend(row)
                else:
                    values.append(func(row))
            pairs.append((row, tuple(values)))
        if unnest_positions:
            pairs = _expand_unnest(pairs, unnest_positions)
        return names, types, pairs


def _set_argument(call: FuncCall, env):
    """The per-row argument of a set-returning item; a zero-argument call
    fails per evaluated row, so only when rows exist."""
    if call.args:
        arg = call.args[0]
        return lambda row: arg.evaluate(row, env)

    def missing(row):
        raise ExecutionError(f"{call.name}() takes an array")

    return missing


def _expand_unnest(pairs: Pairs, positions: dict[int, bool]) -> Pairs:
    """Expand set-returning columns, zipping several in parallel."""
    expanded: Pairs = []
    for source_row, out_row in pairs:
        decoded = {p: unnested(out_row[p], ranges) for p, ranges in positions.items()}
        height = max((len(a) for a in decoded.values()), default=0)
        for i in range(height):
            values = list(out_row)
            for p, array in decoded.items():
                values[p] = array[i] if i < len(array) else None
            expanded.append((source_row, tuple(values)))
    return expanded


def _order_multipass(order_by, pairs: Pairs, source_env, output_env) -> Pairs:
    """One stable sort pass per ORDER BY item, last item first.  A key is
    read from the output row, or from the source row when that raises."""

    def sort_value(item: ast.OrderItem, pair):
        source_row, output_row = pair
        try:
            value = item.expr.evaluate(output_row, output_env)
        except ExecutionError:
            value = item.expr.evaluate(source_row, source_env)
        return (value is None, value)

    for item in reversed(order_by):
        pairs = sorted(
            pairs,
            key=lambda pair: sort_value(item, pair),
            reverse=item.descending,
        )
    return pairs


class ReferenceDatabase(Database):
    """A :class:`Database` whose statements run on :class:`ReferenceExecutor`."""

    select_executor = ReferenceExecutor


def database(mode: str = "compiled", **kwargs) -> Database:
    """A fresh engine: the production one for ``"compiled"``, the
    row-at-a-time reference for ``"interpreted"``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return (Database if mode == "compiled" else ReferenceDatabase)(**kwargs)
