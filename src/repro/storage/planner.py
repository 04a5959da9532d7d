"""FROM-clause planning: scans, index shortcuts, and join algorithm choice.

The planner turns a Select's FROM items into one joined
:class:`~repro.storage.executor.Relation` and returns the residual WHERE
predicate that still has to be applied.  Three decisions matter for the
paper's experiments:

* **Index probes** — an equality conjunct on an indexed column (the
  split-by-rlist ``WHERE vid = %s``) becomes a point probe instead of a full
  scan, which is why that model reads one versioning-table row per checkout.
* **Join algorithm** — equi-joins default to hash join (the paper's choice
  for checkout); the database's ``join_method`` knob switches to merge or
  index-nested-loop so the Fig. 19 cost-model benchmark can compare them.
* **Join order** — the build side of a hash join is the smaller input, so
  the rlist temp table is hashed and the data table streams past it, exactly
  the plan Section 3.2 describes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.storage.executor import (
    OpProfile,
    QueryProfile,
    Relation,
    SelectExecutor,
    _position,
    value_evaluator,
)
from repro.storage.expression import (
    BinaryOp,
    ColumnRef,
    EvalEnv,
    Expression,
    InSet,
    Literal,
    Star,
    WindowFunc,
    combine_and,
    conjuncts,
    window_calls,
)
from repro.storage.joins import (
    hash_join,
    hash_join_vectors,
    index_nested_loop_join,
    merge_join,
)
from repro.storage.parser import ast_nodes as ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import Database

Row = tuple[Any, ...]


class _Source:
    """One FROM item after scanning: a relation plus (maybe) its base table.

    Un-filtered base tables are scanned *lazily*: the index-nested-loop
    join path never reads the inner table's heap at all (it only probes),
    so charging a full scan up front would hide exactly the access-path
    difference the Fig. 19 experiments measure.
    """

    def __init__(
        self,
        relation: Relation,
        binding: str,
        table=None,
        scan: OpProfile | None = None,
    ):
        self.relation = relation
        self.binding = binding
        self.table = table  # set only for un-filtered base-table scans
        self.lazy = table is not None
        self.scan = scan  # the statement's scan tally (lazy sources)

    def materialize(self) -> None:
        if self.lazy:
            rows: list[Row] = []
            for batch in self.table.scan_batches():
                rows.extend(batch)
            self.relation.rows = rows
            self.lazy = False
            self.scan.charge(len(rows))

    @property
    def known_row_count(self) -> int:
        if self.lazy:
            return self.table.row_count
        return len(self.relation.rows)


def resolve_from(
    db: "Database", select: ast.Select, executor: SelectExecutor
) -> tuple[_Source, Expression | None]:
    """Build the FROM source; returns (source, residual_where).

    A single un-filtered base table comes back *lazy* (``source.lazy``):
    the executor's Scan operator streams its blocks, so the residual
    filter, projection, and LIMIT pushdown all run block-at-a-time without
    an up-front materialization.  Joined/probed/derived sources are
    materialized relations; the base-table rows read for them, and each
    join's output, are charged to the executor's profile here.
    """
    if not select.from_items:
        # SELECT without FROM: a single empty row so expressions evaluate.
        return _Source(Relation([], [()]), ""), select.where
    profile = executor.profile
    where_parts = conjuncts(select.where)
    sources = []
    for item in select.from_items:
        source, where_parts = _scan_item(db, item, where_parts, executor)
        sources.append(source)
    current = sources[0]
    remaining = sources[1:]
    while remaining:
        best_index, join_keys = _find_joinable(current, remaining, where_parts)
        nxt = remaining.pop(best_index)
        if join_keys:
            current, where_parts = _equi_join(
                db, profile, current, nxt, where_parts, join_keys, select=select
            )
        else:
            current = _cross_join(profile, current, nxt)
    for join_clause in select.joins:
        source, where_parts = _scan_item(db, join_clause.item, where_parts, executor)
        current = _explicit_join(db, profile, current, source, join_clause)
    return current, combine_and(where_parts)


# ------------------------------------------------------------------ scanning


def _scan_item(
    db: "Database",
    item: ast.FromItem,
    where_parts: list[Expression],
    executor: SelectExecutor,
) -> tuple[_Source, list[Expression]]:
    if isinstance(item, ast.SubqueryRef):
        hint = _subquery_topk_hint(item, where_parts)
        inner = executor.execute(item.query, topk_hint=hint)
        names = [f"{item.alias}.{name.split('.')[-1]}" for name in inner.names]
        return _Source(Relation(names, inner.rows, inner.types), item.alias), (
            where_parts
        )
    table = db.table(item.table)
    binding = item.binding
    names = [f"{binding}.{column.name}" for column in table.schema.columns]
    types = [column.dtype for column in table.schema.columns]
    eq_literals, where_parts = _extract_eq_literals(binding, table, where_parts)
    probe = _pick_index_probe(table, eq_literals)
    scan = executor.profile.op("scan")
    if probe is not None:
        index, key, used_columns = probe
        rows = table.probe(index, key)
        scan.charge(len(rows))
        # Conjuncts not covered by the index key stay as filters.
        for column, (literal, conjunct) in eq_literals.items():
            if column not in used_columns:
                where_parts.append(conjunct)
        return _Source(Relation(names, rows, types), binding), where_parts
    for _column, (_literal, conjunct) in eq_literals.items():
        where_parts.append(conjunct)
    return _Source(Relation(names, [], types), binding, table, scan), where_parts


def _subquery_topk_hint(
    item: ast.SubqueryRef, where_parts: list[Expression]
) -> int | None:
    """Grouped top-k bound for a derived table, or ``None``.

    Detects the paper-bench idiom ``SELECT ... FROM (SELECT ...,
    row_number() OVER (PARTITION BY ... ORDER BY ...) AS rn FROM ...) t
    WHERE rn <= k``: the inner window step may then keep only each
    partition's top ``k`` rows (a per-partition heap, O(n log k)) instead
    of ranking everything the outer filter will discard.  The outer
    conjunct is NOT consumed — it still runs, so the pushdown can only
    ever drop rows that filter would drop anyway, and the hint is safe to
    ignore — which the interpreted reference does.
    """
    query = item.query
    if (
        query.union_all_with is not None
        or query.order_by
        or query.limit is not None
        or query.offset is not None
        or query.distinct
        or query.group_by
        or query.having is not None
        or query.joins
    ):
        return None
    window_name = None
    seen = 0
    for sel_item in query.items:
        calls = window_calls(sel_item.expr)
        if not calls:
            continue
        seen += len(calls)
        if seen > 1:
            return None  # a second window would need full ranking
        if (
            not isinstance(sel_item.expr, WindowFunc)
            or sel_item.expr.name != "row_number"
        ):
            return None  # only a bare row_number maps 1:1 to the bound
        window_name = sel_item.alias or "row_number"
    if window_name is None:
        return None
    best = None
    for part in where_parts:
        bound = _topk_bound(part, item.alias, window_name)
        if bound is not None and (best is None or bound < best):
            best = bound
    return best


_TOPK_FLIP = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}


def _topk_bound(expr: Expression, alias: str, column: str) -> int | None:
    """``k`` if ``expr`` is ``<alias>.<column> <= k`` (or ``< k+1``)."""
    if not (isinstance(expr, BinaryOp) and expr.op in _TOPK_FLIP):
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right, op = right, left, _TOPK_FLIP[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    if op not in ("<=", "<"):
        return None
    name = left.name
    if "." in name:
        qualifier, name = name.split(".", 1)
        if qualifier != alias:
            return None
    if name != column:
        return None
    value = right.value
    if type(value) is not int:  # bools and floats keep the full ranking
        return None
    bound = value if op == "<=" else value - 1
    return bound if bound >= 1 else None


def _extract_eq_literals(
    binding: str, table, where_parts: list[Expression]
) -> tuple[dict[str, tuple[Any, Expression]], list[Expression]]:
    """Pull out ``col = literal`` conjuncts that belong to this binding."""
    found: dict[str, tuple[Any, Expression]] = {}
    rest: list[Expression] = []
    for part in where_parts:
        column = _eq_literal_column(part, binding, table)
        if column is not None and column[0] not in found:
            found[column[0]] = (column[1], part)
        else:
            rest.append(part)
    return found, rest


def _eq_literal_column(expr: Expression, binding: str, table) -> tuple[str, Any] | None:
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        left, right = right, left
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    name = left.name
    if "." in name:
        qualifier, column = name.split(".", 1)
        if qualifier != binding:
            return None
    else:
        column = name
    if column not in table.schema:
        return None
    return column, right.value


def _pick_index_probe(table, eq_literals):
    """Find an index fully covered by equality literals, if any."""
    if not eq_literals:
        return None
    for index in table.indexes.values():
        if all(column in eq_literals for column in index.columns):
            key = tuple(eq_literals[column][0] for column in index.columns)
            return index, key, set(index.columns)
    return None


# -------------------------------------------------------------------- joins


def _find_joinable(
    current: _Source, remaining: list[_Source], where_parts: list[Expression]
) -> tuple[int, list[tuple[str, str, Expression]]]:
    """Pick the next source that has an equi-join key with ``current``."""
    for position, candidate in enumerate(remaining):
        keys = _join_keys(current, candidate, where_parts)
        if keys:
            return position, keys
    return 0, []


def _join_keys(
    left: _Source, right: _Source, where_parts: list[Expression]
) -> list[tuple[str, str, Expression]]:
    """Equality conjuncts of the form left.col = right.col."""
    left_env = left.relation.env()
    right_env = right.relation.env()
    keys = []
    for part in where_parts:
        if not (isinstance(part, BinaryOp) and part.op == "="):
            continue
        if not (isinstance(part.left, ColumnRef) and isinstance(part.right, ColumnRef)):
            continue
        a, b = part.left.name, part.right.name
        if _resolvable(left_env, a) and _resolvable(right_env, b):
            keys.append((a, b, part))
        elif _resolvable(left_env, b) and _resolvable(right_env, a):
            keys.append((b, a, part))
    return keys


def _resolvable(env: EvalEnv, name: str) -> bool:
    return _position(env, name) is not None


def _joined(
    profile: QueryProfile, started: float, left: _Source, right: _Source, rows
) -> _Source:
    """A join's output as a source, charged to the profile's ``join`` line."""
    profile.op("join").charge(len(rows), started)
    names = left.relation.names + right.relation.names
    types = left.relation.types + right.relation.types
    return _Source(Relation(names, rows, types), left.binding)


def _equi_join(
    db: "Database",
    profile: QueryProfile,
    left: _Source,
    right: _Source,
    where_parts: list[Expression],
    keys: list[tuple[str, str, Expression]],
    select: "ast.Select | None" = None,
    residual: Expression | None = None,
) -> tuple[_Source, list[Expression]]:
    """Join on ``keys``; ``residual`` (the rest of an ON condition) filters
    the matches before the join line is charged."""
    for _l, _r, used in keys:
        where_parts = [part for part in where_parts if part is not used]
    left_positions = [left.relation.env().resolve(l) for l, _r, _u in keys]
    right_positions = [right.relation.env().resolve(r) for _l, r, _u in keys]
    method = db.join_method
    stats = db.stats
    started = time.perf_counter()
    if method == "merge":
        left.materialize()
        right.materialize()
        rows = list(
            merge_join(
                left.relation.rows,
                left_positions,
                right.relation.rows,
                right_positions,
                stats=stats,
            )
        )
    elif method == "inl" and (
        _inl_inner(right, right_positions) or _inl_inner(left, left_positions)
    ):
        # Probe the indexed base table per outer row; the inner heap is
        # never scanned.  When the indexed table sits on the left, run the
        # join flipped and restore the output column order afterwards.
        if _inl_inner(right, right_positions):
            left.materialize()
            rows = list(
                index_nested_loop_join(
                    left.relation.rows,
                    left_positions,
                    right.table,
                    _inl_inner(right, right_positions),
                    stats=stats,
                )
            )
        else:
            right.materialize()
            left_width = len(left.relation.names)
            flipped = index_nested_loop_join(
                right.relation.rows,
                right_positions,
                left.table,
                _inl_inner(left, left_positions),
                stats=stats,
            )
            right_width = len(right.relation.names)
            rows = [row[right_width:] + row[:right_width] for row in flipped]
    else:
        # Hash join, building on the smaller side (Section 3.2's plan).
        # Compiled mode first tries to eliminate the join outright (the
        # semi-join rewrite below); failing that it runs the vectorized
        # unique-build-key form (which falls back to the reference
        # hash_join itself on duplicate keys).  Interpreted mode always
        # runs the reference.
        join = hash_join
        if db.exec_mode == "compiled":
            semi = _semi_join_rewrite(
                db, select, left, right, keys, left_positions, right_positions,
                where_parts,
            )
            if semi is not None:
                return semi
            join = hash_join_vectors
        left.materialize()
        right.materialize()
        if len(left.relation.rows) <= len(right.relation.rows):
            rows = join(
                left.relation.rows,
                left_positions,
                right.relation.rows,
                right_positions,
                stats=stats,
                build_side_first=True,
            )
        else:
            rows = join(
                right.relation.rows,
                right_positions,
                left.relation.rows,
                left_positions,
                stats=stats,
                build_side_first=False,
            )
    if residual is not None:
        names = left.relation.names + right.relation.names
        keep = value_evaluator(db, residual, EvalEnv(names))
        rows = [row for row in rows if keep(row) is True]
    return _joined(profile, started, left, right, rows), where_parts


def _semi_join_rewrite(
    db: "Database",
    select: "ast.Select | None",
    left: _Source,
    right: _Source,
    keys: list[tuple[str, str, Expression]],
    left_positions: list[int],
    right_positions: list[int],
    where_parts: list[Expression],
) -> tuple[_Source, list[Expression]] | None:
    """Collapse a hash join whose build side is only a key filter.

    When every column the rest of the query references lives on the probe
    side, the join's sole effect is *filtering* probe rows by key
    membership — the paper's checkout idiom ``FROM data d, (SELECT
    unnest(rlist) ...) tmp WHERE d.rid = tmp.rid_tmp`` is exactly this
    shape.  If the build keys are also unique (so the join cannot multiply
    probe rows), the whole join collapses into an ``IN <set>`` conjunct on
    the probe source: the probe table stays lazy and streams through the
    columnar scan with the key-membership test fused into the same
    generated predicate as every other pushed-down filter.

    Equivalence with the reference hash join, case by case: the output
    row set is identical (unique non-NULL build keys ⇒ each probe row
    survives exactly when its key is in the set, exactly once; NULL probe
    keys are dropped by both ``IN`` and the hash lookup); the output
    *order* is identical (the reference emits rows in probe iteration
    order, which is the probe scan order the filter preserves); and the
    logical-I/O charge is identical (the probe scan charges the same
    records either way, and the build side charges the same
    ``hash_build_rows``).  Every bail-out below simply falls back to the
    reference join — including unhashable build keys, whose TypeError the
    reference path raises itself.  The caller tries it in compiled mode
    only; the interpreted engine keeps the textbook plan.
    """
    if select is None or len(keys) != 1:
        return None
    # Mirror the reference's build-side choice: the smaller input.  The
    # *probe* side survives, so only the build side may be eliminated.
    if left.known_row_count <= right.known_row_count:
        build, probe = left, right
        build_position = left_positions[0]
        probe_key = keys[0][1]
    else:
        build, probe = right, left
        build_position = right_positions[0]
        probe_key = keys[0][0]
    # Everything the statement still needs must resolve on the probe side
    # alone.  Star projections (which would expand build columns) and
    # window functions bail outright; for the rest, any referenced name
    # the build side can resolve — qualified, bare, or ambiguously —
    # disqualifies the rewrite, which also preserves ambiguous-name
    # errors the merged relation would have raised.
    exprs: list[Expression] = [item.expr for item in select.items]
    exprs.extend(select.group_by)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(oitem.expr for oitem in select.order_by)
    exprs.extend(where_parts)
    exprs.extend(clause.condition for clause in select.joins)
    referenced: set[str] = set()
    for expr in exprs:
        if isinstance(expr, Star) or window_calls(expr):
            return None
        referenced |= expr.columns()
    build_env = build.relation.env()
    if any(build_env.positions.get(name) is not None for name in referenced):
        return None
    build.materialize()
    column = [
        key
        for key in (row[build_position] for row in build.relation.rows)
        if key is not None
    ]
    try:
        key_set = frozenset(column)
    except TypeError:
        return None  # unhashable keys: let the reference join raise
    if len(key_set) != len(column):
        return None  # duplicate build keys would multiply probe rows
    db.stats.hash_build_rows += len(column)
    return probe, where_parts + [InSet(ColumnRef(probe_key), key_set)]


def _inl_inner(source: _Source, positions) -> list[str] | None:
    """Columns of a usable inner-side index, if this source is a base table
    with an index covering the join key."""
    if source.table is None:
        return None
    columns = [source.table.schema.columns[p].name for p in positions]
    if source.table.index_on(columns) is None:
        return None
    return columns


def _cross_join(profile: QueryProfile, left: _Source, right: _Source) -> _Source:
    started = time.perf_counter()
    left.materialize()
    right.materialize()
    rows = [lrow + rrow for lrow in left.relation.rows for rrow in right.relation.rows]
    return _joined(profile, started, left, right, rows)


def _explicit_join(
    db: "Database",
    profile: QueryProfile,
    left: _Source,
    right: _Source,
    clause: ast.JoinClause,
) -> _Source:
    parts = conjuncts(clause.condition)
    keys = _join_keys(left, right, parts)
    if keys and clause.kind == "inner":
        used = [u for _l, _r, u in keys]
        residual = combine_and([part for part in parts if part not in used])
        merged, _ = _equi_join(db, profile, left, right, parts, keys, None, residual)
        return merged
    left.materialize()
    right.materialize()
    env = EvalEnv(left.relation.names + right.relation.names)
    started = time.perf_counter()
    rows = []
    right_width = len(right.relation.names)
    condition_func = value_evaluator(db, clause.condition, env)
    for lrow in left.relation.rows:
        matched = False
        for rrow in right.relation.rows:
            combined = lrow + rrow
            if condition_func(combined) is True:
                rows.append(combined)
                matched = True
        if clause.kind == "left" and not matched:
            rows.append(lrow + (None,) * right_width)
    return _joined(profile, started, left, right, rows)
