"""SELECT execution for the embedded engine.

FROM resolution, join order and index shortcuts live in
:mod:`repro.storage.planner`, which hands back one (possibly joined)
source; this module owns everything above it: one pipeline.

:meth:`SelectExecutor._build` chains small operators — Scan → Filter →
Window → Project → Unnest | Aggregate → Sort → Distinct → Limit — that
exchange :class:`ColumnBlock`s (each one list of row tuples, the only
layout) and are iterated for the result.  Every expression is lowered
once per statement to a block kernel (:mod:`repro.storage.compile`); the
kernels are total, so no statement falls off the pipeline.  Pushdowns
are choices ``_build`` makes once: a bare ``LIMIT`` stops pulling scan
blocks when enough rows exist, ``ORDER BY`` + ``LIMIT`` is a heap top-k
(run before the projection when its keys are source columns), a
``row_number() <= k`` derived table keeps k rows per partition, an
all-bare-columns select list is one ``itemgetter`` pass.
Each operator charges rows, batches and time to the statement's
:class:`QueryProfile`, which ``PROFILE SELECT`` reports.

The answers are SQL's row-at-a-time semantics over
:meth:`Expression.evaluate`: the Aggregate operator replays a failed
vectorized pass through :meth:`SelectExecutor._grouped`, and Sort and
Project replay a failing block row by row, as one-row blocks, so the
error that surfaces is the one a row-by-row evaluation raises first.
The row-at-a-time pipeline itself lives in ``tests/select_reference.py``,
the oracle the parity suites and ``benchmarks/bench_sql.py`` compare this
one with.
"""

from __future__ import annotations

import heapq
import reprlib
import time
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.record import Record
from repro.storage.columns import ColumnBlock, concat_columns
from repro.storage.compile import (
    compile_column_predicate,
    compile_column_values,
    row_function,
)
from repro.storage.expression import (
    ArrayLiteral,
    BinaryOp,
    ColumnRef,
    EvalEnv,
    Expression,
    FuncCall,
    InSet,
    Literal,
    PosRef,
    Star,
    UnaryOp,
    WindowFunc,
    array_value,
    map_children,
    replace_windows,
    window_calls,
)
from repro.storage.joins import hash_join_vectors
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser.parser import (
    ArraySubquery,
    InSubquery,
    ScalarSubquery,
)
from repro.storage.types import DataType, infer_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import Database
    from repro.storage.planner import _Source

Row = tuple[Any, ...]
RowFunc = Callable[[Row], Any]
Pairs = list[tuple[Row, Row]]  # (source row, output row)

#: Set-returning functions, legal only as a whole select-list item.
_SET_RETURNING = ("unnest", "unnest_ranges")

#: Operators whose constant array operands are worth converting to bitmaps.
_ARRAY_SET_OPS = frozenset({"<@", "@>", "&&"})

#: A bitmap's allocation is proportional to the largest element, so never
#: bitmapize user-supplied constants beyond this rid (a 2 MiB bitmap).
#: Real rids are dense sequential allocations far below it; anything
#: larger falls back to the hash-probe path unchanged.
_MAX_BITMAP_RID = 1 << 24


def _bitmapized(expr: Expression) -> Expression:
    """A constant array of bitmap-sized rids as a RidSet literal; anything
    else as it is."""
    from repro.storage.ridset import RidSet

    if isinstance(expr, Literal) and isinstance(expr.value, tuple):
        values = expr.value
    elif isinstance(expr, ArrayLiteral) and all(
        isinstance(item, Literal) for item in expr.items
    ):
        values = tuple(item.value for item in expr.items)
    else:
        return expr
    if all(type(v) is int and 0 <= v <= _MAX_BITMAP_RID for v in values):
        return Literal(RidSet(values))
    return expr


def _bitmapize_array_constants(expr: Expression | None) -> Expression | None:
    """Rewrite constant array operands of ``<@``/``@>``/``&&`` to RidSets.

    The conversion runs once per statement, so per-row evaluation of the
    containment predicate probes a bitmap (O(1) per element) instead of
    re-scanning or re-hashing the constant for every row.  Only applies to
    non-negative int arrays — anything else is left for the generic path.
    """
    if isinstance(expr, BinaryOp):
        if expr.op in _ARRAY_SET_OPS:
            left, right = _bitmapized(expr.left), _bitmapized(expr.right)
            if left is not expr.left or right is not expr.right:
                return BinaryOp(expr.op, left, right)
            return expr
        if expr.op in ("and", "or"):
            return BinaryOp(
                expr.op,
                _bitmapize_array_constants(expr.left),
                _bitmapize_array_constants(expr.right),
            )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _bitmapize_array_constants(expr.operand))
    return expr


def _position(env: EvalEnv, name: str) -> int | None:
    """Where ``name`` resolves in ``env``; None when unknown or ambiguous."""
    position = env.positions.get(name)
    return None if position == EvalEnv.AMBIGUOUS else position


def _counts_rows(call: FuncCall) -> bool:
    """``count(*)`` / ``count()``: the group's size, whatever the rows hold."""
    return call.name == "count" and (not call.args or isinstance(call.args[0], Star))


def _column_position(expr: Expression, env: EvalEnv) -> int | None:
    """The row position a bare column reference reads, else None."""
    if isinstance(expr, PosRef):
        return expr.position
    if isinstance(expr, ColumnRef):
        return _position(env, expr.name)
    return None


class OpProfile(Record):
    """One pipeline operator's tally for one statement."""

    __slots__ = _fields = ("op", "rows", "batches", "seconds")

    def __init__(self, op: str, rows: int = 0, batches: int = 0, seconds: float = 0.0):
        self.op, self.rows, self.batches, self.seconds = op, rows, batches, seconds

    def charge(self, rows: int, started: float | None = None) -> None:
        """One batch of ``rows`` produced (since ``started``, when timed)."""
        self.rows += rows
        self.batches += 1
        if started is not None:
            self.seconds += time.perf_counter() - started


class QueryProfile:
    """Per-operator rows/batches/time of one statement.

    Operators hold the tally of their name, so a UNION ALL's branches and
    a derived table's inner pipeline accumulate into the same lines, like
    the engine's other counters (IOStats).  ``scan`` counts base-table rows
    read (pipeline scan, join input or index probe) and ``join`` a join's
    output rows; the planner charges both.
    """

    def __init__(self):
        self._ops: dict[str, OpProfile] = {}
        #: Seconds already attributed to some operator; lets a stage time
        #: itself net of the stages it pulls from.
        self.spent = 0.0

    def op(self, name: str) -> OpProfile:
        return self._ops.setdefault(name, OpProfile(name))

    def as_dict(self) -> dict:
        """The tallies in first-use order — the planner's scans and joins,
        then each pipeline's operators as ``_build`` chained them — so the
        report reads in data-flow order."""
        return {
            "operators": [
                {"op": t.op, "rows": t.rows, "batches": t.batches, "seconds": t.seconds}
                for t in self._ops.values()
            ]
        }


class Relation(Record):
    """A materialized intermediate result: column names, rows, known types
    (all unknown when ``types`` is empty or left out)."""

    __slots__ = _fields = ("names", "rows", "types")

    def __init__(self, names: list[str], rows: list[Row], types=None):
        self.names, self.rows = names, rows
        self.types: list[DataType | None] = types or [None] * len(names)

    def env(self) -> EvalEnv:
        return EvalEnv(self.names)

    def base_names(self) -> list[str]:
        return [name.split(".")[-1] for name in self.names]


def _base_name(expr: Expression, alias: str | None, position: int) -> str:
    if alias:
        return alias
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1]
    if isinstance(expr, (FuncCall, WindowFunc)):
        return expr.name
    return f"column{position + 1}"


def _item_names(items: Sequence[ast.SelectItem]) -> list[str]:
    """Output column names of a select list without ``*``."""
    return [
        _base_name(item.expr, item.alias, position)
        for position, item in enumerate(items)
    ]


class _Desc:
    """Inverts comparisons, so one composite sort key handles DESC items."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


_SENTINEL = object()

#: The raw-value ORDER BY fast path: int/float only (bool is excluded
#: because ``-True`` would merge with ``-1``).
_NUMERIC_TYPES = frozenset((int, float))


def _sort_comp(vector: list, descending: bool) -> list:
    """One ordering key vector as a vector of comparison keys.

    All-numeric vectors compare raw values (negated for DESC) — no wrapper
    objects, so CPython's specialized compares kick in; the type probe is
    two C passes and excludes bool and None.  Everything else uses the
    reference ``(value is None, value)`` key — NULLs last ascending, first
    descending — with :class:`_Desc` inverting for DESC.  Both forms give
    identical orderings *and* identical equality classes (``-a == -b`` iff
    ``a == b``), so rank/dense_rank peer detection works on either.
    """
    if not set(map(type, vector)) - _NUMERIC_TYPES:
        return [-value for value in vector] if descending else vector
    comp = [(value is None, value) for value in vector]
    if descending:
        comp = [_Desc(key) for key in comp]
    return comp


def _rank_window(
    name: str,
    n: int,
    part_vectors: list[list],
    order_vectors: list[list],
    descendings: list[bool],
    limit: int | None = None,
) -> tuple[list, list[int] | None]:
    """Rank ``n`` rows for one window call over pre-extracted key vectors.

    The Window operator and the row-at-a-time reference feed this same
    core — they differ only in how the key vectors are extracted — so
    window values are identical by construction.
    NULLs sort last ascending / first descending (the engine's ORDER BY
    convention), sorts are stable, and without ORDER BY every peer ties:
    ``row_number`` stays positional while ``rank``/``dense_rank`` are all 1.

    ``limit`` is the grouped top-k pushdown (``row_number`` only): each
    partition keeps its ``heapq.nsmallest`` ``limit`` rows — stability makes
    that identical to ``sorted(...)[:limit]`` — and the second return value
    lists the surviving row indices in original scan order.
    """
    if order_vectors:
        comps = [
            _sort_comp(vector, descending)
            for vector, descending in zip(order_vectors, descendings)
        ]
        keys = comps[0] if len(comps) == 1 else list(zip(*comps))
    else:
        keys = None
    partitions: dict[Any, list[int]] = {}
    if not part_vectors:
        partitions[None] = list(range(n))
    for i, key in enumerate(zip(*part_vectors)):
        partitions.setdefault(key, []).append(i)
    values: list = [None] * n
    if limit is not None:
        survivors: list[int] = []
        for indices in partitions.values():
            if keys is not None:
                indices = heapq.nsmallest(limit, indices, key=keys.__getitem__)
            else:
                indices = indices[:limit]
            for position, i in enumerate(indices):
                values[i] = position + 1
            survivors.extend(indices)
        survivors.sort()
        return values, survivors
    for indices in partitions.values():
        if keys is not None:
            indices = sorted(indices, key=keys.__getitem__)
        if name == "row_number":
            for position, i in enumerate(indices):
                values[i] = position + 1
        elif keys is None:
            for i in indices:
                values[i] = 1  # no ORDER BY: every row is a peer
        else:  # rank counts the rows before a peer group, dense_rank the groups
            previous = _SENTINEL
            rank = 0
            for position, i in enumerate(indices):
                current = keys[i]
                if previous is _SENTINEL or not (current == previous):
                    rank = position + 1 if name == "rank" else rank + 1
                    previous = current
                values[i] = rank
    return values, None


def _order_vectors(
    specs: list[tuple[list, bool]], n: int, top: int | None
) -> list[int]:
    """Sort (or heap top-k) row indices by pre-extracted key vectors.

    Key vectors become comparison keys via :func:`_sort_comp` (raw-value
    fast path for all-numeric vectors, reference tuple keys otherwise).
    """
    comps = [_sort_comp(vector, descending) for vector, descending in specs]
    keys = comps[0] if len(comps) == 1 else list(zip(*comps))
    if top is not None and top < n:
        return heapq.nsmallest(top, range(n), key=keys.__getitem__)
    return sorted(range(n), key=keys.__getitem__)


# ------------------------------------------------------------- operators


class Operator(Record):
    """One stage of the compiled pipeline; iterate it for its output blocks.

    Subclasses implement ``run()``, a generator over ``child`` (any
    iterable of blocks).  Iteration charges each block produced — its rows,
    and the time spent producing it net of the stages below — to the
    statement's tally for this stage.
    """

    __slots__ = ("profile", "child", "tally")
    _fields = ("profile", "child")
    name = ""

    def __init__(self, profile: QueryProfile, child: Iterable[ColumnBlock] | None):
        self.profile, self.child = profile, child
        self.tally = profile.op(self.name)

    def __iter__(self) -> Iterator[ColumnBlock]:
        profile, tally = self.profile, self.tally
        blocks = self.run()
        while True:
            started, below = time.perf_counter(), profile.spent
            block = next(blocks, None)
            own = time.perf_counter() - started - (profile.spent - below)
            tally.seconds += own
            profile.spent += own
            if block is None:
                return
            tally.batches += 1
            tally.rows += block.length
            yield block


class Scan(Operator):
    """A lazy base-table scan: each batch of :meth:`Table.scan_batches` is
    one block, charged to ``blocks_scanned`` (the table charges its rows
    and batch), so a consumer that stops early never pays for the blocks
    it did not read."""

    __slots__ = ("table",)
    _fields = ("profile", "child", "table")
    name = "scan"

    def __init__(self, profile, child, table: Any):
        super().__init__(profile, child)
        self.table = table

    def run(self):
        stats = self.table.stats
        for batch in self.table.scan_batches():
            stats.blocks_scanned += 1
            yield ColumnBlock(batch)


class Filter(Operator):
    """WHERE: keeps the rows whose predicate is exactly ``True``."""

    __slots__ = ("predicate",)
    _fields = ("profile", "child", "predicate")
    name = "filter"

    def __init__(self, profile, child, predicate: Callable):
        super().__init__(profile, child)
        self.predicate = predicate

    def run(self):
        for block in self.child:
            kept = self.predicate(block)
            yield block if len(kept) == block.length else ColumnBlock(kept)


def _widen(block: ColumnBlock, vectors: list[list]) -> ColumnBlock:
    """``block`` with computed columns appended to each row tuple."""
    return ColumnBlock([row + extra for row, extra in zip(block.rows, zip(*vectors))])


class Window(Operator):
    """Ranks whole partitions and appends one column per window call.

    ``limit_k`` is the grouped top-k pushdown: only each partition's first
    k rows survive (see :func:`_rank_window`).
    """

    __slots__ = ("calls", "limit_k")
    _fields = ("profile", "child", "calls", "limit_k")
    name = "window"

    def __init__(self, profile, child, calls: list, limit_k: int | None):
        # calls: (WindowFunc, partition kernels, order kernels) triples
        super().__init__(profile, child)
        self.calls, self.limit_k = calls, limit_k

    def run(self):
        block = concat_columns(self.child)
        vectors: list[list] = []
        keep = None
        for call, part, order in self.calls:
            values, keep = _rank_window(
                call.name,
                block.length,
                [kernel(block) for kernel in part],
                [kernel(block) for kernel in order],
                [descending for _e, descending in call.order_by],
                self.limit_k,
            )
            vectors.append(values)
        if keep is not None:
            block = block.take(keep)
            vectors = [[vector[i] for i in keep] for vector in vectors]
        yield _widen(block, vectors)


def unnested(array: Any, ranges: bool) -> tuple:
    """The values one set-returning item expands to: none for NULL, a
    range-encoded array decoded.  An operand that is no array is an error."""
    if array is None:
        return ()
    if not isinstance(array, tuple):
        name = "unnest_ranges" if ranges else "unnest"
        raise ExecutionError(f"{name}() takes an array, not {reprlib.repr(array)}")
    if ranges:
        from repro.core.compression import decode_ranges

        return decode_ranges(array)
    return array


class Unnest(Operator):
    """Expands the set-returning select items of a projected block in place:
    each row repeats once per array element; several arrays zip in
    parallel, the shorter ones padded with NULL."""

    __slots__ = ("ranges",)
    _fields = ("profile", "child", "ranges")
    name = "unnest"

    def __init__(self, profile, child, ranges: dict[int, bool]):
        super().__init__(profile, child)
        self.ranges = ranges  # output position -> range-encoded array?

    def run(self):
        for block in self.child:
            rows: list[Row] = []
            repeats: list[int] = []  # source row index of each output row
            for i, row in enumerate(block.rows):
                arrays = [unnested(row[p], r) for p, r in self.ranges.items()]
                height = max(map(len, arrays))
                repeats.extend([i] * height)
                cells = [repeat(value, height) for value in row]
                for p, array in zip(self.ranges, arrays):
                    cells[p] = chain(array, repeat(None, height - len(array)))
                rows.extend(zip(*cells))
            out = ColumnBlock(rows)
            if block.source is not None:
                out.source = block.source.take(repeats)
            yield out


class Project(Operator):
    """The select list, one value kernel per item.  ``positions`` (every
    item a bare column) is the one-pass ``itemgetter`` form; ``keep_source``
    remembers the input block for a Sort above."""

    __slots__ = ("kernels", "positions", "keep_source")
    _fields = ("profile", "child", "kernels", "positions", "keep_source")
    name = "project"

    def __init__(self, profile, child, kernels, positions, keep_source: bool):
        super().__init__(profile, child)
        self.kernels, self.positions, self.keep_source = kernels, positions, keep_source

    def run(self):
        positions = self.positions
        if positions is None:
            project = None
        elif len(positions) == 1:
            p0 = positions[0]

            def project(rows):
                return [(row[p0],) for row in rows]

        else:
            getter = itemgetter(*positions)

            def project(rows):
                return list(map(getter, rows))

        for block in self.child:
            if project is not None:
                out = ColumnBlock(project(block.rows))
            else:
                try:
                    vectors = [kernel(block) for kernel in self.kernels]
                except Exception:
                    # Two items can fail on different rows.  The reference
                    # goes row by row, so replay that way for its error.
                    for row in block.rows:
                        for kernel in self.kernels:
                            kernel(ColumnBlock([row]))
                    raise
                rows = list(zip(*vectors)) if vectors else [()] * block.length
                out = ColumnBlock(rows)
            if self.keep_source:
                out.source = block
            yield out


class Aggregate(Operator):
    """GROUP BY / aggregates: ``grouper`` maps the whole filtered input to
    ``(representative source row, output row)`` pairs, one per group."""

    __slots__ = ("grouper", "keep_source")
    _fields = ("profile", "child", "grouper", "keep_source")
    name = "group"

    def __init__(self, profile, child, grouper, keep_source: bool):
        super().__init__(profile, child)
        self.grouper: Callable[[ColumnBlock], Pairs] = grouper
        self.keep_source = keep_source

    def run(self):
        pairs = self.grouper(concat_columns(self.child))
        out = ColumnBlock([pair[1] for pair in pairs])
        if self.keep_source:
            out.source = ColumnBlock([pair[0] for pair in pairs])
        yield out


class Sort(Operator):
    """ORDER BY over key vectors; ``top`` makes it a heap top-k.

    A key is ``(on_block, on_source, descending)``: kernels over the block
    itself and over ``block.source``.  With both, the reference's per-row
    rule applies — the output row decides unless evaluating it raises
    ExecutionError, then the source row does.
    """

    __slots__ = ("keys", "top")
    _fields = ("profile", "child", "keys", "top")
    name = "order"

    def __init__(self, profile, child, keys: list, top: int | None):
        super().__init__(profile, child)
        self.keys, self.top = keys, top

    def run(self):
        block = concat_columns(self.child)
        if not block.length:
            # No row evaluates a key (the reference's answer), and an empty
            # input may carry no source block for source-side keys.
            yield block
            return
        # Last key first, like the reference's sort passes: with several
        # failing keys, the same one raises.
        specs = [(self._vector(key, block), key[2]) for key in reversed(self.keys)]
        yield block.take(_order_vectors(specs[::-1], block.length, self.top))

    @staticmethod
    def _vector(key, block: ColumnBlock) -> list:
        on_block, on_source, _descending = key
        if on_block is None:
            return on_source(block.source)
        try:
            return on_block(block)
        except ExecutionError:
            if on_source is None:
                raise
        values = []
        for i, row in enumerate(block.rows):
            try:
                values.append(on_block(ColumnBlock([row]))[0])
            except ExecutionError:
                values.append(on_source(ColumnBlock([block.source.rows[i]]))[0])
        return values


class Distinct(Operator):
    __slots__ = ()
    name = "distinct"

    def run(self):
        seen: set[Row] = set()
        for block in self.child:
            unique = []
            for row in block.rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            yield ColumnBlock(unique)


class Limit(Operator):
    """OFFSET/LIMIT as Python slices (so negative bounds, reachable via
    parameters, mean what they mean in the reference).  ``stop_after`` is
    the bare-LIMIT pushdown: stop pulling once that many rows exist."""

    __slots__ = ("limit", "offset", "stop_after")
    _fields = ("profile", "child", "limit", "offset", "stop_after")
    name = "limit"

    def __init__(self, profile, child, limit, offset, stop_after):
        super().__init__(profile, child)
        self.limit, self.offset, self.stop_after = limit, offset, stop_after

    def run(self):
        rows: list[Row] = []
        for block in self.child:
            rows.extend(block.rows)
            if self.stop_after is not None and len(rows) >= self.stop_after:
                break
        if self.offset is not None:
            rows = rows[self.offset :]
        if self.limit is not None:
            rows = rows[: self.limit]
        yield ColumnBlock(rows)


class SelectExecutor:
    """Executes Select statements against a :class:`Database`."""

    def __init__(self, db: "Database", profile: QueryProfile | None = None):
        self._db = db
        #: The statement's operator tallies; ``PROFILE SELECT`` passes its
        #: own in and reports it, everyone else lets it go with the executor.
        self.profile = profile or QueryProfile()

    def _kernel(self, compiler: Callable, expr: Expression, env: EvalEnv):
        """A block kernel for ``expr``, charged to the census of the tier
        that serves it (``exprs_columnar`` / ``_compiled`` / ``_interpreted``)."""
        kernel, tier = compiler(expr, env)
        stats = self._db.stats
        if tier == "columnar":
            stats.exprs_columnar += 1
        elif tier == "compiled":
            stats.exprs_compiled += 1
        else:
            stats.exprs_interpreted += 1
        return kernel

    def _values(self, expr: Expression | None, env: EvalEnv):
        """The value kernel of ``expr`` (``None`` passes through)."""
        if expr is None:
            return None
        return self._kernel(compile_column_values, expr, env)

    # --------------------------------------------------------- planner hooks

    #: The hash join the planner runs when no rewrite removes the join: the
    #: vectorized unique-build-key form.
    hash_join = staticmethod(hash_join_vectors)

    def row_func(self, expr: Expression, env: EvalEnv) -> RowFunc:
        """A ``row -> value`` function for ``expr``, the form DML and join
        conditions run on, charged to the census like a kernel."""
        return self._kernel(row_function, expr, env)

    def rewrite_join(self, select, left, right, keys, where_parts):
        """The planner's hash join removed outright, or ``None``: see
        :func:`repro.storage.planner.semi_join_rewrite`."""
        from repro.storage.planner import semi_join_rewrite

        return semi_join_rewrite(self._db, select, left, right, keys, where_parts)

    # ------------------------------------------------------------- top level

    def execute(
        self, select: ast.Select, topk_hint: int | None = None
    ) -> Relation:
        relation = self._execute_single(select, topk_hint)
        if select.union_all_with is not None:
            other = self.execute(select.union_all_with)
            if len(other.names) != len(relation.names):
                raise ExecutionError("UNION ALL branches have different column counts")
            rows = relation.rows + other.rows
            relation = Relation(relation.names, rows, relation.types)
        return relation

    def _execute_single(
        self, select: ast.Select, topk_hint: int | None = None
    ) -> Relation:
        from repro.storage.planner import resolve_from

        def resolved(expr: Expression | None) -> Expression | None:
            return None if expr is None else self._resolve_subqueries(expr)

        # Plan from a copy: the caller may execute the same AST again, and
        # must then see its subqueries run again.
        select = select._replace(
            where=_bitmapize_array_constants(resolved(select.where)),
            items=[
                ast.SelectItem(resolved(item.expr), item.alias)
                for item in select.items
            ],
            having=resolved(select.having),
        )
        source, residual_where = resolve_from(self._db, select, self)
        grouped = bool(select.group_by) or any(
            item.expr.contains_aggregate() for item in select.items
        )
        if grouped and any(window_calls(item.expr) for item in select.items):
            raise ExecutionError(
                "window functions cannot be combined with GROUP BY or aggregates"
            )
        names, types, pipeline = self._build(
            select, source, residual_where, grouped, topk_hint
        )
        output = Relation(names, concat_columns(pipeline).rows, types)
        self._infer_missing_types(output)
        if select.into_table is not None:
            self._db.create_table_from_relation(select.into_table, output)
        return output

    # ---------------------------------------------------------- the pipeline

    def _build(
        self,
        select: ast.Select,
        source: "_Source",
        where: Expression | None,
        grouped: bool,
        topk_hint: int | None,
    ) -> tuple[list[str], list[DataType | None], Iterable[ColumnBlock]]:
        """The operator chain for one SELECT: ``(names, types, root)``.

        Every kernel compiles here, before a single block is pulled, and
        every pushdown is decided here, from the statement alone.
        """
        profile = self.profile
        relation = source.relation
        env = relation.env()
        node: Iterable[ColumnBlock]
        if source.lazy:
            node = Scan(profile, None, source.table)
        else:
            # Already materialized (probe, join, derived table): its rows
            # were charged when they were produced.
            node = [ColumnBlock(relation.rows)]
        if where is not None:
            predicate = self._kernel(compile_column_predicate, where, env)
            node = Filter(profile, node, predicate)
        unnests: dict[int, bool] = {}  # output position -> range-encoded?
        kernels: dict[int, Callable] = {}  # select-list kernels fixed early
        bound = None
        if (
            select.limit is not None
            and select.limit >= 0
            and (select.offset or 0) >= 0
            and not select.distinct
        ):
            # Rows past limit+offset can never be returned, so ORDER BY
            # needs only a heap top-k and a bare LIMIT can stop pulling.
            # DISTINCT k may hide arbitrarily deep, and negative bounds
            # (reachable via parameters) keep the reference's slice
            # semantics, so neither is pushed down.
            bound = select.limit + (select.offset or 0)
        positions = None
        if grouped:
            names = _item_names(select.items)
            types: list[DataType | None] = [None] * len(names)
        else:
            calls, items, types = self._select_list(select, relation)
            names = [item.alias for item in items]
            if calls:
                if len(calls) != 1 or calls[0].name != "row_number":
                    topk_hint = None  # the pushdown ranks one row_number()
                ranked = [
                    (
                        call,
                        [self._values(expr, env) for expr in call.partition_by],
                        [self._values(expr, env) for expr, _d in call.order_by],
                    )
                    for call in calls
                ]
                node = Window(profile, node, ranked, topk_hint)
            for position, item in enumerate(items):
                call = item.expr
                if isinstance(call, FuncCall) and call.name in _SET_RETURNING:
                    # Project emits the array, Unnest above it expands it.
                    unnests[position] = call.name == "unnest_ranges"
                    if call.args:
                        items[position] = ast.SelectItem(call.args[0], item.alias)
                    else:
                        # Zero-arg unnest(): a per-row error, raised only
                        # when rows exist.
                        def no_argument(block, name=call.name):
                            if block.length:
                                raise ExecutionError(f"{name}() takes an array")
                            return []

                        kernels[position] = no_argument
            positions = [_column_position(item.expr, env) for item in items]
            if not positions or None in positions:
                positions = None
        out_env = EvalEnv(names)
        keys = [
            self._sort_key(item.expr, out_env) + (item.descending,)
            for item in select.order_by
        ]
        first = None if unnests else self._source_positions(keys, positions, env)
        if first:
            # Sort (or top-k) below the projection: only survivors project.
            order = [
                (self._values(PosRef(position), env), None, descending)
                for position, (_o, _s, descending) in zip(first, keys)
            ]
            node = Sort(profile, node, order, bound)
            keys = []
        keep_source = any(on_source is not None for _o, on_source, _d in keys)
        if grouped:
            grouper = self._grouper(select, relation)
            node = Aggregate(profile, node, grouper, keep_source)
        else:
            project = [
                kernels.get(position) or self._values(item.expr, env)
                for position, item in enumerate(items)
            ]
            node = Project(profile, node, project, positions, keep_source)
            if unnests:
                node = Unnest(profile, node, unnests)
        if keys:
            order = [
                (self._values(on_output, out_env), self._values(on_source, env), d)
                for on_output, on_source, d in keys
            ]
            node = Sort(profile, node, order, bound)
        if select.distinct:
            node = Distinct(profile, node)
        if select.limit is not None or select.offset is not None:
            node = Limit(profile, node, select.limit, select.offset, bound)
        return names, types, node

    @staticmethod
    def _sort_key(
        expr: Expression, out_env: EvalEnv
    ) -> tuple[Expression | None, Expression | None]:
        """One ORDER BY key as ``(over the output row, over the source row)``.

        The reference evaluates a key against the output row and, if that
        raises ExecutionError, against the source row.  Two cases need only
        one side: a key naming no output column can only get past the
        output row without reading a column, so the source row gives the
        same answer; a bare output column never raises.
        """
        if not any(_position(out_env, name) is not None for name in expr.columns()):
            return None, expr
        if isinstance(expr, ColumnRef):
            return PosRef(out_env.resolve(expr.name)), None
        return expr, expr

    @staticmethod
    def _source_positions(
        keys: list, positions: list[int] | None, env: EvalEnv
    ) -> list[int] | None:
        """The sort keys as source column positions, or ``None``.

        ``positions`` says the select list is all bare columns, so it
        cannot raise and nothing is lost by projecting only the rows that
        survive the sort; that holds when every key is a bare column too.
        """
        if positions is None:
            return None
        found = []
        for on_output, on_source, _descending in keys:
            if on_output is None:
                position = _column_position(on_source, env)
            elif on_source is None:
                position = positions[on_output.position]
            else:
                position = None
            if position is None:
                return None
            found.append(position)
        return found

    def _grouper(
        self, select: ast.Select, relation: Relation
    ) -> Callable[[ColumnBlock], Pairs]:
        """The Aggregate operator's ``block -> pairs`` function.

        Group keys and aggregate inputs are extracted once as column
        vectors over the filtered block; per-group work is then pure
        gathering.  Any runtime error during the vectorized pass replays
        the block through the row-at-a-time :meth:`_grouped`, which decides
        which error surfaces first (HAVING may legally skip a group whose
        aggregate input would raise) — as do the shapes :meth:`_grouped`
        rejects itself (``*``, an aggregate without arguments).
        """
        env = relation.env()
        # The calls _replace_aggregates will hand to ``compute``, less the
        # row counts (which read no argument vector).
        agg_calls: dict[int, FuncCall] = {}
        roots = [item.expr for item in select.items]
        if select.having is not None:
            roots.append(select.having)
        for root in roots:
            self._replace_aggregates(
                root, lambda call: agg_calls.setdefault(id(call), call)
            )
        agg_calls = {
            key: call for key, call in agg_calls.items() if not _counts_rows(call)
        }
        if any(isinstance(item.expr, Star) for item in select.items) or not all(
            call.args for call in agg_calls.values()
        ):
            return lambda block: self._grouped(select, relation, block.rows)
        key_kernels = [self._values(expr, env) for expr in select.group_by]
        agg_kernels = {
            key: self._values(call.args[0], env) for key, call in agg_calls.items()
        }

        def grouper(block: ColumnBlock) -> Pairs:
            try:
                return self._grouped_columnar(
                    select, relation, block, key_kernels, agg_kernels
                )
            except Exception:
                return self._grouped(select, relation, block.rows)

        return grouper

    def _grouped_columnar(
        self,
        select: ast.Select,
        relation: Relation,
        fblock: ColumnBlock,
        key_kernels: list,
        agg_kernels: dict[int, Any],
    ) -> Pairs:
        n = fblock.length
        groups: dict[tuple, list[int] | None] = {}
        if select.group_by:
            key_vectors = [kernel(fblock) for kernel in key_kernels]
            for i, key in enumerate(zip(*key_vectors)):
                groups.setdefault(key, []).append(i)
        elif n:
            groups[()] = None  # sentinel: every row, in order
        else:
            groups[()] = []  # global aggregate over an empty input
        agg_vectors = {key: kernel(fblock) for key, kernel in agg_kernels.items()}
        width = len(relation.names)

        def each_group():
            for indices in groups.values():
                if indices is None:
                    representative = fblock.rows[0]
                elif indices:
                    representative = fblock.rows[indices[0]]
                else:
                    representative = tuple([None] * width)
                yield representative, lambda call, indices=indices: (
                    self._vector_aggregate(call, indices, agg_vectors, n)
                )

        return self._group_pairs(select, relation, each_group())

    def _vector_aggregate(
        self,
        call: FuncCall,
        indices: list[int] | None,
        agg_vectors: dict[int, list],
        length: int,
    ) -> Any:
        """One aggregate over a group, fed from a pre-extracted vector.

        ``indices=None`` is the global-aggregate group (every row, in
        order): the vector is consumed directly instead of through an
        index gather.  Mirrors :meth:`_compute_aggregate` value-for-value:
        the NULL filter and the value order are identical, so results
        (including float rounding) match bit-for-bit.
        """
        if _counts_rows(call):
            return length if indices is None else len(indices)
        vector = agg_vectors[id(call)]
        if indices is None:
            values = [value for value in vector if value is not None]
        else:
            values = [
                value
                for value in map(vector.__getitem__, indices)
                if value is not None
            ]
        return self._combine(call, values)

    # ------------------------------------------------------------ select list

    def _select_list(
        self, select: ast.Select, relation: Relation
    ) -> tuple[list[WindowFunc], list[ast.SelectItem], list[DataType | None]]:
        """The select list made explicit: ``(window calls, items, types)``.

        ``*`` expands into positional references, so it never picks up a
        column a later stage appends; each window call becomes a positional
        reference to the column the window step appends for it; output
        names are pinned as aliases.  The row-at-a-time reference shares
        this step.
        """
        width = len(relation.names)
        calls = [call for item in select.items for call in window_calls(item.expr)]
        resolved = {id(call): PosRef(width + k) for k, call in enumerate(calls)}
        items: list[ast.SelectItem] = []
        types: list[DataType | None] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                for offset, base in enumerate(relation.base_names()):
                    items.append(ast.SelectItem(PosRef(offset), base))
                types.extend(relation.types)
                continue
            expr = replace_windows(item.expr, resolved) if calls else item.expr
            alias = item.alias or _base_name(item.expr, None, len(items))
            items.append(ast.SelectItem(expr, alias))
            types.append(None)
        return calls, items, types

    # -------------------------------------------------------------- grouping

    def _grouped(
        self, select: ast.Select, relation: Relation, rows: list[Row]
    ) -> Pairs:
        env = relation.env()
        groups: dict[tuple, list[Row]] = {}
        if select.group_by:
            for row in rows:
                key = tuple(expr.evaluate(row, env) for expr in select.group_by)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows  # global aggregate, also over an empty input
        if any(isinstance(item.expr, Star) for item in select.items):
            raise ExecutionError("SELECT * is invalid with GROUP BY")
        width = len(relation.names)

        def each_group():
            for group_rows in groups.values():
                yield (
                    group_rows[0] if group_rows else tuple([None] * width),
                    lambda call, group_rows=group_rows: (
                        self._compute_aggregate(call, group_rows, env)
                    ),
                )

        return self._group_pairs(select, relation, each_group())

    def _group_pairs(
        self, select: ast.Select, relation: Relation, groups: Iterable
    ) -> Pairs:
        """One output row per ``(representative row, compute)`` group that
        passes HAVING: aggregate calls become ``compute(call)``, everything
        around them is evaluated on the representative."""
        env = relation.env()
        pairs: Pairs = []
        for representative, compute in groups:
            if select.having is not None:
                having_value = self._replace_aggregates(
                    select.having, compute
                ).evaluate(representative, env)
                if having_value is not True:
                    continue
            out = tuple(
                self._replace_aggregates(item.expr, compute).evaluate(
                    representative, env
                )
                for item in select.items
            )
            pairs.append((representative, out))
        return pairs

    def _replace_aggregates(
        self, expr: Expression, compute: Callable[[FuncCall], Any]
    ) -> Expression:
        """Aggregates inside Between/InList/IsNull/Like are not supported:
        those nodes are left alone (and raise when evaluated)."""
        if isinstance(expr, FuncCall) and expr.is_aggregate:
            return Literal(compute(expr))
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._replace_aggregates(expr.left, compute),
                self._replace_aggregates(expr.right, compute),
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(
                expr.op, self._replace_aggregates(expr.operand, compute)
            )
        if isinstance(expr, FuncCall):
            return FuncCall(
                expr.name,
                tuple(
                    self._replace_aggregates(arg, compute) for arg in expr.args
                ),
                expr.distinct,
            )
        return expr

    def _compute_aggregate(
        self, call: FuncCall, group_rows: list[Row], env: EvalEnv
    ) -> Any:
        if _counts_rows(call):
            return len(group_rows)
        arg = call.args[0]
        values = [
            value
            for value in (arg.evaluate(row, env) for row in group_rows)
            if value is not None
        ]
        return self._combine(call, values)

    @staticmethod
    def _combine(call: FuncCall, values: list) -> Any:
        """Fold one group's non-NULL argument values, in row order."""
        name = call.name
        if call.distinct:
            values = list(dict.fromkeys(values))
        if name == "count":
            return len(values)
        if name == "array_agg":
            return array_value(values)
        if not values:
            return None
        if name in ("sum", "avg"):
            try:
                total = sum(values)
            except TypeError as exc:
                raise ExecutionError(f"{name}() needs numbers: {exc}") from exc
            return total if name == "sum" else total / len(values)
        if name in ("min", "max"):
            try:
                return min(values) if name == "min" else max(values)
            except TypeError as exc:
                raise ExecutionError(
                    f"{name}() needs comparable values: {exc}"
                ) from exc
        if name == "bool_and":
            return all(values)
        if name == "bool_or":
            return any(values)
        raise ExecutionError(f"unknown aggregate {name!r}")

    # ------------------------------------------------------------ subqueries

    def _resolve_subqueries(self, expr: Expression) -> Expression:
        if isinstance(expr, ScalarSubquery):
            relation = self.execute(expr.query)
            if not relation.rows:
                return Literal(None)
            if len(relation.rows) > 1 or len(relation.rows[0]) != 1:
                raise ExecutionError(
                    "scalar subquery must return one row with one column"
                )
            return Literal(relation.rows[0][0])
        if isinstance(expr, InSubquery):
            relation = self.execute(expr.query)
            if relation.names and len(relation.names) != 1:
                raise ExecutionError("IN subquery must return one column")
            values = frozenset(row[0] for row in relation.rows)
            return InSet(self._resolve_subqueries(expr.operand), values, expr.negated)
        if isinstance(expr, ArraySubquery):
            relation = self.execute(expr.query)
            if len(relation.names) != 1:
                raise ExecutionError("ARRAY(subquery) must return one column")
            return Literal(array_value(row[0] for row in relation.rows))
        return map_children(expr, self._resolve_subqueries)

    # ----------------------------------------------------------------- types

    @staticmethod
    def _infer_missing_types(relation: Relation) -> None:
        for position, dtype in enumerate(relation.types):
            if dtype is not None:
                continue
            for row in relation.rows:
                value = row[position]
                if value is not None:
                    relation.types[position] = infer_type(value)
                    break
