"""SELECT execution for the embedded engine.

FROM resolution, join order and index shortcuts live in
:mod:`repro.storage.planner`, which hands back one (possibly joined)
source; this module owns everything above it, in two tiers.

**The compiled block pipeline** (``exec_mode="compiled"``, the default) is
the one path a SELECT takes.  :meth:`SelectExecutor._build` chains small
operators — Scan → Filter → Window → Project → Unnest | Aggregate → Sort →
Distinct → Limit — that exchange :class:`ColumnBlock`s and are iterated
for the result.  Every expression is lowered once per statement to a block
kernel (:mod:`repro.storage.compile`); the kernels are total, so no
statement falls off the pipeline.  Pushdowns are choices ``_build`` makes
once: a bare ``LIMIT`` stops pulling scan blocks when enough rows exist,
``ORDER BY`` + ``LIMIT`` is a heap top-k (run before the projection when
its keys are source columns), a ``row_number() <= k`` derived table keeps
k rows per partition, an all-bare-columns select list is one
``itemgetter`` pass.  Each operator charges rows, batches and time to the
statement's :class:`QueryProfile`, which ``PROFILE SELECT`` reports.

**The interpreted reference** (``exec_mode="interpreted"``) is the original
row-at-a-time pipeline over :meth:`Expression.evaluate`: the equivalence
suites and ``benchmarks/bench_sql.py`` compare the compiled pipeline with
it, and the Aggregate operator replays a failed vectorized pass through
its grouping so errors surface exactly as the reference raises them.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field, replace as _dc_replace
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.storage import arrays
from repro.storage.columns import (
    ColumnBlock,
    concat_columns,
    reduce_max,
    reduce_min,
)
from repro.storage.compile import (
    compile_column_predicate,
    compile_column_values,
    compile_value,
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
    map_children,
    replace_windows,
    window_calls,
)
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


def value_evaluator(db: "Database", expr: Expression, env: EvalEnv) -> RowFunc:
    """A ``row -> value`` function for ``expr``: compiled when the engine
    mode allows and the tree is compilable, otherwise the interpreter.

    This is the row-at-a-time form DML and join conditions run on; the
    compile/fallback decision is charged to the stats (``exprs_compiled``
    / ``exprs_interpreted``).
    """
    if db.exec_mode == "compiled":
        func = compile_value(expr, env)
        if func is not None:
            db.stats.exprs_compiled += 1
            return func
        db.stats.exprs_interpreted += 1
    return lambda row: expr.evaluate(row, env)


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


@dataclass
class OpProfile:
    """One pipeline operator's tally for one statement."""

    op: str
    rows: int = 0
    batches: int = 0
    seconds: float = 0.0

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
        return {"operators": [asdict(entry) for entry in self._ops.values()]}


@dataclass
class Relation:
    """A materialized intermediate result: column names, rows, known types."""

    names: list[str]
    rows: list[Row]
    types: list[DataType | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.types:
            self.types = [None] * len(self.names)

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

    Both tiers feed this same core — they differ only in how the key
    vectors are extracted — so window values are identical by construction.
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


@dataclass
class Operator:
    """One stage of the compiled pipeline; iterate it for its output blocks.

    Subclasses implement ``run()``, a generator over ``child`` (any
    iterable of blocks).  Iteration charges each block produced — its rows,
    and the time spent producing it net of the stages below — to the
    statement's tally for this stage.
    """

    profile: QueryProfile
    child: Iterable[ColumnBlock] | None
    name = ""

    def __post_init__(self) -> None:
        self.tally = self.profile.op(self.name)

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


@dataclass
class Scan(Operator):
    """A lazy base-table scan: one stats charge per block pulled, so a
    consumer that stops early never pays for the blocks it did not read."""

    name = "scan"
    table: Any

    def run(self):
        return self.table.scan_column_blocks()


@dataclass
class Filter(Operator):
    """WHERE: keeps the rows whose predicate is exactly ``True``."""

    name = "filter"
    predicate: Callable
    width: int

    def run(self):
        for block in self.child:
            kept = self.predicate(block)
            if len(kept) != block.length:
                # A row-backed block gets its kept rows back, a
                # column-backed one a selection vector.
                if block.rows is not None:
                    block = ColumnBlock.from_rows(kept, self.width)
                else:
                    block = block.take(kept)
            yield block


def _widen(block: ColumnBlock, vectors: list[list]) -> ColumnBlock:
    """``block`` with computed columns appended to each row tuple — it
    stays row-backed, so the stages above keep their row-layout paths."""
    wide = [row + extra for row, extra in zip(block.to_rows(), zip(*vectors))]
    return ColumnBlock.from_rows(wide, block.width + len(vectors))


@dataclass
class Window(Operator):
    """Ranks whole partitions and appends one column per window call.

    ``limit_k`` is the grouped top-k pushdown: only each partition's first
    k rows survive (see :func:`_rank_window`).
    """

    name = "window"
    calls: list  # (WindowFunc, partition kernels, order kernels)
    limit_k: int | None
    width: int

    def run(self):
        block = concat_columns(self.child, self.width)
        vectors: list[list] = []
        keep = None
        for call, part, order in self.calls:
            values, keep = _rank_window(
                call.name,
                block.length,
                [kernel(block, None) for kernel in part],
                [kernel(block, None) for kernel in order],
                [descending for _e, descending in call.order_by],
                self.limit_k,
            )
            vectors.append(values)
        if keep is not None:
            block = block.take(keep)
            vectors = [[vector[i] for i in keep] for vector in vectors]
        yield _widen(block, vectors)


@dataclass
class Unnest(Operator):
    """Expands the set-returning select items of a projected block in place:
    each row repeats once per array element; several arrays zip in
    parallel, the shorter ones padded with NULL."""

    name = "unnest"
    ranges: dict[int, bool]  # output position -> range-encoded array?

    def run(self):
        from repro.core.compression import decode_ranges

        for block in self.child:
            columns = block.columns
            expanded: dict[int, list] = {p: [] for p in self.ranges}
            repeats: list[int] = []  # source row index of each output row
            for i, found in enumerate(zip(*[columns[p] for p in self.ranges])):
                decoded = [
                    () if array is None else decode_ranges(array) if ranges else array
                    for ranges, array in zip(self.ranges.values(), found)
                ]
                height = max(map(len, decoded))
                repeats.extend([i] * height)
                for values, array in zip(expanded.values(), decoded):
                    values.extend(array)
                    values.extend([None] * (height - len(array)))
            columns = [
                expanded[p] if p in expanded else [column[i] for i in repeats]
                for p, column in enumerate(columns)
            ]
            out = ColumnBlock(columns, len(repeats))
            if block.source is not None:
                out.source = block.source.take(repeats)
            yield out


@dataclass
class Project(Operator):
    """The select list, one value kernel per item.  ``positions`` (every
    item a bare column) is the one-pass ``itemgetter`` form for row-backed
    blocks; ``keep_source`` remembers the input block for a Sort above."""

    name = "project"
    kernels: list
    positions: list[int] | None
    keep_source: bool

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
            if project is not None and block.rows is not None:
                out = ColumnBlock.from_rows(project(block.rows), len(positions))
            else:
                try:
                    columns = [kernel(block, None) for kernel in self.kernels]
                except Exception:
                    # Two items can fail on different rows.  The reference
                    # goes row by row, so replay that way for its error.
                    for i in range(block.length):
                        for kernel in self.kernels:
                            kernel(block, (i,))
                    raise
                out = ColumnBlock(columns, block.length)
            if self.keep_source:
                out.source = block
            yield out


@dataclass
class Aggregate(Operator):
    """GROUP BY / aggregates: ``grouper`` maps the whole filtered input to
    ``(representative source row, output row)`` pairs, one per group."""

    name = "group"
    grouper: Callable[[ColumnBlock], Pairs]
    width: int
    out_width: int
    keep_source: bool

    def run(self):
        pairs = self.grouper(concat_columns(self.child, self.width))
        out = ColumnBlock.from_rows([pair[1] for pair in pairs], self.out_width)
        if self.keep_source:
            out.source = ColumnBlock.from_rows([pair[0] for pair in pairs], self.width)
        yield out


@dataclass
class Sort(Operator):
    """ORDER BY over key vectors; ``top`` makes it a heap top-k.

    A key is ``(on_block, on_source, descending)``: kernels over the block
    itself and over ``block.source``.  With both, the reference's per-row
    rule applies — the output row decides unless evaluating it raises
    ExecutionError, then the source row does.
    """

    name = "order"
    keys: list
    top: int | None
    width: int

    def run(self):
        block = concat_columns(self.child, self.width)
        # Last key first, like the reference's sort passes: with several
        # failing keys, the same one raises.
        specs = [(self._vector(key, block), key[2]) for key in reversed(self.keys)]
        yield block.take(_order_vectors(specs[::-1], block.length, self.top))

    @staticmethod
    def _vector(key, block: ColumnBlock) -> list:
        on_block, on_source, _descending = key
        if on_block is None:
            return on_source(block.source, None)
        try:
            return on_block(block, None)
        except ExecutionError:
            if on_source is None:
                raise
        values = []
        for i in range(block.length):
            try:
                values.append(on_block(block, (i,))[0])
            except ExecutionError:
                values.append(on_source(block.source, (i,))[0])
        return values


@dataclass
class Distinct(Operator):
    name = "distinct"
    width: int

    def run(self):
        seen: set[Row] = set()
        for block in self.child:
            unique = []
            for row in block.to_rows():
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            yield ColumnBlock.from_rows(unique, self.width)


@dataclass
class Limit(Operator):
    """OFFSET/LIMIT as Python slices (so negative bounds, reachable via
    parameters, mean what they mean in the reference).  ``stop_after`` is
    the bare-LIMIT pushdown: stop pulling once that many rows exist."""

    name = "limit"
    limit: int | None
    offset: int | None
    stop_after: int | None
    width: int

    def run(self):
        rows: list[Row] = []
        for block in self.child:
            rows.extend(block.to_rows())
            if self.stop_after is not None and len(rows) >= self.stop_after:
                break
        if self.offset is not None:
            rows = rows[self.offset :]
        if self.limit is not None:
            rows = rows[: self.limit]
        yield ColumnBlock.from_rows(rows, self.width)


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
        select = _dc_replace(
            select,
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
        if self._db.exec_mode == "compiled":
            names, types, pipeline = self._build(
                select, source, residual_where, grouped, topk_hint
            )
            rows = concat_columns(pipeline, len(names)).to_rows()
            output = Relation(names, rows, types)
            self._infer_missing_types(output)
        else:
            output = self._interpret(select, source, residual_where, grouped)
        if select.into_table is not None:
            self._db.create_table_from_relation(select.into_table, output)
        return output

    # ------------------------------------------------- the compiled pipeline

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
        width = len(relation.names)
        node: Iterable[ColumnBlock]
        if source.lazy:
            node = Scan(profile, None, source.table)
        else:
            # Already materialized (probe, join, derived table): its rows
            # were charged when they were produced.
            node = [ColumnBlock.from_rows(relation.rows, width)]
        if where is not None:
            predicate = self._kernel(compile_column_predicate, where, env)
            node = Filter(profile, node, predicate, width)
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
                node = Window(profile, node, ranked, topk_hint, width)
                width += len(calls)
            for position, item in enumerate(items):
                call = item.expr
                if isinstance(call, FuncCall) and call.name in _SET_RETURNING:
                    # Project emits the array, Unnest above it expands it.
                    unnests[position] = call.name == "unnest_ranges"
                    if call.args:
                        items[position] = ast.SelectItem(call.args[0], item.alias)
                    else:
                        # Zero-arg unnest(): the reference touches args[0]
                        # per evaluated row, so the IndexError must stay a
                        # rows-exist-only runtime error.
                        def no_argument(block, selection, args=call.args):
                            return [args[0] for _ in range(block.length)]

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
            node = Sort(profile, node, order, bound, width)
            keys = []
        keep_source = any(on_source is not None for _o, on_source, _d in keys)
        if grouped:
            grouper = self._grouper(select, relation)
            node = Aggregate(profile, node, grouper, width, len(names), keep_source)
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
            node = Sort(profile, node, order, bound, len(names))
        if select.distinct:
            node = Distinct(profile, node, len(names))
        if select.limit is not None or select.offset is not None:
            node = Limit(profile, node, select.limit, select.offset, bound, len(names))
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
        the block through the reference's :meth:`_grouped`, which decides
        which error surfaces first (HAVING may legally skip a group whose
        aggregate input would raise) — as do the shapes the reference
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
            return lambda block: self._grouped(select, relation, block.to_rows())
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
                return self._grouped(select, relation, block.to_rows())

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
            key_vectors = [kernel(fblock, None) for kernel in key_kernels]
            for i, key in enumerate(zip(*key_vectors)):
                groups.setdefault(key, []).append(i)
        elif n:
            groups[()] = None  # sentinel: every row, in order
        else:
            groups[()] = []  # global aggregate over an empty input
        agg_vectors = {key: kernel(fblock, None) for key, kernel in agg_kernels.items()}
        width = len(relation.names)

        def each_group():
            for indices in groups.values():
                if indices is None:
                    representative = fblock.row(0)
                elif indices:
                    representative = fblock.row(indices[0])
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
        return self._combine(call, values, reduce_min, reduce_max)

    # ------------------------------------------------------------ select list

    def _select_list(
        self, select: ast.Select, relation: Relation
    ) -> tuple[list[WindowFunc], list[ast.SelectItem], list[DataType | None]]:
        """The select list made explicit: ``(window calls, items, types)``.

        ``*`` expands into positional references, so it never picks up a
        column a later stage appends; each window call becomes a positional
        reference to the column the window step appends for it; output
        names are pinned as aliases.  Both tiers share this step.
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

    # --------------------------------------------- the interpreted reference

    def _interpret(
        self,
        select: ast.Select,
        source: "_Source",
        where: Expression | None,
        grouped: bool,
    ) -> Relation:
        """Row-at-a-time: materialize the scan up front, then filter,
        group or project, order, de-duplicate and slice, each over
        :meth:`Expression.evaluate`."""
        source.materialize()
        relation = source.relation
        env = relation.env()
        rows = relation.rows
        if where is not None:
            rows = [row for row in rows if where.evaluate(row, env) is True]
        if grouped:
            names = _item_names(select.items)
            types: list[DataType | None] = [None] * len(names)
            pairs = self._grouped(select, relation, rows)
        else:
            if any(window_calls(item.expr) for item in select.items):
                select, relation, rows = self._windowed(select, relation, rows)
                env = relation.env()
            names, types, pairs = self._projected(select, relation, rows)
        output = Relation(names, [pair[1] for pair in pairs], types)
        self._infer_missing_types(output)
        if select.order_by:
            pairs = self._order_multipass(select.order_by, pairs, env, output.env())
            output.rows = [pair[1] for pair in pairs]
        if select.distinct:
            output.rows = list(dict.fromkeys(output.rows))
        if select.offset is not None:
            output.rows = output.rows[select.offset :]
        if select.limit is not None:
            output.rows = output.rows[: select.limit]
        return output

    def _windowed(
        self, select: ast.Select, relation: Relation, rows: list[Row]
    ) -> tuple[ast.Select, Relation, list[Row]]:
        """Window step: rank the filtered rows, append each window's value
        vector as a synthetic column, and hand back the rewritten select
        with the widened relation and rows."""
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
        return _dc_replace(select, items=items), Relation(names, rows, types), rows

    def _projected(
        self, select: ast.Select, relation: Relation, rows: list[Row]
    ) -> tuple[list[str], list[DataType | None], Pairs]:
        env = relation.env()
        names: list[str] = []
        types: list[DataType | None] = []
        plan: list[RowFunc | None] = []  # None marks Star (extend with row)
        # Set-returning functions: position -> kind ('unnest' yields the
        # array's elements; 'unnest_ranges' decodes a range-encoded array).
        unnest_positions: dict[int, str] = {}
        for item in select.items:
            expr = item.expr
            if isinstance(expr, Star):
                names.extend(relation.base_names())
                types.extend(relation.types)
                plan.append(None)
                continue
            position = len(names)
            if isinstance(expr, FuncCall) and expr.name in _SET_RETURNING:
                unnest_positions[position] = expr.name
                # args[0] is touched per evaluated row, so a zero-arg
                # unnest() is a rows-exist-only IndexError.
                plan.append(lambda row, args=expr.args: args[0].evaluate(row, env))
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
            pairs = self._expand_unnest(pairs, unnest_positions)
        return names, types, pairs

    @staticmethod
    def _expand_unnest(
        pairs: list[tuple[Row, Row]], positions: dict[int, str]
    ) -> list[tuple[Row, Row]]:
        """Expand set-returning columns, zipping multiple in parallel."""
        from repro.core.compression import decode_ranges

        expanded: list[tuple[Row, Row]] = []
        for source_row, out_row in pairs:
            decoded: dict[int, tuple] = {}
            for p, kind in positions.items():
                array = out_row[p]
                if array is None:
                    decoded[p] = ()
                elif kind == "unnest_ranges":
                    decoded[p] = decode_ranges(array)
                else:
                    decoded[p] = array
            height = max((len(a) for a in decoded.values()), default=0)
            for i in range(height):
                values = list(out_row)
                for p, array in decoded.items():
                    values[p] = array[i] if i < len(array) else None
                expanded.append((source_row, tuple(values)))
        return expanded

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
        return self._combine(call, values, min, max)

    @staticmethod
    def _combine(call: FuncCall, values: list, lowest, highest) -> Any:
        """Fold one group's non-NULL argument values, in row order."""
        name = call.name
        if call.distinct:
            values = list(dict.fromkeys(values))
        if name == "count":
            return len(values)
        if name == "array_agg":
            return arrays.make_array(values)
        if not values:
            return None
        if name == "sum":
            return sum(values)
        if name == "avg":
            return sum(values) / len(values)
        if name == "min":
            return lowest(values)
        if name == "max":
            return highest(values)
        if name == "bool_and":
            return all(values)
        if name == "bool_or":
            return any(values)
        raise ExecutionError(f"unknown aggregate {name!r}")

    # ------------------------------------------------------------- ordering

    @staticmethod
    def _order_multipass(
        order_by: Sequence[ast.OrderItem],
        pairs: list[tuple[Row, Row]],
        source_env: EvalEnv,
        output_env: EvalEnv,
    ) -> list[tuple[Row, Row]]:
        """The interpreted reference: one stable sort pass per ORDER BY item."""

        def sort_value(item: ast.OrderItem, pair: tuple[Row, Row]):
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
            return Literal(arrays.make_array(row[0] for row in relation.rows))
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
