"""Property suite: compiled expressions/pipelines ≡ the interpreter.

The compiled tier (:mod:`repro.storage.compile` plus the executor's block
pipeline) promises *zero behaviour change*: for every expression the
compiler accepts, the generated function must produce the interpreter's
exact value — including SQL three-valued logic — or raise the
interpreter's exact error; and whole SELECTs must return identical rows
on the engine and on the row-at-a-time reference
(``tests/select_reference.py``).  These
properties are enforced here over hypothesis-generated expression trees,
rows with NULLs/mixed types, and generated queries covering filtering,
projection, joins, grouping, ORDER BY (top-k), DISTINCT, and LIMIT/OFFSET.
Kernels of one shape share one code object: trees that differ only in
their constants must compile once, each keeping its own constants, and the
code cache must stay within its bound.
"""

from __future__ import annotations

import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from select_reference import database

from repro.errors import ExecutionError
from repro.storage import compile as compile_module
from repro.storage.columns import ColumnBlock
from repro.storage.compile import (
    CODE_CACHE_SIZE,
    compile_column_predicate,
    compile_column_values,
    compile_value,
)
from repro.storage.engine import Database
from repro.storage.expression import (
    ArrayLiteral,
    Between,
    BinaryOp,
    ColumnRef,
    EvalEnv,
    Expression,
    FuncCall,
    InList,
    InSet,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)

COLUMNS = ["a", "b", "c", "s", "arr"]
ENV = EvalEnv(COLUMNS)

# ------------------------------------------------------------- strategies

_ints = st.integers(min_value=-50, max_value=50)
_scalars = st.one_of(
    st.none(),
    _ints,
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="ab%_c", max_size=4),
    st.tuples(_ints, _ints),
)

_rows = st.tuples(_scalars, _scalars, _scalars, _scalars, _scalars)

_literals = st.builds(Literal, _scalars)
_columns = st.builds(ColumnRef, st.sampled_from(COLUMNS))
_leaves = st.one_of(_literals, _columns)

_binary_ops = st.sampled_from(
    ["+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=",
     "and", "or", "||", "<@", "@>", "&&"]
)
_func_names = st.sampled_from(
    ["abs", "lower", "upper", "length", "coalesce", "cardinality", "nosuch"]
)


def _nodes(children: st.SearchStrategy[Expression]) -> st.SearchStrategy:
    return st.one_of(
        st.builds(BinaryOp, _binary_ops, children, children),
        st.builds(UnaryOp, st.sampled_from(["not", "-"]), children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(
            InList,
            children,
            st.lists(children, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(
            InSet,
            children,
            st.frozensets(st.one_of(_ints, st.text(max_size=2)), max_size=4),
            st.booleans(),
        ),
        st.builds(Like, children, children, st.booleans()),
        st.builds(
            FuncCall, _func_names, st.lists(children, max_size=2).map(tuple)
        ),
        st.builds(ArrayLiteral, st.lists(children, max_size=3).map(tuple)),
    )


_expressions = st.recursive(_leaves, _nodes, max_leaves=12)


def outcome(fn):
    """(kind, payload) of calling ``fn``: its value or its exact error."""
    try:
        return ("value", fn())
    except ExecutionError as exc:
        return ("ExecutionError", str(exc))
    except Exception as exc:  # TypeError, ZeroDivisionError, ...
        return (type(exc).__name__, None)


def assert_block_kernels_match(expr, values, predicate, rows, env=ENV):
    """Over a block of ``rows``, the ``values``/``predicate`` kernels yield
    the interpreter's values and keepers for ``expr``, or its first error."""
    want_values = outcome(lambda: [expr.evaluate(r, env) for r in rows])
    want_kept = outcome(lambda: [r for r in rows if expr.evaluate(r, env) is True])
    block = ColumnBlock(list(rows))
    assert outcome(lambda: values(block)) == want_values
    assert outcome(lambda: predicate(block)) == want_kept


# ------------------------------------------------- expression equivalence


class TestExpressionEquivalence:
    @given(expr=_expressions, row=_rows)
    @settings(max_examples=400)
    def test_compiled_matches_interpreted(self, expr, row):
        compiled = compile_value(expr, ENV)
        if compiled is None:  # outside the compiled subset: interpreter runs
            return
        interpreted = outcome(lambda: expr.evaluate(row, ENV))
        fused = outcome(lambda: compiled(row))
        assert fused == interpreted

    @given(expr=_expressions, rows=st.lists(_rows, max_size=5))
    @settings(max_examples=200)
    def test_filter_semantics_match(self, expr, rows):
        """`pred(row) is True` keeps exactly the interpreter's keepers."""
        compiled = compile_value(expr, ENV)
        if compiled is None:
            return
        interpreted = outcome(
            lambda: [r for r in rows if expr.evaluate(r, ENV) is True]
        )
        fused = outcome(lambda: [r for r in rows if compiled(r) is True])
        assert fused == interpreted

    @given(expr=_expressions, rows=st.lists(_rows, max_size=5))
    @settings(max_examples=300)
    def test_block_kernels_are_total_and_match(self, expr, rows):
        """Every tree gets a kernel — generated, row function or interpreter —
        and over a block it yields the interpreter's values
        and keepers, or its first error."""
        values, values_tier = compile_column_values(expr, ENV)
        predicate, predicate_tier = compile_column_predicate(expr, ENV)
        assert {values_tier, predicate_tier} <= {"columnar", "compiled", "interpreted"}
        assert_block_kernels_match(expr, values, predicate, rows)

    def test_unknown_column_is_not_compiled(self):
        # The interpreter raises per evaluated row; compiling would turn
        # that into a statement-time error, so the compiler must refuse.
        assert compile_value(ColumnRef("nope"), ENV) is None

    def test_aggregate_outside_group_by_is_not_compiled(self):
        assert compile_value(FuncCall("sum", (ColumnRef("a"),)), ENV) is None

    def test_division_by_zero_stays_a_runtime_error(self):
        expr = BinaryOp("/", ColumnRef("a"), Literal(0))
        compiled = compile_value(expr, ENV)
        with pytest.raises(ExecutionError, match="division by zero"):
            compiled((1, 0, 0, 0, 0))

    def test_constant_folding_keeps_raising_constants_lazy(self):
        expr = BinaryOp("/", Literal(1), Literal(0))
        compiled = compile_value(expr, ENV)  # must not raise at compile time
        with pytest.raises(ExecutionError, match="division by zero"):
            compiled(())


# ------------------------------------------- one shape, many literals
#
# A shape is a tree whose constants are typed holes.  ``None``/``TRUE``/
# ``FALSE`` are written into the kernel source, so a slot's kind is part of
# the shape; every other constant is bound by name, so two fillings of one
# shape generate the same source and share one code object.

_text = st.text(alphabet="ab%_c", max_size=4)
_SLOT_VALUES = {
    "null": st.none(),
    "true": st.just(True),
    "false": st.just(False),
    "value": st.one_of(_ints, _text),
    "float": st.floats(allow_nan=False, allow_infinity=False, width=32),
}
_slots = st.sampled_from(sorted(_SLOT_VALUES))
_shape_columns = st.sampled_from(COLUMNS)
_comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_arithmetic = st.sampled_from(["+", "-", "*", "/", "%"])
_in_items = st.lists(
    st.one_of(st.none(), _ints, st.booleans(), _text), max_size=3
).map(tuple)

_atom_shapes = st.one_of(
    st.tuples(st.just("cmp"), _shape_columns, _comparisons, _slots),
    st.tuples(
        st.just("arith"), _shape_columns, _arithmetic, _slots, _comparisons, _slots
    ),
    st.tuples(st.just("between"), _shape_columns, _slots, _slots, st.booleans()),
    st.tuples(st.just("in"), _shape_columns, st.booleans()),
    st.tuples(st.just("like"), _shape_columns, st.booleans()),
    st.tuples(st.just("isnull"), _shape_columns, st.booleans()),
)
_shapes = st.recursive(
    _atom_shapes,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), children, children),
        st.tuples(st.just("not"), children),
    ),
    max_leaves=5,
)


def fill(shape, draw) -> Expression:
    """One expression of ``shape``, its constants drawn with ``draw``."""
    kind = shape[0]
    if kind in ("and", "or"):
        return BinaryOp(kind, fill(shape[1], draw), fill(shape[2], draw))
    if kind == "not":
        return UnaryOp("not", fill(shape[1], draw))

    def const(slot):
        return Literal(draw(_SLOT_VALUES[slot]))

    column = ColumnRef(shape[1])
    if kind == "cmp":
        return BinaryOp(shape[2], column, const(shape[3]))
    if kind == "arith":
        term = BinaryOp(shape[2], column, const(shape[3]))
        return BinaryOp(shape[4], term, const(shape[5]))
    if kind == "between":
        return Between(column, const(shape[2]), const(shape[3]), shape[4])
    if kind == "in":
        items = tuple(map(Literal, draw(_in_items)))
        return InList(column, items, shape[2])
    if kind == "like":
        return Like(column, Literal(draw(_text)), shape[2])
    return IsNull(column, shape[2])


def kernels(expr: Expression) -> dict:
    """Every kernel the compiler makes of ``expr``, by entry point."""
    return {
        "value": compile_value(expr, ENV),
        "values": compile_column_values(expr, ENV),
        "predicate": compile_column_predicate(expr, ENV),
    }


def assert_kernels_match(expr, made, rows):
    for row in rows:
        want = outcome(lambda: expr.evaluate(row, ENV))
        assert outcome(lambda: made["value"](row)) == want
    values, _ = made["values"]
    predicate, _ = made["predicate"]
    assert_block_kernels_match(expr, values, predicate, rows)


TIERS = ("exprs_columnar", "exprs_compiled", "exprs_interpreted")


def census_of(db: Database, expr: Expression):
    """The rows of ``SELECT expr FROM t WHERE expr`` and the tier census it
    charged."""
    from repro.storage.parser import ast_nodes as ast

    before = {name: getattr(db.stats, name) for name in TIERS}
    select = ast.Select(
        items=[ast.SelectItem(expr, None)],
        from_items=[ast.TableRef("t")],
        where=expr,
    )
    rows = outcome(lambda: db.execute_statements([select]).rows)
    return rows, {name: getattr(db.stats, name) - before[name] for name in TIERS}


class TestOneShapeManyLiterals:
    @given(shape=_shapes, data=st.data(), rows=st.lists(_rows, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_a_shape_compiles_once_and_keeps_each_statements_constants(
        self, shape, data, rows
    ):
        first = fill(shape, data.draw)
        second = fill(shape, data.draw)
        code = compile_module._code
        sources: list[str] = []

        def spy(source):
            sources.append(source)
            return code(source)

        with mock.patch.object(compile_module, "_code", spy):
            made_first = kernels(first)
            first_sources, sources[:] = sources[:], []
            misses = code.cache_info().misses
            made_second = kernels(second)
        # The literals reach the namespace, never the source: the second
        # statement reuses every code object the first one compiled.
        assert sources == first_sources
        assert code.cache_info().misses == misses
        # Each statement answers with its own constants, the first one
        # still after the second exists (no namespace is shared).
        assert_kernels_match(second, made_second, rows)
        assert_kernels_match(first, made_first, rows)
        # The tier serving each kernel is a function of the shape.
        assert [made_first[k][1] for k in ("values", "predicate")] == [
            made_second[k][1] for k in ("values", "predicate")
        ]

    @given(shape=_shapes, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_census_is_still_charged_per_statement(self, shape, data):
        first = fill(shape, data.draw)
        second = fill(shape, data.draw)
        compiled, interpreted = _build_db("compiled"), _build_db("interpreted")
        rows, census = census_of(compiled, first)
        assert rows == census_of(interpreted, first)[0]
        assert sum(census.values()) >= 2  # the WHERE and the select item
        for expr in (second, first):
            rows, again = census_of(compiled, expr)
            assert rows == census_of(interpreted, expr)[0]
            assert again == census


class TestKernelCodeCache:
    def test_the_cache_is_bounded_and_an_evicted_shape_recompiles(self):
        code = compile_module._code
        assert code.cache_info().maxsize == CODE_CACHE_SIZE == 128
        width = CODE_CACHE_SIZE + 16
        env = EvalEnv([f"x{i}" for i in range(width)])
        rows = [
            tuple(range(width)),
            tuple(None if i % 3 == 0 else i // 2 - 1 for i in range(width)),
        ]

        def predicate(position):  # one shape per column position
            return BinaryOp(">", ColumnRef(f"x{position}"), Literal(position // 2))

        for position in range(width):
            _, tier = compile_column_predicate(predicate(position), env)
            assert tier == "columnar"
            assert code.cache_info().currsize <= CODE_CACHE_SIZE
        # Position 0's shape was evicted by the 143 after it: it compiles
        # again, and the fresh kernel still matches the interpreter.
        misses = code.cache_info().misses
        expr = predicate(0)
        kernel, _ = compile_column_predicate(expr, env)
        assert code.cache_info().misses == misses + 1
        values, _ = compile_column_values(expr, env)
        assert_block_kernels_match(expr, values, kernel, rows, env)


# ---------------------------------------------------- whole-SELECT parity


def _build_db(mode: str) -> Database:
    db = database(mode)
    db.execute(
        "CREATE TABLE t (a int, b int, c int, s text, arr int[])"
    )
    rows = [
        (1, 10, 1, "ab", (1, 2, 3)),
        (2, None, 1, "b%", (2,)),
        (3, 7, 2, None, ()),
        (4, 7, 2, "abc", (3, 4)),
        (None, 3, 3, "a_c", None),
        (6, -5, 3, "", (1, 5, 9)),
        (7, 0, None, "ab", (2, 4, 6)),
    ]
    for row in rows:
        db.execute("INSERT INTO t VALUES (%s, %s, %s, %s, %s)", row)
    db.execute("CREATE TABLE u (k int, v text)")
    for row in [(1, "x"), (2, "y"), (2, "z"), (4, None)]:
        db.execute("INSERT INTO u VALUES (%s, %s)", row)
    return db


QUERIES = [
    "SELECT * FROM t",
    "SELECT a, b + c FROM t WHERE a > 1 AND b <= 10",
    "SELECT a FROM t WHERE b IS NOT NULL ORDER BY b DESC, a LIMIT 3",
    "SELECT a FROM t WHERE a BETWEEN 2 AND 6 ORDER BY a DESC LIMIT 2 OFFSET 1",
    "SELECT c, count(*), sum(a), avg(b) FROM t GROUP BY c ORDER BY c",
    "SELECT c, count(*) FROM t GROUP BY c HAVING count(*) > 1",
    "SELECT DISTINCT c FROM t ORDER BY c",
    "SELECT a FROM t WHERE s LIKE 'ab%'",
    "SELECT a FROM t WHERE arr @> ARRAY[2]",
    "SELECT a FROM t WHERE arr && ARRAY[4, 9]",
    "SELECT a FROM t WHERE a IN (1, 3, 7)",
    "SELECT a FROM t WHERE a IN (SELECT k FROM u)",
    "SELECT t.a, u.v FROM t, u WHERE t.a = u.k ORDER BY t.a, u.v",
    "SELECT t.a, u.v FROM t LEFT JOIN u ON t.a = u.k ORDER BY t.a, u.v",
    "SELECT count(*) FROM t WHERE coalesce(b, 0) >= 0 OR NOT (c = 1)",
    "SELECT a FROM t WHERE a = (SELECT min(k) FROM u)",
    "SELECT unnest(arr) FROM t WHERE a = 1",
    "SELECT upper(s), length(s) FROM t WHERE s <> ''",
    "SELECT a FROM t LIMIT 2",
    "SELECT a, b FROM t WHERE b < 100 LIMIT 4",
    "SELECT *",  # one row of zero columns
]


class TestSelectParity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_fixed_queries_agree(self, sql):
        compiled = _build_db("compiled")
        interpreted = _build_db("interpreted")
        assert compiled.query(sql) == interpreted.query(sql)

    @given(
        where_expr=_expressions,
        order_col=st.sampled_from(["a", "b", "c"]),
        descending=st.booleans(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        offset=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        distinct=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_pipelines_agree(
        self, where_expr, order_col, descending, limit, offset, distinct
    ):
        """Block pipeline ≡ reference for whole generated SELECTs."""
        from repro.storage.parser import ast_nodes as ast

        def run(mode: str):
            db = _build_db(mode)
            select = ast.Select(
                items=[
                    ast.SelectItem(ColumnRef("a"), None),
                    ast.SelectItem(ColumnRef("c"), None),
                ],
                from_items=[ast.TableRef("t")],
                where=where_expr,
                order_by=[ast.OrderItem(ColumnRef(order_col), descending)],
                limit=limit,
                offset=offset,
                distinct=distinct,
            )
            return db.execute_statements([select]).rows

        assert outcome(lambda: run("compiled")) == outcome(
            lambda: run("interpreted")
        )

    @given(
        limit=st.integers(min_value=0, max_value=10),
        offset=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_limit_pushdown_equals_slice(self, limit, offset):
        compiled = _build_db("compiled")
        everything = compiled.query("SELECT a, b FROM t WHERE c <> 99")
        limited = compiled.query(
            f"SELECT a, b FROM t WHERE c <> 99 LIMIT {limit} OFFSET {offset}"
        )
        assert limited == everything[offset : offset + limit]

    def test_topk_matches_full_sort_with_ties(self):
        compiled = _build_db("compiled")
        interpreted = _build_db("interpreted")
        # b=7 twice: the heap top-k must keep the stable tie order the
        # reference's multi-pass sort produces.
        sql = "SELECT a, b FROM t ORDER BY b DESC LIMIT 4"
        assert compiled.query(sql) == interpreted.query(sql)

    def test_update_delete_parity(self):
        results = {}
        for mode in ("compiled", "interpreted"):
            db = _build_db(mode)
            db.execute("UPDATE t SET b = b + 1 WHERE a >= 3 AND c = 2")
            db.execute("DELETE FROM t WHERE b IS NULL OR a = 1")
            results[mode] = db.query("SELECT * FROM t ORDER BY c, a")
        assert results["compiled"] == results["interpreted"]


# ------------------------------------------------ compiled ≡ interpreted


WINDOW_QUERIES = [
    "SELECT a, row_number() OVER (PARTITION BY c ORDER BY b DESC, a) FROM t",
    "SELECT c, rank() OVER (ORDER BY b) AS r FROM t WHERE a IS NOT NULL "
    "ORDER BY c, r",
    "SELECT s, dense_rank() OVER (PARTITION BY c ORDER BY s DESC) FROM t "
    "ORDER BY c, s",
    "SELECT w.a, w.rn FROM (SELECT a, c, row_number() OVER "
    "(PARTITION BY c ORDER BY b DESC, a) AS rn FROM t) AS w "
    "WHERE w.rn <= 2 ORDER BY w.a",
]

#: Shapes outside the vector subset.  Before the block pipeline was total
#: they ran on a separate row-batch tier; now they are block operators
#: (unnest) or row-function kernels (islands, uncompilable trees).
OFF_VECTOR_QUERIES = [
    "SELECT unnest(arr) FROM t",
    "SELECT a, unnest(arr) FROM t WHERE a > 1",
    "SELECT unnest_ranges(arr) FROM t WHERE a = 4",
    "SELECT unnest_ranges(arr) FROM t",  # odd-length array: StorageError
    "SELECT a, unnest(arr), unnest(ARRAY[10, 20]) FROM t",
    "SELECT unnest() FROM t",  # IndexError, and only because rows exist
    "SELECT unnest() FROM t WHERE a > 100",
    "SELECT a, unnest(arr) AS e FROM t WHERE a > 1 ORDER BY e DESC, a LIMIT 3",
    "SELECT unnest(arr) AS e FROM t ORDER BY a DESC, e LIMIT 4 OFFSET 1",
    "SELECT DISTINCT unnest(arr) FROM t",
    "SELECT unnest(arr), row_number() OVER (ORDER BY a) FROM t",
    # Sibling items are evaluated once per source row, before expansion: a
    # row whose array is NULL or empty still raises.
    "SELECT unnest(arr), 1 / (a - 3) FROM t",  # a = 3 has the empty array
    "SELECT unnest(arr), 1 / 0 FROM t WHERE arr IS NULL",
    "SELECT unnest_ranges(arr), a / 0 FROM t",  # not the odd-length StorageError
    "SELECT count(*) FROM (SELECT unnest(arr) AS u, 1 / (a - 3) AS z FROM t) AS q",
    "SELECT unnest(arr) AS e, abs(b), nosuch(a) FROM t WHERE a > 100",
    "SELECT unnest(arr) AS e, abs(b) AS m FROM t ORDER BY m, c, e LIMIT 5",
    "SELECT a FROM t WHERE ARRAY[a, 2] <@ arr",
    "SELECT a FROM t WHERE arr @> ARRAY[a]",
    "SELECT a FROM t WHERE arr && ARRAY[b, c]",
    "SELECT a FROM t WHERE abs(b) > 4",
    "SELECT abs(b), a FROM t ORDER BY a",
    "SELECT s || 'x' FROM t WHERE length(s) > 1",
    "SELECT a FROM t WHERE 1 / 0 = 1",
    "SELECT 1 / 0 FROM t",
    "SELECT 1 / 0 FROM t WHERE a > 100",  # no rows, no error
    "SELECT nosuch(a) FROM t",
    # Two items failing on different rows: the first failing *row* decides.
    "SELECT 1 / b, nosuch(a) FROM t",
    "SELECT 1 / (a - 2), -s FROM t",
    "SELECT 1 / b, unnest(ARRAY[a, b]) FROM t",
    "SELECT a FROM t WHERE nope > 1",
    "SELECT c, sum() FROM t GROUP BY c",
    "SELECT * FROM t GROUP BY c",
    # ORDER BY keys that read the source row, the output row, or both.
    "SELECT a FROM t ORDER BY b + 1, a",
    "SELECT a AS x, b FROM t ORDER BY x + b, x",
    "SELECT b AS a, a AS x FROM t ORDER BY a + x, x",
    "SELECT c AS a FROM t ORDER BY coalesce(a, b)",
    "SELECT a, b FROM t WHERE a IS NOT NULL ORDER BY a / b",
    "SELECT a FROM t ORDER BY nope",
    "SELECT c, count(*) AS n FROM t GROUP BY c ORDER BY n DESC, c",
    "SELECT c, count(*) FROM t GROUP BY c ORDER BY a",
]


def _outcome_and_io(mode: str, sql: str):
    db = _build_db(mode)
    db.reset_stats()
    return outcome(lambda: db.query(sql)), db.stats.records_scanned


class TestPipelineParity:
    """compiled block pipeline ≡ interpreted reference, per statement: the
    value or the error type, and the records scanned to get there."""

    @pytest.mark.parametrize("sql", QUERIES + WINDOW_QUERIES + OFF_VECTOR_QUERIES)
    def test_both_tiers_agree(self, sql):
        assert _outcome_and_io("compiled", sql) == _outcome_and_io("interpreted", sql)

    def test_off_vector_shapes_really_are_off_vector(self):
        """The list above must keep exercising the non-columnar kernels."""
        db = _build_db("compiled")
        db.reset_stats()
        for sql in OFF_VECTOR_QUERIES:
            outcome(lambda: db.query(sql))
        assert db.stats.exprs_compiled > 0
        assert db.stats.exprs_interpreted > 0

    @given(
        func=st.sampled_from(["row_number", "rank", "dense_rank"]),
        partition=st.booleans(),
        order_cols=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "s"]), st.booleans()),
            max_size=2,
        ),
        bound=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_window_queries_agree(
        self, func, partition, order_cols, bound
    ):
        """Windows over NULLs, ties, and DESC keys agree across both
        tiers, with and without the grouped top-k outer filter."""
        over = []
        if partition:
            over.append("PARTITION BY c")
        if order_cols:
            over.append(
                "ORDER BY "
                + ", ".join(
                    f"{col} DESC" if descending else col
                    for col, descending in order_cols
                )
            )
        inner = f"SELECT a, b, {func}() OVER ({' '.join(over)}) AS rn FROM t"
        if bound is None:
            sql = inner
        else:
            sql = (
                f"SELECT w.a, w.rn FROM ({inner}) AS w "
                f"WHERE w.rn <= {bound} ORDER BY w.a, w.rn"
            )
        compiled = outcome(lambda: _build_db("compiled").query(sql))
        interpreted = outcome(lambda: _build_db("interpreted").query(sql))
        assert compiled == interpreted


# ------------------------------------------------- parity across blocks

#: Rows of the multi-block parity table: past two full 1024-row scan blocks.
BIG_ROWS = 2600


def _big_value(k: int) -> str:
    return "NULL" if k % 97 == 5 else str((k * 37) % 101 - 50)


def _big_array(k: int) -> str:
    if k % 89 == 3:
        return "NULL"
    return "ARRAY[" + ", ".join(str((k * m) % 23) for m in range(1, k % 4 + 1)) + "]"


@pytest.fixture(scope="module")
def big_dbs():
    values = ", ".join(
        f"({k}, {_big_value(k)}, {k % 4}, {_big_array(k)})" for k in range(BIG_ROWS)
    )
    dbs = {}
    for mode in ("compiled", "interpreted"):
        db = database(mode)
        db.execute("CREATE TABLE big (k int, v int, g int, arr int[])")
        db.execute(f"INSERT INTO big VALUES {values}")
        dbs[mode] = db
    return dbs


#: Computed projections under ORDER BY, unnest under ORDER BY, and DISTINCT
#: or LIMIT above a computed projection, each over several scan blocks: the
#: shapes whose blocks the Project and Unnest operators emit as rows.
MULTI_BLOCK_QUERIES = [
    "SELECT v * 2 AS w, k FROM big ORDER BY w, k",
    "SELECT v * 2 AS w FROM big WHERE g <> 1 ORDER BY w DESC, k",
    "SELECT v * 2 AS w FROM big ORDER BY w + k, k LIMIT 9 OFFSET 3",
    "SELECT k, v - g AS d FROM big ORDER BY d, k DESC LIMIT 40",
    "SELECT k, unnest(arr) AS e FROM big ORDER BY e DESC, k",
    "SELECT unnest(arr) AS e, v FROM big WHERE g = 2 ORDER BY e, v, k LIMIT 25",
    "SELECT unnest(arr) AS e FROM big ORDER BY k DESC, e LIMIT 30 OFFSET 7",
    "SELECT DISTINCT v % 7 AS m, g FROM big",
    "SELECT DISTINCT v * g AS p FROM big ORDER BY p LIMIT 12",
    "SELECT DISTINCT unnest(arr) AS e FROM big ORDER BY e",
    "SELECT v + k AS s FROM big LIMIT 5 OFFSET 1022",
    "SELECT k * 3 AS t FROM big WHERE v > 0 LIMIT 700",
    # Errors raised past the first block: the first failing row decides.
    "SELECT 10 / (k - 2000) AS q FROM big ORDER BY q",
    "SELECT k AS x FROM big ORDER BY 1 / (x - 1500)",
    "SELECT 1 / (k - 2100), 1 / (v + 50) FROM big",
]


class TestMultiBlockParity:
    @pytest.mark.parametrize("sql", MULTI_BLOCK_QUERIES)
    def test_engine_equals_the_reference(self, big_dbs, sql):
        # Answers only: a bare LIMIT or an error stops the engine's scan
        # early, while the reference reads the whole table first.
        compiled, interpreted = (
            outcome(lambda: big_dbs[mode].query(sql))
            for mode in ("compiled", "interpreted")
        )
        assert compiled == interpreted

    def test_the_table_spans_three_scan_blocks(self, big_dbs):
        db = big_dbs["compiled"]
        db.reset_stats()
        assert len(db.query("SELECT k FROM big")) == BIG_ROWS
        assert db.stats.blocks_scanned == 3


# ------------------------------------------------------------ tier census


class TestTierCensus:
    def test_compiled_mode_charges_compile_counters(self):
        db = _build_db("compiled")
        db.reset_stats()
        db.query("SELECT a FROM t WHERE b > 0")
        # A plain column/comparison statement is all vector kernels.
        assert db.stats.exprs_columnar > 0
        assert db.stats.exprs_compiled == 0
        assert db.stats.batches_scanned > 0
        assert db.stats.blocks_scanned > 0

    def test_census_is_per_kernel_not_per_statement(self):
        # Each select item is one kernel, charged to the tier serving it:
        # a nested abs() island needs the generated row function, a root
        # abs() is left to the interpreter, and a plain comparison is a
        # vector kernel.
        cases = {
            "abs(a) + 1": "exprs_compiled",
            "abs(a)": "exprs_interpreted",
            "b > 0": "exprs_columnar",
        }
        for item, tier in cases.items():
            db = _build_db("compiled")
            db.reset_stats()
            db.query(f"SELECT {item} FROM t")
            census = {
                name: getattr(db.stats, name)
                for name in ("exprs_compiled", "exprs_interpreted", "exprs_columnar")
            }
            assert census == {name: int(name == tier) for name in census}, item

    def test_uncompilable_kernel_charges_exprs_interpreted(self):
        db = _build_db("compiled")
        db.reset_stats()
        with pytest.raises(ExecutionError, match="unknown function"):
            db.query("SELECT nosuch(a) FROM t")
        assert db.stats.exprs_interpreted == 1

    def test_the_reference_never_compiles(self):
        db = _build_db("interpreted")
        db.reset_stats()
        db.query("SELECT a FROM t WHERE b > 0")
        assert db.stats.exprs_compiled == 0
        assert db.stats.exprs_interpreted == 0
        assert db.stats.exprs_columnar == 0
        assert db.stats.blocks_scanned == 0


class TestSourcesCPythonRefuses:
    """A generated source nested deeper than CPython's parser allows (``too
    many nested parentheses``) gets no generated function: its kernel takes
    the interpreted tier and answers what the interpreter answers."""

    SUM = " + ".join(["a"] * 100)
    DEEP = {
        "constants": "SELECT " + " + ".join(["1"] * 100) + " FROM t",
        "column": f"SELECT {SUM} FROM t",
        "conjuncts": "SELECT a FROM t WHERE " + " AND ".join(["a > 0"] * 150),
    }

    @pytest.mark.parametrize("sql", DEEP.values(), ids=DEEP.keys())
    def test_deep_select_equals_the_interpreter(self, sql):
        compiled = _outcome_and_io("compiled", sql)
        assert compiled[0][0] == "value"
        assert compiled == _outcome_and_io("interpreted", sql)

    def test_deep_update_equals_the_interpreter(self):
        tables = []
        for mode in ("compiled", "interpreted"):
            db = _build_db(mode)
            db.execute(f"UPDATE t SET b = {self.SUM} WHERE a IS NOT NULL")
            tables.append(db.query("SELECT * FROM t ORDER BY a"))
        assert tables[0] == tables[1]
        assert (1, 100, 1, "ab", (1, 2, 3)) in tables[0]

    def test_census_charges_the_interpreted_tier(self):
        db = _build_db("compiled")
        db.reset_stats()
        db.query(self.DEEP["column"])
        assert (db.stats.exprs_columnar, db.stats.exprs_interpreted) == (0, 1)

    def test_a_warning_raised_as_an_error_is_not_a_fallback(self):
        # Only nesting depth falls back: a literal beside ``is`` must still
        # fail a run with SyntaxWarnings as errors, not change the tier.
        source = "def _warned(x):\n    return x is 5\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            with pytest.raises(SyntaxError, match='"is" with a literal'):
                compile_module._function(source, {}, "_warned")


class TestReviewRegressions:
    """Edge cases from review: pushdowns must not fire on out-of-contract
    bounds, and plan building must not hoist per-row errors."""

    @pytest.mark.parametrize(
        "sql, params",
        [
            ("SELECT a FROM t LIMIT %s", (-1,)),
            ("SELECT a FROM t ORDER BY a LIMIT %s", (-1,)),
            ("SELECT a FROM t LIMIT %s OFFSET %s", (10, -5)),
            ("SELECT a FROM t ORDER BY a LIMIT %s OFFSET %s", (2, -3)),
        ],
    )
    def test_negative_limit_offset_keeps_slice_semantics(self, sql, params):
        compiled = _build_db("compiled")
        interpreted = _build_db("interpreted")
        assert compiled.query(sql, params) == interpreted.query(sql, params)

    def test_zero_arg_unnest_is_a_per_row_error(self):
        for mode in ("compiled", "interpreted"):
            db = database(mode)
            db.execute("CREATE TABLE e (a int)")
            # No rows evaluated -> no error (the reference behaviour).
            assert db.query("SELECT unnest() FROM e") == []
            db.execute("INSERT INTO e VALUES (1)")
            with pytest.raises(ExecutionError, match="unnest"):
                db.query("SELECT unnest() FROM e")
