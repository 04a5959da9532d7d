"""Property suite: compiled expressions/pipelines ≡ the interpreter.

The compiled tier (:mod:`repro.storage.compile` plus the executor's block
pipeline) promises *zero behaviour change*: for every expression the
compiler accepts, the generated function must produce the interpreter's
exact value — including SQL three-valued logic — or raise the
interpreter's exact error; and whole SELECTs must return identical rows
under ``exec_mode="compiled"`` and ``exec_mode="interpreted"``.  These
properties are enforced here over hypothesis-generated expression trees,
rows with NULLs/mixed types, and generated queries covering filtering,
projection, joins, grouping, ORDER BY (top-k), DISTINCT, and LIMIT/OFFSET.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, ReproError
from repro.storage.columns import ColumnBlock
from repro.storage.compile import (
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
        """Every tree gets a kernel — vector, row function or interpreter —
        and over either block layout it yields the interpreter's values
        and keepers, or its first error."""
        values, values_tier = compile_column_values(expr, ENV)
        predicate, predicate_tier = compile_column_predicate(expr, ENV)
        assert {values_tier, predicate_tier} <= {"columnar", "compiled", "interpreted"}
        columns = [list(column) for column in zip(*rows)] or [[] for _ in COLUMNS]
        want_values = outcome(lambda: [expr.evaluate(r, ENV) for r in rows])
        want_kept = outcome(lambda: [r for r in rows if expr.evaluate(r, ENV) is True])
        for block in (
            ColumnBlock.from_rows(list(rows), len(COLUMNS)),
            ColumnBlock(columns, len(rows)),
        ):
            assert outcome(lambda: values(block, None)) == want_values

            def kept():
                payload = predicate(block)
                if block.rows is None:  # a selection vector
                    payload = [rows[i] for i in payload]
                return payload

            assert outcome(kept) == want_kept

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


# ---------------------------------------------------- whole-SELECT parity


def _build_db(mode: str) -> Database:
    db = Database(exec_mode=mode)
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


# ----------------------------------------------------- engine-mode basics


class TestExecModeKnob:
    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError):
            Database(exec_mode="jit")

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
        db = _build_db("compiled")
        db.reset_stats()
        # abs() is outside the vector subset -> its row function serves
        # that one kernel; the filter beside it stays a vector kernel.
        db.query("SELECT abs(a) FROM t WHERE b > 0")
        assert db.stats.exprs_compiled == 1
        assert db.stats.exprs_columnar == 1
        assert db.stats.exprs_interpreted == 0

    def test_uncompilable_kernel_charges_exprs_interpreted(self):
        db = _build_db("compiled")
        db.reset_stats()
        with pytest.raises(ExecutionError, match="unknown function"):
            db.query("SELECT nosuch(a) FROM t")
        assert db.stats.exprs_interpreted == 1

    def test_interpreted_mode_never_compiles(self):
        db = _build_db("interpreted")
        db.reset_stats()
        db.query("SELECT a FROM t WHERE b > 0")
        assert db.stats.exprs_compiled == 0
        assert db.stats.exprs_interpreted == 0
        assert db.stats.exprs_columnar == 0
        assert db.stats.blocks_scanned == 0


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
            db = Database(exec_mode=mode)
            db.execute("CREATE TABLE e (a int)")
            # No rows evaluated -> no error (the reference behaviour).
            assert db.query("SELECT unnest() FROM e") == []
            db.execute("INSERT INTO e VALUES (1)")
            with pytest.raises(IndexError):
                db.query("SELECT unnest() FROM e")
