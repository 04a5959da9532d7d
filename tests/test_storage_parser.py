"""Unit tests for the SQL lexer and parser.

The lexer is checked against ``lexer_reference.py``, the hand-written
scanner it replaced: on any text both give the same tokens, or the same
error at the same position.  Every prefix of a small corpus either parses
or is a syntax error inside the prefix, which pins the parser's bounded
lookahead at the end of the token list.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.storage.expression import (
    ArrayLiteral,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    Literal,
    Star,
)
from repro.storage.parser import parse_sql, parse_statement
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser.lexer import TokenType, tokenize
from repro.storage.parser.parser import (
    MAX_DEPTH,
    ArraySubquery,
    InSubquery,
    ScalarSubquery,
)
from repro.storage.types import DataType

import lexer_reference
from select_reference import database
from test_storage_sql_fuzz import VOCABULARY

#: The SQL fuzz alphabet, plus the pieces each token class turns on:
#: non-decimal digits (``²``, ``①``), a decimal digit ``int()`` accepts
#: (``٣``), doubled quotes, comments, both parameter styles and the two
#: edges of a number.
LEXER_ALPHABET = [
    *VOCABULARY,
    *(" ", "\n", "'", '"', "''", "--", "%s", "?", ".5", "1.", "²", "①", "٣", "_x"),
]


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM bar")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.KEYWORD,
            TokenType.IDENT,
            TokenType.KEYWORD,
            TokenType.IDENT,
        ]

    def test_array_operators_max_munch(self):
        tokens = tokenize("a <@ b @> c && d || e")
        ops = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert ops == ["<@", "@>", "&&", "||"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\n + 2")
        values = [t.value for t in tokens[:-1]]
        assert "comment" not in values

    def test_params(self):
        tokens = tokenize("a = %s AND b = ?")
        params = [t for t in tokens if t.type is TokenType.PARAM]
        assert len(params) == 2

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_numbers(self):
        tokens = tokenize("1 2.5 .75")
        values = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert values == ["1", "2.5", ".75"]


class TestParseSelect:
    def test_simple_select(self):
        stmt = parse_statement("SELECT a, b FROM t WHERE a > 1")
        assert isinstance(stmt, ast.Select)
        assert [item.alias for item in stmt.items] == [None, None]
        assert isinstance(stmt.where, BinaryOp)
        assert stmt.from_items[0].table == "t"

    def test_select_into(self):
        stmt = parse_statement("SELECT * INTO t2 FROM t")
        assert stmt.into_table == "t2"
        assert isinstance(stmt.items[0].expr, Star)

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u, v w")
        assert [item.alias for item in stmt.items] == ["x", "y"]
        assert stmt.from_items[0].binding == "u"
        assert stmt.from_items[1].binding == "w"

    def test_subquery_in_from(self):
        stmt = parse_statement(
            "SELECT * FROM (SELECT unnest(rlist) AS r FROM vt) AS tmp"
        )
        assert isinstance(stmt.from_items[0], ast.SubqueryRef)
        assert stmt.from_items[0].alias == "tmp"

    def test_group_by_having_order_limit(self):
        stmt = parse_statement(
            "SELECT vid, count(*) AS n FROM t GROUP BY vid "
            "HAVING count(*) > 2 ORDER BY n DESC, vid LIMIT 5 OFFSET 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False
        assert (stmt.limit, stmt.offset) == (5, 2)

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_explicit_join(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.y = c.z"
        )
        assert [j.kind for j in stmt.joins] == ["inner", "left"]

    def test_union_all(self):
        stmt = parse_statement("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert stmt.union_all_with is not None

    def test_array_containment_where(self):
        stmt = parse_statement("SELECT * FROM t WHERE ARRAY[3] <@ vlist")
        assert stmt.where.op == "<@"
        assert isinstance(stmt.where.left, ArrayLiteral)

    def test_params_substituted(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = %s AND b = ?", (10, "x"))
        conj = stmt.where
        assert conj.left.right == Literal(10)
        assert conj.right.right == Literal("x")

    def test_unused_params_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1", (5,))

    def test_missing_params_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT %s")


class TestParseExpressions:
    def _where(self, text, params=()):
        return parse_statement(f"SELECT * FROM t WHERE {text}", params).where

    def test_precedence_and_or(self):
        expr = self._where("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_arithmetic_precedence(self):
        expr = self._where("a = 1 + 2 * 3")
        assert expr.right.op == "+"
        assert expr.right.right.op == "*"

    def test_in_list_and_not_in(self):
        expr = self._where("a IN (1, 2, 3)")
        assert isinstance(expr, InList) and not expr.negated
        expr = self._where("a NOT IN (1)")
        assert isinstance(expr, InList) and expr.negated

    def test_in_subquery(self):
        expr = self._where("a IN (SELECT x FROM u)")
        assert isinstance(expr, InSubquery)

    def test_between_like_isnull(self):
        assert self._where("a BETWEEN 1 AND 5").low == Literal(1)
        assert self._where("a LIKE 'x%'").pattern == Literal("x%")
        assert self._where("a IS NOT NULL").negated

    def test_scalar_subquery(self):
        expr = self._where("a > (SELECT max(x) FROM u)")
        assert isinstance(expr.right, ScalarSubquery)

    def test_array_subquery_both_spellings(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, ARRAY[SELECT r FROM u])")
        assert isinstance(stmt.rows[0][1], ArraySubquery)
        stmt = parse_statement("INSERT INTO t VALUES (1, ARRAY(SELECT r FROM u))")
        assert isinstance(stmt.rows[0][1], ArraySubquery)

    def test_function_calls(self):
        expr = self._where("cardinality(rlist) >= 3")
        assert isinstance(expr.left, FuncCall)
        assert expr.left.name == "cardinality"

    def test_qualified_column(self):
        expr = self._where("t.a = u.b")
        assert expr.left == ColumnRef("t.a")


class TestParseDML:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT * FROM u")
        assert stmt.query is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET vlist = vlist || 5 WHERE rid = 1")
        assert stmt.assignments[0][0] == "vlist"
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t")
        assert stmt.where is None


class TestParseDDL:
    def test_create_table_with_composite_pk(self):
        stmt = parse_statement(
            "CREATE TABLE p (a text, b text, n int NOT NULL, "
            "PRIMARY KEY (a, b))"
        )
        assert stmt.primary_key == ("a", "b")
        assert stmt.columns[2].not_null

    def test_create_table_inline_pk_and_array(self):
        stmt = parse_statement("CREATE TABLE vt (vid int PRIMARY KEY, rlist int[])")
        assert stmt.primary_key == ("vid",)
        assert stmt.columns[1].dtype is DataType.INT_ARRAY

    def test_create_table_if_not_exists(self):
        assert parse_statement("CREATE TABLE IF NOT EXISTS t (a int)").if_not_exists

    def test_create_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX i ON t USING btree (a, b)")
        assert stmt.unique and stmt.ordered and stmt.columns == ("a", "b")

    def test_drop_table_if_exists(self):
        assert parse_statement("DROP TABLE IF EXISTS t").if_exists

    def test_alter_add_column(self):
        stmt = parse_statement("ALTER TABLE t ADD COLUMN c decimal DEFAULT 0")
        assert stmt.column.dtype is DataType.DECIMAL
        assert stmt.default == Literal(0)

    def test_cluster(self):
        stmt = parse_statement("CLUSTER t USING rid")
        assert (stmt.table, stmt.column) == ("t", "rid")

    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("EXPLODE TABLE t")

    def test_multiple_statements_rejected_by_parse_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1; SELECT 2")


def lexed(tokenize_, sql):
    """Each token's type, value and position, or the error text and position."""
    try:
        return [(t.type, t.value, t.position) for t in tokenize_(sql)]
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)


class TestLexerOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(LEXER_ALPHABET), max_size=16).map("".join))
    @example("SELECT ²a")
    @example("'ab''")
    @example('"x')
    def test_tokens_equal_the_reference_scanner(self, sql):
        assert lexed(tokenize, sql) == lexed(lexer_reference.tokenize, sql)


PREFIX_CORPUS = [
    "INSERT INTO t (k, v) VALUES ('a', 1), ('b''c', -2.5), (NULL, TRUE)",
    "SELECT * FROM VERSION 1, 2 OF CVD x WHERE v > 1",
    "SELECT k FROM VERSIONS ANCESTOR OF 3 OF CVD x",
    "SELECT count(*) FROM ALL VERSIONS OF CVD x",
    "SELECT k, rank() OVER (PARTITION BY k ORDER BY v DESC) AS r FROM t",
    "SELECT k FROM t WHERE v NOT IN (1, 2) AND v NOT BETWEEN 3 AND 4"
    " AND k NOT LIKE 'a%'",
]


class TestPrefixes:
    @pytest.mark.parametrize("sql", PREFIX_CORPUS)
    def test_every_prefix_parses_or_fails_inside_it(self, sql):
        parse_sql(sql)
        for end in range(len(sql)):
            prefix = sql[:end]
            try:
                parse_sql(prefix)
            except SQLSyntaxError as exc:
                assert exc.position is None or exc.position <= end, prefix


class TestNestingDepth:
    @pytest.mark.parametrize(
        "sql",
        ["SELECT " + "(" * 200 + "1" + ")" * 200, "SELECT " + "NOT " * 1200 + "TRUE"],
        ids=["parentheses", "nots"],
    )
    def test_too_deep_is_a_syntax_error(self, sql):
        with pytest.raises(SQLSyntaxError, match="nested too deeply") as info:
            parse_statement(sql)
        assert 0 <= info.value.position <= len(sql)
        assert parse_statement("SELECT (1)")  # the parser is usable again

    # Trees the parser builds in a loop, not by recursion: as deep as the
    # engine's recursive walks can take, and past that a syntax error
    # rather than a RecursionError from the executor.
    DEEP = {
        "sum_300": "SELECT " + " + ".join(["a"] * 300) + " FROM t",
        "sum_500": "SELECT " + " + ".join(["a"] * 500) + " FROM t",
        "where_sum_300": "SELECT a FROM t WHERE " + " + ".join(["a"] * 300) + " > 0",
        "nots_300": "SELECT " + "NOT " * 300 + "b FROM t",
        "nots_500": "SELECT a FROM t WHERE " + "NOT " * 500 + "b",
        "nots_800": "SELECT " + "NOT " * 800 + "b FROM t",
        "update_ands_300": "UPDATE t SET a = 2 WHERE " + " AND ".join(["b"] * 300),
    }
    DEEPEST = {  # MAX_DEPTH levels each
        "sum": "SELECT " + " + ".join(["a"] * MAX_DEPTH) + " FROM t",
        "nots": "SELECT a FROM t WHERE " + "NOT " * (MAX_DEPTH - 1) + "b",
        "ands": "UPDATE t SET a = 2 WHERE " + " AND ".join(["b"] * MAX_DEPTH),
    }

    @staticmethod
    def _database(mode):
        db = database(mode)
        db.execute("CREATE TABLE t (a int, b boolean)")
        db.execute("INSERT INTO t VALUES (1, true), (2, false)")
        return db

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    @pytest.mark.parametrize("sql", DEEP.values(), ids=DEEP.keys())
    def test_too_deep_for_the_engine_is_a_syntax_error(self, mode, sql):
        db = self._database(mode)
        with pytest.raises(SQLSyntaxError, match="expression nested too deeply"):
            db.execute(sql)
        assert db.query("SELECT a FROM t ORDER BY a") == [(1,), (2,)]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    @pytest.mark.parametrize("sql", DEEPEST.values(), ids=DEEPEST.keys())
    def test_the_deepest_accepted_tree_runs(self, mode, sql):
        db = self._database(mode)
        db.execute(sql)  # no RecursionError on either tier
